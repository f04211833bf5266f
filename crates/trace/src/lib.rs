//! On-disk instruction traces: the `.pct` format, recording, and replay.
//!
//! The paper's methodology is trace-driven — ChampSim traces with a warm-up
//! region followed by a detailed-simulation region. This crate gives the
//! reproduction the same substrate: any [`TraceFactory`](
//! pagecross_cpu::trace::TraceFactory) can be **recorded** to a compact
//! binary `.pct` file, and a recorded file **replays** as a drop-in
//! `TraceFactory`, bit-for-bit identical to the original in-memory stream
//! (the engine consumes exactly the instructions that were recorded, so
//! every golden counter reproduces).
//!
//! # Wire format (`.pct`)
//!
//! A fixed header (magic, version, core count, instruction count, workload
//! seed and name, CRC-protected) followed by chunks of varint + delta
//! encoded [`Instr`](pagecross_cpu::trace::Instr) records, each chunk
//! closed by a CRC-32 of its payload, and an explicit end-of-stream marker
//! carrying the total record count — truncation and corruption are
//! detected, never silently replayed. See `DESIGN.md` §9 for the full byte
//! layout.
//!
//! # Reading modes
//!
//! * [`BlockingSource`] decodes chunks inline on the simulation thread;
//! * [`StreamingSource`] decodes on a background `std::thread` into a
//!   double-buffered channel so decode overlaps simulation (the default for
//!   [`TraceReplay`] on machines with two or more hardware threads).
//!
//! Both rewind to the first chunk when the file is exhausted, preserving
//! the infinite-stream `TraceSource` contract (like ChampSim's trace
//! repeat).
//!
//! # Example
//!
//! ```
//! use pagecross_trace::{record, TraceReplay};
//! use pagecross_cpu::trace::{Instr, Op, TraceFactory, TraceSource};
//!
//! struct Count;
//! struct CountSrc(u64);
//! impl TraceSource for CountSrc {
//!     fn next_instr(&mut self) -> Instr {
//!         self.0 += 4;
//!         Instr { pc: 0x40_0000 + self.0, op: Op::Alu }
//!     }
//! }
//! impl TraceFactory for Count {
//!     fn name(&self) -> &str { "count" }
//!     fn build(&self) -> Box<dyn TraceSource> { Box::new(CountSrc(0)) }
//! }
//!
//! let path = std::env::temp_dir().join(format!("pct-doc-{}.pct", std::process::id()));
//! let meta = record(&Count, 1_000, 7, &path).unwrap();
//! assert_eq!(meta.instr_count, 1_000);
//! let replay = TraceReplay::open(&path).unwrap();
//! let mut a = Count.build();
//! let mut b = replay.build();
//! for _ in 0..1_000 {
//!     assert_eq!(a.next_instr(), b.next_instr());
//! }
//! std::fs::remove_file(&path).ok();
//! ```

pub mod codec;
pub mod format;
pub mod reader;
pub mod replay;
pub mod writer;

pub use format::TraceMeta;
pub use reader::{read_all, verify_file, TraceReader};
pub use replay::{BlockingSource, StreamingSource, TraceReplay};
pub use writer::{record, TraceWriter};

/// Errors of the trace subsystem. Every variant carries enough context for
/// a descriptive user-facing message (`Display`).
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `.pct` magic.
    NotATrace,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The header failed validation (bad CRC, malformed name, …).
    HeaderCorrupt(String),
    /// The file ended before the end-of-stream marker.
    Truncated(String),
    /// A record chunk failed validation (CRC mismatch, malformed varint,
    /// unknown tag, …).
    ChunkCorrupt {
        /// Zero-based index of the offending chunk.
        chunk: u64,
        /// What went wrong.
        detail: String,
    },
    /// The end-of-stream marker's record count disagrees with the header
    /// or with the records actually decoded.
    CountMismatch {
        /// Count the header/end marker promised.
        expected: u64,
        /// Count observed.
        actual: u64,
    },
    /// The trace holds no instructions (replay would spin forever).
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::NotATrace => {
                write!(f, "not a .pct trace (bad magic; expected 'PCT1')")
            }
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .pct version {v} (this build reads version {})",
                    format::VERSION
                )
            }
            TraceError::HeaderCorrupt(d) => write!(f, "corrupt trace header: {d}"),
            TraceError::Truncated(d) => {
                write!(f, "truncated trace (no end-of-stream marker): {d}")
            }
            TraceError::ChunkCorrupt { chunk, detail } => {
                write!(f, "corrupt trace chunk {chunk}: {detail}")
            }
            TraceError::CountMismatch { expected, actual } => {
                write!(
                    f,
                    "trace record-count mismatch: expected {expected}, found {actual}"
                )
            }
            TraceError::Empty => write!(f, "trace contains no instructions"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
