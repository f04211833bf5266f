//! Replay: recorded traces as drop-in [`TraceFactory`] implementations.
//!
//! [`TraceReplay::build`] hands the engine a [`StreamingSource`] by
//! default: chunks are decoded on a background `std::thread` and passed
//! through a bounded two-slot channel, so the decode of chunk *n+1* (and
//! *n+2*) overlaps the simulation of chunk *n* — the double-buffering the
//! paper's ChampSim methodology gets from its gzip pipe. The
//! [`BlockingSource`] decodes inline; `build` picks it when asked to
//! ([`TraceReplay::blocking`]) and on a single-core machine, where a
//! decoder thread has nothing to overlap with.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver};

use pagecross_cpu::trace::{Instr, TraceFactory, TraceSource};

use crate::format::TraceMeta;
use crate::reader::TraceReader;
use crate::TraceError;

/// Batches buffered between the decoder thread and the consumer: one being
/// consumed, one ready, one in decode — classic double buffering with a
/// bounded channel.
const STREAM_DEPTH: usize = 2;

/// A recorded trace, openable as a workload.
///
/// Implements [`TraceFactory`], so a `.pct` file drops into
/// `SimulationBuilder::run` (single runs and mixes) and campaign grids
/// unchanged. `name()` reports the recorded workload's name — a replayed
/// report is indistinguishable from (and bit-identical to) the direct run
/// it was recorded from.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    path: PathBuf,
    meta: TraceMeta,
    streaming: bool,
}

impl TraceReplay {
    /// Opens and validates `path` (header magic, version, CRC; non-empty).
    /// The records themselves are decoded lazily at `build()` time.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let reader = TraceReader::open(&path)?;
        let meta = reader.meta().clone();
        if meta.instr_count == 0 {
            return Err(TraceError::Empty);
        }
        Ok(Self {
            path,
            meta,
            streaming: true,
        })
    }

    /// Switches `build()` to the inline (blocking) decoder.
    pub fn blocking(mut self) -> Self {
        self.streaming = false;
        self
    }

    /// Header metadata of the underlying file.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The file being replayed.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceFactory for TraceReplay {
    fn name(&self) -> &str {
        &self.meta.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        // `open` already validated the header; failures here are
        // environmental (file deleted/corrupted between open and build) and
        // the infallible TraceSource contract leaves panicking with a
        // descriptive message as the only honest option.
        // Overlap needs a second hardware thread. On a single-core machine
        // a decoder thread only adds context switches on top of the same
        // decode work (measured in the `micro_trace` benchmark).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let source: Result<Box<dyn TraceSource>, TraceError> = if self.streaming && cores >= 2 {
            StreamingSource::spawn(&self.path).map(|s| Box::new(s) as _)
        } else {
            BlockingSource::open(&self.path).map(|s| Box::new(s) as _)
        };
        source.unwrap_or_else(|e| panic!("replay of {}: {e}", self.path.display()))
    }
}

/// Inline decoder: each chunk is decoded on the simulation thread when the
/// previous one runs out. Rewinds at end-of-stream (infinite stream).
pub struct BlockingSource {
    reader: TraceReader,
    path: PathBuf,
    chunk: Vec<Instr>,
    pos: usize,
}

impl BlockingSource {
    /// Opens `path` for inline replay.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let reader = TraceReader::open(path)?;
        if reader.meta().instr_count == 0 {
            return Err(TraceError::Empty);
        }
        Ok(Self {
            reader,
            path: path.to_path_buf(),
            chunk: Vec::new(),
            pos: 0,
        })
    }

    fn refill(&mut self) {
        loop {
            match self.reader.next_chunk(&mut self.chunk) {
                Ok(true) => {
                    self.pos = 0;
                    return;
                }
                Ok(false) => {
                    // Clean end of the recording: repeat from the top.
                    if let Err(e) = self.reader.rewind() {
                        panic!("replay of {}: {e}", self.path.display());
                    }
                }
                Err(e) => panic!("replay of {}: {e}", self.path.display()),
            }
        }
    }
}

impl TraceSource for BlockingSource {
    fn next_instr(&mut self) -> Instr {
        if self.pos >= self.chunk.len() {
            self.refill();
        }
        let i = self.chunk[self.pos];
        self.pos += 1;
        i
    }
}

/// Streaming decoder: chunks are decoded ahead of the consumer on a named
/// background thread (`pct-decode`) and handed over through a bounded
/// two-slot channel, so decode overlaps simulation.
///
/// The decoder thread exits when the source is dropped (the channel
/// disconnects and `send` fails) or when it hits a decode error, which it
/// forwards so the consumer can report it.
pub struct StreamingSource {
    rx: Receiver<Result<Vec<Instr>, TraceError>>,
    path: PathBuf,
    chunk: Vec<Instr>,
    pos: usize,
}

impl StreamingSource {
    /// Opens `path` and spawns the decoder thread.
    pub fn spawn(path: &Path) -> Result<Self, TraceError> {
        let mut reader = TraceReader::open(path)?;
        if reader.meta().instr_count == 0 {
            return Err(TraceError::Empty);
        }
        let (tx, rx) = sync_channel::<Result<Vec<Instr>, TraceError>>(STREAM_DEPTH);
        std::thread::Builder::new()
            .name("pct-decode".to_string())
            .spawn(move || {
                loop {
                    let mut chunk = Vec::new();
                    let msg = match reader.next_chunk(&mut chunk) {
                        Ok(true) => Ok(chunk),
                        Ok(false) => match reader.rewind() {
                            Ok(()) => continue, // repeat from the first chunk
                            Err(e) => Err(e),
                        },
                        Err(e) => Err(e),
                    };
                    let fatal = msg.is_err();
                    // A send fails only when the consumer is gone — done
                    // either way.
                    if tx.send(msg).is_err() || fatal {
                        return;
                    }
                }
            })
            .map_err(TraceError::Io)?;
        Ok(Self {
            rx,
            path: path.to_path_buf(),
            chunk: Vec::new(),
            pos: 0,
        })
    }

    fn refill(&mut self) {
        match self.rx.recv() {
            Ok(Ok(chunk)) => {
                self.chunk = chunk;
                self.pos = 0;
            }
            Ok(Err(e)) => panic!("replay of {}: {e}", self.path.display()),
            Err(_) => panic!(
                "replay of {}: decoder thread exited unexpectedly",
                self.path.display()
            ),
        }
    }
}

impl TraceSource for StreamingSource {
    fn next_instr(&mut self) -> Instr {
        if self.pos >= self.chunk.len() {
            self.refill();
        }
        let i = self.chunk[self.pos];
        self.pos += 1;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_all, verify_file};
    use crate::writer::{record, TraceWriter};
    use pagecross_cpu::trace::{Op, TraceFactory};
    use pagecross_types::{Rng64, VirtAddr};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per test invocation.
    fn tmp(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pct-test-{}-{tag}-{n}.pct", std::process::id()))
    }

    /// A deterministic pseudo-random workload exercising every record kind.
    struct RandomWorkload {
        seed: u64,
    }

    struct RandomSrc(Rng64);

    impl TraceSource for RandomSrc {
        fn next_instr(&mut self) -> Instr {
            let rng = &mut self.0;
            let pc = 0x40_0000 + rng.below(1 << 20) * 4;
            let op = match rng.below(6) {
                0 | 1 => Op::Alu,
                2 => Op::Branch {
                    taken: rng.chance(0.7),
                },
                3 => Op::Load {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                    depends_on_prev: false,
                },
                4 => Op::Load {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                    depends_on_prev: true,
                },
                _ => Op::Store {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                },
            };
            Instr { pc, op }
        }
    }

    impl TraceFactory for RandomWorkload {
        fn name(&self) -> &str {
            "random"
        }

        fn build(&self) -> Box<dyn TraceSource> {
            Box::new(RandomSrc(Rng64::new(self.seed)))
        }
    }

    fn reference_stream(factory: &dyn TraceFactory, n: u64) -> Vec<Instr> {
        let mut src = factory.build();
        (0..n).map(|_| src.next_instr()).collect()
    }

    #[test]
    fn record_then_read_all_round_trips() {
        let path = tmp("roundtrip");
        let w = RandomWorkload { seed: 11 };
        let n = 10_000u64; // several chunks at the default granularity
        let meta = record(&w, n, 11, &path).unwrap();
        assert_eq!(meta.instr_count, n);
        assert_eq!(meta.name, "random");
        let (meta2, instrs) = read_all(&path).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(instrs, reference_stream(&w, n));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blocking_and_streaming_sources_agree_and_wrap() {
        let path = tmp("sources");
        let w = RandomWorkload { seed: 23 };
        let n = 2_500u64;
        record(&w, n, 23, &path).unwrap();
        let replay = TraceReplay::open(&path).unwrap();
        assert_eq!(replay.meta().instr_count, n);
        let mut blocking = BlockingSource::open(&path).unwrap();
        let mut streaming = StreamingSource::spawn(&path).unwrap();
        let mut direct = w.build();
        // Read past the end of the recording: both sources must wrap to the
        // first record (direct reference: restart the generator).
        for i in 0..n {
            let d = direct.next_instr();
            assert_eq!(blocking.next_instr(), d, "blocking diverged at {i}");
            assert_eq!(streaming.next_instr(), d, "streaming diverged at {i}");
        }
        let mut direct = w.build();
        for i in 0..500 {
            let d = direct.next_instr();
            assert_eq!(blocking.next_instr(), d, "blocking wrap diverged at {i}");
            assert_eq!(streaming.next_instr(), d, "streaming wrap diverged at {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropping_streaming_source_stops_decoder() {
        let path = tmp("drop");
        record(&RandomWorkload { seed: 3 }, 1_000, 3, &path).unwrap();
        let mut s = StreamingSource::spawn(&path).unwrap();
        let _ = s.next_instr();
        drop(s);
        // The decoder notices the closed channel and exits; nothing to
        // assert beyond not hanging (the test harness would time out).
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_build_matches_blocking_build() {
        let path = tmp("build");
        let w = RandomWorkload { seed: 41 };
        record(&w, 1_200, 41, &path).unwrap();
        // Whichever source build() picked for this machine, the
        // instruction stream is the same.
        let replay = TraceReplay::open(&path).unwrap();
        let mut default = replay.build();
        let mut blocking = replay.clone().blocking().build();
        for i in 0..2_400 {
            assert_eq!(
                default.next_instr(),
                blocking.next_instr(),
                "diverged at {i}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected_with_description() {
        let path = tmp("truncated");
        record(&RandomWorkload { seed: 5 }, 5_000, 5, &path).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut into the middle of the record chunks.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 100).unwrap();
        drop(f);
        let err = read_all(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, TraceError::Truncated(_)) && msg.contains("truncated"),
            "expected a descriptive truncation error, got: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_recording_is_rejected() {
        let path = tmp("unfinished");
        let mut w = TraceWriter::create(&path, "w", 1, 0).unwrap();
        for i in 0..100u64 {
            w.push(&Instr {
                pc: i * 4,
                op: Op::Alu,
            })
            .unwrap();
        }
        drop(w); // no finish(): header still says zero instructions
        let err = TraceReplay::open(&path).unwrap_err();
        assert!(
            err.to_string().contains("never finished"),
            "expected unfinished-recording rejection, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_payload_is_rejected_with_checksum_error() {
        let path = tmp("bitflip");
        record(&RandomWorkload { seed: 7 }, 5_000, 7, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit well inside the chunk payloads (past the header).
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = verify_file(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum mismatch")
                || msg.contains("corrupt trace chunk")
                || msg.contains("record-count mismatch"),
            "expected a descriptive corruption error, got: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn end_marker_count_mismatch_is_rejected() {
        let path = tmp("endcount");
        record(&RandomWorkload { seed: 9 }, 300, 9, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The final 8 bytes are the end marker's record count.
        let n = bytes.len();
        bytes[n - 8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(verify_file(&path), Err(TraceError::CountMismatch { .. })),
            "tampered end marker must be rejected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_chunk_files_decode_identically_to_single_chunk() {
        let w = RandomWorkload { seed: 31 };
        let n = 1_000u64;
        let small = tmp("chunks-small");
        let big = tmp("chunks-big");
        // 64-record chunks vs one giant chunk.
        let mut ws = TraceWriter::create(&small, "random", 1, 31)
            .unwrap()
            .chunk_records(64);
        let mut wb = TraceWriter::create(&big, "random", 1, 31)
            .unwrap()
            .chunk_records(1 << 20);
        let mut src = w.build();
        for _ in 0..n {
            let i = src.next_instr();
            ws.push(&i).unwrap();
            wb.push(&i).unwrap();
        }
        ws.finish().unwrap();
        wb.finish().unwrap();
        assert_eq!(read_all(&small).unwrap().1, read_all(&big).unwrap().1);
        std::fs::remove_file(&small).ok();
        std::fs::remove_file(&big).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = TraceReplay::open(tmp("missing")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }
}
