//! IPCP: Instruction Pointer Classifier-based spatial Prefetching (ISCA'20).
//!
//! IPCP classifies each load PC into one of three classes and prefetches
//! accordingly:
//!
//! * **CS (constant stride)** — the PC strides by a fixed number of lines;
//!   prefetch `stride * 1..=degree` ahead.
//! * **CPLX (complex)** — the PC's deltas are irregular but predictable
//!   from a signature of recent deltas; a Complex Stride Prediction Table
//!   (CSPT) maps signatures to next deltas and is walked with lookahead.
//! * **GS (global stream)** — the PC participates in a dense global stream;
//!   prefetch the next lines in the stream direction aggressively.
//!
//! Classification priority is GS > CS > CPLX, as in the paper.

use crate::{candidate, AccessInfo, L1dPrefetcher};
use pagecross_types::{FastMap, PrefetchCandidate};

const CS_DEGREE: i64 = 4;
const GS_DEGREE: i64 = 6;
const CPLX_LOOKAHEAD: usize = 3;
const SIG_BITS: u32 = 12;

#[derive(Clone, Copy, Debug, Default)]
struct IpEntry {
    last_line: i64,
    stride: i64,
    cs_conf: u8,
    signature: u16,
    stream_hits: u8,
}

#[derive(Clone, Copy, Debug, Default)]
struct CsptEntry {
    delta: i64,
    conf: u8,
}

/// Global stream detector: tracks how dense and directional recent
/// accesses are within an aligned 1 KB region window.
#[derive(Clone, Debug, Default)]
struct StreamDetector {
    last_line: i64,
    forward: u32,
    backward: u32,
}

impl StreamDetector {
    fn observe(&mut self, line: i64) -> Option<i64> {
        let d = line - self.last_line;
        self.last_line = line;
        if d > 0 && d <= 4 {
            self.forward = (self.forward + 1).min(64);
            self.backward = self.backward.saturating_sub(1);
        } else if (-4..0).contains(&d) {
            self.backward = (self.backward + 1).min(64);
            self.forward = self.forward.saturating_sub(1);
        } else {
            self.forward = self.forward.saturating_sub(1);
            self.backward = self.backward.saturating_sub(1);
        }
        if self.forward >= 32 {
            Some(1)
        } else if self.backward >= 32 {
            Some(-1)
        } else {
            None
        }
    }
}

/// The IPCP prefetcher.
#[derive(Clone, Debug)]
pub struct Ipcp {
    ip_table: FastMap<u64, IpEntry>,
    /// Complex Stride Prediction Table, indexed by signature.
    cspt: Vec<CsptEntry>,
    stream: StreamDetector,
    max_ips: usize,
}

impl Ipcp {
    /// Creates an IPCP instance. `size_multiplier` scales the IP table
    /// (ISO-Storage scenario).
    ///
    /// # Panics
    ///
    /// Panics if `size_multiplier == 0`.
    pub fn new(size_multiplier: u32) -> Self {
        assert!(size_multiplier > 0, "size multiplier must be positive");
        Self {
            ip_table: FastMap::default(),
            cspt: vec![CsptEntry::default(); 1 << SIG_BITS],
            stream: StreamDetector::default(),
            max_ips: 128 * size_multiplier as usize,
        }
    }

    fn update_signature(sig: u16, delta: i64) -> u16 {
        let d = (delta & 0x3F) as u16;
        ((sig << 3) ^ d) & ((1 << SIG_BITS) - 1)
    }
}

impl L1dPrefetcher for Ipcp {
    fn name(&self) -> &'static str {
        "ipcp"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        let line = info.va.line().raw() as i64;
        let stream_dir = self.stream.observe(line);

        if self.ip_table.len() >= self.max_ips && !self.ip_table.contains_key(&info.pc) {
            self.ip_table.clear();
        }
        let e = self.ip_table.entry(info.pc).or_default();

        let delta = if e.last_line != 0 {
            line - e.last_line
        } else {
            0
        };
        if delta != 0 {
            // CS training.
            if delta == e.stride {
                e.cs_conf = (e.cs_conf + 1).min(3);
            } else {
                e.cs_conf = e.cs_conf.saturating_sub(1);
                if e.cs_conf == 0 {
                    e.stride = delta;
                }
            }
            // CPLX training: the *previous* signature predicted this delta.
            let prev_sig = e.signature;
            let c = &mut self.cspt[usize::from(prev_sig)];
            if c.delta == delta {
                c.conf = (c.conf + 1).min(3);
            } else {
                c.conf = c.conf.saturating_sub(1);
                if c.conf == 0 {
                    c.delta = delta;
                }
            }
            e.signature = Self::update_signature(prev_sig, delta);
        }
        // GS training.
        if stream_dir.is_some() {
            e.stream_hits = (e.stream_hits + 1).min(15);
        } else {
            e.stream_hits = e.stream_hits.saturating_sub(1);
        }
        e.last_line = line;

        // Classification & issue: GS > CS > CPLX.
        let (cs_ready, stride) = (e.cs_conf >= 2 && e.stride != 0, e.stride);
        let gs_ready = e.stream_hits >= 8;
        let signature = e.signature;

        if gs_ready {
            let dir = stream_dir.unwrap_or(1);
            for k in 1..=GS_DEGREE {
                out.push(candidate(info.pc, info.va, dir * k, info.first_page_access));
            }
        } else if cs_ready {
            for k in 1..=CS_DEGREE {
                out.push(candidate(
                    info.pc,
                    info.va,
                    stride * k,
                    info.first_page_access,
                ));
            }
        } else {
            // CPLX: walk the CSPT with lookahead.
            let mut sig = signature;
            let mut total = 0i64;
            for _ in 0..CPLX_LOOKAHEAD {
                let c = self.cspt[usize::from(sig)];
                if c.conf < 2 || c.delta == 0 {
                    break;
                }
                total += c.delta;
                out.push(candidate(info.pc, info.va, total, info.first_page_access));
                sig = Self::update_signature(sig, c.delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::VirtAddr;

    fn run(pf: &mut Ipcp, pc: u64, addrs: &[u64]) -> Vec<PrefetchCandidate> {
        let mut out = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let info = AccessInfo {
                pc,
                va: VirtAddr::new(a),
                hit: false,
                cycle: i as u64 * 10,
                first_page_access: false,
            };
            pf.on_access(&info, &mut out);
        }
        out
    }

    #[test]
    fn constant_stride_class_prefetches_multiples() {
        let mut pf = Ipcp::new(1);
        let addrs: Vec<u64> = (0..16).map(|i| 0x40_0000 + i * 192).collect(); // 3-line stride
        let out = run(&mut pf, 0x400, &addrs);
        assert!(!out.is_empty());
        assert!(out.iter().any(|c| c.delta == 3));
        assert!(out.iter().any(|c| c.delta == 12), "degree-4 CS prefetching");
    }

    #[test]
    fn global_stream_class_is_aggressive() {
        let mut pf = Ipcp::new(1);
        // Dense +1 stream from many PCs to trigger the global detector,
        // then one access from a participating PC.
        let mut out = Vec::new();
        for i in 0..200u64 {
            let info = AccessInfo {
                pc: 0x400 + (i % 4),
                va: VirtAddr::new(0x80_0000 + i * 64),
                hit: false,
                cycle: i * 5,
                first_page_access: false,
            };
            out.clear();
            pf.on_access(&info, &mut out);
        }
        assert_eq!(
            out.len(),
            GS_DEGREE as usize,
            "GS issues degree-{GS_DEGREE}"
        );
        assert!(out.iter().all(|c| c.delta > 0));
    }

    #[test]
    fn complex_pattern_via_cspt() {
        let mut pf = Ipcp::new(1);
        // Repeating delta pattern +2, +5, +2, +5... is not constant-stride
        // but perfectly signature-predictable.
        let mut addrs = vec![0x10_0000u64];
        for i in 0..60 {
            let d = if i % 2 == 0 { 2 } else { 5 };
            addrs.push(addrs.last().unwrap() + d * 64);
        }
        let out = run(&mut pf, 0x777, &addrs);
        assert!(
            out.iter()
                .any(|c| c.delta == 2 || c.delta == 5 || c.delta == 7),
            "CSPT should predict pattern deltas, got {:?}",
            out.iter().map(|c| c.delta).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_accesses_stay_mostly_quiet() {
        let mut pf = Ipcp::new(1);
        let mut rng = pagecross_types::Rng64::new(11);
        let addrs: Vec<u64> = (0..300).map(|_| rng.below(1 << 32) & !63).collect();
        let out = run(&mut pf, 0x400, &addrs);
        assert!(
            out.len() < 60,
            "random traffic should not trigger much, got {}",
            out.len()
        );
    }

    #[test]
    fn stream_detector_finds_backward_streams() {
        let mut det = StreamDetector::default();
        let mut dir = None;
        for i in (0..100i64).rev() {
            dir = det.observe(i);
        }
        assert_eq!(dir, Some(-1));
    }

    #[test]
    fn signature_stays_in_range() {
        let mut sig = 0u16;
        for d in [-3i64, 100, 5, -62, 7] {
            sig = Ipcp::update_signature(sig, d);
            assert!(sig < (1 << SIG_BITS));
        }
    }
}
