//! Trivial baseline prefetchers: next-line and PC-stride.
//!
//! These are not evaluated in the paper but serve as sanity baselines for
//! the harness and as the simplest possible producers of page-cross
//! candidates (a next-line prefetch on the last line of a page crosses).

use crate::{candidate, AccessInfo, L1dPrefetcher};
use pagecross_types::{FastMap, PrefetchCandidate};

/// Always prefetches the next `degree` lines.
#[derive(Clone, Debug)]
pub struct NextLine {
    degree: i64,
}

impl NextLine {
    /// Creates a next-line prefetcher of the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn new(degree: u32) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            degree: degree as i64,
        }
    }
}

impl L1dPrefetcher for NextLine {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        for d in 1..=self.degree {
            out.push(candidate(info.pc, info.va, d, info.first_page_access));
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// Classic per-PC stride prefetcher with 2-bit confidence.
#[derive(Clone, Debug)]
pub struct Stride {
    table: FastMap<u64, StrideEntry>,
    degree: i64,
    max_entries: usize,
}

impl Stride {
    /// Creates a stride prefetcher with the given issue degree.
    pub fn new(degree: u32) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            table: FastMap::default(),
            degree: degree as i64,
            max_entries: 1024,
        }
    }
}

impl L1dPrefetcher for Stride {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        let line = info.va.line().raw();
        if self.table.len() >= self.max_entries && !self.table.contains_key(&info.pc) {
            self.table.clear(); // crude but bounded
        }
        let e = self.table.entry(info.pc).or_default();
        if e.last_line != 0 {
            let observed = line as i64 - e.last_line as i64;
            if observed != 0 {
                if observed == e.stride {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.confidence = e.confidence.saturating_sub(1);
                    if e.confidence == 0 {
                        e.stride = observed;
                    }
                }
            }
        }
        e.last_line = line;
        if e.confidence >= 2 && e.stride != 0 {
            for k in 1..=self.degree {
                out.push(candidate(
                    info.pc,
                    info.va,
                    e.stride * k,
                    info.first_page_access,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::VirtAddr;

    fn info(pc: u64, va: u64) -> AccessInfo {
        AccessInfo {
            pc,
            va: VirtAddr::new(va),
            hit: false,
            cycle: 0,
            first_page_access: false,
        }
    }

    #[test]
    fn next_line_emits_degree_candidates() {
        let mut p = NextLine::new(3);
        let mut out = Vec::new();
        p.on_access(&info(1, 0x1000), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].delta, 1);
        assert_eq!(out[2].delta, 3);
    }

    #[test]
    fn next_line_crosses_at_page_end() {
        let mut p = NextLine::new(1);
        let mut out = Vec::new();
        p.on_access(&info(1, 0x1FC0), &mut out);
        assert!(out[0].crosses_page_4k());
    }

    #[test]
    fn stride_learns_constant_stride() {
        let mut p = Stride::new(2);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(&info(7, 0x10000 + i * 256), &mut out); // stride 4 lines
        }
        assert!(!out.is_empty());
        assert_eq!(out[0].delta, 4);
        assert_eq!(out[1].delta, 8);
    }

    #[test]
    fn stride_needs_confidence() {
        let mut p = Stride::new(1);
        let mut out = Vec::new();
        p.on_access(&info(7, 0x10000), &mut out);
        p.on_access(&info(7, 0x10100), &mut out);
        assert!(out.is_empty(), "one observation is not enough");
    }

    #[test]
    fn stride_unlearns_on_pattern_change() {
        let mut p = Stride::new(1);
        let mut out = Vec::new();
        for i in 0..6u64 {
            p.on_access(&info(7, 0x10000 + i * 64), &mut out);
        }
        out.clear();
        // Break the pattern repeatedly; confidence must collapse.
        p.on_access(&info(7, 0x90000), &mut out);
        out.clear();
        p.on_access(&info(7, 0x20000), &mut out);
        out.clear();
        p.on_access(&info(7, 0xF0000), &mut out);
        out.clear();
        p.on_access(&info(7, 0x30000), &mut out);
        assert!(out.is_empty(), "confidence should have collapsed");
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut p = Stride::new(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..8u64 {
            out_a.clear();
            out_b.clear();
            p.on_access(&info(1, 0x10000 + i * 64), &mut out_a);
            p.on_access(&info(2, 0x80000 + i * 128), &mut out_b);
        }
        assert_eq!(out_a[0].delta, 1);
        assert_eq!(out_b[0].delta, 2);
    }
}
