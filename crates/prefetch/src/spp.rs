//! SPP: Signature Path Prefetcher (MICRO'16), used at the L2C in §V-B7.
//!
//! SPP tracks, per physical 4 KB page, a compressed *signature* of the
//! recent delta history, and a pattern table mapping signatures to likely
//! next deltas with confidence. Prediction walks the signature path with
//! *lookahead*: each predicted delta extends the signature and multiplies
//! the path confidence; prefetching continues until confidence drops below
//! a threshold or the 4 KB page boundary is reached (L2C prefetchers
//! operate in the physical space and never cross pages).

use crate::L2Prefetcher;
use pagecross_types::{FastMap, LINE_SHIFT, PAGE_SHIFT_4K};

const SIG_BITS: u32 = 12;
const LOOKAHEAD_MAX: usize = 8;
const CONF_THRESHOLD: f64 = 0.25;
const LINES_PER_PAGE: i64 = 64;

#[derive(Clone, Copy, Debug, Default)]
struct PageEntry {
    signature: u16,
    last_offset: i64,
    valid: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Pattern {
    delta: i64,
    hits: u16,
    total: u16,
}

/// The SPP prefetcher (L2C, physical address space).
#[derive(Clone, Debug)]
pub struct Spp {
    pages: FastMap<u64, PageEntry>,
    /// Pattern table, indexed by signature.
    patterns: Vec<[Pattern; 4]>,
}

impl Spp {
    /// Creates an SPP instance.
    pub fn new() -> Self {
        Self {
            pages: FastMap::default(),
            patterns: vec![[Pattern::default(); 4]; 1 << SIG_BITS],
        }
    }

    fn update_sig(sig: u16, delta: i64) -> u16 {
        let d = (delta & 0x7F) as u16;
        ((sig << 3) ^ d) & ((1 << SIG_BITS) - 1)
    }

    fn train(&mut self, sig: u16, delta: i64) {
        let slots = &mut self.patterns[usize::from(sig)];
        // Bump matching slot or replace the weakest.
        if let Some(s) = slots.iter_mut().find(|s| s.total > 0 && s.delta == delta) {
            s.hits = s.hits.saturating_add(1);
        } else {
            let weakest = slots
                .iter_mut()
                .min_by_key(|s| if s.total == 0 { 0 } else { s.hits })
                .expect("4 slots");
            if weakest.total == 0 || weakest.hits <= 1 {
                *weakest = Pattern {
                    delta,
                    hits: 1,
                    total: 0,
                };
            }
        }
        for s in slots.iter_mut() {
            if s.total > 0 || s.hits > 0 {
                s.total = s.total.saturating_add(1);
            }
        }
    }

    fn best(&self, sig: u16) -> Option<(i64, f64)> {
        self.patterns[usize::from(sig)]
            .iter()
            .filter(|s| s.total > 2)
            .map(|s| (s.delta, s.hits as f64 / s.total as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for Spp {
    fn default() -> Self {
        Self::new()
    }
}

impl L2Prefetcher for Spp {
    fn name(&self) -> &'static str {
        "spp"
    }

    fn on_access(&mut self, _pc: u64, paddr: u64, _hit: bool, out: &mut Vec<u64>) {
        let page = paddr >> PAGE_SHIFT_4K;
        let offset = ((paddr >> LINE_SHIFT) & (LINES_PER_PAGE as u64 - 1)) as i64;

        if self.pages.len() > 4096 {
            self.pages.clear();
        }
        let entry = self.pages.entry(page).or_default();
        let (mut sig, prev_offset, valid) = (entry.signature, entry.last_offset, entry.valid);

        if valid {
            let delta = offset - prev_offset;
            if delta != 0 {
                self.train(sig, delta);
                sig = Self::update_sig(sig, delta);
            }
        }
        // Re-borrow after train() released the map.
        let entry = self.pages.entry(page).or_default();
        entry.signature = sig;
        entry.last_offset = offset;
        entry.valid = true;

        // Lookahead prediction within the page.
        let mut conf = 1.0f64;
        let mut cur_offset = offset;
        let mut cur_sig = sig;
        for _ in 0..LOOKAHEAD_MAX {
            let Some((delta, p)) = self.best(cur_sig) else {
                break;
            };
            conf *= p;
            if conf < CONF_THRESHOLD {
                break;
            }
            cur_offset += delta;
            if !(0..LINES_PER_PAGE).contains(&cur_offset) {
                break; // never cross the physical page
            }
            out.push((page << PAGE_SHIFT_4K) | ((cur_offset as u64) << LINE_SHIFT));
            cur_sig = Self::update_sig(cur_sig, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_sequential_pattern_within_page() {
        let mut spp = Spp::new();
        let mut out = Vec::new();
        // Train on many pages with +1 line strides.
        for page in 0..32u64 {
            for off in 0..32u64 {
                out.clear();
                spp.on_access(0, (page << 12) | (off << 6), false, &mut out);
            }
        }
        assert!(!out.is_empty(), "trained SPP predicts ahead");
        // All predictions stay inside the page.
        for &t in &out {
            assert_eq!(t >> 12, 31, "prediction left the page: {t:#x}");
        }
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut spp = Spp::new();
        let mut out = Vec::new();
        for page in 0..64u64 {
            for off in 0..64u64 {
                out.clear();
                spp.on_access(0, (page << 12) | (off << 6), false, &mut out);
                let this_page = page;
                assert!(
                    out.iter().all(|t| t >> 12 == this_page),
                    "SPP must stay within the physical page"
                );
            }
        }
    }

    #[test]
    fn cold_page_is_silent() {
        let mut spp = Spp::new();
        let mut out = Vec::new();
        spp.on_access(0, 0xABCD_E000, false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn signature_sharing_across_pages() {
        let mut spp = Spp::new();
        let mut out = Vec::new();
        // Train pattern on pages 0..8, then apply to a fresh page.
        for page in 0..8u64 {
            for step in 0..16u64 {
                out.clear();
                spp.on_access(0, (page << 12) | ((step * 2) << 6), false, &mut out);
            }
        }
        out.clear();
        // Fresh page: first two accesses build the signature, then predict.
        spp.on_access(0, 99 << 12, false, &mut out);
        spp.on_access(0, (99 << 12) | (2 << 6), false, &mut out);
        spp.on_access(0, (99 << 12) | (4 << 6), false, &mut out);
        assert!(
            out.contains(&((99 << 12) | (6 << 6))),
            "cross-page signature reuse predicts +2, got {:?}",
            out.iter().map(|t| format!("{t:#x}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lookahead_depth_bounded() {
        let mut spp = Spp::new();
        let mut out = Vec::new();
        for page in 0..64u64 {
            for off in 0..60u64 {
                out.clear();
                spp.on_access(0, (page << 12) | (off << 6), false, &mut out);
            }
        }
        assert!(out.len() <= LOOKAHEAD_MAX);
    }
}
