//! FNL+MMA instruction prefetcher (Seznec, IPC-1), the L1I prefetcher of
//! the paper's Table IV configuration.
//!
//! Two cooperating predictors, simplified to their cores:
//!
//! * **FNL (Footprint Next Line)** — on fetching a new instruction line,
//!   prefetch the next `degree` sequential lines (most instruction fetch
//!   is sequential).
//! * **MMA (Multiple Miss Ahead)** — a table correlating an instruction
//!   miss line with the *next* miss line observed after it, capturing
//!   taken-branch discontinuities that next-line prefetching cannot.

use pagecross_types::FastMap;

/// An L1I prefetcher: observes fetched instruction lines, emits line
/// numbers to prefetch.
pub trait L1iPrefetcher {
    /// Prefetcher name.
    fn name(&self) -> &'static str;

    /// Observes a fetch of instruction line `line` with its L1I hit flag;
    /// appends predicted line numbers to `out`.
    fn on_fetch(&mut self, line: u64, hit: bool, out: &mut Vec<u64>);
}

/// The FNL+MMA prefetcher.
#[derive(Clone, Debug)]
pub struct FnlMma {
    degree: u64,
    last_miss: Option<u64>,
    mma: FastMap<u64, u64>,
    max_entries: usize,
}

impl FnlMma {
    /// Creates an instance prefetching `degree` sequential lines ahead.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn new(degree: u64) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            degree,
            last_miss: None,
            mma: FastMap::default(),
            max_entries: 1024,
        }
    }
}

impl Default for FnlMma {
    fn default() -> Self {
        Self::new(2)
    }
}

impl L1iPrefetcher for FnlMma {
    fn name(&self) -> &'static str {
        "fnl+mma"
    }

    fn on_fetch(&mut self, line: u64, hit: bool, out: &mut Vec<u64>) {
        // FNL: sequential footprint.
        for d in 1..=self.degree {
            out.push(line + d);
        }
        // MMA: follow the learned miss successor.
        if let Some(&succ) = self.mma.get(&line) {
            out.push(succ);
        }
        if !hit {
            if let Some(prev) = self.last_miss {
                // Only discontinuities are worth a table entry; sequential
                // successors are already covered by FNL.
                if line != prev + 1 && line != prev {
                    if self.mma.len() >= self.max_entries {
                        self.mma.clear();
                    }
                    self.mma.insert(prev, line);
                }
            }
            self.last_miss = Some(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnl_prefetches_sequential_lines() {
        let mut p = FnlMma::new(2);
        let mut out = Vec::new();
        p.on_fetch(100, true, &mut out);
        assert_eq!(out, vec![101, 102]);
    }

    #[test]
    fn mma_learns_miss_discontinuities() {
        let mut p = FnlMma::new(1);
        let mut out = Vec::new();
        // Miss at 100, then a discontinuous miss at 500: learn 100 -> 500.
        p.on_fetch(100, false, &mut out);
        p.on_fetch(500, false, &mut out);
        out.clear();
        p.on_fetch(100, true, &mut out);
        assert!(
            out.contains(&500),
            "MMA predicts the learned successor, got {out:?}"
        );
        assert!(out.contains(&101), "FNL still fires");
    }

    #[test]
    fn sequential_misses_do_not_pollute_mma() {
        let mut p = FnlMma::new(1);
        let mut out = Vec::new();
        p.on_fetch(100, false, &mut out);
        p.on_fetch(101, false, &mut out);
        out.clear();
        p.on_fetch(100, true, &mut out);
        assert_eq!(out, vec![101], "no MMA entry for a sequential successor");
    }

    #[test]
    fn table_is_bounded() {
        let mut p = FnlMma::new(1);
        let mut out = Vec::new();
        for i in 0..5_000u64 {
            p.on_fetch(i * 7 + (i % 3) * 1000, false, &mut out);
        }
        assert!(p.mma.len() <= 1024);
    }
}
