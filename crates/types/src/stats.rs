//! Statistics containers shared by the memory hierarchy and the CPU model,
//! plus the aggregation helpers (geometric mean) used by the evaluation
//! methodology (§IV-A: "we report weighted geomean speedups").

/// Per-cache counters split by demand/prefetch traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (loads + stores + fetches, per cache role).
    pub demand_accesses: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Prefetch-probe accesses (lookups on behalf of prefetch traffic;
    /// disjoint from `demand_accesses`).
    pub prefetch_accesses: u64,
    /// Prefetch-probe accesses that hit.
    pub prefetch_hits: u64,
    /// Prefetch fills installed into this cache.
    pub prefetch_fills: u64,
    /// Prefetched blocks that served at least one demand hit before eviction.
    pub prefetch_useful: u64,
    /// Prefetched blocks evicted without serving any demand hit.
    pub prefetch_useless: u64,
    /// Page-cross prefetched blocks filled (PCB set).
    pub pgc_fills: u64,
    /// Page-cross prefetched blocks that were useful.
    pub pgc_useful: u64,
    /// Page-cross prefetched blocks that were useless.
    pub pgc_useless: u64,
    /// Evictions of dirty blocks (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand miss rate in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Misses per kilo-instruction given a retired-instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Per-TLB counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translation lookups (demand only; prefetch probes counted separately).
    pub accesses: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Lookups on behalf of prefetch requests.
    pub prefetch_probes: u64,
    /// Prefetch-probe misses.
    pub prefetch_probe_misses: u64,
    /// Translations installed by page-cross prefetch walks.
    pub prefetch_fills: u64,
}

impl TlbStats {
    /// Demand miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Demand misses per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Page-table-walker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Walks triggered by demand accesses.
    pub demand_walks: u64,
    /// Speculative walks triggered by page-cross prefetches.
    pub prefetch_walks: u64,
    /// Total memory references the walker issued.
    pub memory_refs: u64,
    /// Memory references that hit in the page-structure caches (skipped
    /// levels count as PSC hits).
    pub psc_hits: u64,
}

/// Prefetcher-level counters (issue-side, before fill-side usefulness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Candidates generated by the prefetcher.
    pub candidates: u64,
    /// Candidates that crossed a 4 KB page boundary.
    pub pgc_candidates: u64,
    /// Page-cross candidates discarded by the active policy/filter.
    pub pgc_discarded: u64,
    /// Page-cross candidates issued.
    pub pgc_issued: u64,
    /// In-page prefetches issued.
    pub inpage_issued: u64,
    /// Issued prefetches dropped because the target was already cached or
    /// an MSHR for it was in flight.
    pub redundant: u64,
    /// Speculative page walks triggered by issued page-cross prefetches.
    pub speculative_walks: u64,
}

/// Imitation-OS memory-management counters, attributed to the core whose
/// access triggered the work (shootdown IPIs are attributed to the
/// receiving core via `ipis_received`). All-zero when the OS layer is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OsStats {
    /// First-touch page faults (page had never been mapped).
    pub minor_faults: u64,
    /// Faults on pages previously evicted by reclamation (swap-in).
    pub major_faults: u64,
    /// Frames reclaimed by the CLOCK sweep to satisfy this core's faults.
    pub reclaims: u64,
    /// 2 MB regions promoted by the THP daemon on this core's touches.
    pub thp_promotions: u64,
    /// 2 MB regions split back to 4 KB pages under memory pressure.
    pub thp_demotions: u64,
    /// TLB shootdown broadcasts this core's faults triggered.
    pub shootdowns: u64,
    /// Shootdown invalidation IPIs delivered to this core from others.
    pub ipis_received: u64,
    /// Total cycles of OS work charged to this core's accesses.
    pub fault_cycles: u64,
}

impl OsStats {
    /// Total page faults (minor + major).
    pub fn faults(&self) -> u64 {
        self.minor_faults + self.major_faults
    }
}

/// Core-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
    /// Retired branches.
    pub branches: u64,
    /// Top-down issue-slot loss attribution (see
    /// [`crate::telemetry::StallBreakdown`] for the accounting invariant).
    pub stalls: crate::telemetry::StallBreakdown,
}

impl CoreStats {
    /// Instructions per cycle; zero when no cycles have elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Geometric mean of a sequence of strictly positive values.
///
/// Returns `None` for an empty slice or when any value is non-positive
/// (the evaluation methodology only aggregates positive speedups).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_miss_rate_and_mpki() {
        let s = CacheStats {
            demand_accesses: 200,
            demand_misses: 50,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let c = CacheStats::default();
        assert_eq!(c.miss_rate(), 0.0);
        assert_eq!(c.mpki(0), 0.0);
        let t = TlbStats::default();
        assert_eq!(t.miss_rate(), 0.0);
        assert_eq!(t.mpki(0), 0.0);
        let k = CoreStats::default();
        assert_eq!(k.ipc(), 0.0);
    }

    #[test]
    fn tlb_rates() {
        let t = TlbStats {
            accesses: 1000,
            misses: 10,
            ..Default::default()
        };
        assert!((t.miss_rate() - 0.01).abs() < 1e-12);
        assert!((t.mpki(1_000_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ipc_computation() {
        let c = CoreStats {
            instructions: 3000,
            cycles: 1000,
            ..Default::default()
        };
        assert!((c.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_identity_is_identity() {
        let g = geomean(&[1.0, 1.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }
}
