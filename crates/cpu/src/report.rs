//! Simulation reports: everything the paper's figures and tables read.

use pagecross_telemetry::{PhaseTimings, TelemetryRun};
use pagecross_types::{CacheStats, CoreStats, OsStats, PrefetchStats, TlbStats, WalkStats};

/// The result of one single-core simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Page-cross policy name.
    pub policy: String,
    /// Core statistics.
    pub core: CoreStats,
    /// L1I statistics.
    pub l1i: CacheStats,
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2C statistics.
    pub l2c: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// dTLB statistics.
    pub dtlb: TlbStats,
    /// sTLB statistics.
    pub stlb: TlbStats,
    /// Page-walker statistics.
    pub walks: WalkStats,
    /// Prefetch-issue statistics.
    pub prefetch: PrefetchStats,
    /// Imitation-OS counters (all zero when the OS model is off).
    pub os: OsStats,
}

impl Report {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// L1D demand MPKI.
    pub fn l1d_mpki(&self) -> f64 {
        self.l1d.mpki(self.core.instructions)
    }

    /// L1I demand MPKI.
    pub fn l1i_mpki(&self) -> f64 {
        self.l1i.mpki(self.core.instructions)
    }

    /// LLC demand MPKI.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.core.instructions)
    }

    /// dTLB demand MPKI.
    pub fn dtlb_mpki(&self) -> f64 {
        self.dtlb.mpki(self.core.instructions)
    }

    /// sTLB demand MPKI.
    pub fn stlb_mpki(&self) -> f64 {
        self.stlb.mpki(self.core.instructions)
    }

    /// Overall prefetch accuracy: useful / (useful + useless), over blocks
    /// whose fate is known (hit at least once, or evicted without hits).
    /// Considers all prefetch requests, in-page and page-cross (Fig. 11).
    ///
    /// `None` when no prefetched block's fate is resolved — e.g. with the
    /// prefetcher disabled — so "no data" is distinguishable from "0%
    /// accurate".
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        let resolved = self.l1d.prefetch_useful + self.l1d.prefetch_useless;
        if resolved == 0 {
            return None;
        }
        Some(self.l1d.prefetch_useful as f64 / resolved as f64)
    }

    /// Miss coverage proxy: prefetch-useful blocks per demand (miss +
    /// covered) — the fraction of would-be misses the prefetcher absorbed.
    ///
    /// `None` when there were neither misses nor covered misses, so "no
    /// demand to cover" is distinguishable from "covered nothing".
    pub fn coverage(&self) -> Option<f64> {
        let denom = self.l1d.demand_misses + self.l1d.prefetch_useful;
        if denom == 0 {
            return None;
        }
        Some(self.l1d.prefetch_useful as f64 / denom as f64)
    }

    /// Page-cross prefetch accuracy: useful PCB blocks / resolved PCB
    /// blocks (Fig. 3).
    pub fn pgc_accuracy(&self) -> f64 {
        let resolved = self.l1d.pgc_useful + self.l1d.pgc_useless;
        if resolved == 0 {
            return 0.0;
        }
        self.l1d.pgc_useful as f64 / resolved as f64
    }

    /// Useful page-cross prefetches per kilo-instruction (Fig. 13).
    pub fn pgc_useful_pki(&self) -> f64 {
        if self.core.instructions == 0 {
            return 0.0;
        }
        self.l1d.pgc_useful as f64 * 1000.0 / self.core.instructions as f64
    }

    /// Useless page-cross prefetches per kilo-instruction (Fig. 13).
    pub fn pgc_useless_pki(&self) -> f64 {
        if self.core.instructions == 0 {
            return 0.0;
        }
        self.l1d.pgc_useless as f64 * 1000.0 / self.core.instructions as f64
    }
}

/// Everything [`SimulationBuilder::run`](crate::SimulationBuilder::run)
/// returns.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// One report per core, in workload order.
    pub reports: Vec<Report>,
    /// Host wall-clock per phase.
    pub timings: PhaseTimings,
    /// Core 0's telemetry, when it was requested.
    pub telemetry: Option<TelemetryRun>,
}

/// The result of one multi-core mix simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixReport {
    /// Per-core workload names.
    pub workloads: Vec<String>,
    /// Per-core statistics, frozen when each core hit its quota.
    pub cores: Vec<CoreStats>,
    /// Per-core imitation-OS counters (empty or zeroed when off).
    pub os: Vec<OsStats>,
    /// Shared LLC statistics at the end of the run.
    pub llc: CacheStats,
}

impl From<RunOutput> for MixReport {
    fn from(out: RunOutput) -> Self {
        MixReport {
            workloads: out.reports.iter().map(|r| r.workload.clone()).collect(),
            cores: out.reports.iter().map(|r| r.core).collect(),
            os: out.reports.iter().map(|r| r.os).collect(),
            llc: out.reports[0].llc,
        }
    }
}

impl MixReport {
    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.ipc()).collect()
    }

    /// Weighted speedup vs per-core isolation IPCs (§IV-A2):
    /// `Σ IPC_multicore / IPC_isolation`.
    ///
    /// Returns `None` when `isolation` does not carry exactly one IPC per
    /// core — a mismatched baseline would silently mis-weight the sum.
    pub fn weighted_ipc(&self, isolation: &[f64]) -> Option<f64> {
        if isolation.len() != self.cores.len() {
            return None;
        }
        Some(
            self.cores
                .iter()
                .zip(isolation)
                .map(|(c, &iso)| if iso > 0.0 { c.ipc() / iso } else { 0.0 })
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_coverage_guards() {
        let r = Report::default();
        assert_eq!(r.prefetch_accuracy(), None);
        assert_eq!(r.coverage(), None);
        assert_eq!(r.pgc_accuracy(), 0.0);
        assert_eq!(r.pgc_useful_pki(), 0.0);
    }

    #[test]
    fn pgc_accuracy_ratio() {
        let mut r = Report::default();
        r.l1d.pgc_useful = 30;
        r.l1d.pgc_useless = 10;
        assert!((r.pgc_accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_ipc_sums_relative_progress() {
        let m = MixReport {
            cores: vec![
                CoreStats {
                    instructions: 100,
                    cycles: 100,
                    ..Default::default()
                }, // IPC 1.0
                CoreStats {
                    instructions: 100,
                    cycles: 200,
                    ..Default::default()
                }, // IPC 0.5
            ],
            ..Default::default()
        };
        let w = m.weighted_ipc(&[2.0, 1.0]).expect("matching lengths");
        assert!((w - 1.0).abs() < 1e-12, "0.5 + 0.5");
    }

    #[test]
    fn weighted_ipc_length_mismatch_is_none() {
        let m = MixReport {
            cores: vec![CoreStats::default()],
            ..Default::default()
        };
        assert_eq!(m.weighted_ipc(&[]), None);
        assert_eq!(m.weighted_ipc(&[1.0, 1.0]), None);
    }
}
