//! The workload registry: 218 seen + 178 unseen memory-intensive synthetic
//! workloads plus a non-intensive set, organised into suites mirroring the
//! paper's §IV-A benchmark sources.
//!
//! Seen and unseen workloads are drawn from the same per-suite template
//! families but from disjoint seed spaces, reproducing the paper's
//! development/validation split (§V-B8). QMM workloads carry the shorter
//! warm-up/measure lengths of the CVP-1 methodology.

use crate::gen::{Component, GenParams, Phase, SyntheticTrace};
use pagecross_cpu::trace::{TraceFactory, TraceSource};
use std::sync::OnceLock;

/// Benchmark suites (paper §IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SuiteId {
    /// SPEC CPU 2006-like general-purpose workloads.
    Spec06,
    /// SPEC CPU 2017-like general-purpose workloads.
    Spec17,
    /// GAP-like graph kernels (big footprints, high TLB pressure).
    Gap,
    /// Ligra-like graph kernels.
    Ligra,
    /// PARSEC-like parallel-application slices.
    Parsec,
    /// Geekbench-5-like mixed workloads.
    Gkb5,
    /// Qualcomm CVP-1 integer traces (short-running).
    QmmInt,
    /// Qualcomm CVP-1 floating-point traces (short-running).
    QmmFp,
}

impl SuiteId {
    /// All suites, in report order.
    pub const ALL: [SuiteId; 8] = [
        SuiteId::Spec06,
        SuiteId::Spec17,
        SuiteId::Gap,
        SuiteId::Ligra,
        SuiteId::Parsec,
        SuiteId::Gkb5,
        SuiteId::QmmInt,
        SuiteId::QmmFp,
    ];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            SuiteId::Spec06 => "spec06",
            SuiteId::Spec17 => "spec17",
            SuiteId::Gap => "gap",
            SuiteId::Ligra => "ligra",
            SuiteId::Parsec => "parsec",
            SuiteId::Gkb5 => "gkb5",
            SuiteId::QmmInt => "qmm_int",
            SuiteId::QmmFp => "qmm_fp",
        }
    }

    /// (seen, unseen) workload counts per suite; totals 218 / 178.
    fn counts(self) -> (usize, usize) {
        match self {
            SuiteId::Spec06 => (40, 30),
            SuiteId::Spec17 => (40, 30),
            SuiteId::Gap => (24, 18),
            SuiteId::Ligra => (24, 18),
            SuiteId::Parsec => (20, 16),
            SuiteId::Gkb5 => (20, 18),
            SuiteId::QmmInt => (25, 24),
            SuiteId::QmmFp => (25, 24),
        }
    }
}

/// One registered workload.
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    suite: SuiteId,
    params: GenParams,
    intensive: bool,
    seen: bool,
}

impl Workload {
    /// The suite this workload belongs to.
    pub fn suite(&self) -> SuiteId {
        self.suite
    }

    /// True for memory-intensive workloads (LLC MPKI ≥ 1 territory).
    pub fn is_intensive(&self) -> bool {
        self.intensive
    }

    /// True for workloads in the 218-strong "seen" (development) set.
    pub fn is_seen(&self) -> bool {
        self.seen
    }

    /// Generator parameters (ablation tooling).
    pub fn params(&self) -> &GenParams {
        &self.params
    }

    /// Default (warm-up, measured) instruction counts, scaled from the
    /// paper's methodology: QMM traces are short (§IV-A1).
    pub fn default_lengths(&self) -> (u64, u64) {
        match self.suite {
            SuiteId::QmmInt | SuiteId::QmmFp => (25_000, 50_000),
            _ => (50_000, 100_000),
        }
    }
}

impl TraceFactory for Workload {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(SyntheticTrace::new(self.params.clone()))
    }
}

/// A suite's workload collection.
#[derive(Clone, Debug)]
pub struct Suite {
    id: SuiteId,
    workloads: Vec<Workload>,
}

impl Suite {
    /// Suite identity.
    pub fn id(&self) -> SuiteId {
        self.id
    }

    /// All workloads (seen + unseen + non-intensive).
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }
}

// ---------------------------------------------------------------------------
// Template families per suite.
// ---------------------------------------------------------------------------

fn mix(phases: Vec<Phase>, load: f64, phase_len: u64, seed: u64) -> GenParams {
    GenParams {
        load_ratio: load,
        store_ratio: load * 0.25,
        branch_ratio: 0.12,
        branch_predictability: 0.96,
        phases,
        phase_len,
        code_lines: 32,
        seed,
    }
}

fn one(components: Vec<(Component, u32)>) -> Vec<Phase> {
    vec![Phase { components }]
}

/// Builds the `idx`-th template of a suite, perturbed by `seed`.
fn template(suite: SuiteId, idx: usize, seed: u64) -> GenParams {
    use Component::*;
    // Seed-derived size scaling keeps members of a family distinct.
    let scale = 1 + (seed % 3);
    let pages_big = 2048 * scale;
    let pages_mid = 512 * scale;
    match suite {
        SuiteId::Spec06 | SuiteId::Spec17 => match idx % 7 {
            // libquantum/lbm-like pure stream: page-cross friendly.
            0 => mix(
                one(vec![(
                    Stream {
                        stride_lines: 1,
                        pages: pages_big,
                    },
                    1,
                )]),
                0.28,
                64_000,
                seed,
            ),
            // sphinx3/fotonik-like segmented over a TLB-exceeding footprint:
            // page-cross hostile.
            1 => mix(
                one(vec![(SegmentedStream { pages: pages_big }, 1)]),
                0.30,
                64_000,
                seed,
            ),
            // mcf-like chase.
            2 => mix(
                one(vec![(Chase { pages: pages_big }, 1)]),
                0.22,
                64_000,
                seed,
            ),
            // astar-like TLB-bound strided stream: crosses pages every few
            // accesses, very page-cross friendly.
            3 => mix(
                one(vec![(
                    Stream {
                        stride_lines: 16,
                        pages: pages_big,
                    },
                    1,
                )]),
                0.26,
                64_000,
                seed,
            ),
            // stencil sweep: every touch lands on a new page, predictable
            // large delta.
            4 => mix(
                one(vec![(
                    Stencil {
                        row_lines: 80,
                        rows: 128 * scale,
                    },
                    1,
                )]),
                0.27,
                64_000,
                seed,
            ),
            // phase-flipping stream: the same PC/delta is page-cross
            // friendly and hostile in alternating phases.
            5 => mix(
                one(vec![(
                    AlternatingStream {
                        pages: pages_big,
                        period_pages: 24,
                    },
                    1,
                )]),
                0.28,
                64_000,
                seed,
            ),
            // twin streams from one PC: useful and harmful page-cross
            // deltas share every trigger-level feature.
            _ => mix(
                one(vec![(TwinStream { pages: pages_mid }, 1)]),
                0.28,
                64_000,
                seed,
            ),
        },
        SuiteId::Gap | SuiteId::Ligra => match idx % 5 {
            // cc.road/tc.road-like: streaming-dominated graph, PGC-friendly.
            0 => mix(
                one(vec![
                    (
                        Stream {
                            stride_lines: 1,
                            pages: pages_big,
                        },
                        2,
                    ),
                    (
                        GraphCsr {
                            pages: pages_big,
                            degree: 3,
                        },
                        1,
                    ),
                ]),
                0.30,
                48_000,
                seed,
            ),
            // bc.web/pr.web-like: segmented + zipf neighbours, PGC-hostile.
            1 => mix(
                one(vec![
                    (SegmentedStream { pages: pages_big }, 2),
                    (
                        GraphCsr {
                            pages: pages_big,
                            degree: 6,
                        },
                        1,
                    ),
                ]),
                0.30,
                48_000,
                seed,
            ),
            // bfs-like: CSR heavy.
            2 => mix(
                one(vec![(
                    GraphCsr {
                        pages: pages_big,
                        degree: 4,
                    },
                    1,
                )]),
                0.32,
                48_000,
                seed,
            ),
            // phase-flipping graph frontier.
            3 => mix(
                one(vec![
                    (
                        AlternatingStream {
                            pages: pages_big,
                            period_pages: 32,
                        },
                        2,
                    ),
                    (
                        GraphCsr {
                            pages: pages_big,
                            degree: 4,
                        },
                        1,
                    ),
                ]),
                0.30,
                48_000,
                seed,
            ),
            // mis/kcore-like: chase + stream phases alternating.
            _ => mix(
                vec![
                    Phase {
                        components: vec![(
                            Stream {
                                stride_lines: 1,
                                pages: pages_mid,
                            },
                            1,
                        )],
                    },
                    Phase {
                        components: vec![(Chase { pages: pages_big }, 1)],
                    },
                ],
                0.28,
                24_000,
                seed,
            ),
        },
        SuiteId::Parsec => match idx % 3 {
            // vips-like streaming kernels.
            0 => mix(
                one(vec![(
                    Stream {
                        stride_lines: 1,
                        pages: pages_mid,
                    },
                    1,
                )]),
                0.24,
                64_000,
                seed,
            ),
            // canneal-like chase (footprint beyond the LLC).
            1 => mix(
                one(vec![(Chase { pages: pages_big }, 1)]),
                0.20,
                64_000,
                seed,
            ),
            // streamcluster-like stencil.
            _ => mix(
                one(vec![(
                    Stencil {
                        row_lines: 72,
                        rows: 96 * scale,
                    },
                    1,
                )]),
                0.24,
                64_000,
                seed,
            ),
        },
        SuiteId::Gkb5 => match idx % 4 {
            0 => mix(
                one(vec![(
                    AlternatingStream {
                        pages: pages_big,
                        period_pages: 48,
                    },
                    1,
                )]),
                0.26,
                16_000,
                seed,
            ),
            1 => mix(
                one(vec![(TwinStream { pages: pages_mid }, 1)]),
                0.26,
                32_000,
                seed,
            ),
            2 => mix(
                one(vec![
                    (Chase { pages: pages_mid }, 1),
                    (
                        Stream {
                            stride_lines: 1,
                            pages: pages_mid,
                        },
                        1,
                    ),
                ]),
                0.24,
                32_000,
                seed,
            ),
            _ => {
                // High L1I pressure member (exercises the T_L1i rule).
                let mut p = mix(
                    one(vec![(SegmentedStream { pages: pages_mid }, 1)]),
                    0.24,
                    32_000,
                    seed,
                );
                p.code_lines = 4096;
                p
            }
        },
        SuiteId::QmmInt => {
            // Short-phase integer mixes: fast phase changes.
            let mut p = match idx % 3 {
                0 => mix(
                    vec![
                        Phase {
                            components: vec![(SegmentedStream { pages: pages_mid }, 1)],
                        },
                        Phase {
                            components: vec![(Chase { pages: pages_mid }, 1)],
                        },
                    ],
                    0.26,
                    8_000,
                    seed,
                ),
                1 => mix(
                    one(vec![(Chase { pages: pages_big }, 1)]),
                    0.22,
                    8_000,
                    seed,
                ),
                _ => mix(
                    one(vec![
                        (
                            Stream {
                                stride_lines: 1,
                                pages: pages_mid,
                            },
                            1,
                        ),
                        (SegmentedStream { pages: pages_mid }, 2),
                    ]),
                    0.26,
                    8_000,
                    seed,
                ),
            };
            p.branch_predictability = 0.90;
            p
        }
        SuiteId::QmmFp => match idx % 3 {
            0 => mix(
                one(vec![(
                    Stream {
                        stride_lines: 2,
                        pages: pages_big,
                    },
                    1,
                )]),
                0.30,
                12_000,
                seed,
            ),
            1 => mix(
                one(vec![(
                    Stencil {
                        row_lines: 96,
                        rows: 64 * scale,
                    },
                    1,
                )]),
                0.28,
                12_000,
                seed,
            ),
            _ => mix(
                vec![
                    Phase {
                        components: vec![(
                            Stream {
                                stride_lines: 1,
                                pages: pages_mid,
                            },
                            1,
                        )],
                    },
                    Phase {
                        components: vec![(
                            Stencil {
                                row_lines: 80,
                                rows: 64,
                            },
                            1,
                        )],
                    },
                ],
                0.28,
                12_000,
                seed,
            ),
        },
    }
}

fn build_suite(id: SuiteId) -> Suite {
    let (n_seen, n_unseen) = id.counts();
    let mut workloads = Vec::with_capacity(n_seen + n_unseen + 5);
    // Seen: seed space [1000, …); unseen: disjoint space [900000, …).
    for i in 0..n_seen {
        let seed = 1_000 + i as u64 * 17 + id.label().len() as u64 * 131;
        workloads.push(Workload {
            name: format!("{}.s{:02}", id.label(), i),
            suite: id,
            params: template(id, i, seed),
            intensive: true,
            seen: true,
        });
    }
    for i in 0..n_unseen {
        let seed = 900_000 + i as u64 * 23 + id.label().len() as u64 * 197;
        workloads.push(Workload {
            name: format!("{}.u{:02}", id.label(), i),
            suite: id,
            params: template(id, i + 2, seed),
            intensive: true,
            seen: false,
        });
    }
    // Five non-intensive members per suite (cache-resident).
    for i in 0..5 {
        let seed = 500_000 + i as u64 * 29;
        let mut params = mix(
            one(vec![(Component::Hot { pages: 8 }, 1)]),
            0.20,
            64_000,
            seed,
        );
        params.seed = seed;
        workloads.push(Workload {
            name: format!("{}.n{:02}", id.label(), i),
            suite: id,
            params,
            intensive: false,
            seen: false,
        });
    }
    Suite { id, workloads }
}

static REGISTRY: OnceLock<Vec<Suite>> = OnceLock::new();

fn registry() -> &'static [Suite] {
    REGISTRY.get_or_init(|| SuiteId::ALL.iter().map(|&id| build_suite(id)).collect())
}

/// The suite registry entry for `id`.
pub fn suite(id: SuiteId) -> &'static Suite {
    registry()
        .iter()
        .find(|s| s.id == id)
        .expect("all suites registered")
}

/// All 218 seen memory-intensive workloads.
pub fn seen_workloads() -> Vec<&'static Workload> {
    registry()
        .iter()
        .flat_map(|s| s.workloads.iter())
        .filter(|w| w.seen && w.intensive)
        .collect()
}

/// All 178 unseen memory-intensive workloads.
pub fn unseen_workloads() -> Vec<&'static Workload> {
    registry()
        .iter()
        .flat_map(|s| s.workloads.iter())
        .filter(|w| !w.seen && w.intensive)
        .collect()
}

/// The non-intensive workloads (§V-B9).
pub fn non_intensive_workloads() -> Vec<&'static Workload> {
    registry()
        .iter()
        .flat_map(|s| s.workloads.iter())
        .filter(|w| !w.intensive)
        .collect()
}

/// A curated, diverse subset of seen workloads sized for quick experiment
/// campaigns: `per_suite` members of each suite, template-stratified.
pub fn representative_seen(per_suite: usize) -> Vec<&'static Workload> {
    registry()
        .iter()
        .flat_map(|s| {
            // The first k workloads of a suite instantiate templates
            // 0..k, so a prefix sample is template-stratified.
            s.workloads
                .iter()
                .filter(|w| w.seen && w.intensive)
                .take(per_suite)
        })
        .collect()
}

/// A curated subset of unseen workloads.
pub fn representative_unseen(per_suite: usize) -> Vec<&'static Workload> {
    registry()
        .iter()
        .flat_map(|s| {
            s.workloads
                .iter()
                .filter(|w| !w.seen && w.intensive)
                .take(per_suite)
        })
        .collect()
}

/// Deterministic random `n`-way mixes for the multi-core campaign (§IV-A2).
pub fn random_mixes(n_mixes: usize, cores: usize, seed: u64) -> Vec<Vec<&'static Workload>> {
    let pool = seen_workloads();
    let mut rng = pagecross_types::Rng64::new(seed);
    (0..n_mixes)
        .map(|_| {
            (0..cores)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts() {
        assert_eq!(seen_workloads().len(), 218);
        assert_eq!(unseen_workloads().len(), 178);
        assert_eq!(non_intensive_workloads().len(), 40);
    }

    #[test]
    fn names_unique() {
        let all: Vec<&str> = registry()
            .iter()
            .flat_map(|s| s.workloads.iter())
            .map(|w| w.name.as_str())
            .collect();
        let set: pagecross_types::FastSet<&str> = all.iter().copied().collect();
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn seen_and_unseen_use_disjoint_seeds() {
        for s in registry() {
            for w in &s.workloads {
                if w.seen {
                    assert!(w.params.seed < 500_000);
                } else if w.intensive {
                    assert!(w.params.seed >= 900_000);
                }
            }
        }
    }

    #[test]
    fn traces_build_and_generate() {
        for w in representative_seen(1) {
            let mut t = w.build();
            for _ in 0..100 {
                let _ = t.next_instr();
            }
        }
    }

    #[test]
    fn qmm_has_short_lengths() {
        let q = suite(SuiteId::QmmInt)
            .workloads()
            .first()
            .unwrap()
            .default_lengths();
        let s = suite(SuiteId::Spec06)
            .workloads()
            .first()
            .unwrap()
            .default_lengths();
        assert!(q.1 < s.1);
    }

    #[test]
    fn mixes_are_deterministic() {
        let a = random_mixes(5, 8, 42);
        let b = random_mixes(5, 8, 42);
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.len(), 8);
            for (wa, wb) in ma.iter().zip(mb.iter()) {
                assert_eq!(wa.name(), wb.name());
            }
        }
    }

    #[test]
    fn representative_subset_spans_suites() {
        let r = representative_seen(2);
        assert_eq!(r.len(), 16);
        let suites: pagecross_types::FastSet<_> = r.iter().map(|w| w.suite()).collect();
        assert_eq!(suites.len(), 8);
    }

    #[test]
    fn registry_has_page_cross_friendly_and_hostile_members() {
        // Template 0 of spec06 is a pure stream; template 1 is segmented.
        let s = suite(SuiteId::Spec06);
        let w0 = &s.workloads()[0];
        let w1 = &s.workloads()[1];
        assert!(format!("{:?}", w0.params().phases).contains("Stream"));
        assert!(format!("{:?}", w1.params().phases).contains("SegmentedStream"));
    }
}
