//! Golden-stats regression tests: small seeded workloads run end-to-end
//! with their exact counter values locked. The simulator is deterministic
//! bit-for-bit (every stochastic choice draws from `Rng64`), so any
//! divergence here means simulated *behaviour* changed — not just
//! performance. Perf work must keep these green; intentional model changes
//! must update the goldens explicitly.
//!
//! Regenerate with:
//! `cargo run -p pagecross-bench --example golden_capture`

use pagecross::cpu::{OsConfig, PgcPolicyKind, PrefetcherKind, Report, SimulationBuilder};
use pagecross::workloads::{random_mixes, suite, SuiteId, Workload};

/// Locked counters for one (workload, prefetcher, policy) configuration,
/// run with warmup 5 000 / measured 20 000 and the default seed.
struct Golden {
    workload: &'static str,
    suite: SuiteId,
    index: usize,
    prefetcher: PrefetcherKind,
    policy: PgcPolicyKind,
    cycles: u64,
    l1d_demand_accesses: u64,
    l1d_demand_misses: u64,
    dtlb_misses: u64,
    stlb_misses: u64,
    pgc_candidates: u64,
    pgc_issued: u64,
    pgc_discarded: u64,
    demand_walks: u64,
    /// Derived ratios, locked as 6-decimal strings.
    ipc: &'static str,
    l1d_mpki: &'static str,
    dtlb_mpki: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        workload: "gap.s00",
        suite: SuiteId::Gap,
        index: 0,
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        cycles: 38_087,
        l1d_demand_accesses: 7_463,
        l1d_demand_misses: 1_272,
        dtlb_misses: 845,
        stlb_misses: 466,
        pgc_candidates: 857,
        pgc_issued: 231,
        pgc_discarded: 492,
        demand_walks: 466,
        ipc: "0.525114",
        l1d_mpki: "63.600000",
        dtlb_mpki: "42.250000",
    },
    Golden {
        workload: "spec06.s00",
        suite: SuiteId::Spec06,
        index: 0,
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::PermitPgc,
        cycles: 11_782,
        l1d_demand_accesses: 7_006,
        l1d_demand_misses: 0,
        dtlb_misses: 0,
        stlb_misses: 0,
        pgc_candidates: 261,
        pgc_issued: 54,
        pgc_discarded: 0,
        demand_walks: 0,
        ipc: "1.697505",
        l1d_mpki: "0.000000",
        dtlb_mpki: "0.000000",
    },
    Golden {
        workload: "ligra.s01",
        suite: SuiteId::Ligra,
        index: 1,
        prefetcher: PrefetcherKind::Bop,
        policy: PgcPolicyKind::Dripper,
        cycles: 44_018,
        l1d_demand_accesses: 7_557,
        l1d_demand_misses: 1_643,
        dtlb_misses: 959,
        stlb_misses: 539,
        pgc_candidates: 578,
        pgc_issued: 16,
        pgc_discarded: 560,
        demand_walks: 539,
        ipc: "0.454360",
        l1d_mpki: "82.150000",
        dtlb_mpki: "47.950000",
    },
    Golden {
        workload: "qmm_int.s00",
        suite: SuiteId::QmmInt,
        index: 0,
        prefetcher: PrefetcherKind::Ipcp,
        policy: PgcPolicyKind::DiscardPgc,
        cycles: 181_728,
        l1d_demand_accesses: 6_435,
        l1d_demand_misses: 2_758,
        dtlb_misses: 2_462,
        stlb_misses: 526,
        pgc_candidates: 533,
        pgc_issued: 0,
        pgc_discarded: 533,
        demand_walks: 526,
        ipc: "0.110055",
        l1d_mpki: "137.900000",
        dtlb_mpki: "123.100000",
    },
];

fn run(g: &Golden) -> Report {
    use pagecross::cpu::trace::TraceFactory;
    let w = &suite(g.suite).workloads()[g.index];
    assert_eq!(
        w.name(),
        g.workload,
        "registry order changed; regenerate goldens"
    );
    SimulationBuilder::new()
        .prefetcher(g.prefetcher)
        .pgc_policy(g.policy)
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w)
}

#[test]
fn golden_counters_are_stable() {
    for g in GOLDENS {
        let r = run(g);
        let tag = format!("{} / {:?} / {:?}", g.workload, g.prefetcher, g.policy);
        assert_eq!(r.core.instructions, 20_000, "{tag}: measured length");
        assert_eq!(r.core.cycles, g.cycles, "{tag}: cycles");
        assert_eq!(
            r.l1d.demand_accesses, g.l1d_demand_accesses,
            "{tag}: L1D accesses"
        );
        assert_eq!(
            r.l1d.demand_misses, g.l1d_demand_misses,
            "{tag}: L1D misses"
        );
        assert_eq!(r.dtlb.misses, g.dtlb_misses, "{tag}: dTLB misses");
        assert_eq!(r.stlb.misses, g.stlb_misses, "{tag}: sTLB misses");
        assert_eq!(
            r.prefetch.pgc_candidates, g.pgc_candidates,
            "{tag}: PGC candidates"
        );
        assert_eq!(
            r.prefetch.pgc_issued, g.pgc_issued,
            "{tag}: DRIPPER/policy issues"
        );
        assert_eq!(
            r.prefetch.pgc_discarded, g.pgc_discarded,
            "{tag}: DRIPPER/policy discards"
        );
        assert_eq!(r.walks.demand_walks, g.demand_walks, "{tag}: demand walks");
        assert_eq!(format!("{:.6}", r.ipc()), g.ipc, "{tag}: IPC");
        assert_eq!(
            format!("{:.6}", r.l1d_mpki()),
            g.l1d_mpki,
            "{tag}: L1D MPKI"
        );
        assert_eq!(
            format!("{:.6}", r.dtlb_mpki()),
            g.dtlb_mpki,
            "{tag}: dTLB MPKI"
        );
    }
}

/// The same configuration run twice produces the identical report — the
/// precondition for the golden values (and the parallel campaign merge)
/// to be meaningful.
#[test]
fn repeat_runs_are_bit_identical() {
    let g = &GOLDENS[0];
    assert_eq!(run(g), run(g));
}

/// Recording a workload to a `.pct` file and replaying it through the same
/// simulator configuration reproduces the direct run's report bit-for-bit,
/// for every golden workload. This is the contract that makes traces a
/// drop-in substitute for synthetic generators in campaigns.
#[test]
fn replayed_traces_reproduce_golden_counters() {
    use pagecross::trace::{record, TraceReplay};

    let dir = std::env::temp_dir().join(format!("pct-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    for g in GOLDENS {
        let w = &suite(g.suite).workloads()[g.index];
        let path = dir.join(format!("{}.pct", g.workload));
        // Record exactly the instructions the golden run consumes:
        // warmup 5 000 + measured 20 000.
        record(w, 25_000, w.params().seed, &path).expect("recording the golden workload");
        let replay = TraceReplay::open(&path).expect("freshly recorded trace");
        let replayed = SimulationBuilder::new()
            .prefetcher(g.prefetcher)
            .pgc_policy(g.policy)
            .warmup(5_000)
            .instructions(20_000)
            .run_workload(&replay);
        let direct = run(g);
        assert_eq!(
            replayed, direct,
            "{}: replayed report must be bit-identical to the direct run",
            g.workload
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact counters of one mix: the `Debug` rendering of every core's
/// `CoreStats` and `OsStats`, and of the shared LLC's `CacheStats`.
struct MixGolden {
    workloads: &'static [&'static str],
    warmup: u64,
    instructions: u64,
    cores: &'static [(&'static str, &'static str)],
    llc: &'static str,
}

const OS_OFF: &str = "OsStats { minor_faults: 0, major_faults: 0, reclaims: 0, thp_promotions: 0, thp_demotions: 0, shootdowns: 0, ipis_received: 0, fault_cycles: 0 }";

/// `random_mixes(1, 4, 42)[0]` with Berti + DRIPPER and the OS off.
const MIX4: MixGolden = MixGolden {
    workloads: &["spec17.s33", "qmm_int.s02", "qmm_int.s04", "qmm_fp.s12"],
    warmup: 5_000,
    instructions: 20_000,
    cores: &[
        ("CoreStats { instructions: 20000, cycles: 260466, loads: 5606, stores: 1426, branch_mispredicts: 95, branches: 2457, stalls: StallBreakdown { rob_full: 1504472, l1d_miss: 0, tlb_walk: 16505, branch_redirect: 6875, fetch_starved: 0, os_fault: 0, drain: 14939, warmup_carry: 5 } }", OS_OFF),
        ("CoreStats { instructions: 20000, cycles: 286964, loads: 5274, stores: 1263, branch_mispredicts: 255, branches: 2464, stalls: StallBreakdown { rob_full: 1567315, l1d_miss: 0, tlb_walk: 86875, branch_redirect: 18581, fetch_starved: 0, os_fault: 0, drain: 29012, warmup_carry: 1 } }", OS_OFF),
        ("CoreStats { instructions: 20000, cycles: 300373, loads: 4492, stores: 1156, branch_mispredicts: 245, branches: 2317, stalls: StallBreakdown { rob_full: 0, l1d_miss: 367672, tlb_walk: 1378294, branch_redirect: 16461, fetch_starved: 0, os_fault: 0, drain: 19810, warmup_carry: 1 } }", OS_OFF),
        ("CoreStats { instructions: 20000, cycles: 286256, loads: 5955, stores: 1526, branch_mispredicts: 92, branches: 2359, stalls: StallBreakdown { rob_full: 1661494, l1d_miss: 0, tlb_walk: 0, branch_redirect: 6420, fetch_starved: 0, os_fault: 0, drain: 29621, warmup_carry: 1 } }", OS_OFF),
    ],
    llc: "CacheStats { demand_accesses: 5628, demand_misses: 5624, prefetch_accesses: 5462, prefetch_hits: 6, prefetch_fills: 5300, prefetch_useful: 0, prefetch_useless: 0, pgc_fills: 259, pgc_useful: 0, pgc_useless: 0, writebacks: 0 }",
};

/// `gap.s00` + `gap.s01` with IPCP + Permit and the OS at 64 MB, THP 0.5:
/// faults, promotions, shootdowns and IPIs all fire.
const MIX2_OS: MixGolden = MixGolden {
    workloads: &["gap.s00", "gap.s01"],
    warmup: 5_000,
    instructions: 20_000,
    cores: &[
        ("CoreStats { instructions: 20000, cycles: 230372, loads: 5999, stores: 1464, branch_mispredicts: 89, branches: 2347, stalls: StallBreakdown { rob_full: 21104, l1d_miss: 309054, tlb_walk: 21317, branch_redirect: 6562, fetch_starved: 0, os_fault: 977815, drain: 26379, warmup_carry: 1 } }",
         "OsStats { minor_faults: 448, major_faults: 0, reclaims: 0, thp_promotions: 1, thp_demotions: 0, shootdowns: 1, ipis_received: 1, fault_cycles: 1794800 }"),
        ("CoreStats { instructions: 20000, cycles: 230506, loads: 5965, stores: 1460, branch_mispredicts: 103, branches: 2372, stalls: StallBreakdown { rob_full: 73862, l1d_miss: 431639, tlb_walk: 0, branch_redirect: 7609, fetch_starved: 0, os_fault: 823549, drain: 26375, warmup_carry: 2 } }",
         "OsStats { minor_faults: 366, major_faults: 0, reclaims: 0, thp_promotions: 1, thp_demotions: 0, shootdowns: 1, ipis_received: 1, fault_cycles: 1466800 }"),
    ],
    llc: "CacheStats { demand_accesses: 2525, demand_misses: 2525, prefetch_accesses: 2892, prefetch_hits: 0, prefetch_fills: 2579, prefetch_useful: 0, prefetch_useless: 0, pgc_fills: 0, pgc_useful: 0, pgc_useless: 0, writebacks: 0 }",
};

/// `gap.s00`–`gap.s03` with IPCP + Discard and the OS at 64 MB, THP 1.0,
/// warm-up 10 000 and 50 000 measured: gap.s02's slice of the 4 KB pool
/// fills, so core 2 reclaims pages and major-faults them back in.
const MIX4_RECLAIM: MixGolden = MixGolden {
    workloads: &["gap.s00", "gap.s01", "gap.s02", "gap.s03"],
    warmup: 10_000,
    instructions: 50_000,
    cores: &[
        ("CoreStats { instructions: 50000, cycles: 622734, loads: 14984, stores: 3678, branch_mispredicts: 211, branches: 5992, stalls: StallBreakdown { rob_full: 277708, l1d_miss: 1777813, tlb_walk: 0, branch_redirect: 15128, fetch_starved: 0, os_fault: 1591655, drain: 24096, warmup_carry: 4 } }",
         "OsStats { minor_faults: 673, major_faults: 0, reclaims: 0, thp_promotions: 0, thp_demotions: 0, shootdowns: 0, ipis_received: 81, fault_cycles: 2756800 }"),
        ("CoreStats { instructions: 50000, cycles: 617636, loads: 15114, stores: 3754, branch_mispredicts: 218, branches: 5910, stalls: StallBreakdown { rob_full: 301190, l1d_miss: 1816834, tlb_walk: 0, branch_redirect: 15995, fetch_starved: 0, os_fault: 1501726, drain: 20070, warmup_carry: 1 } }",
         "OsStats { minor_faults: 626, major_faults: 0, reclaims: 0, thp_promotions: 0, thp_demotions: 0, shootdowns: 0, ipis_received: 80, fault_cycles: 2568000 }"),
        ("CoreStats { instructions: 50000, cycles: 698481, loads: 15768, stores: 4018, branch_mispredicts: 246, branches: 6086, stalls: StallBreakdown { rob_full: 0, l1d_miss: 1330897, tlb_walk: 16092, branch_redirect: 17822, fetch_starved: 0, os_fault: 2753173, drain: 22899, warmup_carry: 3 } }",
         "OsStats { minor_faults: 1643, major_faults: 5, reclaims: 124, thp_promotions: 0, thp_demotions: 0, shootdowns: 124, ipis_received: 0, fault_cycles: 6732000 }"),
        ("CoreStats { instructions: 50000, cycles: 645713, loads: 14989, stores: 3742, branch_mispredicts: 239, branches: 6004, stalls: StallBreakdown { rob_full: 446504, l1d_miss: 1532463, tlb_walk: 0, branch_redirect: 17380, fetch_starved: 0, os_fault: 1658764, drain: 169166, warmup_carry: 1 } }",
         "OsStats { minor_faults: 671, major_faults: 0, reclaims: 0, thp_promotions: 0, thp_demotions: 0, shootdowns: 0, ipis_received: 84, fault_cycles: 2751200 }"),
    ],
    llc: "CacheStats { demand_accesses: 15042, demand_misses: 14891, prefetch_accesses: 11048, prefetch_hits: 34, prefetch_fills: 10147, prefetch_useful: 0, prefetch_useless: 0, pgc_fills: 0, pgc_useful: 0, pgc_useless: 0, writebacks: 0 }",
};

fn check_mix(builder: SimulationBuilder, mix: &[&Workload], g: &MixGolden) {
    use pagecross::cpu::trace::TraceFactory;
    let names: Vec<&str> = mix.iter().map(|w| w.name()).collect();
    assert_eq!(
        names, g.workloads,
        "registry order changed; regenerate goldens"
    );
    let refs: Vec<&dyn TraceFactory> = mix.iter().map(|w| *w as &dyn TraceFactory).collect();
    let m = builder
        .warmup(g.warmup)
        .instructions(g.instructions)
        .try_run_mix(&refs)
        .expect("the mix fits in memory");
    assert_eq!(m.workloads, g.workloads);
    assert_eq!(m.cores.len(), g.cores.len());
    for (i, (core, os)) in g.cores.iter().enumerate() {
        assert_eq!(format!("{:?}", m.cores[i]), *core, "core {i}: CoreStats");
        assert_eq!(format!("{:?}", m.os[i]), *os, "core {i}: OsStats");
    }
    assert_eq!(format!("{:?}", m.llc), g.llc, "shared LLC");
}

#[test]
fn four_core_mix_counters_are_stable() {
    let mix = &random_mixes(1, 4, 42)[0];
    check_mix(SimulationBuilder::new(), mix, &MIX4);
}

#[test]
fn two_core_mix_with_os_counters_are_stable() {
    let gap = suite(SuiteId::Gap).workloads();
    let os = OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 0.5,
        ..OsConfig::default()
    };
    let builder = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::Ipcp)
        .pgc_policy(PgcPolicyKind::PermitPgc)
        .os(os);
    check_mix(builder, &[&gap[0], &gap[1]], &MIX2_OS);
}

/// A one-workload mix is the single-core run: same core, OS and LLC
/// counters, also when warm-up is empty.
#[test]
fn one_core_mix_equals_single_run() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    for warmup in [5_000, 0] {
        let b = SimulationBuilder::new().warmup(warmup).instructions(20_000);
        let single = b.try_run_workload(w).expect("fits in memory");
        let mix = b.try_run_mix(&[w]).expect("fits in memory");
        assert_eq!(mix.cores, [single.core], "warmup {warmup}: CoreStats");
        assert_eq!(mix.os, [single.os], "warmup {warmup}: OsStats");
        assert_eq!(mix.llc, single.llc, "warmup {warmup}: LLC");
    }
}

#[test]
fn four_core_mix_with_reclaim_counters_are_stable() {
    let gap = suite(SuiteId::Gap).workloads();
    let os = OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 1.0,
        ..OsConfig::default()
    };
    let builder = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::Ipcp)
        .pgc_policy(PgcPolicyKind::DiscardPgc)
        .os(os);
    check_mix(
        builder,
        &[&gap[0], &gap[1], &gap[2], &gap[3]],
        &MIX4_RECLAIM,
    );
}
