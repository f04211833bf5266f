//! Regenerates the constants locked by `tests/golden.rs`.
//!
//! Run `cargo run --release -p pagecross-bench --example golden_capture`
//! after an *intentional* behaviour change and copy the printed counters
//! into the golden table. Debug and release builds must print identical
//! values (the simulator is integer-deterministic); if they ever differ,
//! that is itself a bug.

use pagecross_cpu::trace::TraceFactory;
use pagecross_cpu::{OsConfig, PgcPolicyKind, PrefetcherKind, SimulationBuilder};
use pagecross_workloads::{random_mixes, suite, SuiteId};

fn main() {
    let cases = [
        (
            "gap.s00",
            SuiteId::Gap,
            0,
            PrefetcherKind::Berti,
            PgcPolicyKind::Dripper,
        ),
        (
            "spec06.s00",
            SuiteId::Spec06,
            0,
            PrefetcherKind::Berti,
            PgcPolicyKind::PermitPgc,
        ),
        (
            "ligra.s01",
            SuiteId::Ligra,
            1,
            PrefetcherKind::Bop,
            PgcPolicyKind::Dripper,
        ),
        (
            "qmm_int.s00",
            SuiteId::QmmInt,
            0,
            PrefetcherKind::Ipcp,
            PgcPolicyKind::DiscardPgc,
        ),
    ];
    for (name, sid, idx, pf, pol) in cases {
        let w = &suite(sid).workloads()[idx];
        assert_eq!(
            w.name(),
            name,
            "registry order changed; update the case list"
        );
        let r = SimulationBuilder::new()
            .prefetcher(pf)
            .pgc_policy(pol)
            .warmup(5_000)
            .instructions(20_000)
            .run_workload(w);
        println!(
            "(\"{}\", {:?}, {:?}): cycles={} l1d_acc={} l1d_miss={} dtlb_miss={} stlb_miss={} \
             pgc_cand={} pgc_issued={} pgc_disc={} demand_walks={} ipc={:.6} l1d_mpki={:.6} dtlb_mpki={:.6}",
            name,
            pf,
            pol,
            r.core.cycles,
            r.l1d.demand_accesses,
            r.l1d.demand_misses,
            r.dtlb.misses,
            r.stlb.misses,
            r.prefetch.pgc_candidates,
            r.prefetch.pgc_issued,
            r.prefetch.pgc_discarded,
            r.walks.demand_walks,
            r.ipc(),
            r.l1d_mpki(),
            r.dtlb_mpki()
        );
    }

    // Mix goldens: the `Debug` rendering of every core's CoreStats and
    // OsStats, and of the shared LLC's CacheStats.
    let gap = suite(SuiteId::Gap).workloads();
    let os = OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 0.5,
        ..OsConfig::default()
    };
    let os_builder = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::Ipcp)
        .pgc_policy(PgcPolicyKind::PermitPgc)
        .os(os);
    // THP 1.0 at 64 MB: gap.s02's slice of the 4 KB pool fills, so core
    // 2 reclaims pages and major-faults them back in. No promotion or
    // demotion falls in the measured phase; the region-cycle golden in
    // `tests/os_model.rs` locks those paths.
    let reclaim_builder = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::Ipcp)
        .pgc_policy(PgcPolicyKind::DiscardPgc)
        .os(OsConfig {
            phys_mem_bytes: 64 << 20,
            thp: 1.0,
            ..OsConfig::default()
        });
    let mixes = [
        (
            SimulationBuilder::new(),
            random_mixes(1, 4, 42).remove(0),
            5_000,
            20_000,
        ),
        (os_builder, vec![&gap[0], &gap[1]], 5_000, 20_000),
        (
            reclaim_builder,
            gap.iter().take(4).collect(),
            10_000,
            50_000,
        ),
    ];
    for (builder, mix, warmup, instructions) in mixes {
        let ws: Vec<&dyn TraceFactory> = mix.iter().map(|w| *w as _).collect();
        let m = builder
            .warmup(warmup)
            .instructions(instructions)
            .try_run_mix(&ws)
            .expect("the mix fits in memory");
        println!("mix {:?}", m.workloads);
        for (core, os) in m.cores.iter().zip(&m.os) {
            println!("  {core:?}\n  {os:?}");
        }
        println!("  {:?}", m.llc);
    }
}
