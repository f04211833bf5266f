//! Cross-crate integration tests: full simulations exercising the public
//! API the way the paper's experiments do.

use pagecross::cpu::{
    BoundaryMode, L2PrefetcherKind, PgcPolicyKind, PrefetcherKind, SimulationBuilder,
};
use pagecross::mem::HugePagePolicy;
use pagecross::types::geomean;
use pagecross::workloads::{random_mixes, representative_seen, suite, SuiteId};

fn builder() -> SimulationBuilder {
    SimulationBuilder::new().warmup(20_000).instructions(40_000)
}

/// The paper's central motivation (Fig. 2): a contiguous stream benefits
/// from page-cross prefetching.
#[test]
fn permit_beats_discard_on_contiguous_stream() {
    let stream = &suite(SuiteId::Spec06).workloads()[0];
    let discard = builder()
        .pgc_policy(PgcPolicyKind::DiscardPgc)
        .run_workload(stream);
    let permit = builder()
        .pgc_policy(PgcPolicyKind::PermitPgc)
        .run_workload(stream);
    assert!(
        permit.ipc() > discard.ipc() * 1.005,
        "permit {} vs discard {}",
        permit.ipc(),
        discard.ipc()
    );
    // The mechanism: page-cross prefetches kill dTLB/sTLB misses.
    assert!(permit.stlb_mpki() < discard.stlb_mpki());
}

/// The flip side (Fig. 2): segmented access over a TLB-exceeding footprint
/// is hurt by page-cross prefetching.
#[test]
fn discard_beats_permit_on_segmented_graph() {
    let hostile = &suite(SuiteId::Gap).workloads()[1];
    let discard = builder()
        .pgc_policy(PgcPolicyKind::DiscardPgc)
        .run_workload(hostile);
    let permit = builder()
        .pgc_policy(PgcPolicyKind::PermitPgc)
        .run_workload(hostile);
    assert!(
        discard.ipc() > permit.ipc() * 1.01,
        "discard {} vs permit {}",
        discard.ipc(),
        permit.ipc()
    );
    // The mechanism: wrong speculative walks + pollution.
    assert!(permit.prefetch.speculative_walks > 0);
}

/// DRIPPER's headline property (Fig. 9/10): over a mixed set it beats both
/// static policies in geomean.
#[test]
fn dripper_beats_both_static_policies_in_geomean() {
    // One friendly, one hostile, one neutral per suite family.
    let set = [
        &suite(SuiteId::Spec06).workloads()[0],
        &suite(SuiteId::Spec06).workloads()[1],
        &suite(SuiteId::Spec06).workloads()[3],
        &suite(SuiteId::Gap).workloads()[0],
        &suite(SuiteId::Gap).workloads()[1],
        &suite(SuiteId::Ligra).workloads()[2],
    ];
    let mut permit_r = vec![];
    let mut dripper_r = vec![];
    for w in set {
        let d = builder()
            .pgc_policy(PgcPolicyKind::DiscardPgc)
            .run_workload(w)
            .ipc();
        let p = builder()
            .pgc_policy(PgcPolicyKind::PermitPgc)
            .run_workload(w)
            .ipc();
        let x = builder()
            .pgc_policy(PgcPolicyKind::Dripper)
            .run_workload(w)
            .ipc();
        permit_r.push(p / d);
        dripper_r.push(x / d);
    }
    let gp = geomean(&permit_r).unwrap();
    let gd = geomean(&dripper_r).unwrap();
    assert!(
        gd > gp,
        "dripper geomean {gd} must beat permit geomean {gp}"
    );
    assert!(
        gd > 0.999,
        "dripper must not lose to discard in geomean, got {gd}"
    );
}

/// Discard-PTW sits between: no speculative walks ever, but some
/// page-cross prefetches still issue (TLB-resident translations).
#[test]
fn discard_ptw_issues_resident_only() {
    // A graph workload revisits pages, so some page-cross targets are
    // TLB-resident; a first-touch stream would issue nothing under this
    // policy.
    let w = &suite(SuiteId::Gap).workloads()[0];
    let r = builder()
        .pgc_policy(PgcPolicyKind::DiscardPtw)
        .run_workload(w);
    assert_eq!(r.walks.prefetch_walks, 0);
    assert!(
        r.prefetch.pgc_issued > 0,
        "resident translations allow some issues"
    );
    let permit = builder()
        .pgc_policy(PgcPolicyKind::PermitPgc)
        .run_workload(w);
    assert!(r.prefetch.pgc_issued < permit.prefetch.pgc_issued);
}

/// PPF (converted, §V-A) runs and filters; DRIPPER outperforms it in
/// geomean over a friendly+hostile pair.
#[test]
fn dripper_beats_ppf() {
    let set = [
        &suite(SuiteId::Spec06).workloads()[3],
        &suite(SuiteId::Gap).workloads()[1],
    ];
    let mut ppf_r = vec![];
    let mut dripper_r = vec![];
    for w in set {
        let d = builder()
            .pgc_policy(PgcPolicyKind::DiscardPgc)
            .run_workload(w)
            .ipc();
        let p = builder()
            .pgc_policy(PgcPolicyKind::Ppf)
            .run_workload(w)
            .ipc();
        let x = builder()
            .pgc_policy(PgcPolicyKind::Dripper)
            .run_workload(w)
            .ipc();
        ppf_r.push(p / d);
        dripper_r.push(x / d);
    }
    let gp = geomean(&ppf_r).unwrap();
    let gd = geomean(&dripper_r).unwrap();
    assert!(gd >= gp * 0.999, "dripper {gd} vs ppf {gp}");
}

/// All policies and prefetchers compose and produce sane reports.
#[test]
fn every_policy_prefetcher_combination_runs() {
    let w = &suite(SuiteId::Gkb5).workloads()[0];
    for pf in [
        PrefetcherKind::Berti,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Bop,
    ] {
        for policy in [
            PgcPolicyKind::PermitPgc,
            PgcPolicyKind::DiscardPgc,
            PgcPolicyKind::DiscardPtw,
            PgcPolicyKind::IsoStorage,
            PgcPolicyKind::Dripper,
            PgcPolicyKind::DripperSf,
            PgcPolicyKind::Ppf,
            PgcPolicyKind::PpfDthr,
        ] {
            let r = SimulationBuilder::new()
                .prefetcher(pf)
                .pgc_policy(policy)
                .warmup(3_000)
                .instructions(6_000)
                .run_workload(w);
            assert_eq!(r.core.instructions, 6_000, "{pf:?}/{policy:?}");
            assert!(
                r.ipc() > 0.0 && r.ipc() < 6.0,
                "{pf:?}/{policy:?}: {}",
                r.ipc()
            );
        }
    }
}

/// L2C prefetcher variants (§V-B7) run and fill the L2.
#[test]
fn l2_prefetchers_produce_l2_fills() {
    let w = &suite(SuiteId::Gap).workloads()[1];
    // Disable the L1D prefetcher so demand misses reach the L2 and train
    // the L2C prefetcher (with Berti active the stream has no L2 traffic).
    let builder = || builder().prefetcher(PrefetcherKind::None);
    let without = builder()
        .l2_prefetcher(L2PrefetcherKind::None)
        .run_workload(w);
    for l2 in [
        L2PrefetcherKind::Spp,
        L2PrefetcherKind::Ipcp,
        L2PrefetcherKind::Bop,
    ] {
        let with = builder().l2_prefetcher(l2).run_workload(w);
        assert!(
            with.l2c.prefetch_fills > without.l2c.prefetch_fills,
            "{l2:?} must add L2 fills: {} vs {}",
            with.l2c.prefetch_fills,
            without.l2c.prefetch_fills
        );
    }
}

/// Huge pages (§V-B6): the Fraction policy maps both sizes, and the
/// page-size-aware boundary mode reduces the number of candidates treated
/// as page-crossing.
#[test]
fn huge_pages_change_crossing_classification() {
    let w = &suite(SuiteId::Spec06).workloads()[0];
    let fixed = builder()
        .huge_pages(HugePagePolicy::All)
        .boundary(BoundaryMode::Fixed4K)
        .pgc_policy(PgcPolicyKind::Dripper)
        .run_workload(w);
    let aware = builder()
        .huge_pages(HugePagePolicy::All)
        .boundary(BoundaryMode::PageSizeAware)
        .pgc_policy(PgcPolicyKind::Dripper)
        .run_workload(w);
    assert!(
        aware.prefetch.pgc_candidates < fixed.prefetch.pgc_candidates,
        "2MB boundaries see fewer crossings: {} vs {}",
        aware.prefetch.pgc_candidates,
        fixed.prefetch.pgc_candidates
    );
    // With 2MB pages there are no sTLB misses for the stream at all.
    assert!(aware.stlb_mpki() <= fixed.stlb_mpki() + 1e-9);
}

/// Multi-core mixes (§IV-A2) run, freeze per-core stats at quota, and
/// produce weighted speedups.
#[test]
fn multicore_mix_weighted_speedup() {
    let mixes = random_mixes(1, 4, 7);
    let ws: Vec<&dyn pagecross::cpu::TraceFactory> = mixes[0]
        .iter()
        .map(|w| *w as &dyn pagecross::cpu::TraceFactory)
        .collect();
    let m = SimulationBuilder::new()
        .warmup(3_000)
        .instructions(8_000)
        .try_run_mix(&ws)
        .expect("fits in memory");
    assert_eq!(m.cores.len(), 4);
    for c in &m.cores {
        assert_eq!(c.instructions, 8_000);
    }
    let iso: Vec<f64> = m.ipcs(); // self-relative: weighted IPC == n
    let wipc = m.weighted_ipc(&iso).expect("one isolation IPC per core");
    assert!((wipc - 4.0).abs() < 1e-9);
    assert_eq!(
        m.weighted_ipc(&iso[..3]),
        None,
        "length mismatch is rejected, not summed"
    );
}

/// Reports are reproducible end to end (same seed, same workload).
#[test]
fn full_pipeline_determinism() {
    let w = representative_seen(1)[3];
    let a = builder().pgc_policy(PgcPolicyKind::Dripper).run_workload(w);
    let b = builder().pgc_policy(PgcPolicyKind::Dripper).run_workload(w);
    assert_eq!(a.core, b.core);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.llc, b.llc);
    assert_eq!(a.stlb, b.stlb);
    assert_eq!(a.prefetch, b.prefetch);
}

/// Conservation: issued + discarded == page-cross candidates; PCB fills
/// only come from issued page-cross prefetches.
#[test]
fn prefetch_accounting_conserves() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    for policy in [PgcPolicyKind::PermitPgc, PgcPolicyKind::Dripper] {
        let r = builder().pgc_policy(policy).run_workload(w);
        let p = &r.prefetch;
        // Some issued prefetches are dropped as redundant/unmapped, so
        // issued ≤ candidates − discarded.
        assert!(
            p.pgc_issued + p.pgc_discarded <= p.pgc_candidates,
            "{policy:?}: {} + {} vs {}",
            p.pgc_issued,
            p.pgc_discarded,
            p.pgc_candidates
        );
        assert!(r.l1d.pgc_fills <= p.pgc_issued + 1);
        assert!(r.l1d.pgc_useful + r.l1d.pgc_useless <= r.l1d.pgc_fills + 64);
    }
}
