//! DRIPPER's storage (Table III) and the sizing ablations of its buffers
//! and weight tables, each over [`representative_seen`]`(1)`.

use moka_pgc::dripper::{dripper_config, TargetPrefetcher};
use moka_pgc::FilterConfig;
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};
use pagecross_workloads::representative_seen;

use super::{geomeans_vs_first, grid, Cell};
use crate::campaign::{Scheme, WorkloadResult};
use crate::table::{fmt_pct, Table};

/// Table III — DRIPPER's storage overhead breakdown.
///
/// This is a static computation over the configuration, printed in the
/// paper's rows. Note: Table III's printed "1×512×5 bits" is inconsistent
/// with its own 0.625 KB line item and 1.44 KB total, which imply ~1024
/// entries; this implementation uses 1024 (see `FilterConfig`).
pub(super) fn table03(_: &[WorkloadResult], t: &mut Table) {
    let cfg = dripper_config(TargetPrefetcher::Berti);
    let kb = |bits: u64| format!("{:.5}", bits as f64 / 8.0 / 1000.0);
    t.header(&["component", "geometry", "KB"]);
    let n_pf = cfg.program_features.len();
    t.row(&[
        "program features".into(),
        format!("{n_pf}x{}x{} bits", cfg.wt_entries, cfg.weight_bits),
        kb(n_pf as u64 * cfg.wt_entries as u64 * cfg.weight_bits as u64),
    ]);
    let n_sf = cfg.system_features.len();
    t.row(&[
        "system features".into(),
        format!("{n_sf}x{} bits", cfg.weight_bits),
        kb(n_sf as u64 * cfg.weight_bits as u64),
    ]);
    for (name, entries) in [("vUB", cfg.vub_entries), ("pUB", cfg.pub_entries)] {
        t.row(&[
            name.into(),
            format!("{entries}x(36+12) bits"),
            kb(entries as u64 * 48),
        ]);
    }
    let total = cfg.storage_kb();
    t.row(&["TOTAL".into(), "".into(), format!("{total:.3}")]);

    // Same budget for every prefetcher's DRIPPER.
    let same = [
        TargetPrefetcher::Berti,
        TargetPrefetcher::Ipcp,
        TargetPrefetcher::Bop,
    ]
    .iter()
    .all(|&t| (dripper_config(t).storage_kb() - total).abs() < 1e-9);
    t.summary(
        "DRIPPER requires 1.44 KB per core, identical for all prefetchers",
        &format!("{total:.3} KB, identical across prefetchers: {same}"),
        (total - 1.44).abs() < 0.05 && same,
    );
}

/// Berti + Discard PGC, then Berti with a filter built from each config.
fn filter_sweep(label: impl Fn(&FilterConfig) -> String, configs: &[FilterConfig]) -> Vec<Scheme> {
    let discard = Scheme::new("discard", PrefetcherKind::Berti, PgcPolicyKind::DiscardPgc);
    let custom = configs.iter().map(|f| {
        let mut s = Scheme::new(&label(f), PrefetcherKind::Berti, PgcPolicyKind::Dripper);
        s.filter = Some(f.clone());
        s
    });
    std::iter::once(discard).chain(custom).collect()
}

const BUFFER_SWEEP: [(usize, usize); 6] =
    [(1, 128), (4, 128), (16, 128), (4, 8), (4, 32), (4, 512)];

fn buffer_schemes() -> Vec<Scheme> {
    let configs = BUFFER_SWEEP.map(|(vub, pubn)| FilterConfig {
        vub_entries: vub,
        pub_entries: pubn,
        ..dripper_config(TargetPrefetcher::Berti)
    });
    filter_sweep(|f| format!("{}/{}", f.vub_entries, f.pub_entries), &configs)
}

pub(super) fn buffers_cells() -> Vec<Cell> {
    grid(&representative_seen(1), &buffer_schemes())
}

/// Ablation — vUB/pUB sizing and the value of false-negative training.
///
/// The paper fixes vUB = 4 and pUB = 128 entries "empirically selected
/// after tuning" (Table III). This sweep regenerates that design decision:
/// the chosen point should be on the knee — shrinking the pUB hurts,
/// removing the vUB (no false-negative training) hurts, and growing both
/// past the chosen sizes buys little.
pub(super) fn buffers(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["vUB", "pUB", "geomean vs discard"]);
    let geos: Vec<f64> = geomeans_vs_first(results, &buffer_schemes())
        .into_iter()
        .map(|(_, g)| g)
        .collect();
    for ((vub, pubn), g) in BUFFER_SWEEP.iter().zip(&geos) {
        t.row(&[vub.to_string(), pubn.to_string(), fmt_pct(*g)]);
    }
    let at = |point| {
        geos[BUFFER_SWEEP
            .iter()
            .position(|p| *p == point)
            .expect("swept")]
    };
    let (chosen, tiny_pub, big) = (at((4, 128)), at((4, 8)), at((4, 512)));
    t.summary(
        "vUB=4, pUB=128 'empirically selected after tuning' (Table III)",
        &format!(
            "chosen {}, tiny pUB {}, 4x pUB {}",
            fmt_pct(chosen),
            fmt_pct(tiny_pub),
            fmt_pct(big)
        ),
        // The chosen point is near the asymptote: growing the pUB 4x gains
        // little.
        (big - chosen).abs() < 0.02 && chosen >= tiny_pub - 0.01,
    );
}

const WT_SWEEP: [usize; 4] = [64, 256, 1024, 4096];

fn wt_configs() -> [FilterConfig; 4] {
    WT_SWEEP.map(|entries| FilterConfig {
        wt_entries: entries,
        ..dripper_config(TargetPrefetcher::Berti)
    })
}

fn wt_schemes() -> Vec<Scheme> {
    filter_sweep(|f| f.wt_entries.to_string(), &wt_configs())
}

pub(super) fn wt_size_cells() -> Vec<Cell> {
    grid(&representative_seen(1), &wt_schemes())
}

/// Ablation — weight-table size sweep.
///
/// Table III's 1024×5-bit weight table is another empirically tuned point;
/// the paper notes a design "that can dedicate tens of KBs" could use more
/// features/entries for marginal gains. This sweep shows diminishing
/// returns past the chosen size.
pub(super) fn wt_size(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["entries", "storage KB", "geomean vs discard"]);
    let geos = geomeans_vs_first(results, &wt_schemes());
    for (f, (entries, g)) in wt_configs().iter().zip(&geos) {
        t.row(&[
            entries.clone(),
            format!("{:.2}", f.storage_kb()),
            fmt_pct(*g),
        ]);
    }
    let (at_1024, at_4096) = (geos[2].1, geos[3].1);
    t.summary(
        "the ~1K-entry weight table is the knee; bigger budgets give small geomean \
         gains (§III-E1)",
        &format!(
            "1024 entries {}, 4096 entries {}",
            fmt_pct(at_1024),
            fmt_pct(at_4096)
        ),
        (at_4096 - at_1024).abs() < 0.02,
    );
}
