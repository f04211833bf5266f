//! System-level studies: 8-core mixes (Fig. 19) and THP sensitivity under
//! the imitation-OS model.

use pagecross_cpu::{BoundaryMode, OsConfig, PgcPolicyKind, PrefetcherKind};
use pagecross_types::geomean;
use pagecross_workloads::{random_mixes, representative_seen};

use super::{grid, Cell};
use crate::campaign::{core_schemes, ipcs_of, Scheme, WorkloadResult};
use crate::table::{fmt_pct, Table};

/// Cells of Fig. 19: the three core schemes on each of `PAGECROSS_MIXES`
/// (default 8, clamped to 1..=300) random 8-core mixes, shorter than the
/// single-core runs to keep eight cores per cell affordable.
pub(super) fn fig19_cells() -> Vec<Cell> {
    let n_mixes = std::env::var("PAGECROSS_MIXES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(8)
        .clamp(1, 300);
    random_mixes(n_mixes, 8, 0xFEED)
        .into_iter()
        .flat_map(|mix| {
            core_schemes(PrefetcherKind::Berti)
                .into_iter()
                .map(move |scheme| Cell {
                    workloads: mix.clone(),
                    lengths: (8_000, 16_000),
                    scheme,
                })
        })
        .collect()
}

/// Fig. 19 — 8-core mixes (§V-B10): distribution of weighted speedups of
/// Permit PGC and DRIPPER over Discard PGC across random mixes.
///
/// Paper's shape: across 300 random 8-core mixes, DRIPPER beats Permit
/// (+3.3%) and Discard (+2.0%) in geomean and wins for the vast majority
/// of mixes. This runs a scaled-down campaign (default 8 mixes,
/// `PAGECROSS_MIXES` to change).
pub(super) fn fig19(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["mix", "permit weighted speedup", "dripper weighted speedup"]);
    let ipcs = |r: &WorkloadResult| -> Vec<f64> { r.reports.iter().map(|r| r.ipc()).collect() };
    let mut permit_ws = Vec::new();
    let mut dripper_ws = Vec::new();
    for (i, cells) in results.chunks(3).enumerate() {
        let base = ipcs(&cells[0]);
        // Weighted speedup over the Discard baseline: per-core relative IPC
        // summed, normalised by core count.
        let wsp = |r: &WorkloadResult| {
            ipcs(r).iter().zip(&base).map(|(a, b)| a / b).sum::<f64>() / base.len() as f64
        };
        let (p, d) = (wsp(&cells[1]), wsp(&cells[2]));
        permit_ws.push(p);
        dripper_ws.push(d);
        t.row(&[format!("mix{i:02}"), fmt_pct(p), fmt_pct(d)]);
    }
    let gp = geomean(&permit_ws).unwrap_or(1.0);
    let gd = geomean(&dripper_ws).unwrap_or(1.0);
    t.row(&["GEOMEAN".into(), fmt_pct(gp), fmt_pct(gd)]);

    let wins = dripper_ws
        .iter()
        .zip(&permit_ws)
        .filter(|(d, p)| d >= p)
        .count();
    t.summary(
        "8-core mixes: DRIPPER beats Permit (+3.3%) and Discard (+2.0%) in geomean; \
         we require DRIPPER > Permit and a majority of mixes (see EXPERIMENTS.md)",
        &format!(
            "dripper {} vs permit {} over discard; dripper >= permit on {wins}/{} mixes",
            fmt_pct(gd),
            fmt_pct(gp),
            permit_ws.len()
        ),
        gd > gp && wins * 2 >= permit_ws.len(),
    );
}

const THP_LEVELS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const PHYS_LEVELS: [(&str, u64); 2] = [("64M", 64 << 20), ("128M", 128 << 20)];

fn thp_label(phys: &str, thp: f64) -> String {
    format!("thp{thp:.2}@{phys}")
}

pub(super) fn thp_cells() -> Vec<Cell> {
    let schemes: Vec<Scheme> = PHYS_LEVELS
        .iter()
        .flat_map(|&(phys_label, phys_bytes)| {
            THP_LEVELS.map(|thp| {
                let mut s = Scheme::new(
                    &thp_label(phys_label, thp),
                    PrefetcherKind::Berti,
                    PgcPolicyKind::PermitPgc,
                );
                s.boundary = BoundaryMode::PageSizeAware;
                s.os = Some(OsConfig {
                    phys_mem_bytes: phys_bytes,
                    thp,
                    ..OsConfig::default()
                });
                s
            })
        })
        .collect();
    grid(&representative_seen(1), &schemes)
}

/// THP sensitivity — page-cross prefetch volume vs transparent-huge-page
/// aggressiveness under the imitation-OS model (§II-A1 context: huge pages
/// shrink the number of 4 KB boundaries a prefetcher can cross).
///
/// Sweeps THP fraction {0, 0.25, 0.5, 0.75, 1.0} at two physical-memory
/// pressures (64 MB and 128 MB) with Berti + Permit PGC and a
/// page-size-aware boundary: as khugepaged promotes more regions to 2 MB,
/// in-region 4 KB crossings stop being page crossings, so the issued
/// page-cross prefetch volume must fall monotonically with the THP
/// fraction.
pub(super) fn thp(results: &[WorkloadResult], t: &mut Table) {
    // Sums a page-cross/OS counter of one scheme across every workload.
    let total_of = |scheme: &str, f: fn(&WorkloadResult) -> u64| -> u64 {
        results.iter().filter(|r| r.scheme == scheme).map(f).sum()
    };
    let pgc_issued = |r: &WorkloadResult| r.report().prefetch.pgc_issued;
    t.header(&[
        "scheme",
        "pgc-issued",
        "faults",
        "reclaims",
        "promotions",
        "shootdowns",
        "geo-ipc",
    ]);
    let mut monotone = true;
    let mut endpoints = Vec::new();
    for &(phys_label, _) in &PHYS_LEVELS {
        let mut prev: Option<u64> = None;
        for thp in THP_LEVELS {
            let s = thp_label(phys_label, thp);
            let pgc = total_of(&s, pgc_issued);
            // Clamped so a failed cell (IPC 0) cannot zero the geomean.
            let ipcs: Vec<f64> = ipcs_of(results, &s).iter().map(|x| x.max(1e-12)).collect();
            t.row(&[
                s.clone(),
                pgc.to_string(),
                total_of(&s, |r| r.report().os.faults()).to_string(),
                total_of(&s, |r| r.report().os.reclaims).to_string(),
                total_of(&s, |r| r.report().os.thp_promotions).to_string(),
                total_of(&s, |r| r.report().os.shootdowns).to_string(),
                format!("{:.4}", geomean(&ipcs).unwrap_or(0.0)),
            ]);
            // Weakly monotone per pressure level, with 2% slack for timing
            // noise from reclamation churn.
            if let Some(p) = prev {
                monotone &= pgc as f64 <= p as f64 * 1.02;
            }
            prev = Some(pgc);
        }
        let first = total_of(&thp_label(phys_label, THP_LEVELS[0]), pgc_issued);
        let last = total_of(&thp_label(phys_label, THP_LEVELS[4]), pgc_issued);
        endpoints.push((phys_label, first, last));
    }
    let strictly_falls = endpoints.iter().all(|&(_, first, last)| last < first);
    let measured: Vec<String> = endpoints
        .iter()
        .map(|&(p, f, l)| format!("{p}: pgc {f} -> {l}"))
        .collect();
    t.summary(
        "huge pages remove 4KB boundaries (§II-A1): page-cross prefetch volume \
         falls monotonically as THP promotion gets more aggressive",
        &measured.join(", "),
        monotone && strictly_falls,
    );
}
