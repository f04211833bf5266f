//! Fig. 19 — 8-core mixes (§V-B10): distribution of weighted speedups of
//! Permit PGC and DRIPPER over Discard PGC across random mixes.
//!
//! Paper's shape: across 300 random 8-core mixes, DRIPPER beats Permit
//! (+3.3%) and Discard (+2.0%) in geomean and wins for the vast majority
//! of mixes. This harness runs a scaled-down campaign (default 8 mixes,
//! `PAGECROSS_MIXES` to change).

use pagecross_bench::{fmt_pct, print_header, print_row, Summary};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind, SimulationBuilder, TraceFactory};
use pagecross_types::geomean;
use pagecross_workloads::random_mixes;

fn run_mix(policy: PgcPolicyKind, mix: &[&'static pagecross_workloads::Workload]) -> Vec<f64> {
    let ws: Vec<&dyn TraceFactory> = mix.iter().map(|w| *w as &dyn TraceFactory).collect();
    SimulationBuilder::new()
        .prefetcher(PrefetcherKind::Berti)
        .pgc_policy(policy)
        .warmup(8_000)
        .instructions(16_000)
        .try_run_mix(&ws)
        .expect("out of physical memory")
        .ipcs()
}

fn main() {
    let n_mixes = std::env::var("PAGECROSS_MIXES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(8)
        .clamp(1, 300);
    let mixes = random_mixes(n_mixes, 8, 0xFEED);

    print_header(
        "fig19",
        &["mix", "permit weighted speedup", "dripper weighted speedup"],
    );
    let mut permit_ws = Vec::new();
    let mut dripper_ws = Vec::new();
    for (i, mix) in mixes.iter().enumerate() {
        let base = run_mix(PgcPolicyKind::DiscardPgc, mix);
        let permit = run_mix(PgcPolicyKind::PermitPgc, mix);
        let dripper = run_mix(PgcPolicyKind::Dripper, mix);
        // Weighted speedup over the Discard baseline: per-core relative IPC
        // summed, normalised by core count.
        let wsp =
            |v: &[f64]| v.iter().zip(&base).map(|(a, b)| a / b).sum::<f64>() / base.len() as f64;
        let (p, d) = (wsp(&permit), wsp(&dripper));
        permit_ws.push(p);
        dripper_ws.push(d);
        print_row("fig19", &[format!("mix{i:02}"), fmt_pct(p), fmt_pct(d)]);
    }
    let gp = geomean(&permit_ws).unwrap_or(1.0);
    let gd = geomean(&dripper_ws).unwrap_or(1.0);
    print_row("fig19", &["GEOMEAN".into(), fmt_pct(gp), fmt_pct(gd)]);

    let wins = dripper_ws
        .iter()
        .zip(&permit_ws)
        .filter(|(d, p)| d >= p)
        .count();
    Summary {
        experiment: "fig19".into(),
        paper: "8-core mixes: DRIPPER beats Permit (+3.3%) and Discard (+2.0%) in geomean; \
                we require DRIPPER > Permit and a majority of mixes (see EXPERIMENTS.md)"
            .into(),
        measured: format!(
            "dripper {} vs permit {} over discard; dripper >= permit on {wins}/{} mixes",
            fmt_pct(gd),
            fmt_pct(gp),
            mixes.len()
        ),
        shape_holds: gd > gp && wins * 2 >= mixes.len(),
    }
    .print();
}
