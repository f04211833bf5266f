//! Output checks and workload guards. Each uses only invariants that any
//! correct build satisfies, never recorded counter values, so a change
//! that alters behaviour can still be measured.

use crate::run::{Outcome, Run};
use crate::spec::Spec;
use pagecross::cpu::{CoreConfig, Report, TelemetryRun};
use pagecross::telemetry::{
    chrome_trace_json, interval_to_json, validate_jsonl, JsonlError, JsonlSummary,
};
use std::time::Instant;

/// The replay workload's exported telemetry.
pub struct Emitted {
    pub jsonl_bytes: usize,
    pub summary: Result<JsonlSummary, JsonlError>,
    /// Host seconds to emit the JSONL and the Chrome trace and validate
    /// the JSONL.
    pub seconds: f64,
}

pub fn emit(t: &TelemetryRun) -> Emitted {
    let start = Instant::now();
    let mut jsonl = String::new();
    for rec in &t.intervals {
        jsonl.push_str(&interval_to_json(rec));
        jsonl.push('\n');
    }
    let chrome = chrome_trace_json(&t.events);
    let summary = validate_jsonl(&jsonl);
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(chrome);
    Emitted {
        jsonl_bytes: jsonl.len(),
        summary,
        seconds,
    }
}

/// Every failed check and guard of one run. `reference` is the outcome
/// every run of this process must reproduce.
pub fn check(
    spec: &Spec,
    run: &Run,
    emitted: Option<&Emitted>,
    reference: &Outcome,
) -> Vec<String> {
    let mut errs = Vec::new();
    if run.outcome != *reference {
        errs.push("reports differ from the process's first untraced run".into());
    }
    let width = CoreConfig::default().issue_width;
    let cores = match &run.outcome {
        Outcome::Single(r) => vec![r.core],
        Outcome::Mix(m) => m.cores.clone(),
    };
    if cores.len() != spec.cores() {
        errs.push(format!(
            "{} core reports for {} cores",
            cores.len(),
            spec.cores()
        ));
    }
    for (i, c) in cores.iter().enumerate() {
        if !c.stalls.balances(c.instructions, c.cycles, width) {
            errs.push(format!(
                "core {i}: {} instructions + {} stall slots + {} carry != {} cycles x {width}",
                c.instructions,
                c.stalls.total(),
                c.stalls.warmup_carry,
                c.cycles
            ));
        }
        if c.instructions != spec.instructions {
            errs.push(format!(
                "core {i} measured {} instructions, quota {}",
                c.instructions, spec.instructions
            ));
        }
    }
    if spec.telemetry.is_some() {
        match (&run.outcome, &run.telemetry, emitted) {
            (Outcome::Single(r), Some(t), Some(e)) => errs.extend(check_telemetry(r, t, e)),
            _ => errs.push("the run produced no telemetry".into()),
        }
    }
    errs.extend(guards(spec, run));
    errs
}

/// The JSONL stream is valid and its deltas re-sum to the report.
fn check_telemetry(r: &Report, t: &TelemetryRun, e: &Emitted) -> Vec<String> {
    let s = match &e.summary {
        Ok(s) => s,
        Err(err) => return vec![format!("telemetry JSONL is invalid: {err}")],
    };
    let tot = &s.totals;
    let pairs = [
        ("lines", s.lines as u64, t.intervals.len() as u64),
        (
            "final instructions",
            s.final_instructions,
            r.core.instructions,
        ),
        ("final cycles", s.final_cycles, r.core.cycles),
        ("instructions", tot.instructions, r.core.instructions),
        ("cycles", tot.cycles, r.core.cycles),
        ("l1d_accesses", tot.l1d_accesses, r.l1d.demand_accesses),
        ("l1d_misses", tot.l1d_misses, r.l1d.demand_misses),
        ("l1i_misses", tot.l1i_misses, r.l1i.demand_misses),
        ("l2c_misses", tot.l2c_misses, r.l2c.demand_misses),
        ("llc_accesses", tot.llc_accesses, r.llc.demand_accesses),
        ("llc_misses", tot.llc_misses, r.llc.demand_misses),
        ("dtlb_misses", tot.dtlb_misses, r.dtlb.misses),
        ("stlb_misses", tot.stlb_misses, r.stlb.misses),
        ("demand_walks", tot.demand_walks, r.walks.demand_walks),
        ("prefetch_walks", tot.prefetch_walks, r.walks.prefetch_walks),
        ("candidates", tot.candidates, r.prefetch.candidates),
        (
            "pgc_candidates",
            tot.pgc_candidates,
            r.prefetch.pgc_candidates,
        ),
        ("pgc_issued", tot.pgc_issued, r.prefetch.pgc_issued),
        ("pgc_discarded", tot.pgc_discarded, r.prefetch.pgc_discarded),
        ("inpage_issued", tot.inpage_issued, r.prefetch.inpage_issued),
        (
            "prefetch_useful",
            tot.prefetch_useful,
            r.l1d.prefetch_useful,
        ),
        (
            "prefetch_useless",
            tot.prefetch_useless,
            r.l1d.prefetch_useless,
        ),
        ("pgc_useful", tot.pgc_useful, r.l1d.pgc_useful),
        ("pgc_useless", tot.pgc_useless, r.l1d.pgc_useless),
        (
            "branch_mispredicts",
            tot.branch_mispredicts,
            r.core.branch_mispredicts,
        ),
        ("os_minor_faults", tot.os_minor_faults, r.os.minor_faults),
        ("os_major_faults", tot.os_major_faults, r.os.major_faults),
        ("os_reclaims", tot.os_reclaims, r.os.reclaims),
        ("os_promotions", tot.os_promotions, r.os.thp_promotions),
        ("os_shootdowns", tot.os_shootdowns, r.os.shootdowns),
    ];
    pairs
        .iter()
        .filter(|(_, jsonl, report)| jsonl != report)
        .map(|(name, jsonl, report)| {
            format!("telemetry {name}: JSONL sums to {jsonl}, report has {report}")
        })
        .collect()
}

/// Fails a run whose workload stopped exercising the layer it is there
/// for.
fn guards(spec: &Spec, run: &Run) -> Vec<String> {
    let mut errs = Vec::new();
    let mut need = |what: &str, ok: bool| {
        if !ok {
            errs.push(format!("guard: {what}"));
        }
    };
    match (spec.name, &run.outcome) {
        ("gap_dripper", Outcome::Single(r)) => {
            need(
                "DRIPPER issues a page-cross prefetch",
                r.prefetch.pgc_issued > 0,
            );
            need(
                "DRIPPER discards a page-cross prefetch",
                r.prefetch.pgc_discarded > 0,
            );
            need("a speculative walk runs", r.prefetch.speculative_walks > 0);
        }
        ("mix4_os64m", Outcome::Mix(m)) => {
            let sum = |f: fn(&pagecross::types::OsStats) -> u64| m.os.iter().map(f).sum::<u64>();
            need("the OS reclaims", sum(|o| o.reclaims) > 0);
            need("a major fault occurs", sum(|o| o.major_faults) > 0);
            need("the OS sends a shootdown", sum(|o| o.shootdowns) > 0);
            need("a core receives an IPI", sum(|o| o.ipis_received) > 0);
        }
        ("qmm_replay_permit", Outcome::Single(r)) => {
            let recorded = spec.warmup + spec.instructions;
            need(
                "instructions decoded equal instructions stepped",
                run.pulled == run.steps && run.steps == recorded,
            );
            let t = run.telemetry.as_ref();
            need(
                "telemetry closes an interval",
                t.is_some_and(|t| !t.intervals.is_empty()),
            );
            need(
                "the event ring keeps an event",
                t.is_some_and(|t| !t.events.is_empty()),
            );
            need("a page-cross prefetch is useless", r.l1d.pgc_useless > 0);
        }
        (name, _) => need(
            &format!("{name} produced the outcome it is defined with"),
            false,
        ),
    }
    errs
}
