//! Per-layer metrics: simulated ones from the reports, host ones from a
//! traced run's clocks.

use crate::checks::Emitted;
use crate::run::Outcome;
use crate::spec::Spec;
use crate::traced::Traced;
use pagecross::cpu::CoreConfig;
use pagecross::telemetry::StallCause;

/// A metric's name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics read from the simulated counters. These repeat exactly for a
/// given seed. For a mix, each core's counters are summed as captured when
/// it reached its quota; the shared LLC is read at the end of the run.
pub fn simulated(t: &Traced) -> Vec<Metric> {
    let llc = match &t.run.outcome {
        Outcome::Single(r) => r.llc,
        Outcome::Mix(m) => m.llc,
    };
    let sum =
        |f: &dyn Fn(&pagecross::cpu::Report) -> u64| t.cores.iter().map(f).sum::<u64>() as f64;
    let instr = sum(&|r| r.core.instructions);
    let pki = |n: f64| ratio(n * 1000.0, instr);
    let slots = instr * CoreConfig::default().issue_width as f64;
    let cpi = |c: StallCause| ratio(sum(&|r| r.core.stalls.get(c)), slots);
    let walks = sum(&|r| r.walks.demand_walks + r.walks.prefetch_walks);
    let pf_useful = sum(&|r| r.l1d.prefetch_useful);
    let pgc_useful = sum(&|r| r.l1d.pgc_useful);
    let pgc_candidates = sum(&|r| r.prefetch.pgc_candidates);
    vec![
        ("cpu.cpi.rob_full", "cycles/instr", cpi(StallCause::RobFull)),
        ("cpu.cpi.l1d_miss", "cycles/instr", cpi(StallCause::L1dMiss)),
        ("cpu.cpi.tlb_walk", "cycles/instr", cpi(StallCause::TlbWalk)),
        ("cpu.cpi.os_fault", "cycles/instr", cpi(StallCause::OsFault)),
        (
            "cpu.cpi.branch_redirect",
            "cycles/instr",
            cpi(StallCause::BranchRedirect),
        ),
        (
            "cpu.cpi.fetch_starved",
            "cycles/instr",
            cpi(StallCause::FetchStarved),
        ),
        ("cpu.cpi.drain", "cycles/instr", cpi(StallCause::Drain)),
        ("mem.l1d_mpki", "pki", pki(sum(&|r| r.l1d.demand_misses))),
        ("mem.l2c_mpki", "pki", pki(sum(&|r| r.l2c.demand_misses))),
        ("mem.llc_mpki", "pki", pki(llc.demand_misses as f64)),
        ("mem.dtlb_mpki", "pki", pki(sum(&|r| r.dtlb.misses))),
        ("mem.stlb_mpki", "pki", pki(sum(&|r| r.stlb.misses))),
        (
            "mem.demand_walks_pki",
            "pki",
            pki(sum(&|r| r.walks.demand_walks)),
        ),
        (
            "mem.prefetch_walks_pki",
            "pki",
            pki(sum(&|r| r.walks.prefetch_walks)),
        ),
        (
            "mem.refs_per_walk",
            "refs/walk",
            ratio(sum(&|r| r.walks.memory_refs), walks),
        ),
        (
            "prefetch.candidates_pki",
            "pki",
            pki(sum(&|r| r.prefetch.candidates)),
        ),
        (
            "prefetch.accuracy",
            "ratio",
            ratio(pf_useful, pf_useful + sum(&|r| r.l1d.prefetch_useless)),
        ),
        (
            "prefetch.coverage",
            "ratio",
            ratio(pf_useful, pf_useful + sum(&|r| r.l1d.demand_misses)),
        ),
        ("core.pgc_candidates_pki", "pki", pki(pgc_candidates)),
        (
            "core.pgc_issue_ratio",
            "ratio",
            ratio(sum(&|r| r.prefetch.pgc_issued), pgc_candidates),
        ),
        (
            "core.pgc_accuracy",
            "ratio",
            ratio(pgc_useful, pgc_useful + sum(&|r| r.l1d.pgc_useless)),
        ),
        (
            "core.spec_walks_pki",
            "pki",
            pki(sum(&|r| r.prefetch.speculative_walks)),
        ),
        ("os.minor_faults", "count", sum(&|r| r.os.minor_faults)),
        ("os.major_faults", "count", sum(&|r| r.os.major_faults)),
        ("os.reclaims", "count", sum(&|r| r.os.reclaims)),
        ("os.promotions", "count", sum(&|r| r.os.thp_promotions)),
        ("os.shootdowns", "count", sum(&|r| r.os.shootdowns)),
        ("os.ipis_received", "count", sum(&|r| r.os.ipis_received)),
        (
            "os.fault_cycles_share",
            "ratio",
            ratio(sum(&|r| r.os.fault_cycles), sum(&|r| r.core.cycles)),
        ),
    ]
}

/// Metrics read from one traced run's clocks, net of what timing costs.
/// Step times are sampled: a step's self time is measured on the sampled
/// steps, and the scheduler's time is what the loop spent outside the
/// steps (scaled up from the sample), the trace batches and the timing
/// itself.
pub fn host(spec: &Spec, t: &Traced, emitted: Option<&Emitted>) -> Vec<Metric> {
    let l = &t.layers;
    let cal = &l.calibration();
    let steps = t.run.steps as f64;
    let sampled = l.step.timed() as f64;
    // Timed calls inside the sampled steps, and what timing them added.
    let inner = (l.prefetch.timed() + l.policy.timed()) as f64;
    let sampled_ns = l.step.ns() - sampled * cal.interval_ns - inner * cal.pair_ns;
    let inner_ns = l.prefetch.ns() + l.policy.ns() - inner * cal.interval_ns;
    // Per sampled step: its own timing, and the calibration's nested pair.
    let overhead_ns = sampled * (cal.interval_ns + 3.0 * cal.pair_ns) + inner * cal.pair_ns;
    let loop_ns = t.run.loop_s * 1e9;
    let trace_ns = l.gen.ns() + l.decode.ns();
    let recorded = (spec.warmup + spec.instructions) as f64;
    vec![
        ("workloads.gen_ns_per_instr", "ns", l.gen.ns_per_call()),
        ("trace.encode_ns_per_instr", "ns", l.encode.ns_per_call()),
        ("trace.decode_ns_per_instr", "ns", l.decode.ns_per_call()),
        (
            "trace.bytes_per_instr",
            "B",
            ratio(l.trace_bytes as f64, recorded),
        ),
        (
            "cpu.step_self_ns_per_instr",
            "ns",
            ratio(sampled_ns - inner_ns, sampled),
        ),
        (
            "cpu.sched_ns_per_instr",
            "ns",
            ratio(
                loop_ns - ratio(sampled_ns * steps, sampled) - overhead_ns - trace_ns,
                steps,
            ),
        ),
        (
            "prefetch.ns_per_call",
            "ns",
            l.prefetch.net_ns_per_call(cal),
        ),
        (
            "prefetch.calls_pki",
            "pki",
            ratio(l.prefetch.calls() as f64 * 1000.0, steps),
        ),
        ("core.ns_per_call", "ns", l.policy.net_ns_per_call(cal)),
        (
            "core.calls_pki",
            "pki",
            ratio(l.policy.calls() as f64 * 1000.0, steps),
        ),
        ("telemetry.emit_s", "s", emitted.map_or(0.0, |e| e.seconds)),
        (
            "telemetry.intervals",
            "count",
            t.run
                .telemetry
                .as_ref()
                .map_or(0.0, |t| t.intervals.len() as f64),
        ),
        (
            "telemetry.events_seen",
            "count",
            t.run
                .telemetry
                .as_ref()
                .map_or(0.0, |t| t.events_seen as f64),
        ),
        (
            "telemetry.jsonl_bytes",
            "B",
            emitted.map_or(0.0, |e| e.jsonl_bytes as f64),
        ),
    ]
}
