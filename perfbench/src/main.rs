//! The pagecross benchmark. Runs one workload for a fixed host time on one
//! simulation thread, checks every run's output, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gap_dripper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` repeats the untraced run and prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced runs and prints the
//! per-layer metrics. The last line of standard output is one JSON object;
//! the lines before it give the host, the seed and a readable summary.
//! See `perfbench/README.md`.

mod checks;
mod metrics;
mod reference;
mod run;
mod spec;
mod traced;

use checks::{check, emit, Emitted};
use metrics::Metric;
use run::{Outcome, Run};
use spec::{Spec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Runs repeated in every process, however short `--seconds` is: the
/// medians need at least this many.
const MIN_RUNS: usize = 3;
/// Host seconds of untraced runs made and checked, but not measured,
/// before measuring starts. An idle host core runs slowly for the first
/// second or two of load; these runs also warm the allocator.
const WARMUP_S: f64 = 3.0;
/// No run starts after this many host seconds, so the process ends well
/// within its time limit.
const LAST_START_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First line of `cmd`'s standard output, or "unknown".
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// JSON string literal (the values here hold no control characters).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Tallies runs and their failures.
struct Ledger {
    attempted: u64,
    failed: u64,
    reference: Option<Outcome>,
}

impl Ledger {
    /// Checks one run. A run that finished is returned even when a check
    /// failed: its failure is counted, and its figures still count.
    fn admit<T>(
        &mut self,
        spec: &Spec,
        label: &str,
        res: Result<(T, Option<Emitted>), String>,
        run_of: impl Fn(&T) -> &Run,
    ) -> Option<(T, Option<Emitted>)> {
        self.attempted += 1;
        let errs = match &res {
            Err(e) => vec![e.clone()],
            Ok((t, emitted)) => {
                let run = run_of(t);
                let reference = self.reference.get_or_insert_with(|| run.outcome.clone());
                check(spec, run, emitted.as_ref(), reference)
            }
        };
        if !errs.is_empty() {
            self.failed += 1;
        }
        for e in errs {
            eprintln!("FAILED {label} run {}: {e}", self.attempted);
        }
        res.ok()
    }
}

fn with_telemetry(run: &Run) -> Option<Emitted> {
    run.telemetry.as_ref().map(emit)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    match bench(&spec, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(spec: &Spec, args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = root
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let git_rev = if repo.join(".git").exists() {
        command_line(
            Command::new("git")
                .arg("-C")
                .arg(repo)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        "unknown".into()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \"warmup\": {}, \"instructions\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}}}",
        quote(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.cores(),
        spec.warmup,
        spec.instructions,
        quote(&command_line(Command::new("rustc").arg("--version"))),
        quote(&git_rev),
    );

    let out_dir = root.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let pct: PathBuf = out_dir.join(format!("{}-{}.pct", spec.name, std::process::id()));
    let factories = spec.factories(args.seed);
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        reference: None,
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Peak resident memory after the first run. Later runs free and
    // allocate again, and the allocator's fragmentation would make the
    // peak grow with the number of runs.
    let mut peak_rss = None;
    // Made after the first run, so that its table is not in the peak.
    let mut host: Option<reference::Reference> = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let warm = elapsed < WARMUP_S;
        let runs = untraced.len().max(traced.len());
        let measured = elapsed - WARMUP_S;
        if !warm && ((measured >= args.seconds && runs >= MIN_RUNS) || elapsed >= LAST_START_S) {
            break;
        }
        let speed = match (&mut host, warm) {
            (Some(h), false) => h.speed(),
            _ => 0.0,
        };
        let res = run::untraced(spec, &factories, args.seed, &pct).map(|r| {
            let e = with_telemetry(&r);
            (r, e)
        });
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
            host = Some(reference::Reference::new());
        }
        if let Some((r, _)) = ledger.admit(spec, "untraced", res, |r| r) {
            if !warm {
                untraced.push((r, speed));
            }
        }
        if args.trace && !warm {
            let res = traced::traced(spec, &factories, args.seed, &pct).map(|t| {
                let e = with_telemetry(&t.run);
                (t, e)
            });
            if let Some(t) = ledger.admit(spec, "traced", res, |t| &t.run) {
                traced.push(t);
            }
        }
    }
    std::fs::remove_file(&pct).ok();
    // Pair each measured run with the host speed measured just before and
    // just after it: the next run's "before", or one more measurement.
    let last = host.as_mut().map_or(0.0, |h| h.speed());
    let after: Vec<f64> = untraced
        .iter()
        .skip(1)
        .map(|(_, speed)| *speed)
        .chain([last])
        .collect();
    let speeds: Vec<f64> = untraced
        .iter()
        .zip(&after)
        .map(|((_, before), after)| (before + after) / 2.0)
        .collect();

    let fail_ratio = ledger.failed as f64 / ledger.attempted as f64;
    println!(
        "runs: {} attempted, {} failed, fail_ratio {fail_ratio}",
        ledger.attempted, ledger.failed
    );
    let metrics: Vec<Metric> = if args.trace {
        let Some((first, _)) = traced.first() else {
            return Err("no traced run finished".into());
        };
        let host: Vec<Vec<Metric>> = traced
            .iter()
            .map(|(t, e)| metrics::host(spec, t, e.as_ref()))
            .collect();
        let mut m: Vec<Metric> = (0..host[0].len())
            .map(|k| {
                let (name, unit, _) = host[0][k];
                (name, unit, median(host.iter().map(|h| h[k].2).collect()))
            })
            .collect();
        m.extend(metrics::simulated(first));
        let loop_s = |runs: Vec<&Run>| median(runs.iter().map(|r| r.loop_s).collect());
        m.push((
            "bench.trace_overhead",
            "ratio",
            loop_s(traced.iter().map(|(t, _)| &t.run).collect())
                / loop_s(untraced.iter().map(|(r, _)| r).collect()),
        ));
        m.push(("bench.host_speed", "Mops/s", median(speeds)));
        m
    } else {
        let Some((first, _)) = untraced.first() else {
            return Err("no untraced run finished".into());
        };
        let ipc = match &first.outcome {
            Outcome::Single(r) => r.ipc(),
            Outcome::Mix(m) => m.ipcs().iter().sum::<f64>() / m.cores.len() as f64,
        };
        let raw_mips = |r: &Run| r.steps as f64 / r.loop_s / 1e6;
        println!(
            "unscaled: mips {} MIPS, setup_s {} s, host speed {} Mops/s (medians of {} runs)",
            median(untraced.iter().map(|(r, _)| raw_mips(r)).collect()),
            median(untraced.iter().map(|(r, _)| r.setup_s).collect()),
            median(speeds.clone()),
            untraced.len()
        );
        let scale = |speed: f64| speed / reference::NOMINAL_MOPS;
        vec![
            (
                "mips",
                "MIPS",
                median(
                    untraced
                        .iter()
                        .zip(&speeds)
                        .map(|((r, _), speed)| raw_mips(r) / scale(*speed))
                        .collect(),
                ),
            ),
            (
                "setup_s",
                "s",
                median(
                    untraced
                        .iter()
                        .zip(&speeds)
                        .map(|((r, _), speed)| r.setup_s * scale(*speed))
                        .collect(),
                ),
            ),
            ("peak_rss_mb", "MB", peak_rss.unwrap_or_default()),
            ("ipc", "instr/cycle", ipc),
        ]
    };
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        metrics_json(&metrics)
    );
    Ok(())
}
