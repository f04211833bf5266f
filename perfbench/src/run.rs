//! The untraced run: the whole simulation through the public
//! `SimulationBuilder` API, timed only at its two ends.

use crate::spec::Spec;
use pagecross::cpu::trace::{Instr, TraceFactory, TraceSource};
use pagecross::cpu::{MixReport, Report, TelemetryRun};
use pagecross::trace::{record, TraceReplay};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// What a run simulated.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Single(Box<Report>),
    Mix(MixReport),
}

/// One run of a workload.
pub struct Run {
    pub outcome: Outcome,
    /// Telemetry of the replay workload (absent elsewhere).
    pub telemetry: Option<TelemetryRun>,
    /// Host seconds before the first simulated instruction.
    pub setup_s: f64,
    /// Host seconds from the first simulated instruction to the end of the
    /// run.
    pub loop_s: f64,
    /// Instructions stepped on all cores, warm-up included.
    pub steps: u64,
    /// Instructions the trace sources produced.
    pub pulled: u64,
}

/// Counts the instructions handed to the engines and stamps the first one,
/// which ends set-up.
#[derive(Default)]
struct Probe {
    first: Cell<Option<Instant>>,
    count: Cell<u64>,
}

struct Counted<'a> {
    inner: &'a dyn TraceFactory,
    probe: Rc<Probe>,
}

struct CountedSource {
    inner: Box<dyn TraceSource>,
    probe: Rc<Probe>,
}

impl TraceFactory for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(CountedSource {
            inner: self.inner.build(),
            probe: self.probe.clone(),
        })
    }
}

impl TraceSource for CountedSource {
    fn next_instr(&mut self) -> Instr {
        let n = self.probe.count.get();
        if n == 0 {
            self.probe.first.set(Some(Instant::now()));
        }
        self.probe.count.set(n + 1);
        self.inner.next_instr()
    }
}

/// Records the replay workload's instructions to `pct`, as the untraced
/// run's set-up does.
fn record_trace(
    spec: &Spec,
    factory: &dyn TraceFactory,
    seed: u64,
    pct: &Path,
) -> Result<TraceReplay, String> {
    record(factory, spec.warmup + spec.instructions, seed, pct).map_err(|e| e.to_string())?;
    Ok(TraceReplay::open(pct)
        .map_err(|e| e.to_string())?
        .blocking())
}

/// Runs `spec` once, untraced. `pct` is where the replay workload records
/// its trace.
pub fn untraced(
    spec: &Spec,
    factories: &[impl TraceFactory],
    seed: u64,
    pct: &Path,
) -> Result<Run, String> {
    let t0 = Instant::now();
    let probe = Rc::new(Probe::default());
    let replay;
    let sources: Vec<&dyn TraceFactory> = if spec.replay {
        replay = record_trace(spec, &factories[0], seed, pct)?;
        vec![&replay]
    } else {
        factories.iter().map(|f| f as &dyn TraceFactory).collect()
    };
    let counted: Vec<Counted> = sources
        .iter()
        .map(|&inner| Counted {
            inner,
            probe: probe.clone(),
        })
        .collect();
    let b = spec.builder();
    let (outcome, telemetry) = if counted.len() > 1 {
        let refs: Vec<&dyn TraceFactory> = counted.iter().map(|c| c as &dyn TraceFactory).collect();
        (
            Outcome::Mix(b.try_run_mix(&refs).map_err(|e| e.to_string())?),
            None,
        )
    } else if let Some(cfg) = &spec.telemetry {
        let (r, t) = b.run_workload_with_telemetry(&counted[0], cfg);
        (Outcome::Single(Box::new(r)), Some(t))
    } else {
        (
            Outcome::Single(Box::new(
                b.try_run_workload(&counted[0]).map_err(|e| e.to_string())?,
            )),
            None,
        )
    };
    let end = Instant::now();
    let first = probe.first.get().ok_or("the run stepped no instruction")?;
    let steps = probe.count.get();
    Ok(Run {
        outcome,
        telemetry,
        setup_s: first.duration_since(t0).as_secs_f64(),
        loop_s: end.duration_since(first).as_secs_f64(),
        steps,
        pulled: steps,
    })
}
