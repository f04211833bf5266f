//! The traced run: the same simulation rebuilt from public parts, with
//! timers around the calls into each layer. Its reports must equal the
//! untraced run's.
//!
//! A clock read costs tens of nanoseconds, against a few hundred for a
//! whole step, so timing every call would distort what it measures. Two
//! things keep the traced run cheap:
//! - trace sources are read in timed batches, which changes nothing
//!   because a source does not depend on engine state;
//! - one step in [`SAMPLE`], chosen pseudo-randomly so that no periodic
//!   pattern of the workload aliases with it, is timed together with the
//!   prefetcher and policy calls it makes. All calls are counted.

use crate::run::{Outcome, Run};
use crate::spec::{Spec, FRAME_SEED};
use pagecross::cpu::engine::CoreEngine;
use pagecross::cpu::trace::{Instr, TraceFactory, TraceSource};
use pagecross::cpu::{BoundaryMode, CoreConfig, MixReport, Os, Report, TelemetryRun};
use pagecross::mem::{HugePagePolicy, MemConfig, MemorySystem};
use pagecross::moka::{FeatureContext, PgcPolicy, PolicyAction};
use pagecross::prefetch::{AccessInfo, L1dPrefetcher};
use pagecross::telemetry::PolicyTelemetry;
use pagecross::trace::{TraceReplay, TraceWriter};
use pagecross::types::{PrefetchCandidate, SystemSnapshot, VirtAddr};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Instructions pulled from a trace source per timed batch.
const BATCH: u64 = 4096;
/// One step in this many is timed, on average.
const SAMPLE: u64 = 16;

/// Host time spent in one layer.
#[derive(Default)]
pub struct Clock {
    ns: Cell<u64>,
    /// Calls (or instructions, for the trace clocks) the time covers.
    timed: Cell<u64>,
    /// All calls, timed or not.
    calls: Cell<u64>,
}

impl Clock {
    fn add(&self, since: Instant, n: u64) {
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
        self.timed.set(self.timed.get() + n);
        self.calls.set(self.calls.get() + n);
    }

    pub fn ns(&self) -> f64 {
        self.ns.get() as f64
    }

    pub fn timed(&self) -> u64 {
        self.timed.get()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean host nanoseconds per timed call.
    pub fn ns_per_call(&self) -> f64 {
        if self.timed() == 0 {
            0.0
        } else {
            self.ns() / self.timed() as f64
        }
    }

    /// Mean host nanoseconds per timed call, less what timing an empty
    /// interval reads.
    pub fn net_ns_per_call(&self, cal: &Calibration) -> f64 {
        if self.timed() == 0 {
            0.0
        } else {
            self.ns_per_call() - cal.interval_ns
        }
    }
}

/// What timing itself costs, measured inside the run: each sampled step
/// first times an empty interval nested in another.
pub struct Calibration {
    /// What an empty timed interval reads, in ns.
    pub interval_ns: f64,
    /// Host time one timed call adds around the call, in ns.
    pub pair_ns: f64,
}

/// Counts every call into a layer and times those made during a sampled
/// step.
struct Timer {
    clock: Rc<Clock>,
    sampling: Rc<Cell<bool>>,
}

impl Timer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.sampling.get() {
            self.clock.calls.set(self.clock.calls.get() + 1);
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.clock.add(t, 1);
        r
    }
}

struct TimedPrefetcher {
    inner: Box<dyn L1dPrefetcher>,
    timer: Timer,
}

impl L1dPrefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        self.timer.time(|| self.inner.on_access(info, out))
    }

    fn on_fill(&mut self, va: VirtAddr, cycle: u64) {
        self.timer.time(|| self.inner.on_fill(va, cycle))
    }
}

/// Times `decide` and every training hook; the two telemetry readouts
/// pass through untimed.
struct TimedPolicy {
    inner: Box<dyn PgcPolicy>,
    timer: Timer,
}

impl PgcPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(
        &mut self,
        cand: &PrefetchCandidate,
        ctx: &FeatureContext,
        snap: &SystemSnapshot,
    ) -> PolicyAction {
        self.timer.time(|| self.inner.decide(cand, ctx, snap))
    }

    fn on_issued(&mut self, phys_line: u64) {
        self.timer.time(|| self.inner.on_issued(phys_line))
    }

    fn on_issue_dropped(&mut self) {
        self.timer.time(|| self.inner.on_issue_dropped())
    }

    fn on_l1d_demand_miss(&mut self, virt_line: u64) {
        self.timer.time(|| self.inner.on_l1d_demand_miss(virt_line))
    }

    fn on_pcb_first_hit(&mut self, phys_line: u64) {
        self.timer.time(|| self.inner.on_pcb_first_hit(phys_line))
    }

    fn on_pcb_eviction(&mut self, phys_line: u64, served_hits: bool) {
        self.timer
            .time(|| self.inner.on_pcb_eviction(phys_line, served_hits))
    }

    fn spot_check(&mut self, snap: &SystemSnapshot) {
        self.timer.time(|| self.inner.spot_check(snap))
    }

    fn end_epoch(&mut self, snap: &SystemSnapshot) {
        self.timer.time(|| self.inner.end_epoch(snap))
    }

    fn telemetry(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry()
    }

    fn current_threshold(&self) -> Option<i32> {
        self.inner.current_threshold()
    }
}

/// A trace source read in timed batches.
struct Feed {
    src: Box<dyn TraceSource>,
    buf: Vec<Instr>,
    pos: usize,
    /// Instructions still to pull; `None` for an unbounded mix core.
    left: Option<u64>,
    clock: Rc<Clock>,
}

impl Feed {
    fn new(src: Box<dyn TraceSource>, left: Option<u64>, clock: Rc<Clock>) -> Self {
        Self {
            src,
            buf: Vec::with_capacity(BATCH as usize),
            pos: 0,
            left,
            clock,
        }
    }

    fn next(&mut self) -> Instr {
        if self.pos == self.buf.len() {
            let n = self.left.map_or(BATCH, |l| l.min(BATCH));
            assert!(n > 0, "the run pulled more instructions than it steps");
            self.buf.clear();
            let t = Instant::now();
            self.buf.extend((0..n).map(|_| self.src.next_instr()));
            self.clock.add(t, n);
            self.left = self.left.map(|l| l - n);
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

/// Steps engines, timing a pseudo-random sample of the steps.
struct Stepper {
    sampling: Rc<Cell<bool>>,
    rng: u64,
    clock: Clock,
    steps: u64,
    empty: Clock,
    nested: Clock,
}

impl Stepper {
    fn step(
        &mut self,
        engine: &mut CoreEngine,
        mem: &mut MemorySystem,
        os: &mut Option<Os>,
        instr: &Instr,
    ) -> Result<(), String> {
        self.steps += 1;
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if !self.rng.is_multiple_of(SAMPLE) {
            return engine.step(mem, os, instr).map_err(|e| e.to_string());
        }
        let outer = Instant::now();
        self.empty.add(Instant::now(), 1);
        self.nested.add(outer, 1);
        self.sampling.set(true);
        let t = Instant::now();
        let r = engine.step(mem, os, instr);
        self.clock.add(t, 1);
        self.sampling.set(false);
        r.map_err(|e| e.to_string())
    }
}

/// Host time per layer of one traced run.
#[derive(Default)]
pub struct Layers {
    pub gen: Rc<Clock>,
    pub encode: Rc<Clock>,
    pub decode: Rc<Clock>,
    pub prefetch: Rc<Clock>,
    pub policy: Rc<Clock>,
    /// Sampled steps, the prefetcher and policy calls inside them included.
    pub step: Clock,
    pub trace_bytes: u64,
    /// An empty timed interval per sampled step, and one nesting it.
    empty: Clock,
    nested: Clock,
}

impl Layers {
    pub fn calibration(&self) -> Calibration {
        let interval_ns = self.empty.ns_per_call();
        Calibration {
            interval_ns,
            pair_ns: self.nested.ns_per_call() - interval_ns,
        }
    }
}

/// A traced run: the run, its per-layer times, and per-core reports with
/// each core's memory counters captured when it reached its quota.
pub struct Traced {
    pub run: Run,
    pub layers: Layers,
    pub cores: Vec<Report>,
}

/// Records the replay trace as `pagecross::trace::record` does, timing
/// the encoding.
fn record_timed(
    spec: &Spec,
    factory: &dyn TraceFactory,
    seed: u64,
    pct: &Path,
    layers: &mut Layers,
) -> Result<TraceReplay, String> {
    let mut writer =
        TraceWriter::create(pct, factory.name(), 1, seed).map_err(|e| e.to_string())?;
    // Generation here is set-up, not the stepping loop, and is not timed.
    let mut src = factory.build();
    let mut batch = Vec::with_capacity(BATCH as usize);
    let mut left = spec.warmup + spec.instructions;
    while left > 0 {
        let n = left.min(BATCH);
        batch.clear();
        batch.extend((0..n).map(|_| src.next_instr()));
        let t = Instant::now();
        for i in &batch {
            writer.push(i).map_err(|e| e.to_string())?;
        }
        layers.encode.add(t, n);
        left -= n;
    }
    let t = Instant::now();
    writer.finish().map_err(|e| e.to_string())?;
    layers.encode.add(t, 0);
    layers.trace_bytes = std::fs::metadata(pct).map_err(|e| e.to_string())?.len();
    Ok(TraceReplay::open(pct)
        .map_err(|e| e.to_string())?
        .blocking())
}

fn report(spec: &Spec, name: &str, engine: &CoreEngine, mem: &MemorySystem, core: usize) -> Report {
    let c = mem.core(core);
    Report {
        workload: name.to_string(),
        prefetcher: spec.prefetcher.label().to_string(),
        policy: spec.policy.label().to_string(),
        core: engine.stats,
        l1i: c.l1i.stats,
        l1d: c.l1d.stats,
        l2c: c.l2c.stats,
        llc: mem.llc.stats,
        dtlb: c.dtlb.stats,
        stlb: c.stlb.stats,
        walks: c.walk_stats,
        prefetch: engine.pstats,
        os: engine.os_stats,
    }
}

/// The laggard core among those still eligible, as the builder's mix
/// scheduler picks it.
fn next_core(engines: &[CoreEngine], eligible: &[bool]) -> usize {
    engines
        .iter()
        .enumerate()
        .filter(|(i, _)| eligible[*i])
        .min_by_key(|(_, e)| e.cycle())
        .map(|(i, _)| i)
        .expect("at least one eligible core")
}

/// Runs `spec` once, traced. The loops are the builder's, step for step:
/// its single-core loops for one core, its mix scheduler for several.
pub fn traced(
    spec: &Spec,
    factories: &[impl TraceFactory],
    seed: u64,
    pct: &Path,
) -> Result<Traced, String> {
    let t0 = Instant::now();
    let mut layers = Layers::default();
    let n = spec.cores();
    let replay;
    let (sources, trace_clock): (Vec<&dyn TraceFactory>, _) = if spec.replay {
        replay = record_timed(spec, &factories[0], seed, pct, &mut layers)?;
        (vec![&replay], layers.decode.clone())
    } else {
        let sources = factories.iter().map(|f| f as &dyn TraceFactory).collect();
        (sources, layers.gen.clone())
    };

    let mut mcfg = MemConfig::table_iv(n as u32);
    if let Some(os) = &spec.os {
        mcfg.dram.capacity_bytes = os.phys_mem_bytes;
    }
    let mut mem = MemorySystem::new(mcfg, n, HugePagePolicy::None, FRAME_SEED);
    let mut os = spec.os.map(|cfg| Os::new(cfg, n));
    let sampling = Rc::new(Cell::new(false));
    let timer = |clock: &Rc<Clock>| Timer {
        clock: clock.clone(),
        sampling: sampling.clone(),
    };
    let mut engines: Vec<CoreEngine> = (0..n)
        .map(|i| {
            CoreEngine::new(
                i,
                CoreConfig::default(),
                BoundaryMode::Fixed4K,
                Box::new(TimedPrefetcher {
                    inner: spec.make_prefetcher(),
                    timer: timer(&layers.prefetch),
                }),
                Box::new(TimedPolicy {
                    inner: spec.make_policy(),
                    timer: timer(&layers.policy),
                }),
                None,
            )
        })
        .collect();
    // A single core pulls exactly what it steps; mix cores run on until
    // the last one reaches its quota.
    let bound = (n == 1).then_some(spec.warmup + spec.instructions);
    let mut feeds: Vec<Feed> = sources
        .iter()
        .map(|f| Feed::new(f.build(), bound, trace_clock.clone()))
        .collect();
    let mut st = Stepper {
        sampling,
        rng: 0x9E37_79B9_7F4A_7C15,
        clock: Clock::default(),
        steps: 0,
        empty: Clock::default(),
        nested: Clock::default(),
    };

    let first = Instant::now();
    if n == 1 {
        for _ in 0..spec.warmup {
            let instr = feeds[0].next();
            st.step(&mut engines[0], &mut mem, &mut os, &instr)?;
        }
    } else {
        let mut warmed = vec![false; n];
        while warmed.iter().any(|w| !w) {
            let pending: Vec<bool> = warmed.iter().map(|w| !w).collect();
            let i = next_core(&engines, &pending);
            let instr = feeds[i].next();
            st.step(&mut engines[i], &mut mem, &mut os, &instr)?;
            if engines[i].instructions() >= spec.warmup {
                warmed[i] = true;
            }
        }
    }
    if let Some(o) = os.as_mut() {
        o.reset_stats();
    }
    mem.reset_stats();
    for e in &mut engines {
        e.reset_stats(&mem);
    }
    if let Some(cfg) = &spec.telemetry {
        engines[0].attach_sampler(cfg.interval);
        if let Some(ring) = cfg.make_ring() {
            mem.attach_events(ring);
        }
    }
    let mut frozen: Vec<Option<Report>> = vec![None; n];
    if n == 1 {
        for _ in 0..spec.instructions {
            let instr = feeds[0].next();
            st.step(&mut engines[0], &mut mem, &mut os, &instr)?;
        }
        engines[0].finish();
    } else {
        while frozen.iter().any(Option::is_none) {
            let pending: Vec<bool> = frozen.iter().map(Option::is_none).collect();
            let i = next_core(&engines, &pending);
            let instr = feeds[i].next();
            st.step(&mut engines[i], &mut mem, &mut os, &instr)?;
            if frozen[i].is_none() && engines[i].instructions() >= spec.instructions {
                engines[i].finish();
                frozen[i] = Some(report(spec, sources[i].name(), &engines[i], &mem, i));
            }
        }
    }
    let end = Instant::now();

    let telemetry = engines[0].take_sampler().map(|mut sampler| {
        sampler.flush(
            engines[0].telemetry_counters(&mem),
            engines[0].policy().telemetry(),
        );
        let (events, events_seen) = match mem.take_events() {
            Some(ring) => {
                let seen = ring.seen();
                (ring.into_events(), seen)
            }
            None => (Vec::new(), 0),
        };
        TelemetryRun {
            intervals: sampler.into_intervals(),
            events,
            events_seen,
        }
    });
    let outcome = if n == 1 {
        let r = report(spec, sources[0].name(), &engines[0], &mem, 0);
        frozen[0] = Some(r.clone());
        Outcome::Single(Box::new(r))
    } else {
        Outcome::Mix(MixReport {
            workloads: sources.iter().map(|f| f.name().to_string()).collect(),
            cores: frozen.iter().flatten().map(|r| r.core).collect(),
            os: frozen.iter().flatten().map(|r| r.os).collect(),
            llc: mem.llc.stats,
        })
    };
    layers.step = st.clock;
    layers.empty = st.empty;
    layers.nested = st.nested;
    Ok(Traced {
        run: Run {
            outcome,
            telemetry,
            setup_s: first.duration_since(t0).as_secs_f64(),
            loop_s: end.duration_since(first).as_secs_f64(),
            steps: st.steps,
            pulled: trace_clock.calls(),
        },
        layers,
        cores: frozen.into_iter().flatten().collect(),
    })
}
