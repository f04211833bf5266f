//! The simulation builder: assembles a core + memory system + prefetcher +
//! page-cross policy and runs workloads or multi-core mixes.

use crate::config::{BoundaryMode, CoreConfig};
use crate::engine::CoreEngine;
use crate::report::{MixReport, Report, RunOutput};
use crate::trace::{TraceFactory, TraceSource};
use moka_pgc::dripper::{
    dripper_config, single_program_feature, single_system_feature, TargetPrefetcher,
};
use moka_pgc::{
    DiscardPgc, DiscardPtw, FilterConfig, FilterPolicy, PageCrossFilter, PermitPgc, PgcPolicy,
    ProgramFeature, SystemFeature,
};
use pagecross_mem::{HugePagePolicy, MemConfig, MemorySystem, OomError};
use pagecross_os::{Os, OsConfig};
use pagecross_prefetch::{
    AccessInfo, Berti, Bop, Ipcp, L1dPrefetcher, L2Prefetcher, NextLine, Spp, Stride,
};
use pagecross_telemetry::{PhaseTimings, TelemetryConfig, TelemetryRun};
use pagecross_types::{PrefetchCandidate, VirtAddr};
use std::time::Instant;

/// L1D prefetcher selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Next-line baseline.
    NextLine,
    /// PC-stride baseline.
    Stride,
    /// Berti (MICRO'22) — the paper's primary case study.
    Berti,
    /// IPCP (ISCA'20).
    Ipcp,
    /// BOP (HPCA'16).
    Bop,
}

impl PrefetcherKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::Berti => "berti",
            PrefetcherKind::Ipcp => "ipcp",
            PrefetcherKind::Bop => "bop",
        }
    }

    fn dripper_target(self) -> TargetPrefetcher {
        match self {
            PrefetcherKind::Berti => TargetPrefetcher::Berti,
            PrefetcherKind::Bop => TargetPrefetcher::Bop,
            // IPCP and the baselines share the PC⊕Delta configuration.
            _ => TargetPrefetcher::Ipcp,
        }
    }
}

/// Page-cross policy selection (the schemes of Fig. 9 and §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PgcPolicyKind {
    /// Always issue page-cross prefetches.
    PermitPgc,
    /// Never issue page-cross prefetches.
    DiscardPgc,
    /// Issue only when the translation is TLB-resident (no speculative
    /// walks).
    DiscardPtw,
    /// Permit PGC with the prefetcher's tables enlarged by DRIPPER's
    /// storage budget.
    IsoStorage,
    /// DRIPPER (Table II configuration for the active prefetcher).
    Dripper,
    /// DRIPPER with only its system features (§V-B5).
    DripperSf,
    /// DRIPPER with a static activation threshold (ablation).
    DripperStatic(i32),
    /// PPF converted to a page-cross filter (static threshold).
    Ppf,
    /// PPF with MOKA's dynamic thresholding.
    PpfDthr,
    /// A filter built from exactly one program feature (Fig. 14).
    SingleFeature(ProgramFeature),
    /// A filter built from exactly one system feature (Fig. 14).
    SingleSystemFeature(SystemFeature),
}

impl PgcPolicyKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PgcPolicyKind::PermitPgc => "permit-pgc",
            PgcPolicyKind::DiscardPgc => "discard-pgc",
            PgcPolicyKind::DiscardPtw => "discard-ptw",
            PgcPolicyKind::IsoStorage => "iso-storage",
            PgcPolicyKind::Dripper => "dripper",
            PgcPolicyKind::DripperSf => "dripper-sf",
            PgcPolicyKind::DripperStatic(_) => "dripper-static",
            PgcPolicyKind::Ppf => "ppf",
            PgcPolicyKind::PpfDthr => "ppf+dthr",
            PgcPolicyKind::SingleFeature(_) => "single-feature",
            PgcPolicyKind::SingleSystemFeature(_) => "single-sys-feature",
        }
    }
}

/// L2C prefetcher selection (§V-B7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum L2PrefetcherKind {
    /// No L2C prefetcher (the paper's main configuration).
    #[default]
    None,
    /// SPP.
    Spp,
    /// IPCP adapted to the physical space.
    Ipcp,
    /// BOP adapted to the physical space.
    Bop,
}

/// Adapts an L1D-style prefetcher to the L2C's physical, page-bounded
/// world: candidates leaving the 4 KB physical page are dropped.
struct L2Adapter<P: L1dPrefetcher> {
    inner: P,
    buf: Vec<PrefetchCandidate>,
}

impl<P: L1dPrefetcher> L2Prefetcher for L2Adapter<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, pc: u64, paddr: u64, hit: bool, out: &mut Vec<u64>) {
        let va = VirtAddr::new(paddr); // physical bits reinterpreted
        let info = AccessInfo {
            pc,
            va,
            hit,
            cycle: 0,
            first_page_access: false,
        };
        self.buf.clear();
        self.inner.on_access(&info, &mut self.buf);
        if !hit {
            self.inner.on_fill(va, 0);
        }
        for c in &self.buf {
            if !c.crosses_page_4k() {
                out.push(c.target.raw());
            }
        }
    }
}

/// A no-op prefetcher for the `None` kind.
struct NoPrefetch;

impl L1dPrefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<PrefetchCandidate>) {}
}

/// Builds and runs simulations.
///
/// # Example
///
/// ```
/// use pagecross_cpu::{SimulationBuilder, PrefetcherKind, PgcPolicyKind};
/// use pagecross_cpu::trace::{Instr, Op, TraceFactory, TraceSource};
/// use pagecross_types::VirtAddr;
///
/// struct Stream;
/// struct StreamSrc(u64);
/// impl TraceSource for StreamSrc {
///     fn next_instr(&mut self) -> Instr {
///         self.0 += 64;
///         Instr { pc: 0x400000, op: Op::Load { va: VirtAddr::new(0x10_0000 + self.0), depends_on_prev: false } }
///     }
/// }
/// impl TraceFactory for Stream {
///     fn name(&self) -> &str { "stream" }
///     fn build(&self) -> Box<dyn TraceSource> { Box::new(StreamSrc(0)) }
/// }
///
/// let report = SimulationBuilder::new()
///     .prefetcher(PrefetcherKind::Berti)
///     .pgc_policy(PgcPolicyKind::Dripper)
///     .warmup(2_000)
///     .instructions(10_000)
///     .run_workload(&Stream);
/// assert!(report.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    prefetcher: PrefetcherKind,
    policy: PgcPolicyKind,
    custom_filter: Option<FilterConfig>,
    l2_prefetcher: L2PrefetcherKind,
    boundary: BoundaryMode,
    huge_pages: HugePagePolicy,
    core_cfg: CoreConfig,
    warmup: u64,
    instructions: u64,
    seed: u64,
    os: Option<OsConfig>,
}

impl SimulationBuilder {
    /// A builder with the paper's defaults: Berti + DRIPPER, 4 KB pages,
    /// no L2C prefetcher.
    pub fn new() -> Self {
        Self {
            prefetcher: PrefetcherKind::Berti,
            policy: PgcPolicyKind::Dripper,
            custom_filter: None,
            l2_prefetcher: L2PrefetcherKind::None,
            boundary: BoundaryMode::Fixed4K,
            huge_pages: HugePagePolicy::None,
            core_cfg: CoreConfig::default(),
            warmup: 50_000,
            instructions: 100_000,
            seed: 0xC0FFEE,
            os: None,
        }
    }

    /// Selects the L1D prefetcher.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetcher = kind;
        self
    }

    /// Selects the page-cross policy.
    pub fn pgc_policy(mut self, kind: PgcPolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// Overrides the policy with a filter built from an explicit MOKA
    /// configuration (ablation studies: buffer sizes, table sizes, custom
    /// feature selections).
    pub fn custom_filter(mut self, cfg: FilterConfig) -> Self {
        self.custom_filter = Some(cfg);
        self
    }

    /// Selects the L2C prefetcher.
    pub fn l2_prefetcher(mut self, kind: L2PrefetcherKind) -> Self {
        self.l2_prefetcher = kind;
        self
    }

    /// Selects the filtering boundary mode (§V-B6).
    pub fn boundary(mut self, mode: BoundaryMode) -> Self {
        self.boundary = mode;
        self
    }

    /// Selects the huge-page policy of the address space.
    pub fn huge_pages(mut self, policy: HugePagePolicy) -> Self {
        self.huge_pages = policy;
        self
    }

    /// Overrides the core configuration.
    pub fn core_config(mut self, cfg: CoreConfig) -> Self {
        self.core_cfg = cfg;
        self
    }

    /// Warm-up instructions (statistics discarded).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Measured instructions.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Seed for physical frame placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the imitation OS (demand paging, CLOCK reclamation, online
    /// THP, TLB shootdowns). Physical memory shrinks to
    /// `cfg.phys_mem_bytes` and the static [`HugePagePolicy`] is ignored:
    /// 2 MB mappings come only from the OS's own promotion daemon.
    pub fn os(mut self, cfg: OsConfig) -> Self {
        self.os = Some(cfg);
        self
    }

    fn make_prefetcher(&self) -> Box<dyn L1dPrefetcher> {
        // ISO-Storage gives the prefetcher DRIPPER's budget as extra tables.
        let mult = if self.policy == PgcPolicyKind::IsoStorage {
            4
        } else {
            1
        };
        match self.prefetcher {
            PrefetcherKind::None => Box::new(NoPrefetch),
            PrefetcherKind::NextLine => Box::new(NextLine::new(1)),
            PrefetcherKind::Stride => Box::new(Stride::new(2)),
            PrefetcherKind::Berti => Box::new(Berti::new(mult)),
            PrefetcherKind::Ipcp => Box::new(Ipcp::new(mult)),
            PrefetcherKind::Bop => Box::new(Bop::new(mult)),
        }
    }

    fn make_policy(&self) -> Box<dyn PgcPolicy> {
        if let Some(cfg) = &self.custom_filter {
            return Box::new(FilterPolicy::new(
                "custom",
                PageCrossFilter::new(cfg.clone()),
            ));
        }
        match self.policy {
            PgcPolicyKind::PermitPgc | PgcPolicyKind::IsoStorage => Box::new(PermitPgc),
            PgcPolicyKind::DiscardPgc => Box::new(DiscardPgc),
            PgcPolicyKind::DiscardPtw => Box::new(DiscardPtw),
            PgcPolicyKind::Dripper => {
                Box::new(moka_pgc::dripper::dripper(self.prefetcher.dripper_target()))
            }
            PgcPolicyKind::DripperSf => Box::new(moka_pgc::dripper_sf()),
            PgcPolicyKind::DripperStatic(t) => {
                let mut cfg = dripper_config(self.prefetcher.dripper_target());
                cfg.adaptive = false;
                cfg.static_threshold = t;
                Box::new(FilterPolicy::new(
                    "dripper-static",
                    PageCrossFilter::new(cfg),
                ))
            }
            PgcPolicyKind::Ppf => Box::new(moka_pgc::ppf()),
            PgcPolicyKind::PpfDthr => Box::new(moka_pgc::ppf_dthr()),
            PgcPolicyKind::SingleFeature(f) => Box::new(single_program_feature(f)),
            PgcPolicyKind::SingleSystemFeature(f) => Box::new(single_system_feature(f)),
        }
    }

    fn make_l2(&self) -> Option<Box<dyn L2Prefetcher>> {
        match self.l2_prefetcher {
            L2PrefetcherKind::None => None,
            L2PrefetcherKind::Spp => Some(Box::new(Spp::new())),
            L2PrefetcherKind::Ipcp => Some(Box::new(L2Adapter {
                inner: Ipcp::new(1),
                buf: Vec::new(),
            })),
            L2PrefetcherKind::Bop => Some(Box::new(L2Adapter {
                inner: Bop::new(1),
                buf: Vec::new(),
            })),
        }
    }

    fn make_engine(&self, core_id: usize) -> CoreEngine {
        CoreEngine::new(
            core_id,
            self.core_cfg,
            self.boundary,
            self.make_prefetcher(),
            self.make_policy(),
            self.make_l2(),
        )
    }

    fn collect_report(
        &self,
        name: &str,
        core: usize,
        engine: &CoreEngine,
        mem: &MemorySystem,
    ) -> Report {
        let c = mem.core(core);
        Report {
            workload: name.to_string(),
            prefetcher: self.prefetcher.label().to_string(),
            policy: self.policy.label().to_string(),
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

    /// Runs one workload per core; a single-core run is a mix of one.
    ///
    /// Cores advance in rough cycle lockstep: each step goes to the core
    /// with the lowest cycle count among those short of the phase's quota
    /// (`warmup` instructions, then `instructions` measured ones). A core
    /// that reaches its quota stops stepping for the rest of the phase, so
    /// in the measured phase the remaining cores run on without its
    /// contention. Each core's [`Report`] is captured when it reaches its
    /// measured quota, except `llc`: the LLC is shared, and every report
    /// carries its statistics at the end of the run.
    ///
    /// With `telemetry` set, core 0 carries the interval sampler and the
    /// memory system the event ring; collection is pure observation, so the
    /// reports are bit-identical with and without it. An `Err` means
    /// physical memory was exhausted with nothing left to reclaim (only
    /// possible with the OS model on and a pathological footprint/pool
    /// ratio).
    pub fn run(
        &self,
        workloads: &[&dyn TraceFactory],
        telemetry: Option<&TelemetryConfig>,
    ) -> Result<RunOutput, OomError> {
        let n = workloads.len();
        assert!(n > 0, "a run needs at least one workload");
        let t0 = Instant::now();
        // With the OS on, its physical-memory size overrides the DRAM
        // capacity and the static huge-page policy is forced off.
        let mut mcfg = MemConfig::table_iv(n as u32);
        let huge = if let Some(os) = &self.os {
            mcfg.dram.capacity_bytes = os.phys_mem_bytes;
            HugePagePolicy::None
        } else {
            self.huge_pages.clone()
        };
        let mut mem = MemorySystem::new(mcfg, n, huge, self.seed);
        let mut os = self.os.map(|cfg| Os::new(cfg, n));
        let mut cores = Cores {
            engines: (0..n).map(|i| self.make_engine(i)).collect(),
            traces: workloads.iter().map(|w| w.build()).collect(),
            pending: vec![true; n],
        };
        let t_setup = Instant::now();
        cores.run_to(self.warmup, &mut mem, &mut os, |_, _, _| {})?;
        let t_warmup = Instant::now();
        if let Some(o) = os.as_mut() {
            o.reset_stats();
        }
        mem.reset_stats();
        for e in &mut cores.engines {
            e.reset_stats(&mem);
        }
        if let Some(cfg) = telemetry {
            cores.engines[0].attach_sampler(cfg.interval);
            if let Some(ring) = cfg.make_ring() {
                mem.attach_events(ring);
            }
        }
        let mut reports = vec![Report::default(); n];
        let mut intervals = None;
        cores.run_to(self.instructions, &mut mem, &mut os, |i, engine, mem| {
            engine.finish();
            if let Some(mut sampler) = engine.take_sampler() {
                // Close the final partial interval against the post-finish
                // counters so the deltas telescope to the report totals.
                sampler.flush(engine.telemetry_counters(mem), engine.policy().telemetry());
                intervals = Some(sampler.into_intervals());
            }
            reports[i] = self.collect_report(workloads[i].name(), i, engine, mem);
        })?;
        for r in &mut reports {
            r.llc = mem.llc.stats;
        }
        let telemetry = intervals.map(|intervals| {
            let (events_seen, events) = mem
                .take_events()
                .map_or((0, Vec::new()), |ring| (ring.seen(), ring.into_events()));
            TelemetryRun {
                intervals,
                events,
                events_seen,
            }
        });
        let timings = PhaseTimings {
            setup: t_setup.duration_since(t0),
            warmup: t_warmup.duration_since(t_setup),
            measure: t_warmup.elapsed(),
        };
        Ok(RunOutput {
            reports,
            timings,
            telemetry,
        })
    }

    /// Runs a single workload on a single core; panics when physical
    /// memory runs out.
    pub fn run_workload(&self, workload: &dyn TraceFactory) -> Report {
        self.try_run_workload(workload)
            .expect("out of physical memory")
    }

    /// Runs a single workload, surfacing physical-memory exhaustion as an
    /// error instead of panicking.
    pub fn try_run_workload(&self, workload: &dyn TraceFactory) -> Result<Report, OomError> {
        Ok(self.run(&[workload], None)?.reports.swap_remove(0))
    }

    /// Runs a single workload with telemetry collection; panics when
    /// physical memory runs out.
    pub fn run_workload_with_telemetry(
        &self,
        workload: &dyn TraceFactory,
        cfg: &TelemetryConfig,
    ) -> (Report, TelemetryRun) {
        let mut out = self
            .run(&[workload], Some(cfg))
            .expect("out of physical memory");
        (
            out.reports.swap_remove(0),
            out.telemetry.expect("telemetry was requested"),
        )
    }

    /// Runs an `n`-core mix (§IV-A2) and keeps the per-core core and OS
    /// statistics, frozen when each core reaches its measured quota, plus
    /// the shared LLC's. A core that reaches its quota stops running; the
    /// others go on until each reaches its own. See [`run`](Self::run).
    pub fn try_run_mix(&self, workloads: &[&dyn TraceFactory]) -> Result<MixReport, OomError> {
        self.run(workloads, None).map(MixReport::from)
    }
}

/// The cores of one run and their instruction streams.
struct Cores {
    engines: Vec<CoreEngine>,
    traces: Vec<Box<dyn TraceSource>>,
    /// Cores still short of the current phase's quota.
    pending: Vec<bool>,
}

impl Cores {
    /// Steps the laggard pending core until every core has retired `quota`
    /// instructions since its last `reset_stats`. A core's quota is checked
    /// before it is stepped, so a zero quota steps nothing; `on_quota` sees
    /// each core once, when it reaches its quota.
    fn run_to(
        &mut self,
        quota: u64,
        mem: &mut MemorySystem,
        os: &mut Option<Os>,
        mut on_quota: impl FnMut(usize, &mut CoreEngine, &MemorySystem),
    ) -> Result<(), OomError> {
        self.pending.fill(true);
        while let Some(i) = next_core(&self.engines, &self.pending) {
            self.pending[i] = false;
            // Core i stays the laggard until its clock passes the runner-up.
            let rival =
                next_core(&self.engines, &self.pending).map(|j| (self.engines[j].cycle(), j));
            let engine = &mut self.engines[i];
            while engine.instructions() < quota && rival.is_none_or(|r| (engine.cycle(), i) < r) {
                let instr = self.traces[i].next_instr();
                engine.step(mem, os, &instr)?;
            }
            if engine.instructions() < quota {
                self.pending[i] = true;
            } else {
                on_quota(i, engine, mem);
            }
        }
        Ok(())
    }
}

/// Picks the laggard core among those still pending (`true` in `mask`);
/// the lowest index wins a tie. `None` once no core is pending.
fn next_core(engines: &[CoreEngine], mask: &[bool]) -> Option<usize> {
    engines
        .iter()
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .min_by_key(|(_, e)| e.cycle())
        .map(|(i, _)| i)
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}
