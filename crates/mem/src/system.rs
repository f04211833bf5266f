//! The composed memory system: per-core private L1I/L1D/L2C + TLBs + walker,
//! and a shared LLC + DRAM, wired with the Table IV timing.
//!
//! Timing is modelled as a latency chain with MSHR merging: an access that
//! misses at a level starts the next level after this level's latency; a
//! second miss to an in-flight line merges into the outstanding MSHR entry.
//! Fills propagate back up the chain (fill-path inclusive, like ChampSim's
//! default), and L1D evictions are reported to the caller so the page-cross
//! filter's pUB training can observe useless-PCB evictions.

use crate::cache::{Cache, Eviction, FillKind};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::mshr::Mshr;
use crate::page_table::PageWalker;
use crate::tlb::{Tlb, Translation};
use crate::vmem::{FrameAllocator, HugePagePolicy, OomError, Vmem};
use pagecross_telemetry::EventRing;
use pagecross_types::{
    LineAddr, PageSize, PhysAddr, TraceEvent, TranslationOutcome, VirtAddr, WalkStats,
};

/// Traffic class of a request walking the hierarchy; decides which
/// statistics the request perturbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Traffic {
    /// Demand load/store: counts demand accesses/misses at every level.
    Demand { is_store: bool },
    /// Instruction fetch: demand on the L1I/L2/LLC path.
    Fetch,
    /// Page-walk reference: occupies caches and bandwidth, no demand stats.
    Walk,
    /// L1D prefetch fill fetch: no demand stats below L1D.
    PrefetchL1 { page_cross: bool },
    /// L2C prefetch fill fetch.
    PrefetchL2,
}

/// Result of a demand data access.
#[derive(Clone, Copy, Debug)]
pub struct DemandDataResult {
    /// Cycle the data is available to the core.
    pub ready: u64,
    /// The access hit in L1D.
    pub l1d_hit: bool,
    /// The hit was the first demand hit on a prefetched block.
    pub first_hit_on_prefetch: bool,
    /// The hit block had its Page-Cross Bit set.
    pub hit_pcb: bool,
    /// Physical address of the access (for pUB-style training).
    pub paddr: PhysAddr,
    /// A block evicted from L1D by this access's fill, if any.
    pub l1d_eviction: Option<Eviction>,
    /// Translation was found in the dTLB.
    pub dtlb_hit: bool,
    /// Translation was found in the sTLB (when the dTLB missed).
    pub stlb_hit: bool,
    /// A page walk was required.
    pub walked: bool,
    /// The request reached the L2C (L1D miss); physical line + L2 hit flag,
    /// used to drive an optional L2C prefetcher.
    pub l2_access: Option<(PhysAddr, bool)>,
    /// Page size backing the accessed address.
    pub page_size: PageSize,
}

/// Result of attempting to issue an L1D prefetch.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchIssueResult {
    /// The prefetch actually fetched a block into L1D.
    pub issued: bool,
    /// The target was already in L1D or in flight.
    pub redundant: bool,
    /// A speculative page walk was performed.
    pub walked: bool,
    /// TLB state encountered for the target page.
    pub translation: TranslationOutcome,
    /// Physical line fetched (when issued): pUB key.
    pub paddr: Option<PhysAddr>,
    /// Block evicted from L1D by the prefetch fill.
    pub l1d_eviction: Option<Eviction>,
}

/// Result of an instruction fetch.
#[derive(Clone, Copy, Debug)]
pub struct FetchResult {
    /// Cycle the fetch completes.
    pub ready: u64,
    /// Hit in L1I.
    pub l1i_hit: bool,
}

/// Per-core private memory structures.
#[derive(Clone, Debug)]
pub struct CoreMem {
    /// First-level instruction cache.
    pub l1i: Cache,
    /// First-level data cache (VIPT; the prefetchers' home).
    pub l1d: Cache,
    /// Private second-level cache.
    pub l2c: Cache,
    /// First-level data TLB.
    pub dtlb: Tlb,
    /// First-level instruction TLB.
    pub itlb: Tlb,
    /// Last-level (second-level) TLB.
    pub stlb: Tlb,
    /// Page-table walker with split PSCs.
    pub walker: PageWalker,
    /// This core's address space.
    pub vmem: Vmem,
    /// Walker statistics.
    pub walk_stats: WalkStats,
    mshr_l1i: Mshr,
    mshr_l1d: Mshr,
    mshr_l2c: Mshr,
}

/// The full memory system for `n` cores.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    cores: Vec<CoreMem>,
    /// Shared last-level cache.
    pub llc: Cache,
    llc_mshr: Mshr,
    /// DRAM device.
    pub dram: Dram,
    frames: FrameAllocator,
    /// Structured event trace, absent unless telemetry requested it.
    /// Boxed so the disabled path carries one pointer of overhead.
    events: Option<Box<EventRing>>,
}

impl MemorySystem {
    /// Builds an `n_cores` system with the given configuration and
    /// huge-page policy (applied to every core's address space).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(cfg: MemConfig, n_cores: usize, huge: HugePagePolicy, seed: u64) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let mut frames = FrameAllocator::with_cores(cfg.dram.capacity_bytes, seed, n_cores as u32);
        let cores = (0..n_cores)
            .map(|i| CoreMem {
                l1i: Cache::new("L1I", cfg.l1i),
                l1d: Cache::new("L1D", cfg.l1d),
                l2c: Cache::new("L2C", cfg.l2c),
                dtlb: Tlb::new("dTLB", cfg.dtlb),
                itlb: Tlb::new("iTLB", cfg.itlb),
                stlb: Tlb::new("sTLB", cfg.stlb),
                walker: PageWalker::for_core(cfg.psc, &mut frames, i as u32),
                vmem: Vmem::for_core(
                    huge.clone(),
                    seed ^ (0x9E37 + i as u64 * 0x61C8_8646),
                    i as u32,
                ),
                walk_stats: WalkStats::default(),
                mshr_l1i: Mshr::new(cfg.l1i.mshr_entries),
                mshr_l1d: Mshr::new(cfg.l1d.mshr_entries),
                mshr_l2c: Mshr::new(cfg.l2c.mshr_entries),
            })
            .collect();
        Self {
            cores,
            llc: Cache::new("LLC", cfg.llc),
            llc_mshr: Mshr::new(cfg.llc.mshr_entries),
            dram: Dram::new(cfg.dram),
            frames,
            events: None,
            cfg,
        }
    }

    /// Attaches an event ring; subsequent fills, evictions, walks and
    /// policy decisions are recorded into it.
    pub fn attach_events(&mut self, ring: EventRing) {
        self.events = Some(Box::new(ring));
    }

    /// Detaches and returns the event ring, if one was attached.
    pub fn take_events(&mut self) -> Option<EventRing> {
        self.events.take().map(|b| *b)
    }

    /// Whether event tracing is active (callers may skip building event
    /// payloads when it is not).
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records one event (no-op when tracing is off). Public so the CPU
    /// model can record engine-side events (policy decisions) into the
    /// same ring.
    pub fn push_event(&mut self, core: usize, cycle: u64, event: TraceEvent) {
        if let Some(ring) = &mut self.events {
            ring.push(cycle, core as u32, event);
        }
    }

    fn push_eviction_event(&mut self, core: usize, cycle: u64, ev: &Eviction) {
        self.push_event(
            core,
            cycle,
            TraceEvent::Evict {
                line: ev.line.raw(),
                pcb: ev.pcb,
                dirty: ev.dirty,
                served_hits: ev.hits > 0,
            },
        );
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Immutable view of one core's private structures.
    pub fn core(&self, core: usize) -> &CoreMem {
        &self.cores[core]
    }

    /// Mutable view of one core's private structures (tests/ablation).
    pub fn core_mut(&mut self, core: usize) -> &mut CoreMem {
        &mut self.cores[core]
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Demand-only L1D MSHR occupancy (adaptive-thresholding input).
    pub fn l1d_demand_mshr_occupancy(&mut self, core: usize, cycle: u64) -> u32 {
        self.cores[core].mshr_l1d.demand_occupancy(cycle)
    }

    // ----- internal fetch chain -------------------------------------------------

    /// Fetches a physical line through LLC -> DRAM, starting at `cycle`.
    /// Returns the data-ready cycle. Fills the LLC.
    fn fetch_from_llc(&mut self, line: LineAddr, cycle: u64, traffic: Traffic) -> u64 {
        let llc_lat = self.cfg.llc.latency;
        let hit = match traffic {
            Traffic::Demand { .. } | Traffic::Fetch => self.llc.demand_access(line, false).hit,
            // Prefetch traffic keeps LRU warm without touching demand stats.
            _ => self.llc.prefetch_access(line),
        };
        if hit {
            return cycle + llc_lat;
        }
        if let Some(t) = self.llc_mshr.lookup(line, cycle) {
            return t.max(cycle + llc_lat);
        }
        let dram_ready = self.dram.access(line, cycle + llc_lat);
        let ready = self.llc_mshr.allocate(line, cycle, dram_ready);
        let fill_kind = match traffic {
            Traffic::PrefetchL1 { page_cross: true } => FillKind::PrefetchPageCross,
            Traffic::PrefetchL1 { .. } | Traffic::PrefetchL2 => FillKind::PrefetchInPage,
            _ => FillKind::Demand,
        };
        self.llc.fill(line, fill_kind, false);
        ready
    }

    /// Fetches a physical line through L2C -> LLC -> DRAM for `core`.
    /// Returns the data-ready cycle. Fills L2C (and below).
    fn fetch_from_l2(&mut self, core: usize, line: LineAddr, cycle: u64, traffic: Traffic) -> u64 {
        let l2_lat = self.cfg.l2c.latency;
        let hit = {
            let c = &mut self.cores[core];
            match traffic {
                Traffic::Demand { .. } | Traffic::Fetch => c.l2c.demand_access(line, false).hit,
                // Prefetch traffic keeps LRU warm without touching demand stats.
                _ => c.l2c.prefetch_access(line),
            }
        };
        if hit {
            return cycle + l2_lat;
        }
        if let Some(t) = self.cores[core].mshr_l2c.lookup(line, cycle) {
            return t.max(cycle + l2_lat);
        }
        let below = self.fetch_from_llc(line, cycle + l2_lat, traffic);
        let ready = self.cores[core].mshr_l2c.allocate(line, cycle, below);
        let fill_kind = match traffic {
            Traffic::PrefetchL1 { page_cross: true } => FillKind::PrefetchPageCross,
            Traffic::PrefetchL1 { .. } | Traffic::PrefetchL2 => FillKind::PrefetchInPage,
            _ => FillKind::Demand,
        };
        self.cores[core].l2c.fill(line, fill_kind, false);
        ready
    }

    // ----- translation ----------------------------------------------------------

    /// Translates `va` on the demand path: dTLB -> sTLB -> page walk, with
    /// walk references played through the data cache hierarchy.
    /// Returns `(translation, ready_cycle, dtlb_hit, stlb_hit, walked)`.
    fn translate_demand(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
    ) -> Result<(Translation, u64, bool, bool, bool), OomError> {
        let dtlb_lat = self.cfg.dtlb.latency;
        let stlb_lat = self.cfg.stlb.latency;
        if let Some(t) = self.cores[core].dtlb.lookup(va) {
            return Ok((t, cycle + dtlb_lat, true, false, false));
        }
        if let Some(t) = self.cores[core].stlb.lookup(va) {
            self.cores[core].dtlb.fill(t, false);
            return Ok((t, cycle + dtlb_lat + stlb_lat, false, true, false));
        }
        let t0 = cycle + dtlb_lat + stlb_lat;
        let (t, ready) = self.do_walk(core, va, t0, false)?;
        Ok((t, ready, false, false, true))
    }

    /// Performs a page walk starting at `cycle`, charging PSC latency plus
    /// one pointer-chased cache access per remaining level. Fills both TLBs.
    fn do_walk(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
        speculative: bool,
    ) -> Result<(Translation, u64), OomError> {
        let plan = {
            let c = &mut self.cores[core];
            // Split borrows inside one core are fine.
            let CoreMem { walker, vmem, .. } = c;
            walker.walk(va, vmem, &mut self.frames)?
        };
        {
            let ws = &mut self.cores[core].walk_stats;
            if speculative {
                ws.prefetch_walks += 1;
            } else {
                ws.demand_walks += 1;
            }
            ws.memory_refs += plan.refs.len() as u64;
            ws.psc_hits += plan.levels_skipped as u64;
        }
        let mut t = cycle + self.cfg.psc_latency;
        for pte in &plan.refs {
            t = self.walk_ref(core, pte.line(), t);
        }
        if self.events_enabled() {
            self.push_event(
                core,
                cycle,
                TraceEvent::Walk {
                    va_page: va.page_4k().raw(),
                    latency: t - cycle,
                    refs: plan.refs.len() as u32,
                    psc_skipped: plan.levels_skipped,
                    speculative,
                },
            );
        }
        let tr = plan.translation;
        self.cores[core].stlb.fill(tr, speculative);
        self.cores[core].dtlb.fill(tr, speculative);
        Ok((tr, t))
    }

    /// One walker reference through the L1D path (neutral statistics).
    fn walk_ref(&mut self, core: usize, line: LineAddr, cycle: u64) -> u64 {
        let l1d_lat = self.cfg.l1d.latency;
        if let Some(t) = self.cores[core].mshr_l1d.lookup(line, cycle) {
            return t.max(cycle + l1d_lat);
        }
        if self.cores[core].l1d.probe(line) {
            return cycle + l1d_lat;
        }
        let below = self.fetch_from_l2(core, line, cycle + l1d_lat, Traffic::Walk);
        let ready = self.cores[core]
            .mshr_l1d
            .allocate_kind(line, cycle, below, false);
        // PTE lines fill the L1D (walker goes through L1D, like ChampSim);
        // this is part of the pollution cost of speculative walks.
        self.cores[core].l1d.fill(line, FillKind::Demand, false);
        ready
    }

    // ----- public access paths ---------------------------------------------------

    /// A demand load or store from `core` to virtual address `va`.
    pub fn demand_data(
        &mut self,
        core: usize,
        va: VirtAddr,
        is_store: bool,
        cycle: u64,
    ) -> Result<DemandDataResult, OomError> {
        let (tr, trans_ready, dtlb_hit, stlb_hit, walked) =
            self.translate_demand(core, va, cycle)?;
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        let l1d_lat = self.cfg.l1d.latency;

        // VIPT: L1D index proceeds in parallel with the dTLB on a dTLB hit,
        // so the L1D access effectively starts at `cycle`; on longer
        // translations it starts when the translation is ready.
        let start = if dtlb_hit { cycle } else { trans_ready };

        let lookup = self.cores[core].l1d.demand_access(line, is_store);
        if lookup.hit {
            // The block may be structurally present but still in flight
            // (fills are installed when the miss is issued); data is only
            // usable once the outstanding MSHR entry completes.
            let inflight = self.cores[core].mshr_l1d.lookup(line, start);
            let ready = inflight.map_or(start + l1d_lat, |t| t.max(start + l1d_lat));
            return Ok(DemandDataResult {
                ready,
                l1d_hit: true,
                first_hit_on_prefetch: lookup.first_hit_on_prefetch,
                hit_pcb: lookup.pcb,
                paddr: pa,
                l1d_eviction: None,
                dtlb_hit,
                stlb_hit,
                walked,
                l2_access: None,
                page_size: tr.size,
            });
        }

        // Miss path.
        if let Some(t) = self.cores[core].mshr_l1d.lookup(line, start) {
            return Ok(DemandDataResult {
                ready: t.max(start + l1d_lat),
                l1d_hit: false,
                first_hit_on_prefetch: false,
                hit_pcb: false,
                paddr: pa,
                l1d_eviction: None,
                dtlb_hit,
                stlb_hit,
                walked,
                l2_access: None,
                page_size: tr.size,
            });
        }
        let l2_hit_probe = self.cores[core].l2c.probe(line);
        let below = self.fetch_from_l2(core, line, start + l1d_lat, Traffic::Demand { is_store });
        let ready = self.cores[core].mshr_l1d.allocate(line, start, below);
        let eviction = self.cores[core].l1d.fill(line, FillKind::Demand, is_store);
        if self.events_enabled() {
            self.push_event(
                core,
                start,
                TraceEvent::Fill {
                    line: line.raw(),
                    prefetch: false,
                    page_cross: false,
                },
            );
            if let Some(ev) = &eviction {
                self.push_eviction_event(core, start, ev);
            }
        }
        Ok(DemandDataResult {
            ready,
            l1d_hit: false,
            first_hit_on_prefetch: false,
            hit_pcb: false,
            paddr: pa,
            l1d_eviction: eviction,
            dtlb_hit,
            stlb_hit,
            walked,
            l2_access: Some((pa, l2_hit_probe)),
            page_size: tr.size,
        })
    }

    /// An instruction fetch from `core` at virtual address `va`.
    pub fn fetch_instr(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
    ) -> Result<FetchResult, OomError> {
        // iTLB -> sTLB -> walk.
        let itlb_lat = self.cfg.itlb.latency;
        let stlb_lat = self.cfg.stlb.latency;
        let (tr, trans_ready, itlb_hit) = if let Some(t) = self.cores[core].itlb.lookup(va) {
            (t, cycle + itlb_lat, true)
        } else if let Some(t) = self.cores[core].stlb.lookup(va) {
            self.cores[core].itlb.fill(t, false);
            (t, cycle + itlb_lat + stlb_lat, false)
        } else {
            let (t, ready) = self.do_walk(core, va, cycle + itlb_lat + stlb_lat, false)?;
            self.cores[core].itlb.fill(t, false);
            (t, ready, false)
        };
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        let l1i_lat = self.cfg.l1i.latency;
        let start = if itlb_hit { cycle } else { trans_ready };
        let lookup = self.cores[core].l1i.demand_access(line, false);
        if lookup.hit {
            let inflight = self.cores[core].mshr_l1i.lookup(line, start);
            let ready = inflight.map_or(start + l1i_lat, |t| t.max(start + l1i_lat));
            return Ok(FetchResult {
                ready,
                l1i_hit: true,
            });
        }
        if let Some(t) = self.cores[core].mshr_l1i.lookup(line, start) {
            return Ok(FetchResult {
                ready: t.max(start + l1i_lat),
                l1i_hit: false,
            });
        }
        let below = self.fetch_from_l2(core, line, start + l1i_lat, Traffic::Fetch);
        let ready = self.cores[core].mshr_l1i.allocate(line, start, below);
        self.cores[core].l1i.fill(line, FillKind::Demand, false);
        Ok(FetchResult {
            ready,
            l1i_hit: lookup.hit,
        })
    }

    /// Issues an L1D prefetch for virtual address `va` on behalf of `core`.
    ///
    /// The target is translated through the TLB hierarchy (prefetch-probe
    /// statistics); when the translation is absent and `allow_walk()`
    /// returns true, a *speculative page walk* is performed — the
    /// high-risk step the paper studies (up to 4 extra memory references).
    /// Otherwise the prefetch is dropped (the `Discard PTW` scenario).
    /// `allow_walk` runs only when both TLB probes miss, so a costly
    /// permission check is paid only by prefetches that need a walk.
    pub fn issue_prefetch(
        &mut self,
        core: usize,
        va: VirtAddr,
        page_cross: bool,
        cycle: u64,
        allow_walk: impl FnOnce() -> bool,
    ) -> Result<PrefetchIssueResult, OomError> {
        let c = &mut self.cores[core];
        let (outcome, tr, t_ready, walked) = if let Some(t) = c.dtlb.prefetch_probe(va) {
            let ready = cycle + self.cfg.dtlb.latency;
            (TranslationOutcome::DtlbHit, t, ready, false)
        } else if let Some(t) = c.stlb.prefetch_probe(va) {
            c.dtlb.fill(t, true);
            let ready = cycle + self.cfg.dtlb.latency + self.cfg.stlb.latency;
            (TranslationOutcome::StlbHit, t, ready, false)
        } else {
            let outcome = TranslationOutcome::RequiresWalk;
            if !allow_walk() {
                return Ok(PrefetchIssueResult {
                    issued: false,
                    redundant: false,
                    walked: false,
                    translation: outcome,
                    paddr: None,
                    l1d_eviction: None,
                });
            }
            let t0 = cycle + self.cfg.dtlb.latency + self.cfg.stlb.latency;
            let (t, ready) = self.do_walk(core, va, t0, true)?;
            (outcome, t, ready, true)
        };
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        if self.cores[core].l1d.probe(line)
            || self.cores[core].mshr_l1d.lookup(line, t_ready).is_some()
        {
            return Ok(PrefetchIssueResult {
                issued: false,
                redundant: true,
                walked,
                translation: outcome,
                paddr: Some(pa),
                l1d_eviction: None,
            });
        }
        let below = self.fetch_from_l2(core, line, t_ready, Traffic::PrefetchL1 { page_cross });
        self.cores[core]
            .mshr_l1d
            .allocate_kind(line, t_ready, below, false);
        let kind = if page_cross {
            FillKind::PrefetchPageCross
        } else {
            FillKind::PrefetchInPage
        };
        let eviction = self.cores[core].l1d.fill(line, kind, false);
        if self.events_enabled() {
            self.push_event(
                core,
                t_ready,
                TraceEvent::Fill {
                    line: line.raw(),
                    prefetch: true,
                    page_cross,
                },
            );
            if let Some(ev) = &eviction {
                self.push_eviction_event(core, t_ready, ev);
            }
        }
        Ok(PrefetchIssueResult {
            issued: true,
            redundant: false,
            walked,
            translation: outcome,
            paddr: Some(pa),
            l1d_eviction: eviction,
        })
    }

    /// Issues an L1I instruction prefetch for virtual address `va`.
    ///
    /// Instruction prefetches never trigger speculative walks: if the
    /// translation is not resident in the iTLB/sTLB the prefetch is
    /// dropped (returns `false`).
    pub fn issue_l1i_prefetch(&mut self, core: usize, va: VirtAddr, cycle: u64) -> bool {
        let tr = if let Some(t) = self.cores[core].itlb.prefetch_probe(va) {
            t
        } else if let Some(t) = self.cores[core].stlb.prefetch_probe(va) {
            t
        } else {
            return false;
        };
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        if self.cores[core].l1i.probe(line)
            || self.cores[core].mshr_l1i.lookup(line, cycle).is_some()
        {
            return false;
        }
        let below = self.fetch_from_l2(
            core,
            line,
            cycle + self.cfg.l1i.latency,
            Traffic::PrefetchL2,
        );
        self.cores[core]
            .mshr_l1i
            .allocate_kind(line, cycle, below, false);
        self.cores[core]
            .l1i
            .fill(line, FillKind::PrefetchInPage, false);
        true
    }

    /// Issues an L2C prefetch for a physical line (L2C prefetchers operate
    /// in the physical address space and never cross physical pages, §II-A2).
    pub fn issue_l2_prefetch(&mut self, core: usize, pa: PhysAddr, cycle: u64) -> bool {
        let line = pa.line();
        if self.cores[core].l2c.probe(line)
            || self.cores[core].mshr_l2c.lookup(line, cycle).is_some()
        {
            return false;
        }
        let below = self.fetch_from_llc(line, cycle + self.cfg.l2c.latency, Traffic::PrefetchL2);
        self.cores[core].mshr_l2c.allocate(line, cycle, below);
        self.cores[core]
            .l2c
            .fill(line, FillKind::PrefetchInPage, false);
        true
    }

    /// Clears every statistics counter (end of warm-up) without touching
    /// cache, TLB, PSC or page-table state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1i.stats = Default::default();
            c.l1d.stats = Default::default();
            c.l2c.stats = Default::default();
            c.dtlb.stats = Default::default();
            c.itlb.stats = Default::default();
            c.stlb.stats = Default::default();
            c.walk_stats = Default::default();
        }
        self.llc.stats = Default::default();
        self.dram.transfers = 0;
        self.dram.queue_cycles = 0;
    }

    /// Translates without timing (used by tests and trace tooling).
    pub fn translate_untimed(&mut self, core: usize, va: VirtAddr) -> Result<PhysAddr, OomError> {
        let c = &mut self.cores[core];
        let CoreMem { vmem, .. } = c;
        let tr = vmem.translate(va, &mut self.frames)?;
        Ok(PhysAddr::new(tr.apply(va)))
    }

    // ----- OS-facing mechanism (policy lives in `pagecross-os`) ------------------

    /// Split borrow of one core's address space together with the shared
    /// frame allocator, so an external pager can allocate and install
    /// mappings in one step.
    pub fn vmem_and_frames(&mut self, core: usize) -> (&mut Vmem, &mut FrameAllocator) {
        (&mut self.cores[core].vmem, &mut self.frames)
    }

    /// Shared frame allocator (reclaim bookkeeping).
    pub fn frames_mut(&mut self) -> &mut FrameAllocator {
        &mut self.frames
    }

    /// TLB-shootdown flush of one 4 KB page across every core: drops
    /// matching dTLB/iTLB/sTLB entries and conservatively the PSC entry
    /// covering the page. Returns the number of entries dropped (the IPI
    /// cost itself is charged by the OS model, not here).
    pub fn shootdown_page(&mut self, vpn4k: u64) -> u32 {
        let mut dropped = 0;
        for c in &mut self.cores {
            dropped += u32::from(c.dtlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.itlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.stlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.walker.invalidate_psc_page(vpn4k));
        }
        dropped
    }

    /// TLB-shootdown flush of an aligned 2 MB region across every core
    /// (both granularities plus the PSC entries above the region).
    /// Returns the number of entries dropped.
    pub fn shootdown_region(&mut self, vpn2m: u64) -> u32 {
        let mut dropped = 0;
        for c in &mut self.cores {
            dropped += c.dtlb.invalidate_region(vpn2m);
            dropped += c.itlb.invalidate_region(vpn2m);
            dropped += c.stlb.invalidate_region(vpn2m);
            dropped += c.walker.invalidate_psc_region(vpn2m);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 42)
    }

    #[test]
    fn cold_access_pays_full_chain() {
        let mut m = sys();
        let r = m
            .demand_data(0, VirtAddr::new(0x1000_0000), false, 0)
            .unwrap();
        assert!(!r.l1d_hit);
        assert!(r.walked, "cold TLB requires a walk");
        // Walk (5 refs through DRAM) + miss chain: far more than DRAM latency.
        assert!(r.ready > 160, "cold access must be slow, got {}", r.ready);
    }

    #[test]
    fn warm_access_hits_l1d_fast() {
        let mut m = sys();
        let va = VirtAddr::new(0x1000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let r = m.demand_data(0, va, false, 10_000).unwrap();
        assert!(r.l1d_hit);
        assert!(r.dtlb_hit);
        assert_eq!(
            r.ready,
            10_000 + 5,
            "dTLB-parallel L1D hit takes L1D latency"
        );
    }

    #[test]
    fn same_page_second_access_no_walk() {
        let mut m = sys();
        m.demand_data(0, VirtAddr::new(0x1000_0000), false, 0)
            .unwrap();
        let r = m
            .demand_data(0, VirtAddr::new(0x1000_0040), false, 1_000)
            .unwrap();
        assert!(!r.walked);
        assert!(r.dtlb_hit);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = sys();
        let va = VirtAddr::new(0x2000_0000);
        // Touch the page once so translation is warm, then force eviction of
        // nothing — access a new line on the same page twice quickly.
        m.demand_data(0, va, false, 0).unwrap();
        let va2 = VirtAddr::new(0x2000_0080);
        let a = m.demand_data(0, va2, false, 1_000).unwrap();
        let b = m.demand_data(0, va2.offset(8), false, 1_001).unwrap();
        assert!(!a.l1d_hit, "first access misses");
        assert!(
            b.ready >= a.ready,
            "second access cannot complete before the fill"
        );
        assert!(
            b.ready <= a.ready + 6,
            "second access merges into the first's MSHR"
        );
    }

    #[test]
    fn prefetch_fills_l1d_and_is_redundant_after() {
        let mut m = sys();
        let trig = VirtAddr::new(0x3000_0000);
        m.demand_data(0, trig, false, 0).unwrap();
        let tgt = VirtAddr::new(0x3000_0400);
        let r = m.issue_prefetch(0, tgt, false, 100, || true).unwrap();
        assert!(r.issued);
        let again = m.issue_prefetch(0, tgt, false, 20_000, || true).unwrap();
        assert!(again.redundant);
        // Demand access now hits and promotes the prefetch to useful.
        let d = m.demand_data(0, tgt, false, 30_000).unwrap();
        assert!(d.l1d_hit && d.first_hit_on_prefetch);
    }

    #[test]
    fn page_cross_prefetch_walks_when_allowed() {
        let mut m = sys();
        let trig = VirtAddr::new(0x4000_0FC0); // last line of its page
        m.demand_data(0, trig, false, 0).unwrap();
        let tgt = trig.offset(64); // next page, cold TLB
        let r = m.issue_prefetch(0, tgt, true, 1_000, || true).unwrap();
        assert_eq!(r.translation, TranslationOutcome::RequiresWalk);
        assert!(r.issued && r.walked);
        assert_eq!(m.core(0).walk_stats.prefetch_walks, 1);
        // The walk filled the TLBs: a demand access to that page now needs no walk.
        let d = m.demand_data(0, tgt, false, 50_000).unwrap();
        assert!(!d.walked);
        assert!(d.l1d_hit, "prefetched block serves the demand");
        assert!(d.hit_pcb, "block carries the Page-Cross Bit");
    }

    #[test]
    fn discard_ptw_semantics() {
        let mut m = sys();
        let tgt = VirtAddr::new(0x5000_0000);
        let r = m.issue_prefetch(0, tgt, true, 0, || false).unwrap();
        assert!(!r.issued && !r.walked);
        assert_eq!(r.translation, TranslationOutcome::RequiresWalk);
        assert_eq!(m.core(0).walk_stats.prefetch_walks, 0);
    }

    #[test]
    fn walk_consumes_memory_refs() {
        let mut m = sys();
        m.demand_data(0, VirtAddr::new(0x6000_0000), false, 0)
            .unwrap();
        let ws = m.core(0).walk_stats;
        assert_eq!(ws.demand_walks, 1);
        assert_eq!(ws.memory_refs, 5, "cold 5-level walk references 5 PTEs");
        // Second walk to a nearby page: PSC-L2 hit -> 1 ref.
        m.demand_data(0, VirtAddr::new(0x6000_0000 + (100 << 12)), false, 100_000)
            .unwrap();
        // Note: +100 pages stays in the same 2MB region only if < 512 pages.
        let ws2 = m.core(0).walk_stats;
        assert_eq!(ws2.demand_walks, 2);
        assert_eq!(ws2.memory_refs, 6, "warm walk references only the PT level");
    }

    #[test]
    fn fetch_path_works() {
        let mut m = sys();
        let pc = VirtAddr::new(0x40_0000);
        let f1 = m.fetch_instr(0, pc, 0).unwrap();
        assert!(!f1.l1i_hit);
        let f2 = m.fetch_instr(0, pc, 10_000).unwrap();
        assert!(f2.l1i_hit);
        assert_eq!(f2.ready, 10_000 + 4);
    }

    #[test]
    fn stlb_hit_path() {
        let mut m = sys();
        let va = VirtAddr::new(0x7000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        // Blow the dTLB (64 entries, 4-way) with many distinct pages.
        for p in 1..200u64 {
            m.demand_data(0, VirtAddr::new(0x7000_0000 + (p << 12)), false, p * 2_000)
                .unwrap();
        }
        let r = m.demand_data(0, va, false, 1_000_000).unwrap();
        assert!(!r.dtlb_hit, "dTLB should have evicted the first page");
        assert!(r.stlb_hit, "sTLB (1536 entries) still holds it");
        assert!(!r.walked);
    }

    #[test]
    fn multicore_private_structures_are_independent() {
        let mut m = MemorySystem::new(MemConfig::table_iv(2), 2, HugePagePolicy::None, 1);
        let va = VirtAddr::new(0x8000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let r1 = m.demand_data(1, va, false, 10).unwrap();
        assert!(!r1.l1d_hit, "core 1 has its own cold L1D");
        assert!(r1.walked, "core 1 has its own cold TLB and address space");
        // Same VA maps to different frames in the two address spaces.
        let p0 = m.translate_untimed(0, va).unwrap();
        let p1 = m.translate_untimed(1, va).unwrap();
        assert_ne!(p0, p1);
    }

    #[test]
    fn l2_prefetch_fills_l2_only() {
        let mut m = sys();
        let va = VirtAddr::new(0x9000_0000);
        let d = m.demand_data(0, va, false, 0).unwrap();
        let pa_next = PhysAddr::new(d.paddr.raw() + 64);
        assert!(m.issue_l2_prefetch(0, pa_next, 1_000));
        assert!(m.core(0).l2c.probe(pa_next.line()));
        assert!(!m.core(0).l1d.probe(pa_next.line()));
        assert!(!m.issue_l2_prefetch(0, pa_next, 2_000), "now redundant");
    }

    #[test]
    fn prefetch_traffic_never_lands_in_demand_counters() {
        let mut m = sys();
        let trig = VirtAddr::new(0xB000_0000);
        m.demand_data(0, trig, false, 0).unwrap();
        let (l2_da, l2_dm) = {
            let s = &m.core(0).l2c.stats;
            (s.demand_accesses, s.demand_misses)
        };
        let (llc_da, llc_dm) = (m.llc.stats.demand_accesses, m.llc.stats.demand_misses);
        // L1 prefetches probe L2C and LLC on their way down; none of that
        // may count as demand traffic.
        for i in 1..=4u64 {
            m.issue_prefetch(
                0,
                VirtAddr::new(0xB000_0000 + i * 64),
                false,
                i * 1_000,
                || i % 2 == 0,
            )
            .unwrap();
        }
        let l2 = &m.core(0).l2c.stats;
        assert_eq!(
            l2.demand_accesses, l2_da,
            "L2C demand accesses moved on prefetch traffic"
        );
        assert_eq!(
            l2.demand_misses, l2_dm,
            "L2C demand misses moved on prefetch traffic"
        );
        assert_eq!(m.llc.stats.demand_accesses, llc_da);
        assert_eq!(m.llc.stats.demand_misses, llc_dm);
        assert!(
            l2.prefetch_accesses > 0,
            "prefetch probes must be visible in the prefetch counters"
        );
    }

    #[test]
    fn event_ring_records_fills_and_walks() {
        let mut m = sys();
        assert!(!m.events_enabled());
        // Events offered before attach are silently dropped.
        m.push_event(
            0,
            0,
            TraceEvent::Fill {
                line: 1,
                prefetch: false,
                page_cross: false,
            },
        );
        m.attach_events(EventRing::new(1024, 1));
        assert!(m.events_enabled());

        let va = VirtAddr::new(0xC000_0000);
        m.demand_data(0, va, false, 0).unwrap(); // cold: walk + demand fill
        let r = m
            .issue_prefetch(0, va.offset(4096), true, 1_000, || true)
            .unwrap();
        assert!(r.issued && r.walked);

        let ring = m.take_events().expect("ring attached");
        assert!(!m.events_enabled());
        let events = ring.into_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"walk"), "{kinds:?}");
        assert!(kinds.contains(&"fill"), "{kinds:?}");
        let walks: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Walk {
                    latency,
                    refs,
                    speculative,
                    ..
                } => Some((latency, refs, speculative)),
                _ => None,
            })
            .collect();
        assert_eq!(walks.len(), 2, "one demand + one speculative walk");
        assert!(walks.iter().all(|&(lat, refs, _)| lat > 0 && refs > 0));
        assert_eq!(walks.iter().filter(|&&(_, _, s)| s).count(), 1);
        let pf_fills = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    TraceEvent::Fill {
                        prefetch: true,
                        page_cross: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pf_fills, 1, "the page-cross prefetch fill is recorded");
    }

    #[test]
    fn store_miss_write_allocates_dirty() {
        let mut m = sys();
        let va = VirtAddr::new(0xA000_0000);
        m.demand_data(0, va, true, 0).unwrap();
        // Evicting it later produces a writeback; force evictions by filling
        // the set: lines mapping to the same set are 64 sets * 64B apart.
        let mut wb_before = m.core(0).l1d.stats.writebacks;
        assert_eq!(wb_before, 0);
        for i in 1..=12u64 {
            let conflict = VirtAddr::new(0xA000_0000 + i * 64 * 64);
            m.demand_data(0, conflict, false, i * 3_000).unwrap();
        }
        wb_before = m.core(0).l1d.stats.writebacks;
        assert!(wb_before >= 1, "dirty block eventually written back");
    }
}
