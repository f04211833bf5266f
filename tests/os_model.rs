//! Integration tests for the imitation-OS memory model: demand paging,
//! frame reclamation under real memory pressure, THP promotion, and TLB
//! shootdowns — exercised through the public `SimulationBuilder` API
//! exactly as the CLI drives it, and through `Os` directly where a test
//! locks exact frames or checks the pager against the page tables.

use pagecross::cpu::engine::CoreEngine;
use pagecross::cpu::trace::{Instr, Op, TraceFactory, TraceSource};
use pagecross::cpu::{BoundaryMode, CoreConfig, Os, OsConfig, PrefetcherKind, SimulationBuilder};
use pagecross::mem::{HugePagePolicy, MemConfig, MemorySystem};
use pagecross::moka::PermitPgc;
use pagecross::prefetch::NextLine;
use pagecross::types::VirtAddr;
use pagecross::workloads::{suite, SuiteId};

/// A data stream wider than a 64 MB machine's 4 KB pool (8 192 frames):
/// one load per instruction, stride one page, wrapping over `pages`
/// distinct pages so evicted pages are revisited after reclamation.
struct WideStream {
    pages: u64,
}

struct WideSrc {
    pages: u64,
    i: u64,
}

impl TraceSource for WideSrc {
    fn next_instr(&mut self) -> Instr {
        self.i += 1;
        let page = self.i % self.pages;
        Instr {
            pc: 0x40_0000 + (self.i % 8) * 4,
            op: Op::Load {
                va: VirtAddr::new(0x1000_0000 + page * 4096),
                depends_on_prev: false,
            },
        }
    }
}

impl TraceFactory for WideStream {
    fn name(&self) -> &str {
        "wide-stream"
    }
    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(WideSrc {
            pages: self.pages,
            i: 0,
        })
    }
}

fn pressure_config() -> OsConfig {
    OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 0.5,
        ..OsConfig::default()
    }
}

/// A 64 MB machine streaming a 48 MB data footprint must fault every
/// page in, reclaim frames once the pool drains, shoot down stale TLB
/// entries, and re-fault reclaimed pages as major faults on the second
/// pass — while the exact stall-slot accounting keeps holding.
#[test]
fn memory_pressure_exercises_the_whole_reclaim_path() {
    let w = WideStream { pages: 12_288 }; // 48 MB > the 32 MB 4K pool
    let r = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::None)
        .os(OsConfig {
            phys_mem_bytes: 64 << 20,
            thp: 0.0, // pure 4 KB backing keeps the footprint > the pool
            ..OsConfig::default()
        })
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(&w);

    assert!(r.os.minor_faults > 0, "first touches must minor-fault");
    assert!(r.os.reclaims > 0, "a drained pool must reclaim frames");
    assert!(r.os.shootdowns > 0, "reclaims must invalidate TLBs");
    assert!(
        r.os.major_faults > 0,
        "revisiting reclaimed pages must major-fault"
    );
    assert!(r.core.stalls.os_fault > 0, "faults must cost issue slots");

    let width = CoreConfig::default().issue_width;
    assert!(
        r.core
            .stalls
            .balances(r.core.instructions, r.core.cycles, width),
        "{} instr + {} stalls + {} carry != {} cycles * {width} width",
        r.core.instructions,
        r.core.stalls.total(),
        r.core.stalls.warmup_carry,
        r.core.cycles,
    );
}

/// After the pressure scenario above, stepped through one engine at
/// THP 0, 0.5 and 1, the pager's residency records still agree with the
/// page tables: every resident page is mapped and every mapping is
/// resident. Promotion unmaps exactly the pages the pager records as
/// resident, so this agreement is what keeps it exact. A page-cross
/// prefetcher runs too, so walks gated on residency are exercised.
#[test]
fn residency_matches_page_tables_after_pressure() {
    for thp in [0.0, 0.5, 1.0] {
        let cfg = OsConfig {
            phys_mem_bytes: 64 << 20,
            thp,
            ..OsConfig::default()
        };
        let mut mcfg = MemConfig::table_iv(1);
        mcfg.dram.capacity_bytes = cfg.phys_mem_bytes;
        let mut mem = MemorySystem::new(mcfg, 1, HugePagePolicy::None, 1);
        let mut os = Some(Os::new(cfg, 1));
        let mut engine = CoreEngine::new(
            0,
            CoreConfig::default(),
            BoundaryMode::Fixed4K,
            Box::new(NextLine::new(2)),
            Box::new(PermitPgc),
            None,
        );
        let mut src = WideStream { pages: 12_288 }.build();
        for _ in 0..25_000 {
            engine
                .step(&mut mem, &mut os, &src.next_instr())
                .expect("the stream fits once reclaim runs");
        }
        let os = os.expect("the OS is on");
        let stats = os.stats(0);
        if thp == 0.0 {
            assert!(stats.reclaims > 0, "thp 0 must reclaim");
            assert!(stats.major_faults > 0, "thp 0 must major-fault");
        } else {
            assert!(stats.thp_promotions > 0, "thp {thp} must promote");
        }
        if let Err(e) = os.check_residency(&mem) {
            panic!("thp {thp}: {e}");
        }
    }
}

/// Logs one step of [`region_cycle_log`]: the core's `OsStats`, the
/// free frames of both pools, and the frame backing each of `pages`
/// (`-` when not resident).
fn log_step(log: &mut Vec<String>, step: &str, os: &Os, mem: &mut MemorySystem, pages: &[u64]) {
    let mut line = format!(
        "{step}: {:?} free_4k={} free_2m={}",
        os.stats(0),
        mem.frames_mut().free_4k_frames(0),
        mem.frames_mut().free_2m_frames(0)
    );
    for &vpn4k in pages {
        let va = VirtAddr::new(vpn4k << 12);
        if os.is_resident(0, va) {
            let (vmem, frames) = mem.vmem_and_frames(0);
            let t = vmem
                .translate(va, frames)
                .expect("a resident page is mapped");
            line += &format!(" {vpn4k:#x}={:?}:{:#x}", t.size, t.pfn);
        } else {
            line += &format!(" {vpn4k:#x}=-");
        }
    }
    log.push(line);
}

/// One core at 64 MB and THP 1.0, driven straight through `Os`. Data
/// regions take all but one 2 MB frame, and pinned code pages fill the
/// 4 KB pool. The next data faults demote region 0 and evict its pages
/// one by one, reusing each freed sub-frame. A major fault on one of
/// the evicted pages then promotes region 0 again into the last 2 MB
/// frame, which frees its remaining sub-frames in VPN order. Later
/// faults take those slots last-freed first, reclaim data pages that
/// sit on sub-frames, and major-fault them back in. `check` runs after
/// every step.
fn region_cycle_log(check: impl Fn(&Os, &MemorySystem)) -> Vec<String> {
    let cfg = OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 1.0,
        ..OsConfig::default()
    };
    let mut mcfg = MemConfig::table_iv(1);
    mcfg.dram.capacity_bytes = cfg.phys_mem_bytes;
    let mut mem = MemorySystem::new(mcfg, 1, HugePagePolicy::None, 42);
    let mut os = Os::new(cfg, 1);
    let n2m = mem.frames_mut().total_2m_frames();
    let n4k = mem.frames_mut().total_4k_frames();
    let mut log = Vec::new();
    let mut step = |os: &Os, mem: &mut MemorySystem, name: &str, pages: &[u64]| {
        log_step(&mut log, name, os, mem, pages);
        check(os, mem);
    };
    let mut cycle = 0;
    let mut touch = |os: &mut Os, mem: &mut MemorySystem, vpn4k: u64| {
        cycle += 1;
        os.before_access(mem, 0, VirtAddr::new(vpn4k << 12), cycle)
            .expect("something stays reclaimable");
    };
    // Code pages are the even pages from vpn 1 << 20 on, data pages the
    // odd ones between them, so no data region can be promoted.
    let code = 1 << 20;
    let data = |i: u64| code + 2 * i + 1;

    for r in 0..n2m - 1 {
        touch(&mut os, &mut mem, r * 512);
    }
    for i in 0..n4k {
        os.pin_code_page(&mut mem, 0, VirtAddr::new((code + 2 * i) << 12), 0)
            .expect("the 4 KB pool holds every code page");
    }
    step(&os, &mut mem, "promoted", &[0, 511, 10 * 512, code]);

    touch(&mut os, &mut mem, data(0));
    step(&os, &mut mem, "demoted", &[0, 1, 511, data(0)]);

    for i in 1..=20 {
        touch(&mut os, &mut mem, data(i));
    }
    step(&os, &mut mem, "evicted", &[20, 21, data(1), data(20)]);

    touch(&mut os, &mut mem, 5);
    step(&os, &mut mem, "repromoted", &[0, 5, 21, 511]);

    for i in 21..=30 {
        touch(&mut os, &mut mem, data(i));
    }
    step(&os, &mut mem, "reused", &[data(21), data(22), data(30)]);

    for i in 31..=600 {
        touch(&mut os, &mut mem, data(i));
    }
    step(
        &os,
        &mut mem,
        "recycled",
        &[data(0), data(31), data(511), data(600)],
    );

    for i in 0..10 {
        touch(&mut os, &mut mem, data(i));
    }
    step(&os, &mut mem, "refaulted", &[data(0), data(9), data(100)]);
    log
}

/// `region_cycle_log`, captured before the pager kept one record per
/// 2 MB region. After an intentional change, copy the log the failing
/// assertion prints.
const REGION_CYCLE: &[&str] = &[
    "promoted: OsStats { minor_faults: 11, major_faults: 0, reclaims: 0, thp_promotions: 11, thp_demotions: 0, shootdowns: 11, ipis_received: 0, fault_cycles: 66000 } free_4k=0 free_2m=1 0x0=Huge2M:0x14 0x1ff=Huge2M:0x14 0x1400=Huge2M:0x13 0x100000=Base4K:0x4ba",
    "demoted: OsStats { minor_faults: 12, major_faults: 0, reclaims: 1, thp_promotions: 11, thp_demotions: 1, shootdowns: 13, ipis_received: 0, fault_cycles: 70000 } free_4k=0 free_2m=1 0x0=- 0x1=Base4K:0x2801 0x1ff=Base4K:0x29ff 0x100001=Base4K:0x2800",
    "evicted: OsStats { minor_faults: 32, major_faults: 0, reclaims: 21, thp_promotions: 11, thp_demotions: 1, shootdowns: 33, ipis_received: 0, fault_cycles: 150000 } free_4k=0 free_2m=1 0x14=- 0x15=Base4K:0x2815 0x100003=Base4K:0x2801 0x100029=Base4K:0x2814",
    "repromoted: OsStats { minor_faults: 32, major_faults: 1, reclaims: 22, thp_promotions: 12, thp_demotions: 1, shootdowns: 35, ipis_received: 0, fault_cycles: 184000 } free_4k=0 free_2m=0 0x0=Huge2M:0x10 0x5=Huge2M:0x10 0x15=Huge2M:0x10 0x1ff=Huge2M:0x10",
    "reused: OsStats { minor_faults: 42, major_faults: 1, reclaims: 22, thp_promotions: 12, thp_demotions: 1, shootdowns: 35, ipis_received: 0, fault_cycles: 224000 } free_4k=0 free_2m=0 0x10002b=Base4K:0x29ff 0x10002d=Base4K:0x29fe 0x10003d=Base4K:0x29f6",
    "recycled: OsStats { minor_faults: 612, major_faults: 1, reclaims: 111, thp_promotions: 12, thp_demotions: 1, shootdowns: 124, ipis_received: 0, fault_cycles: 2504000 } free_4k=0 free_2m=0 0x100001=- 0x10003f=- 0x1003ff=Base4K:0x2815 0x1004b1=Base4K:0x29bc",
    "refaulted: OsStats { minor_faults: 612, major_faults: 11, reclaims: 121, thp_promotions: 12, thp_demotions: 1, shootdowns: 134, ipis_received: 0, fault_cycles: 2824000 } free_4k=0 free_2m=0 0x100001=Base4K:0x29bb 0x100013=Base4K:0x29b2 0x1000c9=Base4K:0x29b0",
];

/// Demote, evict sub-frames, promote again and reuse the freed slots:
/// the exact counters and frames are locked, and the pager's records
/// agree with the page tables after every step.
#[test]
fn demoted_region_is_promoted_again_with_exact_frames() {
    let log = region_cycle_log(|os, mem| {
        if let Err(e) = os.check_residency(mem) {
            panic!("{e}");
        }
    });
    assert_eq!(log, REGION_CYCLE, "region cycle log:\n{}", log.join("\n"));
}

/// Raising the THP fraction on a sequential stream converts 4 KB
/// mappings into 2 MB ones: promotions appear and downstream TLB misses
/// drop relative to the no-THP run.
#[test]
fn thp_promotion_reduces_tlb_pressure_on_streams() {
    let run = |thp: f64| {
        // 64 MB of data: wider than the warm-up window, so regions keep
        // being promoted inside the measured phase (warm-up promotions
        // are reset at the boundary and would otherwise hide the count).
        let w = WideStream { pages: 16_384 };
        SimulationBuilder::new()
            .prefetcher(PrefetcherKind::None)
            .os(OsConfig {
                phys_mem_bytes: 256 << 20,
                thp,
                ..OsConfig::default()
            })
            .warmup(5_000)
            .instructions(20_000)
            .run_workload(&w)
    };
    let flat = run(0.0);
    let huge = run(0.9);
    assert_eq!(flat.os.thp_promotions, 0, "thp=0 must never promote");
    assert!(
        huge.os.thp_promotions > 0,
        "thp=0.9 on a sequential stream must promote regions"
    );
    assert!(
        huge.stlb.misses < flat.stlb.misses,
        "2 MB mappings must relieve the STLB: {} >= {}",
        huge.stlb.misses,
        flat.stlb.misses
    );
}

/// The OS model is strictly opt-in: a builder without `.os(..)` produces
/// a report with zeroed OS stats and no `OsFault` stall slots, identical
/// to the pre-OS behaviour the goldens lock down.
#[test]
fn os_model_is_opt_in_and_inert_by_default() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let r = SimulationBuilder::new()
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w);
    assert_eq!(r.os, Default::default(), "no OS model, no OS counters");
    assert_eq!(r.core.stalls.os_fault, 0, "no OS model, no fault stalls");
}

/// Registry workloads run under the OS model too: the CLI smoke
/// configuration (64 MB, thp 0.5) faults pages in and issues shootdowns
/// on a real workload, and the run completes with exact accounting.
#[test]
fn cli_smoke_configuration_holds_on_registry_workload() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let r = SimulationBuilder::new()
        .os(pressure_config())
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w);
    assert!(r.os.minor_faults > 0, "gap.s00 must fault its pages in");
    assert!(r.os.shootdowns > 0, "promotions must shoot down TLBs");
    let width = CoreConfig::default().issue_width;
    assert!(r
        .core
        .stalls
        .balances(r.core.instructions, r.core.cycles, width));
}
