//! Model-based property tests: the optimised structures must agree with
//! naive reference models over arbitrary operation sequences. Runs on the
//! in-repo harness ([`pagecross::types::prop`]).

use pagecross::mem::{
    Cache, CacheConfig, Eviction, FillKind, FrameAllocator, HugePagePolicy, Lookup, Mshr, OomError,
    PageWalker, PscConfig, Tlb, TlbConfig, Translation, Vmem,
};
use pagecross::types::prop::{check, vec_of, Config};
use pagecross::types::{prop_assert, prop_assert_eq};
use pagecross::types::{FastMap, FastSet, LineAddr, PageSize, Rng64, VirtAddr};
use std::cell::Cell;

/// One resident block of the reference cache, with the metadata an
/// eviction reports.
#[derive(Clone, Copy)]
struct RefBlock {
    line: u64,
    dirty: bool,
    prefetched: bool,
    pcb: bool,
    hits: u32,
}

impl RefBlock {
    fn eviction(self) -> Eviction {
        Eviction {
            line: LineAddr(self.line),
            dirty: self.dirty,
            prefetched: self.prefetched,
            pcb: self.pcb,
            hits: self.hits,
        }
    }
}

/// A naive set-associative LRU cache: explicit per-set recency vectors.
struct RefCache {
    sets: u64,
    ways: usize,
    /// Per set: most-recent-last list of resident blocks.
    resident: Vec<Vec<RefBlock>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            resident: vec![Vec::new(); sets as usize],
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<RefBlock> {
        &mut self.resident[(line & (self.sets - 1)) as usize]
    }

    /// Moves `line` to the most-recent end of its set; returns its block.
    fn touch(&mut self, line: u64) -> Option<&mut RefBlock> {
        let set = self.set(line);
        let pos = set.iter().position(|b| b.line == line)?;
        let b = set.remove(pos);
        set.push(b);
        set.last_mut()
    }

    fn demand_access(&mut self, line: u64, is_store: bool) -> Lookup {
        let Some(b) = self.touch(line) else {
            return Lookup {
                hit: false,
                first_hit_on_prefetch: false,
                pcb: false,
            };
        };
        b.dirty |= is_store;
        b.hits += 1;
        Lookup {
            hit: true,
            first_hit_on_prefetch: b.prefetched && b.hits == 1,
            pcb: b.pcb,
        }
    }

    fn prefetch_access(&mut self, line: u64) -> bool {
        self.touch(line).is_some()
    }

    fn fill(&mut self, line: u64, kind: FillKind, dirty: bool) -> Option<Eviction> {
        if let Some(b) = self.touch(line) {
            b.dirty |= dirty;
            return None;
        }
        let ways = self.ways;
        let set = self.set(line);
        let victim = if set.len() == ways {
            Some(set.remove(0).eviction())
        } else {
            None
        };
        set.push(RefBlock {
            line,
            dirty,
            prefetched: kind.is_prefetch(),
            pcb: kind == FillKind::PrefetchPageCross,
            hits: 0,
        });
        victim
    }

    fn invalidate(&mut self, line: u64) -> Option<Eviction> {
        let set = self.set(line);
        let pos = set.iter().position(|b| b.line == line)?;
        Some(set.remove(pos).eviction())
    }
}

/// A naive set-associative, page-size-aware LRU TLB. Each entry sits in
/// the set of its own VPN at its own page size; a lookup tries 4 KB, then
/// 2 MB.
struct RefTlb {
    sets: u64,
    ways: usize,
    /// Per set: most-recent-last list of resident translations.
    resident: Vec<Vec<Translation>>,
}

impl RefTlb {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            resident: vec![Vec::new(); sets as usize],
        }
    }

    fn set(&mut self, vpn: u64) -> &mut Vec<Translation> {
        &mut self.resident[(vpn & (self.sets - 1)) as usize]
    }

    /// Looks `va` up, moving a hit to the most-recent end of its set.
    fn find(&mut self, va: VirtAddr) -> Option<Translation> {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.raw() >> size.shift();
            let set = self.set(vpn);
            if let Some(pos) = set.iter().position(|t| t.size == size && t.vpn == vpn) {
                let t = set.remove(pos);
                set.push(t);
                return Some(t);
            }
        }
        None
    }

    fn covers(&self, va: VirtAddr) -> bool {
        self.resident
            .iter()
            .flatten()
            .any(|t| t.vpn == va.raw() >> t.size.shift())
    }

    fn fill(&mut self, t: Translation) {
        let ways = self.ways;
        let set = self.set(t.vpn);
        if let Some(pos) = set.iter().position(|e| e.size == t.size && e.vpn == t.vpn) {
            set.remove(pos);
        } else if set.len() == ways {
            set.remove(0);
        }
        set.push(t);
    }

    fn invalidate_page(&mut self, vpn: u64, size: PageSize) -> bool {
        let set = self.set(vpn);
        let before = set.len();
        set.retain(|t| !(t.size == size && t.vpn == vpn));
        set.len() != before
    }

    fn invalidate_region(&mut self, vpn2m: u64) -> u32 {
        let mut dropped = 0;
        for set in &mut self.resident {
            let before = set.len();
            set.retain(|t| (t.vpn << t.size.shift()) >> PageSize::Huge2M.shift() != vpn2m);
            dropped += (before - set.len()) as u32;
        }
        dropped
    }

    fn occupancy(&self) -> usize {
        self.resident.iter().map(Vec::len).sum()
    }
}

/// A naive MSHR file: a flat list scanned linearly, with the documented
/// semantics spelled out operation by operation — lazy expiry, merge on
/// lookup, and earliest-completing replacement (plus a fixed retry
/// penalty) when full.
struct RefMshr {
    capacity: usize,
    /// (line, completes_at, demand), insertion order.
    inflight: Vec<(u64, u64, bool)>,
    merges: u64,
    full_stalls: u64,
}

/// Mirror of the production `Mshr::FULL_PENALTY` constant.
const REF_MSHR_FULL_PENALTY: u64 = 8;

impl RefMshr {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inflight: Vec::new(),
            merges: 0,
            full_stalls: 0,
        }
    }

    fn expire(&mut self, now: u64) {
        self.inflight.retain(|&(_, completes, _)| completes > now);
    }

    fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let hit = self
            .inflight
            .iter()
            .find(|&&(l, _, _)| l == line)
            .map(|&(_, c, _)| c);
        if hit.is_some() {
            self.merges += 1;
        }
        hit
    }

    fn allocate(&mut self, line: u64, now: u64, completes_at: u64, demand: bool) -> u64 {
        self.expire(now);
        if self.inflight.len() >= self.capacity {
            self.full_stalls += 1;
            let delayed = completes_at + REF_MSHR_FULL_PENALTY;
            if let Some(slot) = self.inflight.iter_mut().min_by_key(|&&mut (_, c, _)| c) {
                *slot = (line, delayed, demand);
            }
            return delayed;
        }
        self.inflight.push((line, completes_at, demand));
        completes_at
    }

    fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    fn demand_occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.iter().filter(|&&(_, _, d)| d).count()
    }
}

/// The production cache and the reference model agree on every demand
/// lookup (hit, first hit on a prefetch, PCB), every prefetch access,
/// and every eviction and invalidation record (victim line, dirty,
/// prefetched, PCB, hits), for arbitrary interleavings of demand loads
/// and stores, fills of every kind, prefetch accesses and invalidations.
#[test]
fn cache_matches_reference_model() {
    check(
        &Config::cases(48),
        |rng| {
            vec_of(rng, 1, 500, |r| {
                (r.below(96), r.below(8) as u8, r.below(6) as u8)
            })
        },
        |ops| {
            // 8 sets x 2 ways.
            let mut dut = Cache::new(
                "dut",
                CacheConfig {
                    size_bytes: 1024,
                    ways: 2,
                    latency: 1,
                    mshr_entries: 4,
                },
            );
            let mut model = RefCache::new(8, 2);
            for &(line, op, flavour) in ops {
                let l = LineAddr(line);
                match op {
                    0..=2 => {
                        let is_store = op == 2;
                        let dut_lookup = dut.demand_access(l, is_store);
                        let model_lookup = model.demand_access(line, is_store);
                        prop_assert_eq!(dut_lookup, model_lookup, "lookup mismatch on {}", line);
                    }
                    3..=5 => {
                        let kind = [
                            FillKind::Demand,
                            FillKind::PrefetchInPage,
                            FillKind::PrefetchPageCross,
                        ][usize::from(flavour % 3)];
                        let dirty = flavour >= 3;
                        let dut_victim = dut.fill(l, kind, dirty);
                        let model_victim = model.fill(line, kind, dirty);
                        prop_assert_eq!(dut_victim, model_victim, "victim mismatch on {}", line);
                    }
                    6 => {
                        prop_assert_eq!(
                            dut.prefetch_access(l),
                            model.prefetch_access(line),
                            "prefetch access mismatch on {}",
                            line
                        );
                    }
                    _ => {
                        prop_assert_eq!(
                            dut.invalidate(l),
                            model.invalidate(line),
                            "invalidate mismatch on {}",
                            line
                        );
                    }
                }
                prop_assert_eq!(dut.occupancy(), model.resident.iter().map(Vec::len).sum());
            }
            Ok(())
        },
    );
}

/// The production TLB agrees with the reference model on every lookup and
/// prefetch probe (both refresh LRU), every invalidation, presence and
/// occupancy, for arbitrary interleavings of 4 KB and 2 MB fills over
/// overlapping regions, including fills that evict a 2 MB victim and
/// both kinds of invalidation. Each op list runs on 4 sets of 4 ways,
/// where the LRU victim is one of four entries, and on 4 sets of 2 ways,
/// where 2 MB victims are frequent.
#[test]
fn tlb_matches_reference_model() {
    check(
        &Config::cases(48),
        |rng| vec_of(rng, 1, 400, |r| (r.below(8) as u8, r.below(4), r.below(24))),
        |ops| {
            for (entries, ways) in [(16, 4), (8, 2)] {
                let mut dut = Tlb::new(
                    "dut",
                    TlbConfig {
                        entries,
                        ways,
                        latency: 1,
                    },
                );
                let mut model = RefTlb::new(4, ways as usize);
                for &(op, region, page) in ops {
                    let vpn4k = (region << 9) + page;
                    let va = VirtAddr::new((vpn4k << 12) | 0x40);
                    match op {
                        0 | 1 => {
                            prop_assert_eq!(
                                dut.lookup(va),
                                model.find(va),
                                "{}-way lookup of vpn {}",
                                ways,
                                vpn4k
                            );
                        }
                        2 => {
                            prop_assert_eq!(
                                dut.prefetch_probe(va),
                                model.find(va),
                                "{}-way prefetch probe of vpn {}",
                                ways,
                                vpn4k
                            );
                        }
                        3 | 4 => {
                            let t = if op == 3 {
                                Translation {
                                    vpn: vpn4k,
                                    pfn: vpn4k + 100,
                                    size: PageSize::Base4K,
                                }
                            } else {
                                Translation {
                                    vpn: region,
                                    pfn: region + 7,
                                    size: PageSize::Huge2M,
                                }
                            };
                            dut.fill(t, false);
                            model.fill(t);
                        }
                        5 => {
                            prop_assert_eq!(
                                dut.invalidate_page(vpn4k, PageSize::Base4K),
                                model.invalidate_page(vpn4k, PageSize::Base4K)
                            );
                        }
                        6 => {
                            prop_assert_eq!(
                                dut.invalidate_page(region, PageSize::Huge2M),
                                model.invalidate_page(region, PageSize::Huge2M)
                            );
                        }
                        _ => {
                            prop_assert_eq!(
                                dut.invalidate_region(region),
                                model.invalidate_region(region)
                            );
                        }
                    }
                    prop_assert_eq!(
                        dut.peek(va),
                        model.covers(va),
                        "{}-way peek of vpn {}",
                        ways,
                        vpn4k
                    );
                    prop_assert_eq!(dut.occupancy(), model.occupancy(), "{}-way occupancy", ways);
                }
            }
            Ok(())
        },
    );
}

/// Prefetch fills obey the same placement rules as demand fills: after
/// any interleaving, the resident set is identical whichever fill kind
/// was used (metadata differs, placement must not).
#[test]
fn fill_kind_does_not_change_placement() {
    check(
        &Config::cases(48),
        |rng| vec_of(rng, 1, 300, |r| r.below(64)),
        |ops| {
            let cfg = CacheConfig {
                size_bytes: 1024,
                ways: 2,
                latency: 1,
                mshr_entries: 4,
            };
            let mut a = Cache::new("a", cfg);
            let mut b = Cache::new("b", cfg);
            for &line in ops {
                a.fill(LineAddr(line), FillKind::Demand, false);
                b.fill(LineAddr(line), FillKind::PrefetchPageCross, false);
            }
            for &line in ops {
                prop_assert_eq!(a.probe(LineAddr(line)), b.probe(LineAddr(line)));
            }
            prop_assert_eq!(a.occupancy(), b.occupancy());
            Ok(())
        },
    );
}

/// The production MSHR agrees with the naive reference on every lookup
/// result, allocation completion time, merge/stall counter, and both
/// occupancy views, for arbitrary interleavings of lookups and
/// demand/prefetch allocations. Completion latencies vary, so a full file
/// replaces entries of differing ages; and some lookups and occupancy
/// queries run at a later cycle than the clock that allocates, as the
/// memory system's prefetch path does, so expiry is exercised out of
/// order and exactly at completion boundaries.
#[test]
fn mshr_matches_reference_model() {
    let replacements = Cell::new(0u64);
    check(
        &Config::cases(48),
        // Small time steps relative to the fill latencies so the file
        // regularly fills up and exercises the replacement path.
        |rng| {
            vec_of(rng, 1, 300, |r| {
                (
                    (r.below(16), r.below(8)),
                    (r.below(5) as u8, r.below(2) == 1),
                    // Short and long latencies, so a short one can land
                    // in a full file whose entries all complete later.
                    [r.below(8), 40 + r.below(8)][r.below(2) as usize],
                )
            })
        },
        |ops| {
            let mut dut = Mshr::new(6);
            let mut model = RefMshr::new(6);
            let mut now = 0u64;
            for &((line, dt), (op, demand), lat) in ops {
                now += dt;
                let l = LineAddr(line);
                // A cycle ahead of the clock, possibly on a completion.
                let ahead = now + lat;
                match op {
                    0 => {
                        let dut_hit = dut.lookup(l, now);
                        let model_hit = model.lookup(line, now);
                        prop_assert_eq!(dut_hit, model_hit, "lookup mismatch on {} @{}", line, now);
                    }
                    1 | 2 => {
                        let completes = now + 1 + lat;
                        let dut_done = dut.allocate_kind(l, now, completes, demand);
                        let model_done = model.allocate(line, now, completes, demand);
                        prop_assert_eq!(
                            dut_done,
                            model_done,
                            "completion mismatch on {} @{}",
                            line,
                            now
                        );
                    }
                    3 => {
                        prop_assert_eq!(dut.lookup(l, ahead), model.lookup(line, ahead));
                    }
                    _ => {
                        prop_assert_eq!(
                            dut.demand_occupancy(ahead) as usize,
                            model.demand_occupancy(ahead),
                            "demand occupancy @{}",
                            ahead
                        );
                    }
                }
                prop_assert_eq!(dut.merges, model.merges, "merge counter diverged");
                prop_assert_eq!(dut.full_stalls, model.full_stalls, "stall counter diverged");
                prop_assert_eq!(dut.occupancy(now) as usize, model.occupancy(now));
                prop_assert_eq!(
                    dut.demand_occupancy(now) as usize,
                    model.demand_occupancy(now)
                );
            }
            replacements.set(replacements.get() + dut.full_stalls);
            Ok(())
        },
    );
    assert!(replacements.get() > 0, "no case filled the MSHR file");
}

/// The page-table walker agrees with a flat reference map: the first walk
/// of a page defines its translation, and every later walk of that page —
/// whatever the PSC state — reproduces it exactly. Frames are never
/// shared between pages, and walk depth shrinks monotonically as PSCs
/// warm (1..=5 refs, with repeat walks of the same page depth ≤ 2).
#[test]
fn walker_matches_flat_reference_map() {
    check(
        &Config::cases(48),
        // Small VPN universe so sequences revisit pages through warm PSCs.
        |rng| vec_of(rng, 1, 120, |r| r.below(512) << 12 | (r.below(8) << 6)),
        |vas| {
            let mut fa = FrameAllocator::new(4u64 << 30, 23);
            let mut w = PageWalker::new(
                PscConfig {
                    l5_entries: 1,
                    l4_entries: 2,
                    l3_entries: 8,
                    l2_entries: 32,
                },
                &mut fa,
            );
            let mut vm = Vmem::new(HugePagePolicy::None, 29);
            let mut flat: FastMap<u64, u64> = FastMap::default();
            for &raw in vas {
                let va = VirtAddr::new(raw);
                let vpn = raw >> 12;
                let plan = w.walk(va, &mut vm, &mut fa).expect("4GB pool cannot OOM");
                prop_assert!((1..=5).contains(&plan.refs.len()));
                prop_assert_eq!(
                    plan.translation.vpn,
                    vpn,
                    "walk must translate its own page"
                );
                match flat.get(&vpn) {
                    Some(&pfn) => {
                        prop_assert_eq!(
                            plan.translation.pfn,
                            pfn,
                            "walk of vpn {} changed an established translation",
                            vpn
                        );
                        // A revisited 4 KB page has a warm PSC-L2 entry (the
                        // PSCs are large enough for this VPN universe), so
                        // at most the leaf PT reference plus one level.
                        prop_assert!(
                            plan.refs.len() <= 2,
                            "repeat walk of vpn {} took {} refs",
                            vpn,
                            plan.refs.len()
                        );
                    }
                    None => {
                        flat.insert(vpn, plan.translation.pfn);
                    }
                }
            }
            let frames: FastSet<u64> = flat.values().copied().collect();
            prop_assert_eq!(frames.len(), flat.len(), "two pages share a frame");
            Ok(())
        },
    );
}

/// The frame allocator's original form: per-core rejection samplers over
/// hash sets of used frames, drawing from the same per-core RNG streams.
struct RefFrames {
    slice_4k: u64,
    slice_2m: u64,
    base_2m: u64,
    cores: Vec<(Rng64, FastSet<u64>, FastSet<u64>)>,
}

impl RefFrames {
    fn new(fa: &FrameAllocator, seed: u64) -> Self {
        let n = u64::from(fa.num_cores());
        Self {
            slice_4k: fa.total_4k_frames() / n,
            slice_2m: fa.total_2m_frames() / n,
            base_2m: fa.huge_region_base() >> 9,
            cores: (0..n)
                .map(|i| {
                    let rng =
                        Rng64::new(seed ^ 0x5EED_F4A3 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    (rng, FastSet::default(), FastSet::default())
                })
                .collect(),
        }
    }

    fn alloc_4k(&mut self, core: usize) -> Result<u64, OomError> {
        let (base, slice) = (core as u64 * self.slice_4k, self.slice_4k);
        let (rng, used, _) = &mut self.cores[core];
        if used.len() as u64 >= slice {
            return Err(OomError::Frames4K);
        }
        loop {
            let pfn = base + rng.below(slice);
            if used.insert(pfn) {
                return Ok(pfn);
            }
        }
    }

    fn alloc_2m(&mut self, core: usize) -> Result<u64, OomError> {
        let (base, slice) = (self.base_2m + core as u64 * self.slice_2m, self.slice_2m);
        let (rng, _, used) = &mut self.cores[core];
        if used.len() as u64 >= slice {
            return Err(OomError::Frames2M);
        }
        loop {
            let pfn2m = base + rng.below(slice);
            if used.insert(pfn2m) {
                return Ok(pfn2m);
            }
        }
    }

    fn free_4k(&mut self, pfn: u64) {
        let owner = (pfn / self.slice_4k) as usize;
        assert!(self.cores[owner].1.remove(&pfn), "model: double free");
    }

    fn free_2m(&mut self, pfn2m: u64) {
        let owner = ((pfn2m - self.base_2m) / self.slice_2m) as usize;
        assert!(self.cores[owner].2.remove(&pfn2m), "model: double free");
    }
}

/// The bitmap frame pools hand out exactly the frames of the hash-set
/// rejection sampler they replaced: same frame sequence, same `Err` on a
/// full slice, same free counts, over random alloc/free sequences on one
/// and four cores. Op 0–5 allocates a 4 KB frame, 6–7 a 2 MB frame, 8–10
/// frees a live 4 KB frame, 11 a live 2 MB frame, and 12 allocates 4 KB
/// frames until the slice is full (then one more, which must fail).
#[test]
fn frame_allocator_matches_rejection_sampler() {
    let fills = Cell::new(0u64);
    for n_cores in [1u32, 4] {
        check(
            &Config::cases(24),
            |rng| vec_of(rng, 1, 160, |r| (r.below(13), r.below(4), r.below(1 << 16))),
            |ops| {
                let seed = 0xF4A3;
                let mut dut = FrameAllocator::with_cores(64 << 20, seed, n_cores);
                let mut model = RefFrames::new(&dut, seed);
                let (mut live_4k, mut live_2m) = (Vec::new(), Vec::new());
                for &(op, core, pick) in ops {
                    let core = (core % u64::from(n_cores)) as u32;
                    let c = core as usize;
                    match op {
                        0..=5 => {
                            let got = dut.alloc_4k(core);
                            prop_assert_eq!(got, model.alloc_4k(c), "alloc_4k on core {}", core);
                            live_4k.extend(got.ok());
                        }
                        6 | 7 => {
                            let got = dut.alloc_2m(core);
                            prop_assert_eq!(got, model.alloc_2m(c), "alloc_2m on core {}", core);
                            live_2m.extend(got.ok());
                        }
                        8..=10 if !live_4k.is_empty() => {
                            let pfn = live_4k.swap_remove(pick as usize % live_4k.len());
                            dut.free_4k(pfn);
                            model.free_4k(pfn);
                        }
                        11 if !live_2m.is_empty() => {
                            let pfn2m = live_2m.swap_remove(pick as usize % live_2m.len());
                            dut.free_2m(pfn2m);
                            model.free_2m(pfn2m);
                        }
                        12 => {
                            loop {
                                let got = dut.alloc_4k(core);
                                prop_assert_eq!(got, model.alloc_4k(c), "filling core {}", core);
                                match got {
                                    Ok(pfn) => live_4k.push(pfn),
                                    Err(_) => break,
                                }
                            }
                            prop_assert_eq!(dut.free_4k_frames(core), 0);
                            fills.set(fills.get() + 1);
                        }
                        _ => {}
                    }
                    for k in 0..n_cores {
                        let (_, used_4k, used_2m) = &model.cores[k as usize];
                        prop_assert_eq!(
                            dut.free_4k_frames(k),
                            model.slice_4k - used_4k.len() as u64,
                            "free 4 KB frames on core {}",
                            k
                        );
                        prop_assert_eq!(
                            dut.free_2m_frames(k),
                            model.slice_2m - used_2m.len() as u64,
                            "free 2 MB frames on core {}",
                            k
                        );
                    }
                }
                Ok(())
            },
        );
    }
    assert!(fills.get() > 0, "no case filled a 4 KB slice");
}
