//! Property-based tests over the core data structures and whole-simulation
//! invariants, on the in-repo harness ([`pagecross::types::prop`]).

use pagecross::mem::{Cache, CacheConfig, FillKind, Mshr, Tlb, TlbConfig, Translation};
use pagecross::mem::{FrameAllocator, HugePagePolicy, PageWalker, PscConfig, Vmem};
use pagecross::moka::buffers::{UpdateBuffer, UpdateEntry};
use pagecross::moka::features::{FeatureContext, ProgramFeature};
use pagecross::types::prop::{check, vec_of, Config};
use pagecross::types::{prop_assert, prop_assert_eq};
use pagecross::types::{FastMap, FastSet, LineAddr, PageSize, Rng64, SatCounter, VirtAddr};

/// A saturating counter never leaves its configured range under any
/// operation sequence.
#[test]
fn sat_counter_stays_in_range() {
    check(
        &Config::cases(64),
        |rng| {
            (
                rng.range(2, 8) as u32,
                vec_of(rng, 0, 200, |r| r.range(0, 40) as i16 - 20),
            )
        },
        |(bits, ops)| {
            let mut c = SatCounter::new(*bits);
            for &op in ops {
                c.add(op);
                prop_assert!(c.get() >= c.min() && c.get() <= c.max());
            }
            Ok(())
        },
    );
}

/// The RNG respects bounds for arbitrary seeds and bounds.
#[test]
fn rng_below_bound() {
    check(
        &Config::cases(64),
        |rng| (rng.next_u64(), rng.range(1, 1_000_000)),
        |&(seed, bound)| {
            let mut r = Rng64::new(seed);
            for _ in 0..50 {
                prop_assert!(r.below(bound.max(1)) < bound.max(1));
            }
            Ok(())
        },
    );
}

/// Cache invariants under arbitrary access/fill interleavings:
/// occupancy bounded, probe-after-fill true, demand misses ≤ accesses.
#[test]
fn cache_invariants() {
    check(
        &Config::cases(64),
        |rng| vec_of(rng, 1, 400, |r| (r.below(256), r.below(3) as u8)),
        |ops| {
            let mut c = Cache::new(
                "prop",
                CacheConfig {
                    size_bytes: 4096,
                    ways: 4,
                    latency: 1,
                    mshr_entries: 4,
                },
            );
            let capacity = (c.num_sets() as usize) * c.num_ways();
            for &(line, op) in ops {
                let line = LineAddr(line);
                match op {
                    0 => {
                        c.demand_access(line, false);
                    }
                    1 => {
                        c.fill(line, FillKind::Demand, false);
                        prop_assert!(c.probe(line), "fill must make the line resident");
                    }
                    _ => {
                        c.fill(line, FillKind::PrefetchPageCross, false);
                        prop_assert!(c.probe(line));
                    }
                }
                prop_assert!(c.occupancy() <= capacity);
                prop_assert!(c.stats.demand_misses <= c.stats.demand_accesses);
                prop_assert!(c.stats.pgc_useful <= c.stats.prefetch_useful);
                prop_assert!(c.stats.pgc_fills <= c.stats.prefetch_fills);
            }
            Ok(())
        },
    );
}

/// TLB: a fill is observable until evicted; occupancy bounded.
#[test]
fn tlb_invariants() {
    check(
        &Config::cases(64),
        |rng| vec_of(rng, 1, 200, |r| r.below(512)),
        |vpns| {
            let mut t = Tlb::new(
                "prop",
                TlbConfig {
                    entries: 16,
                    ways: 4,
                    latency: 1,
                },
            );
            for &vpn in vpns {
                t.fill(
                    Translation {
                        vpn,
                        pfn: vpn + 7,
                        size: PageSize::Base4K,
                    },
                    false,
                );
                let va = VirtAddr::new(vpn << 12);
                prop_assert!(t.peek(va), "freshly filled translation must be visible");
                prop_assert!(t.occupancy() <= 16);
            }
            prop_assert!(t.stats.misses <= t.stats.accesses);
            Ok(())
        },
    );
}

/// MSHR: allocation never returns earlier than the requested completion;
/// occupancy bounded by capacity.
#[test]
fn mshr_invariants() {
    check(
        &Config::cases(64),
        |rng| vec_of(rng, 1, 100, |r| (r.below(64), r.below(1000))),
        |reqs| {
            let mut m = Mshr::new(8);
            for &(line, now) in reqs {
                let completes = now + 100;
                let got = m.allocate(LineAddr(line), now, completes);
                prop_assert!(got >= completes);
                prop_assert!(m.occupancy(now) <= 8);
            }
            Ok(())
        },
    );
}

/// Update buffers never exceed capacity and inserted entries are
/// retrievable until evicted.
#[test]
fn update_buffer_invariants() {
    check(
        &Config::cases(64),
        |rng| vec_of(rng, 1, 100, |r| r.below(64)),
        |lines| {
            let mut b = UpdateBuffer::new(4);
            for &line in lines {
                b.insert(UpdateEntry {
                    line,
                    indices: vec![1],
                    sf_mask: 0,
                });
                prop_assert!(b.len() <= 4);
                prop_assert!(
                    b.peek(line).is_some(),
                    "most recent insert is always present"
                );
            }
            Ok(())
        },
    );
}

/// Every program feature hashes every context into table range, and is
/// a pure function of the context.
#[test]
fn feature_hash_in_range() {
    check(
        &Config::cases(64),
        |rng| {
            (
                rng.next_u64(),
                rng.next_u64(),
                (rng.range(0, 1023) as i64 - 512, rng.below(2) == 1),
            )
        },
        |&(pc, va, (delta, fpa))| {
            let ctx = FeatureContext {
                pc,
                va,
                target_va: va.wrapping_add_signed(delta * 64),
                delta,
                first_page_access: fpa,
                va_hist: [va, va ^ 1, va ^ 2],
                pc_hist: [pc, pc ^ 1, pc ^ 2],
                delta_hist: [delta, 1, -1],
            };
            for f in ProgramFeature::bouquet() {
                let i = f.index(&ctx, 1024);
                prop_assert!(i < 1024);
                prop_assert_eq!(i, f.index(&ctx, 1024));
            }
            Ok(())
        },
    );
}

/// Page walks reference between 1 and 5 PTEs, the translation matches
/// vmem, and PTE addresses live in the page-table region.
#[test]
fn walker_invariants() {
    check(
        &Config::cases(48),
        |rng| vec_of(rng, 1, 60, |r| r.below(1u64 << 40)),
        |vas| {
            let mut fa = FrameAllocator::new(4u64 << 30, 11);
            let mut w = PageWalker::new(
                PscConfig {
                    l5_entries: 1,
                    l4_entries: 2,
                    l3_entries: 8,
                    l2_entries: 32,
                },
                &mut fa,
            );
            let mut vm = Vmem::new(HugePagePolicy::None, 13);
            let pt_region_base = (4u64 << 30) - (4u64 << 30) / 8;
            for &raw in vas {
                let va = VirtAddr::new(raw);
                let plan = w.walk(va, &mut vm, &mut fa).expect("4GB pool cannot OOM");
                prop_assert!((1..=5).contains(&plan.refs.len()));
                prop_assert_eq!(
                    plan.translation,
                    vm.translate(va, &mut fa).expect("4GB pool cannot OOM")
                );
                for pte in &plan.refs {
                    prop_assert!(pte.raw() >= pt_region_base, "PTE {pte:?} outside PT region");
                }
            }
            Ok(())
        },
    );
}

/// Same VA twice maps to the same frame; different pages to different
/// frames (vmem is a function).
#[test]
fn vmem_is_functional() {
    check(
        &Config::cases(64),
        |rng| vec_of(rng, 1, 100, |r| r.below(100_000)),
        |pages| {
            let mut fa = FrameAllocator::new(4u64 << 30, 17);
            let mut vm = Vmem::new(HugePagePolicy::None, 19);
            let mut seen = FastMap::default();
            for &p in pages {
                let va = VirtAddr::new(p << 12);
                let t = vm.translate(va, &mut fa).expect("4GB pool cannot OOM");
                let prev = seen.insert(p, t.pfn);
                if let Some(prev_pfn) = prev {
                    prop_assert_eq!(prev_pfn, t.pfn, "mapping must be stable");
                }
            }
            let frames: FastSet<u64> = seen.values().copied().collect();
            prop_assert_eq!(
                frames.len(),
                seen.len(),
                "frames are not shared across pages"
            );
            Ok(())
        },
    );
}

/// Whole-simulation property: for arbitrary small synthetic workloads, the
/// run retires exactly the requested instructions, IPC is positive and
/// bounded by the issue width, and accounting identities hold.
#[test]
fn simulation_invariants_over_random_params() {
    use pagecross::cpu::trace::{TraceFactory, TraceSource};
    use pagecross::cpu::{PgcPolicyKind, SimulationBuilder};
    use pagecross::workloads::{Component, GenParams, Phase, SyntheticTrace};

    struct P(GenParams);
    impl TraceFactory for P {
        fn name(&self) -> &str {
            "prop"
        }
        fn build(&self) -> Box<dyn TraceSource> {
            Box::new(SyntheticTrace::new(self.0.clone()))
        }
    }

    let mut rng = Rng64::new(2024);
    for _ in 0..6 {
        let comp = match rng.below(4) {
            0 => Component::Stream {
                stride_lines: 1 + rng.below(8),
                pages: 64 + rng.below(2048),
            },
            1 => Component::SegmentedStream {
                pages: 64 + rng.below(2048),
            },
            2 => Component::Chase {
                pages: 64 + rng.below(1024),
            },
            _ => Component::GraphCsr {
                pages: 64 + rng.below(1024),
                degree: 1 + rng.below(6) as u32,
            },
        };
        let params = GenParams {
            load_ratio: 0.15 + rng.unit() * 0.2,
            store_ratio: 0.05,
            branch_ratio: 0.1,
            branch_predictability: 0.95,
            phases: vec![Phase {
                components: vec![(comp, 1)],
            }],
            phase_len: 10_000,
            code_lines: 16 + rng.below(64),
            seed: rng.next_u64(),
        };
        for policy in [PgcPolicyKind::PermitPgc, PgcPolicyKind::Dripper] {
            let r = SimulationBuilder::new()
                .pgc_policy(policy)
                .warmup(2_000)
                .instructions(8_000)
                .run_workload(&P(params.clone()));
            assert_eq!(r.core.instructions, 8_000);
            assert!(r.ipc() > 0.0 && r.ipc() <= 6.0, "ipc {}", r.ipc());
            assert!(r.core.loads + r.core.stores + r.core.branches <= r.core.instructions);
            let p = &r.prefetch;
            assert!(p.pgc_issued + p.pgc_discarded <= p.pgc_candidates);
            assert!(p.pgc_candidates <= p.candidates);
            assert!(r.l1d.demand_misses <= r.l1d.demand_accesses);
            assert!(r.stlb.misses <= r.stlb.accesses);
        }
    }
}

/// The three physical regions (4 KB pool, 2 MB pool, page-table nodes)
/// never hand out overlapping frames, for any interleaving of allocation
/// kinds across mix cores. A 2 MB frame covers 512 consecutive 4 KB frame
/// numbers; none of them may coincide with a pool 4 KB frame or another
/// huge frame, and PT nodes live in their own top-of-memory region.
#[test]
fn physical_regions_never_collide_across_cores() {
    check(
        &Config::cases(32),
        |rng| {
            let cores = rng.range(1, 4) as u32;
            let ops = vec_of(rng, 1, 300, |r| (r.below(4) as u8, r.next_u64()));
            (rng.next_u64(), cores, ops)
        },
        |(seed, cores, ops)| {
            let cores = (*cores).max(1); // shrink-proof: the allocator needs a core
            let cap = 4u64 << 30;
            let mut fa = FrameAllocator::with_cores(cap, *seed, cores);
            let huge_base = fa.huge_region_base();
            let pt_base = fa.pt_region_base();
            let mut taken_4k = FastSet::default();
            let mut pt_addrs = FastSet::default();
            for (i, &(kind, salt)) in ops.iter().enumerate() {
                let core = (salt % cores as u64) as u32;
                match kind {
                    0 | 1 => {
                        let pfn = fa.alloc_4k(core).expect("4GB pool cannot OOM");
                        prop_assert!(pfn < huge_base, "4K pfn {pfn} in huge/PT region");
                        prop_assert!(taken_4k.insert(pfn), "4K pfn {pfn} reused (op {i})");
                    }
                    2 => {
                        let pfn2m = fa.alloc_2m(core).expect("4GB pool cannot OOM");
                        for sub in 0..512u64 {
                            let pfn = (pfn2m << 9) + sub;
                            prop_assert!(
                                pfn >= huge_base && pfn < pt_base,
                                "2M sub-pfn {pfn} outside huge region"
                            );
                            prop_assert!(
                                taken_4k.insert(pfn),
                                "2M frame {pfn2m} collides at sub-pfn {pfn}"
                            );
                        }
                    }
                    _ => {
                        let pfn = fa.alloc_pt_node(core);
                        prop_assert!(pfn >= pt_base, "PT node {pfn} below PT region");
                        prop_assert!(pfn < cap >> 12, "PT node {pfn} beyond capacity");
                        prop_assert!(pt_addrs.insert(pfn), "PT node {pfn} reused");
                    }
                }
            }
            Ok(())
        },
    );
}

/// Per-core address spaces are deterministic functions of (seed, core):
/// the final VPN→PFN mapping of every core is bit-identical no matter how
/// the cores' first touches interleave globally (mix simulations rely on
/// this for worker-count-independent results).
#[test]
fn mix_core_mappings_are_interleaving_independent() {
    check(
        &Config::cases(24),
        |rng| {
            let cores = rng.range(2, 4) as u32;
            let touches = vec_of(rng, 10, 120, |r| r.below(u64::MAX));
            (rng.next_u64(), cores, touches)
        },
        |(seed, cores, touches)| {
            let cores = (*cores).max(1); // shrink-proof: at least one core
                                         // Each raw value encodes (core, vpn). Each core's own program
                                         // order is fixed (that is its instruction stream); only the
                                         // cross-core interleaving may vary.
            let per_core: Vec<Vec<u64>> = (0..cores)
                .map(|c| {
                    touches
                        .iter()
                        .filter(|&&raw| (raw % cores as u64) as u32 == c)
                        .map(|&raw| (raw >> 32) % 50_000)
                        .collect()
                })
                .collect();
            let run = |schedule: &dyn Fn(usize, usize) -> usize| {
                let mut fa = FrameAllocator::with_cores(4u64 << 30, *seed, cores);
                let mut vms: Vec<Vmem> = (0..cores)
                    .map(|c| Vmem::for_core(HugePagePolicy::Fraction(0.3), *seed, c))
                    .collect();
                let mut final_map = std::collections::BTreeMap::new();
                // Visit every (core, position) pair exactly once, in the
                // order the schedule dictates.
                let mut pairs: Vec<(usize, usize)> = per_core
                    .iter()
                    .enumerate()
                    .flat_map(|(c, v)| (0..v.len()).map(move |i| (c, i)))
                    .collect();
                pairs.sort_by_key(|&(c, i)| schedule(c, i));
                for (c, i) in pairs {
                    let vpn = per_core[c][i];
                    let t = vms[c]
                        .translate(VirtAddr::new(vpn << 12), &mut fa)
                        .expect("4GB pool cannot OOM");
                    final_map.insert((c, vpn), (t.vpn, t.pfn, t.size));
                }
                final_map
            };
            // Round-robin across cores vs. core-0-first, core-1-next, …:
            // both preserve each core's program order.
            let round_robin = run(&|c: usize, i: usize| i * 64 + c);
            let sequential = run(&|c: usize, i: usize| c * 1_000_000 + i);
            prop_assert_eq!(
                round_robin,
                sequential,
                "per-core mappings must not depend on the cross-core interleaving"
            );
            Ok(())
        },
    );
}

/// `HugePagePolicy::Fraction` decides promotion per 2 MB region as a pure
/// function of (seed, region) — never of first-touch order (regression:
/// an order-dependent RNG stream here would break campaign determinism).
#[test]
fn fraction_promotion_depends_only_on_seed_and_region() {
    check(
        &Config::cases(32),
        |rng| {
            let regions = vec_of(rng, 5, 60, |r| r.below(10_000));
            (rng.next_u64(), regions)
        },
        |(seed, regions)| {
            let sizes_in = |order: &[u64]| {
                let mut fa = FrameAllocator::new(4u64 << 30, *seed);
                let mut vm = Vmem::new(HugePagePolicy::Fraction(0.5), *seed);
                let mut sizes = std::collections::BTreeMap::new();
                for &region in order {
                    // Touch an arbitrary 4K page inside the 2MB region.
                    let va = VirtAddr::new((region << 21) | ((region % 512) << 12));
                    let t = vm.translate(va, &mut fa).expect("4GB pool cannot OOM");
                    sizes.insert(region, t.size);
                }
                sizes
            };
            let forward = sizes_in(regions);
            let mut reversed: Vec<u64> = regions.clone();
            reversed.reverse();
            prop_assert_eq!(
                forward,
                sizes_in(&reversed),
                "promotion decisions must ignore first-touch order"
            );
            Ok(())
        },
    );
}
