//! Telemetry vocabulary shared across the simulator: stall-cycle
//! attribution, interval counter snapshots, structured trace events, and
//! live policy internals.
//!
//! These are plain data types with no collection/emission machinery — the
//! sampler, ring buffer and exporters live in the `pagecross-telemetry`
//! crate. Keeping the vocabulary here lets the memory system, the filter
//! crate and the CPU model exchange telemetry without new dependency edges.

/// Why an issue slot was lost (top-down cycle accounting).
///
/// Every cycle the core fails to dispatch at full `issue_width` loses
/// slots; each lost slot is charged to exactly one cause. The taxonomy
/// follows the engine's stall points: the ROB-full wait is sub-attributed
/// by what the blocking head instruction was waiting on (a TLB walk takes
/// precedence over a plain L1D miss), front-end jumps split into
/// branch-redirect bubbles and fetch starvation, and the slots between the
/// last dispatch and the last completion are the pipeline drain tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// ROB full, head waiting on a non-memory (or unclassified) completion.
    RobFull,
    /// ROB full, head is a load that missed in L1D (no page walk).
    L1dMiss,
    /// ROB full, head is a load whose translation required a page walk.
    TlbWalk,
    /// Front-end bubble injected by a branch misprediction redirect.
    BranchRedirect,
    /// Front-end waiting on instruction fetch (L1I miss exposure).
    FetchStarved,
    /// OS memory-management work on the access path: page-fault handling
    /// (minor or major), frame reclamation, THP migration, and TLB
    /// shootdown IPIs charged to the faulting/receiving core.
    OsFault,
    /// Tail slots between the final dispatch and the last completion.
    Drain,
}

impl StallCause {
    /// Every cause, in reporting order.
    pub const ALL: [StallCause; 7] = [
        StallCause::RobFull,
        StallCause::L1dMiss,
        StallCause::TlbWalk,
        StallCause::BranchRedirect,
        StallCause::FetchStarved,
        StallCause::OsFault,
        StallCause::Drain,
    ];

    /// Stable label (reports, JSONL keys).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::RobFull => "rob_full",
            StallCause::L1dMiss => "l1d_miss",
            StallCause::TlbWalk => "tlb_walk",
            StallCause::BranchRedirect => "branch_redirect",
            StallCause::FetchStarved => "fetch_starved",
            StallCause::OsFault => "os_fault",
            StallCause::Drain => "drain",
        }
    }
}

/// Per-cause lost issue slots, plus the warm-up boundary carry.
///
/// # Accounting invariant
///
/// For any measured run that retires at least one instruction:
///
/// ```text
/// instructions + total_stalls + warmup_carry == cycles * issue_width
/// ```
///
/// where `warmup_carry` is the number of issue slots of the boundary cycle
/// that were consumed by warm-up instructions (measurement starts mid-cycle
/// when warm-up ends partway through an issue group), and `total_stalls`
/// includes the drain tail. The engine charges every cycle jump exactly
/// `(jump_length × issue_width) − slots_already_used`, so the identity is
/// exact, not approximate; `tests/telemetry.rs` asserts it per workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Slots lost to ROB-full waits on unclassified completions.
    pub rob_full: u64,
    /// Slots lost to ROB-full waits on L1D-missing loads.
    pub l1d_miss: u64,
    /// Slots lost to ROB-full waits on loads that took a page walk.
    pub tlb_walk: u64,
    /// Slots lost to branch-misprediction redirect bubbles.
    pub branch_redirect: u64,
    /// Slots lost waiting on instruction fetch.
    pub fetch_starved: u64,
    /// Slots lost to OS memory-management work (faults, reclaim,
    /// THP migration, shootdown IPIs).
    pub os_fault: u64,
    /// Slots in the drain tail after the last dispatch.
    pub drain: u64,
    /// Boundary-cycle slots consumed by warm-up instructions.
    pub warmup_carry: u64,
}

impl StallBreakdown {
    /// Adds `slots` to the counter for `cause`.
    pub fn charge(&mut self, cause: StallCause, slots: u64) {
        match cause {
            StallCause::RobFull => self.rob_full += slots,
            StallCause::L1dMiss => self.l1d_miss += slots,
            StallCause::TlbWalk => self.tlb_walk += slots,
            StallCause::BranchRedirect => self.branch_redirect += slots,
            StallCause::FetchStarved => self.fetch_starved += slots,
            StallCause::OsFault => self.os_fault += slots,
            StallCause::Drain => self.drain += slots,
        }
    }

    /// The counter for `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::RobFull => self.rob_full,
            StallCause::L1dMiss => self.l1d_miss,
            StallCause::TlbWalk => self.tlb_walk,
            StallCause::BranchRedirect => self.branch_redirect,
            StallCause::FetchStarved => self.fetch_starved,
            StallCause::OsFault => self.os_fault,
            StallCause::Drain => self.drain,
        }
    }

    /// Total lost slots across every cause (excluding the warm-up carry,
    /// which is not a measured-run loss).
    pub fn total(&self) -> u64 {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Left-hand side of the accounting invariant:
    /// `instructions + total() + warmup_carry`.
    pub fn accounted_slots(&self, instructions: u64) -> u64 {
        instructions + self.total() + self.warmup_carry
    }

    /// Checks the accounting invariant against a cycle count and width.
    pub fn balances(&self, instructions: u64, cycles: u64, issue_width: u32) -> bool {
        self.accounted_slots(instructions) == cycles * issue_width as u64
    }

    /// `(label, slots)` pairs in reporting order.
    pub fn entries(&self) -> [(&'static str, u64); 7] {
        let mut out = [("", 0u64); 7];
        for (slot, cause) in out.iter_mut().zip(StallCause::ALL) {
            *slot = (cause.label(), self.get(cause));
        }
        out
    }
}

/// Expands a macro over every interval-sampled counter field name.
macro_rules! for_each_telemetry_counter {
    ($m:ident) => {
        $m!(
            instructions,
            cycles,
            l1d_accesses,
            l1d_misses,
            l1i_misses,
            l2c_misses,
            llc_accesses,
            llc_misses,
            dtlb_misses,
            stlb_misses,
            demand_walks,
            prefetch_walks,
            candidates,
            pgc_candidates,
            pgc_issued,
            pgc_discarded,
            inpage_issued,
            prefetch_useful,
            prefetch_useless,
            pgc_useful,
            pgc_useless,
            branch_mispredicts,
            os_minor_faults,
            os_major_faults,
            os_reclaims,
            os_promotions,
            os_shootdowns
        );
    };
}

macro_rules! define_telemetry_counters {
    ($($field:ident),+) => {
        /// Cumulative counters captured for interval sampling.
        ///
        /// All fields count from the start of the measured phase; the
        /// sampler diffs consecutive captures to produce per-interval
        /// deltas. Cumulative captures are monotone non-decreasing, so
        /// every delta is non-negative and the deltas telescope: their sum
        /// over all emitted intervals equals the final cumulative capture,
        /// which is what reconciles the JSONL stream against the run's
        /// final `Report`.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct TelemetryCounters {
            $(
                /// Cumulative counter (see struct docs).
                pub $field: u64,
            )+
        }

        impl TelemetryCounters {
            /// Number of sampled counter fields.
            pub const NUM_FIELDS: usize = [$(stringify!($field)),+].len();

            /// Field names in declaration order (JSONL `d_*` key order).
            pub const FIELD_NAMES: [&'static str; Self::NUM_FIELDS] =
                [$(stringify!($field)),+];

            /// Per-field difference `self - base` (saturating, though
            /// captures taken in order never go backwards).
            pub fn delta(&self, base: &Self) -> Self {
                Self {
                    $($field: self.$field.saturating_sub(base.$field),)+
                }
            }

            /// `(name, value)` pairs in declaration order.
            pub fn entries(&self) -> [(&'static str, u64); Self::NUM_FIELDS] {
                [$((stringify!($field), self.$field)),+]
            }

            /// Adds `value` to the field called `name`; `false` when no
            /// such field exists (used by the JSONL validator to re-sum
            /// deltas without a serde dependency).
            pub fn add_named(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => { self.$field += value; true })+
                    _ => false,
                }
            }

            /// Accumulates another capture field-wise.
            pub fn accumulate(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

for_each_telemetry_counter!(define_telemetry_counters);

/// Live internals of a filter-backed page-cross policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyTelemetry {
    /// Activation threshold currently in force.
    pub threshold: i32,
    /// Fraction of perceptron weights at either saturation bound.
    pub weight_saturation: f64,
    /// Cumulative filter decisions.
    pub decisions: u64,
    /// Cumulative issues.
    pub issued: u64,
    /// Cumulative discards.
    pub discarded: u64,
}

/// One closed sampling interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalRecord {
    /// Interval index (0-based, dense).
    pub seq: u64,
    /// Cumulative retired instructions at the end of the interval.
    pub end_instructions: u64,
    /// Cumulative elapsed cycles at the end of the interval.
    pub end_cycles: u64,
    /// Counter deltas over the interval.
    pub delta: TelemetryCounters,
    /// Policy internals at the sample point (`None` for static policies).
    pub policy: Option<PolicyTelemetry>,
}

impl IntervalRecord {
    /// Interval IPC (0 when the interval spans no cycles).
    pub fn ipc(&self) -> f64 {
        if self.delta.cycles == 0 {
            0.0
        } else {
            self.delta.instructions as f64 / self.delta.cycles as f64
        }
    }
}

/// A structured simulator event (ring-buffered, exportable as a Chrome
/// trace). Only L1D-data-path fills/evictions are traced; L1I/L2C/walker
/// fills are not (they are not what the paper's mechanisms act on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A block was filled into L1D.
    Fill {
        /// Physical line address.
        line: u64,
        /// Fill came from a prefetch (demand otherwise).
        prefetch: bool,
        /// Prefetch fill crossed a page boundary (PCB set).
        page_cross: bool,
    },
    /// A block was evicted from L1D.
    Evict {
        /// Physical line address.
        line: u64,
        /// The block carried the Page-Cross Bit.
        pcb: bool,
        /// The block was dirty (writeback).
        dirty: bool,
        /// The block served at least one demand hit.
        served_hits: bool,
    },
    /// A page walk completed.
    Walk {
        /// 4 KB virtual page number walked.
        va_page: u64,
        /// Walk latency in cycles.
        latency: u64,
        /// Memory references the walker issued.
        refs: u32,
        /// Levels skipped via page-structure caches.
        psc_skipped: u32,
        /// Speculative (prefetch-triggered) walk.
        speculative: bool,
    },
    /// A page-cross policy decision.
    Decision {
        /// Triggering load PC.
        pc: u64,
        /// Prefetch target virtual address.
        target_va: u64,
        /// The candidate was issued (discarded otherwise).
        issued: bool,
        /// Activation threshold at decision time (filter policies only).
        threshold: Option<i32>,
    },
    /// An OS memory-management event (only emitted with the OS layer on).
    Os {
        /// What the OS did.
        op: OsOp,
        /// The 4 KB virtual page (faults/reclaims) or the first 4 KB page
        /// of the 2 MB region (promotions/demotions/region shootdowns).
        va_page: u64,
        /// Handler cycles charged to the triggering core.
        cycles: u64,
    },
}

/// The OS memory-management operations the event ring distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsOp {
    /// First touch of a never-mapped page.
    MinorFault,
    /// Touch of a page evicted by reclamation (swap-in).
    MajorFault,
    /// CLOCK reclaim of a resident frame.
    Reclaim,
    /// THP daemon promoted an aligned 2 MB region.
    Promote,
    /// THP daemon split a 2 MB region back to 4 KB pages.
    Demote,
    /// TLB shootdown broadcast.
    Shootdown,
}

impl OsOp {
    /// Stable label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            OsOp::MinorFault => "minor_fault",
            OsOp::MajorFault => "major_fault",
            OsOp::Reclaim => "reclaim",
            OsOp::Promote => "promote",
            OsOp::Demote => "demote",
            OsOp::Shootdown => "shootdown",
        }
    }
}

/// Registry of event kinds (stable labels for exporters and tools).
pub const EVENT_KINDS: [&str; 5] = ["fill", "evict", "walk", "decision", "os"];

impl TraceEvent {
    /// Stable kind label (an entry of [`EVENT_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fill { .. } => EVENT_KINDS[0],
            TraceEvent::Evict { .. } => EVENT_KINDS[1],
            TraceEvent::Walk { .. } => EVENT_KINDS[2],
            TraceEvent::Decision { .. } => EVENT_KINDS[3],
            TraceEvent::Os { .. } => EVENT_KINDS[4],
        }
    }
}

/// A trace event stamped with its cycle and core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle the event occurred (simulated time).
    pub cycle: u64,
    /// Core that produced the event.
    pub core: u32,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_charges_accumulate_per_cause() {
        let mut s = StallBreakdown::default();
        s.charge(StallCause::RobFull, 10);
        s.charge(StallCause::TlbWalk, 5);
        s.charge(StallCause::TlbWalk, 5);
        assert_eq!(s.get(StallCause::RobFull), 10);
        assert_eq!(s.get(StallCause::TlbWalk), 10);
        assert_eq!(s.total(), 20);
    }

    #[test]
    fn invariant_check_counts_carry() {
        let mut s = StallBreakdown {
            warmup_carry: 2,
            ..Default::default()
        };
        s.charge(StallCause::Drain, 4);
        // 6 instructions + 4 drain + 2 carry = 12 = 2 cycles * 6 wide.
        assert!(s.balances(6, 2, 6));
        assert!(!s.balances(6, 3, 6));
        assert_eq!(s.accounted_slots(6), 12);
    }

    #[test]
    fn entries_cover_every_cause() {
        let s = StallBreakdown::default();
        let labels: Vec<&str> = s.entries().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels.len(), StallCause::ALL.len());
        for c in StallCause::ALL {
            assert!(labels.contains(&c.label()), "missing {}", c.label());
        }
    }

    #[test]
    fn counter_delta_and_entries_agree() {
        let a = TelemetryCounters {
            instructions: 100,
            l1d_misses: 7,
            ..Default::default()
        };
        let mut b = a;
        b.instructions = 160;
        b.l1d_misses = 9;
        let d = b.delta(&a);
        assert_eq!(d.instructions, 60);
        assert_eq!(d.l1d_misses, 2);
        assert_eq!(d.cycles, 0);
        let names: Vec<&str> = d.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.as_slice(), TelemetryCounters::FIELD_NAMES);
    }

    #[test]
    fn add_named_round_trips_every_field() {
        let mut sum = TelemetryCounters::default();
        for name in TelemetryCounters::FIELD_NAMES {
            assert!(sum.add_named(name, 3), "unknown field {name}");
        }
        assert!(!sum.add_named("not_a_field", 1));
        for (_, v) in sum.entries() {
            assert_eq!(v, 3);
        }
    }

    #[test]
    fn interval_ipc_guards_zero_cycles() {
        let r = IntervalRecord {
            seq: 0,
            end_instructions: 0,
            end_cycles: 0,
            delta: TelemetryCounters::default(),
            policy: None,
        };
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn event_kinds_are_registered() {
        let e = TraceEvent::Walk {
            va_page: 1,
            latency: 10,
            refs: 5,
            psc_skipped: 0,
            speculative: false,
        };
        assert!(EVENT_KINDS.contains(&e.kind()));
        assert_eq!(e.kind(), "walk");
    }
}
