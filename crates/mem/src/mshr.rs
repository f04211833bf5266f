//! Miss Status Holding Registers.
//!
//! An MSHR tracks in-flight misses per cache so that a second miss to the
//! same line *merges* into the outstanding request instead of issuing a
//! duplicate memory access, and so that the filter's system snapshot can
//! report in-flight L1D misses (an adaptive-thresholding input, Fig. 8).
//!
//! Entries are retired lazily: a lookup at cycle `c` first drops every entry
//! whose fill completed at or before `c`. The file remembers a lower bound
//! on its earliest completion, so that sweep is skipped while nothing can
//! have completed yet.

use pagecross_types::LineAddr;

#[derive(Clone, Copy, Debug)]
struct Entry {
    line: LineAddr,
    completes_at: u64,
    demand: bool,
}

/// A fixed-capacity MSHR file.
#[derive(Clone, Debug)]
pub struct Mshr {
    entries: Vec<Entry>,
    /// No entry completes before this cycle (`u64::MAX` when empty).
    next_expiry: u64,
    capacity: usize,
    /// Misses that merged into an existing entry.
    pub merges: u64,
    /// Misses that found the MSHR full (charged a retry penalty by the owner).
    pub full_stalls: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity as usize),
            next_expiry: u64::MAX,
            capacity: capacity as usize,
            merges: 0,
            full_stalls: 0,
        }
    }

    fn expire(&mut self, now: u64) {
        if now < self.next_expiry {
            return;
        }
        self.entries.retain(|e| e.completes_at > now);
        self.next_expiry = self
            .entries
            .iter()
            .map(|e| e.completes_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Looks up an in-flight miss for `line`; returns its completion cycle.
    pub fn lookup(&mut self, line: LineAddr, now: u64) -> Option<u64> {
        self.expire(now);
        let hit = self
            .entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.completes_at);
        if hit.is_some() {
            self.merges += 1;
        }
        hit
    }

    /// Extra cycles charged when a miss finds the MSHR file full (retry
    /// after a slot frees). A fixed penalty keeps back-pressure bounded:
    /// deriving the delay from resident completion times compounds, because
    /// delayed entries become the reference for later allocations.
    const FULL_PENALTY: u64 = 8;

    /// Allocates an entry completing at `completes_at`. When the file is
    /// full, the request is charged a retry penalty and replaces the
    /// earliest-completing entry (the slot that frees first).
    pub fn allocate(&mut self, line: LineAddr, now: u64, completes_at: u64) -> u64 {
        self.allocate_kind(line, now, completes_at, true)
    }

    /// [`Mshr::allocate`] with an explicit demand/prefetch tag; prefetch
    /// entries are excluded from [`Mshr::demand_occupancy`].
    pub fn allocate_kind(
        &mut self,
        line: LineAddr,
        now: u64,
        completes_at: u64,
        demand: bool,
    ) -> u64 {
        self.expire(now);
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            let delayed = completes_at + Self::FULL_PENALTY;
            self.next_expiry = self.next_expiry.min(delayed);
            if let Some(slot) = self.entries.iter_mut().min_by_key(|e| e.completes_at) {
                *slot = Entry {
                    line,
                    completes_at: delayed,
                    demand,
                };
            }
            return delayed;
        }
        self.next_expiry = self.next_expiry.min(completes_at);
        self.entries.push(Entry {
            line,
            completes_at,
            demand,
        });
        completes_at
    }

    /// Number of in-flight entries at `now`.
    pub fn occupancy(&mut self, now: u64) -> u32 {
        self.expire(now);
        self.entries.len() as u32
    }

    /// Number of in-flight *demand* entries at `now` — the "many in-flight
    /// L1D misses" input of the adaptive thresholding scheme; prefetch
    /// entries are excluded so healthy prefetch-saturated phases do not
    /// trip the ROB-pressure rule.
    pub fn demand_occupancy(&mut self, now: u64) -> u32 {
        self.expire(now);
        self.entries.iter().filter(|e| e.demand).count() as u32
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn merge_returns_existing_completion() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(1), 10), Some(100));
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn entries_expire() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(1), 100), None);
        assert_eq!(m.occupancy(150), 0);
    }

    #[test]
    fn full_mshr_delays() {
        let mut m = Mshr::new(2);
        m.allocate(line(1), 0, 50);
        m.allocate(line(2), 0, 80);
        let done = m.allocate(line(3), 0, 200);
        assert_eq!(
            done,
            200 + Mshr::FULL_PENALTY,
            "full MSHR adds the retry penalty"
        );
        assert_eq!(m.full_stalls, 1);
    }

    #[test]
    fn demand_occupancy_excludes_prefetches() {
        let mut m = Mshr::new(8);
        m.allocate_kind(line(1), 0, 100, true);
        m.allocate_kind(line(2), 0, 100, false);
        m.allocate_kind(line(3), 0, 100, false);
        assert_eq!(m.occupancy(10), 3);
        assert_eq!(m.demand_occupancy(10), 1);
    }

    #[test]
    fn occupancy_tracks_inflight() {
        let mut m = Mshr::new(8);
        m.allocate(line(1), 0, 100);
        m.allocate(line(2), 0, 120);
        assert_eq!(m.occupancy(50), 2);
        assert_eq!(m.occupancy(110), 1);
        assert_eq!(m.occupancy(130), 0);
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(2), 0), None);
        assert_eq!(m.merges, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
