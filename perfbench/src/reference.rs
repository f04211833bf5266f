//! A fixed reference loop that measures how fast the host runs at the
//! moment.
//!
//! On a shared host the same simulation runs up to twice as fast at one
//! minute as at the next: host cores change clock and neighbours come
//! and go. The end-to-end host-time metrics are therefore scaled by the
//! speed of this loop, the mean of its speeds just before and just after
//! each run, to what they would be on a host that runs it at
//! [`NOMINAL_MOPS`]. The loop does what
//! dominates the simulator's host time, dependent loads scattered over a
//! table far larger than the host caches and hash-map updates, but none
//! of the simulator's code, so a change to the simulator cannot move it.

use std::collections::HashMap;
use std::time::Instant;

/// Reference speed the end-to-end host-time metrics are scaled to, in
/// million loop iterations per host second.
pub const NOMINAL_MOPS: f64 = 60.0;
/// Iterations per measurement: a few tens of milliseconds.
const OPS: u64 = 2_000_000;
/// Table size: 8 MB of `u64`.
const TABLE: usize = 1 << 20;

pub struct Reference {
    table: Vec<u64>,
    counts: HashMap<u64, u64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % TABLE as u64)
                .collect(),
            counts: HashMap::new(),
        }
    }

    /// Host speed now, in million loop iterations per second.
    pub fn speed(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 1u64;
        for _ in 0..OPS {
            x = self.table[x as usize % TABLE] ^ (x >> 3);
            *self.counts.entry(x & 0xFFFF).or_insert(0) += 1;
            self.table[(x as usize).wrapping_mul(7) % TABLE] = x;
        }
        std::hint::black_box(x);
        OPS as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}
