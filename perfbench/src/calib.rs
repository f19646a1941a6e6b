//! A fixed calibration kernel that reads the host's current speed.
//!
//! On a shared host, neighbours slow the execution itself: the simulator's
//! wall-clock rates drift by 20–30% over minutes while steal time stays
//! near zero, and its set-up time drifts with them. The kernel is a small
//! simulation of the same kind of work — an event heap, a hash table of
//! 64 B rows, ten-operation transactions whose writes reallocate their row
//! — and its time per iteration moves with that drift. Each host-time
//! sample is scaled by the kernel's time per iteration over [`REF_NS`]: the
//! figures are those of a host on which one iteration takes 1 µs. A
//! repetition is read just before and just after, each reading lasting
//! about 2% of it, so a long repetition is not judged by a moment. The
//! kernel is the benchmark's own code, with a fixed seed and a fixed
//! hasher, so no change to the simulator moves it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time per iteration that host-time metrics are scaled to, ns.
pub const REF_NS: f64 = 1_000.0;

const ROWS: u64 = 32_768;
const CLIENTS: u64 = 96;
const OPS: usize = 10;
/// Fewest iterations per reading: about 50 ms.
const MIN_ITERS: usize = 40_000;
/// A reading lasts about this share of the sample it calibrates.
const SHARE: f64 = 0.02;

/// Iterations for a reading next to a sample that took `sample_s`.
pub fn iters_for(sample_s: f64) -> usize {
    MIN_ITERS.max((sample_s * SHARE * 1e9 / REF_NS) as usize)
}

/// The kernel's state: rows that persist across readings.
pub struct Kernel {
    rows: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    x: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Builds the table.
    pub fn new() -> Self {
        let mut rows = HashMap::default();
        for k in 0..ROWS {
            rows.insert(k, vec![k as u8; 64]);
        }
        Kernel {
            rows,
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// The host's current time per kernel iteration over `iters`
    /// iterations, ns.
    pub fn ns_per_iter(&mut self, iters: usize) -> f64 {
        let mut events: BinaryHeap<Reverse<(u64, u64)>> =
            (0..CLIENTS).map(|c| Reverse((c, c))).collect();
        let mut sum = 0u64;
        let t = Instant::now();
        for _ in 0..iters {
            let Reverse((at, client)) = events.pop().expect("every client has an event");
            let keys: Vec<u64> = (0..OPS).map(|_| self.next() % ROWS).collect();
            for (i, k) in keys.iter().enumerate() {
                if i % 2 == 0 {
                    sum += self.rows[k].iter().map(|&b| u64::from(b)).sum::<u64>();
                } else {
                    self.rows.insert(*k, vec![sum as u8; 64]);
                }
            }
            let delay = self.next() % 1_000;
            events.push(Reverse((at + delay, client)));
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        black_box(sum);
        ns
    }
}
