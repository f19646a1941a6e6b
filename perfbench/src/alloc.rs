//! A counting global allocator.
//!
//! Every allocation (and reallocation) is counted, with its size, against
//! the seam that is executing when it happens (see [`crate::seams`]).
//! Allocations made inside [`untracked`] — the benchmark's own buffers —
//! are not counted, so the counts a run reports belong to the simulator
//! alone and repeat exactly across runs of one seed.
//!
//! Install it in a binary with
//! `#[global_allocator] static A: Counting = Counting;`.

use crate::seams::{Seam, SEAMS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The seam charged for allocations right now.
static CURRENT: AtomicUsize = AtomicUsize::new(Seam::Engine as usize);
/// Set while the benchmark allocates for itself.
static PAUSED: AtomicBool = AtomicBool::new(false);
static COUNT: [AtomicU64; SEAMS] = [const { AtomicU64::new(0) }; SEAMS];
static BYTES: [AtomicU64; SEAMS] = [const { AtomicU64::new(0) }; SEAMS];

/// The system allocator, counting.
pub struct Counting;

#[inline]
fn record(bytes: usize) {
    // Relaxed: these are statistics that publish no other data.
    if !PAUSED.load(Relaxed) {
        let seam = CURRENT.load(Relaxed);
        COUNT[seam].fetch_add(1, Relaxed);
        BYTES[seam].fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Charges subsequent allocations to `seam`.
#[inline]
pub fn set_seam(seam: usize) {
    CURRENT.store(seam, Relaxed);
}

/// Allocation counts and bytes per seam since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Allocations per seam.
    pub count: [u64; SEAMS],
    /// Bytes requested per seam.
    pub bytes: [u64; SEAMS],
}

impl AllocCounts {
    /// Reads the counters.
    pub fn now() -> Self {
        AllocCounts {
            count: std::array::from_fn(|i| COUNT[i].load(Relaxed)),
            bytes: std::array::from_fn(|i| BYTES[i].load(Relaxed)),
        }
    }

    /// Counts accumulated between `before` and `self`.
    pub fn since(&self, before: &AllocCounts) -> AllocCounts {
        AllocCounts {
            count: std::array::from_fn(|i| self.count[i] - before.count[i]),
            bytes: std::array::from_fn(|i| self.bytes[i] - before.bytes[i]),
        }
    }

    /// Allocations over all seams.
    pub fn total_count(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Bytes over all seams.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Runs `f` without counting its allocations.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.swap(true, Relaxed);
    let r = f();
    PAUSED.store(was, Relaxed);
    r
}
