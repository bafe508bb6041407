//! A counting global allocator: live bytes, peak live bytes and the
//! number of allocations, for `peak_heap_mb` and `alloc.per_plan`.
//!
//! Every call is forwarded unchanged to the system allocator; the
//! counters are statistics only and publish no other data, so they use
//! `Relaxed` ordering. Each thread batches its updates (see
//! [`FLUSH_BYTES`]), so the peak is exact to within 64 KiB per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A thread's unflushed byte delta is at most this large, so the peak
/// is exact to within this many bytes per thread.
const FLUSH_BYTES: isize = 64 * 1024;
const FLUSH_COUNT: u64 = 4096;

thread_local! {
    /// Per-thread (byte delta, allocation count) not yet folded into
    /// the globals: the planner allocates millions of times per plan,
    /// and shared counters bumped on every call would make pool
    /// threads contend on one cache line.
    static PENDING: Cell<(isize, u64)> = const { Cell::new((0, 0)) };
}

fn flush(bytes: isize, count: u64) {
    ALLOCATIONS.fetch_add(count, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn account(bytes: isize, count: u64) {
    let folded = PENDING.try_with(|p| {
        let (b, c) = p.get();
        let (b, c) = (b + bytes, c + count);
        if b.abs() >= FLUSH_BYTES || c >= FLUSH_COUNT {
            flush(b, c);
            p.set((0, 0));
        } else {
            p.set((b, c));
        }
    });
    if folded.is_err() {
        // Thread-local storage is gone during thread teardown.
        flush(bytes, count);
    }
}

fn grew(bytes: usize) {
    account(bytes as isize, 1);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// atomic counters and never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `GlobalAlloc::alloc` requires; it is passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every pointer this allocator hands out came
        // from `System` with that same layout.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for `ptr`, `layout` and `new_size`; `ptr` came from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            account(new_size as isize - layout.size() as isize, 1);
        }
        new
    }
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
fn peak_bytes() -> usize {
    PEAK.load(Relaxed).max(0) as usize
}

/// Starts a new peak window at the current live heap and returns that
/// level in bytes.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live.max(0) as usize
}

/// Peak live heap above `start` (a [`reset_peak`] result), in MB.
pub fn peak_above_mb(start: usize) -> f64 {
    peak_bytes().saturating_sub(start) as f64 / 1e6
}

/// Allocations (including reallocations) since process start, exact
/// for the calling thread's own allocations.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed) + PENDING.try_with(|p| p.get().1).unwrap_or(0)
}
