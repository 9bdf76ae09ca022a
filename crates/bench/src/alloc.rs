//! A byte- and call-counting global allocator.
//!
//! The paper reports per-algorithm memory footprints (Figs. 3–4, bottom
//! rows). OS-level RSS is noisy and machine-dependent, so the harness
//! counts live heap bytes exactly: the allocator tracks the current and
//! peak number of live bytes, and [`reset_peak`]-scoped measurement resets
//! the peak around each run.
//!
//! It also counts *allocation events* (every `alloc`/`realloc` call),
//! both globally and per thread. The per-thread counter is what the
//! zero-allocation hot-path regression tests read: unlike the global
//! count it cannot be polluted by the test harness's other threads, so
//! `thread_alloc_count()` deltas are exact for the code the current
//! thread ran.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init keeps the TLS access itself allocation-free, and
    // `try_with` below tolerates reads during thread teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that tracks live and peak heap bytes.
pub struct CountingAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the atomic
// bookkeeping has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_event();
            add(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            count_event();
            CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            add(new_size as u64);
        }
        new_ptr
    }
}

#[inline]
fn count_event() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // Ignore failures during thread teardown — the global count still
    // sees the event.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn add(bytes: u64) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Racy max update is fine: measurement runs are single-threaded.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Live heap bytes right now.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live size and returns that baseline.
pub fn reset_peak() -> u64 {
    let now = current_bytes();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Total allocation events (`alloc` + `realloc` calls) across all
/// threads since process start. Monotone; measure with deltas.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events performed by the *current thread* since it started.
/// Monotone; measure with deltas. Immune to allocations on other threads
/// (e.g. a parallel test harness), which makes it the right counter for
/// zero-allocation assertions.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocation_events_per_thread() {
        let before = thread_alloc_count();
        let global_before = alloc_count();
        let v = vec![0u8; 64];
        let w = vec![0u8; 64];
        drop((v, w));
        assert!(thread_alloc_count() >= before + 2);
        assert!(alloc_count() >= global_before + 2);
    }

    #[test]
    fn thread_counter_is_isolated() {
        let before = thread_alloc_count();
        std::thread::spawn(|| {
            let _v = vec![0u8; 4096];
        })
        .join()
        .unwrap();
        // Thread spawn/join allocate on *this* thread too, so only check
        // the other thread's own counter started from zero-ish: its vec
        // must not be attributed retroactively here beyond what the spawn
        // machinery itself allocated. The meaningful property — deltas on
        // a quiet thread are exact — is what the hot-path test relies on;
        // here we just pin the API contract that the counter is monotone.
        assert!(thread_alloc_count() >= before);
    }
}
