//! Counting global allocator: wraps `System`, counts bytes, calls and
//! the net-live high-water mark while armed. Unarmed (the timed pass)
//! every allocation pays exactly one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// All statistics: they publish no other data, so `Relaxed` suffices.
static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since the last reset. Signed:
/// memory allocated before arming may be freed while armed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grew(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer
// unchanged to `System`, which upholds the `GlobalAlloc` contract; the
// counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.alloc(layout) };
        if ARMED.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ARMED.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ARMED.load(Relaxed) && !p.is_null() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What one armed region allocated.
#[derive(Copy, Clone, Debug, Default)]
pub struct AllocStats {
    pub bytes: u64,
    pub calls: u64,
    /// High-water mark of (allocated − freed) since the region began.
    pub peak_live: u64,
}

/// Runs `f` with counting armed from zeroed counters and returns what
/// it allocated. Not reentrant; the benchmark arms from one thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    BYTES.store(0, Relaxed);
    CALLS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let r = f();
    ARMED.store(false, Relaxed);
    let stats = AllocStats {
        bytes: BYTES.load(Relaxed),
        calls: CALLS.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    };
    (r, stats)
}
