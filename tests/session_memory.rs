//! Memory guard for default sessions: a session's live heap is bounded by
//! the batch width, not the frame count. A default simulator folds each
//! frame into the session's running sums and keeps no frames, so a 200k-frame
//! session must peak at a small multiple of one batch's column storage — a
//! session that materialised its ~200 B frames would need ~40 MB.
//!
//! The test binary installs a counting global allocator and holds a single
//! test, so no other test's allocations can land inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xr_core::{MobilityConfig, Scenario};
use xr_testbed::{TestbedSimulator, DEFAULT_BATCH_WIDTH};
use xr_types::{ExecutionTarget, Meters, MetersPerSecond};
use xr_wireless::HandoffKind;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with a running count of live bytes and their peak.
struct Counting;

impl Counting {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the high-water mark at the current live byte count.
fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[test]
fn a_default_session_peaks_at_batch_width_memory_not_frame_count_memory() {
    const FRAMES: u64 = 200_000;
    // A moving remote session runs every stage, the walker scan included.
    let scenario = Scenario::builder()
        .execution(ExecutionTarget::Remote)
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(25.0),
            coverage_radius: Meters::new(10.0),
            handoff_kind: HandoffKind::Vertical,
        })
        .build()
        .unwrap();
    let testbed = TestbedSimulator::new(2024);
    // A first short session warms every lazily built process-wide table
    // (device catalogs), so the window below measures the session alone.
    testbed.simulate_session(&scenario, 8).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    reset_peak();
    let session = testbed.simulate_session(&scenario, FRAMES).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(session.frame_count(), FRAMES);
    assert!(session.frames().is_none());
    // 4 KiB per lane of the default batch width (1 MiB): ~20× the ~200 B
    // per lane the engine's columns and draw buffers use, and ~40× below
    // the ~40 MB this session's frames would take if it kept them.
    let bound = DEFAULT_BATCH_WIDTH * 4096;
    assert!(
        peak < bound,
        "a {FRAMES}-frame session peaked at {peak} live heap bytes; the bound is {bound} \
         ({DEFAULT_BATCH_WIDTH} lanes × 4 KiB)"
    );
}
