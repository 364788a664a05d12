//! Heap cost of HDC planning. The counting allocator below is global to
//! this test binary, so the file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use forhdc_core::{plan_top_misses, SystemConfig};
use forhdc_sim::StripingMap;
use forhdc_workload::ServerWorkloadSpec;

/// Live heap bytes, and the most live at once since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        Heap.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = Heap.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Planning the file-server clone's HDC (the benchmark's 128-KByte
/// unit and 2-MByte HDC) needs one byte per block of the footprint plus
/// small change: per-disk candidate heaps and the plan itself. A dense
/// `u32` per block would need four.
#[test]
fn plan_top_misses_heap_is_one_byte_per_block() {
    // Scale shrinks only the request count: the layout, and so the
    // footprint, stays full size.
    let wl = ServerWorkloadSpec::file_server()
        .scale(0.02)
        .generate()
        .workload;
    let footprint = wl.trace.footprint_blocks();
    assert!(footprint > 3 << 20, "footprint {footprint} blocks");
    let cfg = SystemConfig::for_()
        .with_hdc(2 << 20)
        .with_striping_unit(128 << 10);
    let striping = StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let plan = plan_top_misses(&wl.trace, &striping, cfg.hdc_blocks());
    let extra = PEAK.load(Relaxed) - before;

    assert!(plan.total_blocks() > 0);
    let bound = footprint as usize + (1 << 20);
    assert!(
        extra <= bound,
        "planning peaked at {extra} B over the live heap; bound {bound} B \
         ({footprint} blocks + 1 MiB)"
    );
}
