//! Heap traffic of the simulator's hot loop. The counting allocator
//! below is global to this test binary, so the file holds this one
//! test.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use forhdc_core::{plan_top_misses, System, SystemConfig};
use forhdc_sim::StripingMap;
use forhdc_workload::ServerWorkloadSpec;

/// Allocations and reallocations made since the last reset.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        Heap.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        Heap.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        Heap.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Replaying a trace allocates only as queues and tables first grow,
/// not per request: `System::run` on the Web clone (FOR + 2 MiB HDC,
/// 16-KiB unit, as the benchmark's sim-web) makes well under one
/// allocation per hundred requests. A request record or job lookup
/// that allocated on each issue would make at least one per request.
#[test]
fn run_allocates_less_than_once_per_hundred_requests() {
    let wl = ServerWorkloadSpec::web().scale(1.0).generate().workload;
    let cfg = SystemConfig::for_()
        .with_hdc(2 << 20)
        .with_striping_unit(16 << 10);
    let striping = StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());
    let plan = plan_top_misses(&wl.trace, &striping, cfg.hdc_blocks());
    let sys = System::with_plan(cfg, &wl, plan);

    ALLOCS.store(0, Relaxed);
    let report = sys.run();
    let allocs = ALLOCS.load(Relaxed);

    assert_eq!(report.requests, wl.trace.len() as u64);
    let per_request = allocs as f64 / report.requests as f64;
    assert!(
        per_request < 0.01,
        "{allocs} allocations over {} requests ({per_request:.4} per request)",
        report.requests
    );
}
