//! Heap traffic of generating a server clone. The counting allocator
//! below is global to this test binary, so the file holds this one
//! test.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use forhdc_workload::ServerWorkloadSpec;

/// Allocations made, and reallocations that grew a block past
/// [`BIG`], since the last reset.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG_GROWS: AtomicUsize = AtomicUsize::new(0);

/// A realloc that grows a block this large may move it, and then holds
/// the old block and its copy at once.
const BIG: usize = 1 << 20;

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counters only observe sizes.
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
        if new_size > layout.size() && new_size > BIG {
            BIG_GROWS.fetch_add(1, Relaxed);
        }
        Heap.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `generate()` sizes each large buffer once: no trace or layout
/// vector doubles past 1 MiB, and no access allocates (a session reuses
/// its stream's buffer). Without that, the Web clone made one
/// allocation per fresh session, about 0.65 per access.
#[test]
fn generate_allocates_each_buffer_once() {
    let clones = [
        ServerWorkloadSpec::web(),
        ServerWorkloadSpec::proxy(),
        ServerWorkloadSpec::file_server(),
    ];
    for base in clones {
        for scale in [0.25, 1.0] {
            let spec = base.clone().scale(scale);
            ALLOCS.store(0, Relaxed);
            BIG_GROWS.store(0, Relaxed);
            let generated = spec.generate();
            let (allocs, grows) = (ALLOCS.load(Relaxed), BIG_GROWS.load(Relaxed));
            let requests = generated.workload.trace.len();
            drop(generated);
            let what = format!("{} clone at scale {scale} ({requests} requests)", spec.kind);
            assert_eq!(grows, 0, "{what}: {grows} reallocs grew a block past 1 MiB");
            assert!(allocs < 1_000, "{what}: {allocs} allocations");
        }
    }
}
