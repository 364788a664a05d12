//! The bytes a simulated run's inputs take per record: 13 per request,
//! one bit per job boundary, 16 per extent.

use std::mem::size_of;

use forhdc_layout::Extent;
use forhdc_workload::{ServerWorkloadSpec, TraceRequest};

#[test]
fn records_take_the_bytes_their_fields_need() {
    // Start block, length, kind: 8 + 4 + 1, no padding.
    assert_eq!(size_of::<TraceRequest>(), 13);
    // Start block, length, file offset: 8 + 4 + 4.
    assert_eq!(size_of::<Extent>(), 16);
}

/// The Web clone groups its requests into multi-request jobs, so its
/// trace holds the boundary bitmap: 13 bytes per request plus one bit.
/// Sixteen-byte records and a `u32` length per job would take
/// 16·len + 4·jobs.
#[test]
fn web_trace_takes_thirteen_bytes_and_a_bit_per_request() {
    let trace = ServerWorkloadSpec::web()
        .scale(0.25)
        .generate()
        .workload
        .trace;
    let len = trace.len() as u64;
    assert!(
        trace.job_count() < trace.len(),
        "the clone has multi-request jobs"
    );
    let bound = 13 * len + len / 8 + 64;
    assert!(
        trace.heap_bytes() <= bound,
        "{} B for {len} requests; bound {bound} B",
        trace.heap_bytes()
    );
}

/// Every request of the file clone is its own job: no boundaries are
/// stored at all.
#[test]
fn singleton_jobs_store_no_boundaries() {
    let trace = ServerWorkloadSpec::file_server()
        .scale(0.02)
        .generate()
        .workload
        .trace;
    assert_eq!(trace.job_count(), trace.len());
    assert_eq!(trace.heap_bytes(), 13 * trace.len() as u64);
}
