//! The full host stack end to end: application file accesses →
//! prefetch → buffer cache → coalescing → disk trace → array
//! simulation — "we consider the entire cache hierarchy" (§6.3).

use forhdc_core::{System, SystemConfig};
use forhdc_host::pipeline::{derive_disk_trace, FileAccess, PipelineConfig};
use forhdc_layout::{FileId, LayoutBuilder};
use forhdc_sim::{ReadWrite, SimDuration, SimTime};
use forhdc_workload::{Workload, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn app_stream(n: u64, files: usize, alpha: f64, seed: u64) -> Vec<FileAccess> {
    let zipf = ZipfSampler::new(files, alpha);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(i * 150),
            file: FileId::new(zipf.sample(&mut rng) as u32),
            offset: 0,
            nblocks: 4,
            kind: ReadWrite::Read,
        })
        .collect()
}

#[test]
fn derived_traces_replay_cleanly() {
    let layout = LayoutBuilder::new().seed(1).build(&vec![4u32; 5_000]);
    let accesses = app_stream(20_000, 5_000, 0.6, 2);
    let derived = derive_disk_trace(
        &accesses,
        &layout,
        PipelineConfig {
            buffer_blocks: 2_048,
            ..PipelineConfig::default()
        },
    );
    // A skewed stream against a small buffer cache: some locality is
    // absorbed, the rest reaches the disk.
    assert!(derived.buffer_hit_rate > 0.05 && derived.buffer_hit_rate < 0.95);
    assert!(!derived.trace.is_empty());
    let wl = Workload {
        name: "derived".into(),
        layout,
        trace: derived.trace,
        streams: 32,
    };
    let r = System::new(SystemConfig::for_(), &wl).run();
    assert_eq!(r.requests, wl.trace.len() as u64);
}

#[test]
fn bigger_buffer_cache_means_less_disk_traffic() {
    let layout = LayoutBuilder::new().seed(3).build(&vec![4u32; 5_000]);
    let accesses = app_stream(20_000, 5_000, 0.6, 4);
    let small = derive_disk_trace(
        &accesses,
        &layout,
        PipelineConfig {
            buffer_blocks: 512,
            ..PipelineConfig::default()
        },
    );
    let large = derive_disk_trace(
        &accesses,
        &layout,
        PipelineConfig {
            buffer_blocks: 8_192,
            ..PipelineConfig::default()
        },
    );
    assert!(large.trace.total_blocks() < small.trace.total_blocks());
    assert!(large.buffer_hit_rate > small.buffer_hit_rate);
}

#[test]
fn disk_level_trace_has_little_temporal_locality() {
    // §2.1's key observation: what reaches the controller has almost no
    // temporal locality — the buffer cache absorbed it. After the
    // pipeline, per-block re-access counts must be far below the
    // application-level counts.
    let layout = LayoutBuilder::new().seed(5).build(&vec![4u32; 2_000]);
    let accesses = app_stream(30_000, 2_000, 0.9, 6);
    let derived = derive_disk_trace(
        &accesses,
        &layout,
        PipelineConfig {
            buffer_blocks: 4_096,
            ..PipelineConfig::default()
        },
    );
    // Application-level: the hottest file is accessed thousands of
    // times. Disk-level: its blocks only on buffer-cache misses.
    let disk_hottest = derived.trace.block_access_counts().max();
    let app_hottest = {
        let mut counts = vec![0u32; 2_000];
        for a in &accesses {
            counts[a.file.as_usize()] += 1;
        }
        *counts.iter().max().unwrap()
    };
    assert!(
        (disk_hottest as f64) < app_hottest as f64 * 0.5,
        "disk {disk_hottest} vs app {app_hottest}: buffer cache should absorb temporal locality"
    );
}

#[test]
fn coalescing_statistic_matches_the_papers_style() {
    // The paper measured 87% across its workloads; the pipeline on a
    // sequential whole-file stream should coalesce heavily too.
    let layout = LayoutBuilder::new().seed(7).build(&vec![8u32; 3_000]);
    let accesses = app_stream(5_000, 3_000, 0.2, 8);
    let derived = derive_disk_trace(&accesses, &layout, PipelineConfig::default());
    assert!(
        derived.coalescing_probability > 0.5,
        "coalescing {:.2} too low for sequential file reads",
        derived.coalescing_probability
    );
}
