//! Integration coverage of the extensions beyond the paper's headline
//! systems: victim-cache HDC, RAID-1 mirroring, periodic flushing, the
//! partial-track baseline, zoned recording, and trace serialization —
//! all through the public facade.

use forhdc::core::{build_victim_workload, HdcPlan, System, SystemConfig, VictimConfig};
use forhdc::host::pipeline::FileAccess;
use forhdc::layout::{FileId, LayoutBuilder};
use forhdc::sim::{ReadWrite, SimDuration, SimTime, StripingMap};
use forhdc::workload::io::{read_trace, write_trace};
use forhdc::workload::{SyntheticWorkload, Workload, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn app_stream(n: u64, files: usize) -> (Vec<FileAccess>, forhdc::layout::FileMap) {
    let layout = LayoutBuilder::new().seed(31).build(&vec![4u32; files]);
    let zipf = ZipfSampler::new(files, 0.8);
    let mut rng = StdRng::seed_from_u64(32);
    let accesses = (0..n)
        .map(|i| FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(i * 100),
            file: FileId::new(zipf.sample(&mut rng) as u32),
            offset: 0,
            nblocks: 4,
            kind: ReadWrite::Read,
        })
        .collect();
    (accesses, layout)
}

#[test]
fn victim_cache_beats_no_hdc_on_overflowing_working_sets() {
    let (accesses, layout) = app_stream(8_000, 4_000);
    const HDC: u64 = 2 * 1024 * 1024;
    let vw = build_victim_workload(
        &accesses,
        &layout,
        VictimConfig {
            buffer_blocks: 1_024,
            hdc_blocks_per_disk: (HDC / 4096) as u32,
            striping: StripingMap::new(8, 32),
            streams: 32,
        },
    );
    assert!(vw.stats.pins > 0, "no pins derived");
    let none = System::new(SystemConfig::segm(), &vw.workload).run();
    let vic = System::builder(SystemConfig::segm().with_hdc(HDC), &vw.workload)
        .plan(HdcPlan::empty(8))
        .hdc_commands(vw.commands)
        .build()
        .run();
    assert_eq!(vic.requests, vw.workload.trace.len() as u64);
    assert!(
        vic.hdc_hit_rate() > 0.02,
        "victim hit rate {}",
        vic.hdc_hit_rate()
    );
    assert!(
        vic.io_time.as_nanos() as f64 <= none.io_time.as_nanos() as f64 * 1.02,
        "victim {} should not lose to no-HDC {}",
        vic.io_time,
        none.io_time
    );
}

#[test]
fn victim_pins_never_exceed_the_region() {
    let (accesses, layout) = app_stream(4_000, 4_000);
    let vw = build_victim_workload(
        &accesses,
        &layout,
        VictimConfig {
            buffer_blocks: 512,
            hdc_blocks_per_disk: 64,
            striping: StripingMap::new(8, 32),
            streams: 16,
        },
    );
    let r = System::builder(SystemConfig::segm().with_hdc(64 * 4096), &vw.workload)
        .plan(HdcPlan::empty(8))
        .hdc_commands(vw.commands)
        .build()
        .run();
    // Net pinned at end <= capacity per disk * disks; lifetime pins can
    // be much larger.
    assert!(r.hdc.pins >= r.hdc.unpins);
    assert!(r.hdc.pins - r.hdc.unpins <= 8 * 64);
}

#[test]
fn mirrored_read_mostly_workload_is_nearly_free() {
    let wl = SyntheticWorkload::builder()
        .requests(800)
        .files(6_000)
        .file_blocks(4)
        .streams(64)
        .seed(33)
        .build();
    let raid0 = System::new(SystemConfig::for_(), &wl).run();
    let raid10 = System::new(SystemConfig::for_().with_mirroring(), &wl).run();
    let penalty = raid10.io_time.as_nanos() as f64 / raid0.io_time.as_nanos() as f64;
    assert!(penalty < 1.25, "read-mostly RAID-10 penalty {penalty:.2}");
}

#[test]
fn partial_track_is_a_sane_baseline() {
    let wl = SyntheticWorkload::builder()
        .requests(800)
        .files(6_000)
        .file_blocks(4)
        .streams(64)
        .seed(34)
        .build();
    let blind = System::new(SystemConfig::block(), &wl).run();
    let track = System::new(SystemConfig::partial_track(), &wl).run();
    let for_ = System::new(SystemConfig::for_(), &wl).run();
    assert_eq!(track.requests, wl.trace.len() as u64);
    // Track-bounded blind RA is cheaper than unbounded blind RA on
    // small files, but FOR still wins (it knows the file boundary).
    assert!(track.io_time <= blind.io_time);
    assert!(for_.io_time <= track.io_time);
}

#[test]
fn zoned_recording_preserves_the_comparison() {
    let wl = SyntheticWorkload::builder()
        .requests(800)
        .files(6_000)
        .file_blocks(4)
        .streams(64)
        .seed(35)
        .build();
    let segm = System::new(SystemConfig::segm().with_zoned_recording(), &wl).run();
    let for_ = System::new(SystemConfig::for_().with_zoned_recording(), &wl).run();
    assert!(for_.io_time < segm.io_time, "FOR must win under zoning too");
}

#[test]
fn periodic_flush_composes_with_everything() {
    let wl = SyntheticWorkload::builder()
        .requests(600)
        .files(4_000)
        .file_blocks(4)
        .write_fraction(0.2)
        .zipf_alpha(0.8)
        .streams(32)
        .seed(36)
        .build();
    let r = System::new(
        SystemConfig::for_()
            .with_hdc(1 << 20)
            .with_mirroring()
            .with_zoned_recording()
            .with_hdc_flush_period(SimDuration::from_secs(1)),
        &wl,
    )
    .run();
    assert_eq!(r.requests, wl.trace.len() as u64);
}

#[test]
fn serialized_traces_replay_identically() {
    let wl = SyntheticWorkload::builder()
        .requests(400)
        .files(3_000)
        .file_blocks(4)
        .streams(32)
        .seed(37)
        .build();
    let mut buf = Vec::new();
    write_trace(&wl.trace, &mut buf).unwrap();
    let reread = read_trace(buf.as_slice()).unwrap();
    let wl2 = Workload {
        name: wl.name.clone(),
        layout: wl.layout.clone(),
        trace: reread,
        streams: wl.streams,
    };
    let a = System::new(SystemConfig::for_(), &wl).run();
    let b = System::new(SystemConfig::for_(), &wl2).run();
    assert_eq!(
        a.io_time, b.io_time,
        "round-tripped trace must replay identically"
    );
    assert_eq!(a.disk.media_ops, b.disk.media_ops);
}
