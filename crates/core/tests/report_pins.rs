//! Pins simulator reports: an FNV-1a digest of every `Report` field
//! for small Web and file-server clones, under configurations that
//! reach every event path of `System::run` — media and bus completions,
//! mirrored read routing and a rebuild, media and bus retries, request
//! timeouts, offline windows, power loss, periodic flushes, cooperative
//! HDC and victim-cache commands. A change to how the event loop
//! schedules its work must leave every digest as it is; a change to
//! what the simulator models must update them on purpose.

use forhdc_core::{
    build_victim_workload, FaultConfig, HdcCommand, HdcPlan, OfflineWindow, RebuildConfig, Report,
    RetryPolicy, SeededFaults, System, SystemConfig, VictimConfig,
};
use forhdc_host::pipeline::FileAccess;
use forhdc_layout::{FileId, LayoutBuilder};
use forhdc_sim::{ReadSplit, ReadWrite, SimDuration, SimTime, StripingMap};
use forhdc_workload::{ServerWorkloadSpec, Workload, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Digest of every field of `r`: its `Debug` form names and prints each
/// one, nested statistics and the latency histogram's buckets included.
fn digest(r: &Report) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

const HDC: u64 = 2 << 20;

fn web() -> Workload {
    ServerWorkloadSpec::web()
        .scale(0.02)
        .with_seed(1)
        .generate()
        .workload
}

fn file() -> Workload {
    ServerWorkloadSpec::file_server()
        .scale(0.02)
        .with_seed(1)
        .generate()
        .workload
}

fn for_hdc() -> SystemConfig {
    SystemConfig::for_()
        .with_hdc(HDC)
        .with_striping_unit(16 << 10)
}

/// (case, requests, io_time ns, digest) for one run.
type Pin = (&'static str, u64, u64, u64);

fn pin(case: &'static str, r: &Report) -> Pin {
    (case, r.requests, r.io_time.as_nanos(), digest(r))
}

#[test]
fn fault_free_reports_are_pinned() {
    let (web, file) = (web(), file());
    let rebuild = RebuildConfig {
        disk: 3,
        start: SimDuration::from_millis(5),
        rate_bytes_per_sec: 32 << 20,
        chunk_blocks: 32,
        total_blocks: 4_096,
    };
    let mut got = vec![
        pin("web for+hdc", &System::new(for_hdc(), &web).run()),
        pin("web segm", &System::new(SystemConfig::segm(), &web).run()),
        pin("file for+hdc", &System::new(for_hdc(), &file).run()),
        pin("file segm", &System::new(SystemConfig::segm(), &file).run()),
    ];
    for (case, split) in [
        ("web mirrored closest", ReadSplit::ClosestCopy),
        ("web mirrored rr", ReadSplit::RoundRobin),
        ("web mirrored sq", ReadSplit::ShortestQueue),
        ("web mirrored primary", ReadSplit::PrimaryOnly),
    ] {
        let cfg = for_hdc().with_mirroring().with_read_split(split);
        got.push(pin(case, &System::new(cfg, &web).run()));
    }
    let cfg = SystemConfig::segm().with_mirroring().with_rebuild(rebuild);
    let r = System::new(cfg, &file).run();
    assert!(r.faults.rebuilt_blocks > 0, "{:?}", r.faults);
    got.push(pin("file mirrored rebuild", &r));
    let flush = for_hdc().with_hdc_flush_period(SimDuration::from_millis(20));
    got.push(pin("file periodic flush", &System::new(flush, &file).run()));
    let coop = SystemConfig::segm()
        .with_hdc(256 << 10)
        .with_cooperative_hdc();
    let r = System::new(coop, &web).run();
    assert!(r.coop_hits > 0, "no cooperative hits");
    got.push(pin("web cooperative", &r));
    assert_eq!(
        got,
        [
            ("web for+hdc", 4187, 1804300603, 17767697956189476238),
            ("web segm", 4187, 2509785442, 13575389739822977299),
            ("file for+hdc", 5000, 438841985, 9606147476928468798),
            ("file segm", 5000, 3392965587, 8993163213273385447),
            (
                "web mirrored closest",
                4187,
                1909163658,
                1186826099729589658
            ),
            ("web mirrored rr", 4187, 2348446058, 14283041276228861976),
            ("web mirrored sq", 4187, 2069163658, 10464017327833141885),
            (
                "web mirrored primary",
                4187,
                3477163658,
                10419985381837528403
            ),
            (
                "file mirrored rebuild",
                5000,
                3758420133,
                5889122252033085650
            ),
            ("file periodic flush", 5000, 786395997, 2817859214654292854),
            ("web cooperative", 4187, 2337785442, 4079210535006174993),
        ]
    );
}

#[test]
fn faulted_reports_are_pinned() {
    let (web, file) = (web(), file());
    let recovery = RetryPolicy {
        deadline_ns: Some(60_000_000),
        ..RetryPolicy::default()
    };
    let offline = OfflineWindow {
        disk: 2,
        start_ns: 10_000_000,
        end_ns: 90_000_000,
    };
    let faults = FaultConfig::new(7)
        .with_media_rates(2e-3, 2e-3)
        .with_bus_rate(2e-3)
        .with_offline(offline)
        .with_power_loss_period_ns(25_000_000);
    let run = |cfg: SystemConfig, wl: &Workload, faults: FaultConfig| {
        System::builder(cfg, wl)
            .faults(SeededFaults::new(faults))
            .build()
            .run()
    };
    let flush = for_hdc()
        .with_hdc_flush_period(SimDuration::from_millis(20))
        .with_recovery(recovery);
    let web_r = run(flush.clone(), &web, faults.clone());
    let file_r = run(flush, &file, faults.clone());
    for r in [&web_r, &file_r] {
        let f = &r.faults;
        assert!(f.media_read_errors > 0 && f.bus_errors > 0, "{f:?}");
        assert!(
            f.retries > 0 && f.timeouts > 0 && f.power_losses > 0,
            "{f:?}"
        );
        assert!(f.offline_stalls > 0 && f.failed_requests > 0, "{f:?}");
    }
    assert!(file_r.faults.media_write_errors > 0, "{:?}", file_r.faults);
    // No retries: every media and bus error exhausts its recovery at
    // once, and a mirrored pair rides through the offline window.
    let no_retries = RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    };
    let rebuild = RebuildConfig {
        disk: 2,
        start: SimDuration::from_millis(90),
        rate_bytes_per_sec: 0,
        chunk_blocks: 32,
        total_blocks: 2_048,
    };
    let mirrored = SystemConfig::segm()
        .with_mirroring()
        .with_rebuild(rebuild)
        .with_recovery(no_retries);
    let mirror_r = run(mirrored, &file, faults);
    let f = &mirror_r.faults;
    assert!(f.failover_reads > 0 && f.rebuilt_blocks > 0, "{f:?}");
    assert!(
        f.failed_requests > 0 && f.bus_errors > 0 && f.retries == 0,
        "{f:?}"
    );
    // Dense media errors without retries on multi-extent requests: a
    // leg can fail while an earlier leg's bus slot is still ahead, so
    // the request ends at the latest slot, not at its last leg.
    let dense = FaultConfig::new(11)
        .with_media_rates(2e-2, 2e-2)
        .with_bus_rate(2e-2);
    let dense_cfg = for_hdc()
        .with_hdc_flush_period(SimDuration::from_millis(20))
        .with_recovery(no_retries);
    let dense_r = run(dense_cfg, &web, dense);
    assert!(dense_r.faults.failed_requests > 0, "{:?}", dense_r.faults);
    assert_eq!(
        [
            pin("web faults", &web_r),
            pin("file faults", &file_r),
            pin("file mirrored faults", &mirror_r),
            pin("web dense faults", &dense_r),
        ],
        [
            ("web faults", 4187, 1920300603, 12513583671253371103),
            ("file faults", 5000, 378373331, 8633835238107464796),
            (
                "file mirrored faults",
                5000,
                3737765587,
                1606214905031572214
            ),
            ("web dense faults", 4187, 1948300603, 417418413735344780),
        ]
    );
}

#[test]
fn victim_cache_reports_are_pinned() {
    // An application stream whose working set overflows the host
    // cache, so clean evictions pin, promotions unpin and dirty
    // evictions write back.
    let files = 4_000usize;
    let layout = LayoutBuilder::new().seed(21).build(&vec![4u32; files]);
    let zipf = ZipfSampler::new(files, 0.75);
    let mut rng = StdRng::seed_from_u64(22);
    let accesses: Vec<FileAccess> = (0..6_000u64)
        .map(|i| FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(i * 100),
            file: FileId::new(zipf.sample(&mut rng) as u32),
            offset: 0,
            nblocks: 4,
            kind: if i % 5 == 0 {
                ReadWrite::Write
            } else {
                ReadWrite::Read
            },
        })
        .collect();
    let vw = build_victim_workload(
        &accesses,
        &layout,
        VictimConfig {
            buffer_blocks: 2_048,
            hdc_blocks_per_disk: 128,
            striping: StripingMap::new(8, 32),
            streams: 32,
        },
    );
    let commands: usize = vw.commands.values().map(Vec::len).sum();
    let unpins = vw
        .commands
        .values()
        .flatten()
        .filter(|c| matches!(c, HdcCommand::Unpin(_)))
        .count();
    assert!(unpins > 0 && commands > unpins, "{commands} commands");
    let cfg = SystemConfig::segm().with_hdc(128 * 4096);
    let r = System::builder(cfg, &vw.workload)
        .plan(HdcPlan::empty(8))
        .hdc_commands(vw.commands)
        .build()
        .run();
    assert_eq!(
        [pin("victim", &r)],
        [("victim", 6720, 3228518535, 7250759890469840204)]
    );
}
