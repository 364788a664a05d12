//! Design-choice ablations beyond the paper's figures (DESIGN.md §8).
//!
//! Every ablation is a [`PlannedExperiment`]: the grid-shaped ones
//! decompose into one job per grid point × configuration; the bespoke
//! `cooperative` and `victim` studies decompose into one job per row,
//! sharing their derived workloads through [`forhdc_runner::Lazy`].

use forhdc_cache::{BlockReplacement, SegmentReplacement};
use forhdc_core::{plan_periodic, System, SystemConfig};
use forhdc_runner::{point_seed, JobOutput, JobSpec, SimJob};
use forhdc_sim::{SchedulerKind, StripingMap};
use forhdc_workload::{ServerWorkloadSpec, SyntheticWorkload};

use crate::plan::{
    report_metrics, run_system, shared, sim_job, NamedConfig, PlannedExperiment, SharedWorkload,
};
use crate::table::{f1, f3, Table};
use crate::RunOptions;

fn web_workload(opts: RunOptions) -> SharedWorkload {
    shared(move || {
        ServerWorkloadSpec::web()
            .scale(opts.scale)
            .generate()
            .workload
    })
}

/// The calibrated synthetic (16-KB files, 128 streams) used by several
/// ablations, seeded per experiment point.
fn synth_workload(opts: RunOptions, file_blocks: u32, seed: u64) -> SharedWorkload {
    shared(move || {
        SyntheticWorkload::builder()
            .requests(opts.synthetic_requests)
            .files(20_000)
            .file_blocks(file_blocks)
            .streams(128)
            .seed(seed)
            .build()
    })
}

/// Request schedulers under the web clone: LOOK (the paper's choice)
/// against FCFS, SSTF and C-LOOK.
pub fn plan_scheduler(opts: RunOptions) -> PlannedExperiment {
    const SCHEDULERS: [(&str, SchedulerKind); 4] = [
        ("LOOK", SchedulerKind::Look),
        ("FCFS", SchedulerKind::Fcfs),
        ("SSTF", SchedulerKind::Sstf),
        ("C-LOOK", SchedulerKind::Clook),
    ];
    let wl = web_workload(opts);
    let mut jobs = Vec::new();
    for (name, kind) in SCHEDULERS {
        let spec = JobSpec::new("ablation-sched", jobs.len(), name);
        jobs.push(sim_job(spec, &wl, opts.mode(), move || {
            SystemConfig::segm()
                .with_scheduler(kind)
                .with_striping_unit(64 * 1024)
        }));
    }
    PlannedExperiment {
        id: "ablation-sched",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-sched",
                "Scheduler ablation (web clone, Segm, 64-KB unit)",
                &["scheduler", "io_time_s", "mean_response_ms"],
            );
            for ((name, _), o) in SCHEDULERS.iter().zip(out) {
                t.push_row(vec![
                    name.to_string(),
                    f1(o.get("io_ns") / 1e9),
                    f3(o.get("mean_response_ns") / 1e6),
                ]);
            }
            t.note(
                "expected: LOOK/C-LOOK/SSTF clearly beat FCFS; LOOK avoids SSTF's starvation bias",
            );
            t
        }),
    }
}

/// Segment-replacement policies (LRU vs FIFO/random/round-robin, after
/// Soloviev 94 / Ganger 95 / Shriver 97) under the synthetic workload.
pub fn plan_segment_replacement(opts: RunOptions) -> PlannedExperiment {
    const POLICIES: [(&str, SegmentReplacement); 4] = [
        ("LRU", SegmentReplacement::Lru),
        ("FIFO", SegmentReplacement::Fifo),
        ("random", SegmentReplacement::Random),
        ("round-robin", SegmentReplacement::RoundRobin),
    ];
    let seed = point_seed("ablation-segrepl", 0);
    let wl = synth_workload(opts, 4, seed);
    let mut jobs = Vec::new();
    for (name, pol) in POLICIES {
        let spec = JobSpec::new("ablation-segrepl", jobs.len(), name);
        jobs.push(sim_job(spec, &wl, opts.mode(), move || {
            SystemConfig::segm().with_replacement(BlockReplacement::Mru, pol)
        }));
    }
    PlannedExperiment {
        id: "ablation-segrepl",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-segrepl",
                "Segment replacement ablation (synthetic 16-KB files)",
                &["policy", "io_time_s", "cache_hit_%"],
            );
            for ((name, _), o) in POLICIES.iter().zip(out) {
                t.push_row(vec![
                    name.to_string(),
                    f1(o.get("io_ns") / 1e9),
                    f1(100.0 * o.get("cache_hit_rate")),
                ]);
            }
            t
        }),
    }
}

/// Block-replacement for FOR: the paper's MRU against LRU.
pub fn plan_block_replacement(opts: RunOptions) -> PlannedExperiment {
    const FILE_BLOCKS: [u32; 3] = [2, 4, 8];
    let mut jobs = Vec::new();
    for (row, &file_blocks) in FILE_BLOCKS.iter().enumerate() {
        let seed = point_seed("ablation-blkrepl", row);
        let wl = synth_workload(opts, file_blocks, seed);
        for (name, blk) in [
            ("mru", BlockReplacement::Mru),
            ("lru", BlockReplacement::Lru),
        ] {
            let spec = JobSpec::new(
                "ablation-blkrepl",
                jobs.len(),
                format!("file={}KB {name}", file_blocks * 4),
            );
            jobs.push(sim_job(spec, &wl, opts.mode(), move || {
                SystemConfig::for_().with_replacement(blk, SegmentReplacement::Lru)
            }));
        }
    }
    PlannedExperiment {
        id: "ablation-blkrepl",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-blkrepl",
                "FOR block replacement ablation (synthetic)",
                &["file_kb", "mru_io_s", "lru_io_s", "mru_hit_%", "lru_hit_%"],
            );
            for (row, &file_blocks) in FILE_BLOCKS.iter().enumerate() {
                let o = &out[row * 2..(row + 1) * 2];
                t.push_row(vec![
                    (file_blocks * 4).to_string(),
                    f1(o[0].get("io_ns") / 1e9),
                    f1(o[1].get("io_ns") / 1e9),
                    f1(100.0 * o[0].get("cache_hit_rate")),
                    f1(100.0 * o[1].get("cache_hit_rate")),
                ]);
            }
            t.note("the paper picks MRU for FOR's block pool (consumed blocks are dead at a controller cache)");
            t
        }),
    }
}

/// Segment-size row of Table 1: 128/256/512-KB segments with 27/13/6
/// segments, under the synthetic workload.
pub fn plan_segment_size(opts: RunOptions) -> PlannedExperiment {
    const SEG_KB: [u32; 3] = [128, 256, 512];
    let seed = point_seed("ablation-segsize", 0);
    let wl = synth_workload(opts, 4, seed);
    let mut jobs = Vec::new();
    for seg_kb in SEG_KB {
        let spec = JobSpec::new("ablation-segsize", jobs.len(), format!("seg={seg_kb}KB"));
        jobs.push(sim_job(spec, &wl, opts.mode(), move || {
            SystemConfig::segm().with_segment_bytes(seg_kb * 1024)
        }));
    }
    PlannedExperiment {
        id: "ablation-segsize",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-segsize",
                "Segment size ablation (Segm, synthetic 16-KB files)",
                &["segment_kb", "segments", "io_time_s", "ra_blocks_per_op"],
            );
            for (seg_kb, o) in SEG_KB.iter().zip(out) {
                let media_ops = o.get("media_ops");
                let ra_per_op = if media_ops == 0.0 {
                    0.0
                } else {
                    o.get("ra_blocks") / media_ops
                };
                t.push_row(vec![
                    seg_kb.to_string(),
                    match seg_kb {
                        128 => "27",
                        256 => "13",
                        _ => "6",
                    }
                    .to_string(),
                    f1(o.get("io_ns") / 1e9),
                    f1(ra_per_op),
                ]);
            }
            t.note("bigger segments read ahead more per miss — worse for small-file servers");
            t
        }),
    }
}

/// Coalescing-probability sweep, including the paper's remark that
/// No-RA does not beat FOR even with perfect (100%) coalescing.
pub fn plan_coalescing(opts: RunOptions) -> PlannedExperiment {
    const PCTS: [u32; 6] = [0, 25, 50, 75, 87, 100];
    const CONFIGS: [NamedConfig; 3] = [
        ("segm", SystemConfig::segm),
        ("no_ra", SystemConfig::no_ra),
        ("for", SystemConfig::for_),
    ];
    let mut jobs = Vec::new();
    for (row, &pct) in PCTS.iter().enumerate() {
        let seed = point_seed("ablation-coalesce", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(20_000)
                .file_blocks(4)
                .streams(128)
                .coalesce_prob(pct as f64 / 100.0)
                .seed(seed)
                .build()
        });
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new(
                "ablation-coalesce",
                jobs.len(),
                format!("coalesce={pct}% {name}"),
            );
            jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id: "ablation-coalesce",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-coalesce",
                "Coalescing probability sweep (16-KB files, normalized to Segm at each point)",
                &["coalesce_%", "segm", "no_ra", "for"],
            );
            for (row, &pct) in PCTS.iter().enumerate() {
                let o = &out[row * 3..(row + 1) * 3];
                let segm = o[0].get("io_ns");
                t.push_row(vec![
                    pct.to_string(),
                    f3(1.0),
                    f3(o[1].get("io_ns") / segm),
                    f3(o[2].get("io_ns") / segm),
                ]);
            }
            t.note("paper: No-RA improves with coalescing but does not outperform FOR even at an unrealistic 100%");
            t
        }),
    }
}

/// Zoned recording as a sensitivity check: the paper simulates the
/// Ultrastar's *average* media rate; real zones make outer cylinders
/// ~22% faster. The comparison results must be insensitive to this
/// refinement.
pub fn plan_zoned(opts: RunOptions) -> PlannedExperiment {
    const MODES: [(&str, bool); 2] = [("uniform", false), ("zoned", true)];
    let seed = point_seed("ablation-zones", 0);
    let wl = synth_workload(opts, 4, seed);
    let mut jobs = Vec::new();
    for (mode, zoned) in MODES {
        for (name, base) in [
            ("segm", SystemConfig::segm as fn() -> SystemConfig),
            ("for", SystemConfig::for_),
        ] {
            let spec = JobSpec::new("ablation-zones", jobs.len(), format!("{mode} {name}"));
            jobs.push(sim_job(spec, &wl, opts.mode(), move || {
                let c = base();
                if zoned {
                    c.with_zoned_recording()
                } else {
                    c
                }
            }));
        }
    }
    PlannedExperiment {
        id: "ablation-zones",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-zones",
                "Uniform vs zoned media rate (synthetic 16-KB files)",
                &["recording", "segm_io_s", "for_io_s", "for_gain_%"],
            );
            for (row, (mode, _)) in MODES.iter().enumerate() {
                let o = &out[row * 2..(row + 1) * 2];
                let (segm, for_) = (o[0].get("io_ns"), o[1].get("io_ns"));
                t.push_row(vec![
                    mode.to_string(),
                    f1(segm / 1e9),
                    f1(for_ / 1e9),
                    f1(100.0 * (1.0 - for_ / segm)),
                ]);
            }
            t.note("our layouts start at cylinder 0 (outer = fast), so zoned runs are slightly faster in absolute terms; the FOR/Segm comparison is unchanged");
            t
        }),
    }
}

/// §2.2's redundancy option: the same 8 spindles as RAID-0 (8-wide
/// striping) vs RAID-10 (4 mirrored pairs), under read-mostly and
/// write-heavy synthetics.
pub fn plan_mirroring(opts: RunOptions) -> PlannedExperiment {
    const PCTS: [u32; 3] = [0, 20, 50];
    let mut jobs = Vec::new();
    for (row, &pct) in PCTS.iter().enumerate() {
        let seed = point_seed("ablation-mirror", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(20_000)
                .file_blocks(4)
                .streams(128)
                .write_fraction(pct as f64 / 100.0)
                .seed(seed)
                .build()
        });
        for (name, mirrored) in [("raid0", false), ("raid10", true)] {
            let spec = JobSpec::new(
                "ablation-mirror",
                jobs.len(),
                format!("writes={pct}% {name}"),
            );
            jobs.push(sim_job(spec, &wl, opts.mode(), move || {
                if mirrored {
                    SystemConfig::segm().with_mirroring()
                } else {
                    SystemConfig::segm()
                }
            }));
        }
    }
    PlannedExperiment {
        id: "ablation-mirror",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-mirror",
                "RAID-0 vs RAID-10 on 8 spindles (Segm)",
                &["write_%", "raid0_io_s", "raid10_io_s", "raid10_penalty_%"],
            );
            for (row, &pct) in PCTS.iter().enumerate() {
                let o = &out[row * 2..(row + 1) * 2];
                let (raid0, raid10) = (o[0].get("io_ns"), o[1].get("io_ns"));
                t.push_row(vec![
                    pct.to_string(),
                    f1(raid0 / 1e9),
                    f1(raid10 / 1e9),
                    f1((raid10 / raid0 - 1.0) * 100.0),
                ]);
            }
            t.note("mirroring halves the stripe width but serves reads from either member; the write penalty grows with the write fraction");
            t
        }),
    }
}

/// §6.1's periodic-sync claim: "we have determined the effect of such
/// periodic syncs on overall throughput to be negligible (< 1%),
/// assuming periods of 30 seconds" — measured on the web clone.
pub fn plan_flush_period(opts: RunOptions) -> PlannedExperiment {
    const PERIODS_S: [u64; 3] = [120, 30, 10];
    let wl = web_workload(opts);
    let cfg = || {
        SystemConfig::segm()
            .with_hdc(2 * 1024 * 1024)
            .with_striping_unit(64 * 1024)
    };
    let mut jobs = Vec::new();
    let spec = JobSpec::new("ablation-flush", 0, "end-of-run");
    jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
    for secs in PERIODS_S {
        let spec = JobSpec::new("ablation-flush", jobs.len(), format!("period={secs}s"));
        jobs.push(sim_job(spec, &wl, opts.mode(), move || {
            cfg().with_hdc_flush_period(forhdc_sim::SimDuration::from_secs(secs))
        }));
    }
    PlannedExperiment {
        id: "ablation-flush",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-flush",
                "Periodic flush_hdc() cost (web clone, Segm+HDC, 64-KB unit)",
                &["flush_period_s", "io_time_s", "flushed_blocks", "cost_%"],
            );
            let lazy = out[0].get("io_ns");
            t.push_row(vec![
                "end-of-run".into(),
                f1(lazy / 1e9),
                (out[0].get("hdc_flushed") as u64).to_string(),
                f3(0.0),
            ]);
            for (secs, o) in PERIODS_S.iter().zip(&out[1..]) {
                t.push_row(vec![
                    secs.to_string(),
                    f1(o.get("io_ns") / 1e9),
                    (o.get("hdc_flushed") as u64).to_string(),
                    f3((o.get("io_ns") / lazy - 1.0) * 100.0),
                ]);
            }
            t.note("paper: 30-second periods cost < 1%");
            t
        }),
    }
}

/// The §5 deployment story: HDC planned per period from the previous
/// period's history, against the §6.1 perfect-knowledge plan.
pub fn plan_periodic_planner(opts: RunOptions) -> PlannedExperiment {
    const PERIODS: [usize; 3] = [2, 4, 8];
    let wl = web_workload(opts);
    let cfg = || {
        SystemConfig::segm()
            .with_hdc(2 * 1024 * 1024)
            .with_striping_unit(64 * 1024)
    };
    let mut jobs = Vec::new();
    let spec = JobSpec::new("ablation-periodic", 0, "no-hdc");
    jobs.push(sim_job(spec, &wl, opts.mode(), || {
        SystemConfig::segm().with_striping_unit(64 * 1024)
    }));
    let spec = JobSpec::new("ablation-periodic", 1, "perfect");
    jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
    for periods in PERIODS {
        let spec = JobSpec::new(
            "ablation-periodic",
            jobs.len(),
            format!("history/{periods}"),
        );
        let wl = wl.clone();
        jobs.push(SimJob::new(spec, move || {
            // Approximate the periodic deployment: plan from the first
            // (periods − 1)/periods of the trace's history, replay whole.
            let wl = wl.get();
            let cfg = cfg();
            let striping = StripingMap::new(cfg.array.disks, cfg.array.striping_unit_blocks());
            let plans = plan_periodic(&wl.trace, &striping, cfg.hdc_blocks(), periods);
            let last = plans.last().expect("at least one period").clone();
            report_metrics(&run_system(System::builder(cfg, wl).plan(last), opts.check).0)
        }));
    }
    PlannedExperiment {
        id: "ablation-periodic",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-periodic",
                "HDC planning: perfect knowledge vs history-based periods (web clone)",
                &["plan", "io_time_s", "hdc_hit_%"],
            );
            t.push_row(vec![
                "no-hdc".into(),
                f1(out[0].get("io_ns") / 1e9),
                f1(0.0),
            ]);
            t.push_row(vec![
                "perfect".into(),
                f1(out[1].get("io_ns") / 1e9),
                f1(100.0 * out[1].get("hdc_hit_rate")),
            ]);
            for (periods, o) in PERIODS.iter().zip(&out[2..]) {
                t.push_row(vec![
                    format!("history/{periods}"),
                    f1(o.get("io_ns") / 1e9),
                    f1(100.0 * o.get("hdc_hit_rate")),
                ]);
            }
            t.note("history-based plans approach the perfect-knowledge plan as history accumulates (stable popularity)");
            t
        }),
    }
}

/// Builds the "one-disk heat" workload of the cooperative ablation:
/// hot blocks confined to disk 0's striping units.
fn coop_hot_disk_workload() -> forhdc_workload::Workload {
    use forhdc_sim::LogicalBlock;
    use forhdc_workload::{Trace, TraceRequest, Workload};

    let layout = forhdc_layout::LayoutBuilder::new().build(&vec![4u32; 30_000]);
    let mut reqs = Vec::new();
    for _ in 0..8u64 {
        for i in 0..1_200u64 {
            let unit = (i / 32) * 8;
            reqs.push(TraceRequest {
                start: LogicalBlock::new(unit * 32 + i % 32),
                nblocks: 1,
                kind: forhdc_sim::ReadWrite::Read,
            });
        }
    }
    for i in 0..3_000u64 {
        reqs.push(TraceRequest {
            start: LogicalBlock::new(40_000 + i * 29 % 70_000),
            nblocks: 1,
            kind: forhdc_sim::ReadWrite::Read,
        });
    }
    Workload {
        name: "hot-disk".into(),
        layout,
        trace: Trace::new(reqs),
        streams: 64,
    }
}

/// §5's cooperative-caching remark: per-disk top-K pinning vs a
/// global plan whose overflow lands in sibling controllers, under (a)
/// spatially balanced heat (the common case — cooperation is ~free) and
/// (b) heat concentrated on one disk (cooperation pins what the home
/// controller cannot hold). One job per (heat, planner) pair.
pub fn plan_cooperative(opts: RunOptions) -> PlannedExperiment {
    const HDC: u64 = 1 << 20;
    const HEATS: [&str; 2] = ["balanced", "one-disk"];
    // (a) balanced: the calibrated synthetic.
    let balanced = shared(move || {
        SyntheticWorkload::builder()
            .requests(opts.synthetic_requests)
            .files(20_000)
            .file_blocks(4)
            .zipf_alpha(0.8)
            .streams(128)
            .seed(point_seed("ablation-coop", 0))
            .build()
    });
    // (b) one-disk heat: hot blocks confined to disk 0's units.
    let hot_disk = shared(coop_hot_disk_workload);
    let mut jobs = Vec::new();
    for (heat, wl) in [("balanced", &balanced), ("one-disk", &hot_disk)] {
        for coop in [false, true] {
            let spec = JobSpec::new(
                "ablation-coop",
                jobs.len(),
                format!("{heat} {}", if coop { "coop" } else { "per-disk" }),
            );
            let wl = wl.clone();
            jobs.push(SimJob::new(spec, move || {
                let cfg = if coop {
                    SystemConfig::segm().with_hdc(HDC).with_cooperative_hdc()
                } else {
                    SystemConfig::segm().with_hdc(HDC)
                };
                let r = run_system(System::builder(cfg, wl.get()), opts.check).0;
                JobOutput::new()
                    .metric("io_ns", r.io_time.as_nanos() as f64)
                    .metric("coop_hits", r.coop_hits as f64)
            }));
        }
    }
    PlannedExperiment {
        id: "ablation-coop",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-coop",
                "Per-disk vs cooperative HDC planning (Segm, 1 MB HDC/disk)",
                &["heat", "per_disk_io_s", "coop_io_s", "coop_sibling_hits"],
            );
            for (row, heat) in HEATS.iter().enumerate() {
                let (per_disk, coop) = (&out[row * 2], &out[row * 2 + 1]);
                t.push_row(vec![
                    heat.to_string(),
                    f1(per_disk.get("io_ns") / 1e9),
                    f1(coop.get("io_ns") / 1e9),
                    (coop.get("coop_hits") as u64).to_string(),
                ]);
            }
            t.note("the paper kept per-disk pinning for simplicity; cooperation only pays when the hot set is spatially concentrated beyond one controller's memory");
            t
        }),
    }
}

/// HDC region size of the victim ablation (bytes per disk).
const VICTIM_HDC: u64 = 2 * 1024 * 1024;

/// Builds the derived victim-cache workload: an application stream
/// whose working set overflows the host cache — the regime where a
/// victim cache earns its keep.
fn victim_workload(opts: RunOptions) -> forhdc_core::VictimWorkload {
    use forhdc_core::{build_victim_workload, VictimConfig};
    use forhdc_host::pipeline::FileAccess;
    use forhdc_layout::{FileId, LayoutBuilder};
    use forhdc_sim::{ReadWrite, SimDuration, SimTime};
    use forhdc_workload::ZipfSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let files = 30_000usize;
    let layout = LayoutBuilder::new().seed(21).build(&vec![4u32; files]);
    let zipf = ZipfSampler::new(files, 0.75);
    let mut rng = StdRng::seed_from_u64(22);
    let n = (60_000.0 * opts.scale.max(0.02)) as u64;
    let accesses: Vec<FileAccess> = (0..n.max(2_000))
        .map(|i| FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(i * 100),
            file: FileId::new(zipf.sample(&mut rng) as u32),
            offset: 0,
            nblocks: 4,
            kind: ReadWrite::Read,
        })
        .collect();
    let striping = forhdc_sim::StripingMap::new(8, 32);
    build_victim_workload(
        &accesses,
        &layout,
        VictimConfig {
            buffer_blocks: 8_192,
            hdc_blocks_per_disk: (VICTIM_HDC / 4096) as u32,
            striping,
            streams: 64,
        },
    )
}

/// §5's two example uses of HDC head to head on the same derived
/// workload: the paper's top-miss pinning (static, perfect knowledge)
/// against the array-wide victim cache (dynamic pin/unpin), plus the
/// no-HDC baseline. One job per mode, sharing one lazily derived
/// workload; job 0 also emits the derivation stats for the note.
pub fn plan_victim(opts: RunOptions) -> PlannedExperiment {
    use forhdc_core::HdcPlan;

    let vw = std::sync::Arc::new(forhdc_runner::Lazy::new(move || victim_workload(opts)));
    const MODES: [&str; 3] = ["no-hdc", "top-miss", "victim"];
    let jobs = MODES
        .iter()
        .enumerate()
        .map(|(point, &mode)| {
            let spec = JobSpec::new("ablation-victim", point, mode.to_string());
            let vw = vw.clone();
            SimJob::new(spec, move || {
                let vw = vw.get();
                let sys = match mode {
                    "no-hdc" => System::builder(SystemConfig::segm(), &vw.workload),
                    "top-miss" => {
                        System::builder(SystemConfig::segm().with_hdc(VICTIM_HDC), &vw.workload)
                    }
                    _ => System::builder(SystemConfig::segm().with_hdc(VICTIM_HDC), &vw.workload)
                        .plan(HdcPlan::empty(8))
                        .hdc_commands(vw.commands.clone()),
                };
                let r = run_system(sys, opts.check).0;
                let mut o = JobOutput::new()
                    .metric("io_ns", r.io_time.as_nanos() as f64)
                    .metric("hdc_hit_rate", r.hdc_hit_rate());
                if mode == "no-hdc" {
                    o = o
                        .metric("buffer_hit_rate", vw.stats.buffer_hit_rate)
                        .metric("pins", vw.stats.pins as f64)
                        .metric("unpins", vw.stats.unpins as f64)
                        .metric("writebacks", vw.stats.writebacks as f64);
                }
                o
            })
        })
        .collect();
    PlannedExperiment {
        id: "ablation-victim",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "ablation-victim",
                "HDC uses: none vs top-miss pinning vs victim cache (derived workload)",
                &["mode", "io_time_s", "hdc_hit_%"],
            );
            for (row, &mode) in MODES.iter().enumerate() {
                let o = &out[row];
                let hit = if mode == "no-hdc" {
                    0.0
                } else {
                    100.0 * o.get("hdc_hit_rate")
                };
                t.push_row(vec![mode.to_string(), f1(o.get("io_ns") / 1e9), f1(hit)]);
            }
            t.note(format!(
                "derivation: buffer hit {:.0}%, {} pins, {} unpins, {} write-backs",
                100.0 * out[0].get("buffer_hit_rate"),
                out[0].get("pins") as u64,
                out[0].get("unpins") as u64,
                out[0].get("writebacks") as u64
            ));
            t.note("the victim cache adapts to the live miss stream; top-miss pinning needs (perfect) profile knowledge");
            t
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOptions {
        RunOptions {
            scale: 0.015,
            synthetic_requests: 500,
            ..RunOptions::default()
        }
    }

    #[test]
    fn look_beats_fcfs() {
        let t = plan_scheduler(quick()).run_serial();
        let io = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(
            io("LOOK") <= io("FCFS"),
            "LOOK {} vs FCFS {}",
            io("LOOK"),
            io("FCFS")
        );
    }

    #[test]
    fn segment_policies_all_run() {
        let t = plan_segment_replacement(quick()).run_serial();
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn block_replacement_has_both_policies() {
        let t = plan_block_replacement(quick()).run_serial();
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let mru: f64 = row[1].parse().unwrap();
            let lru: f64 = row[2].parse().unwrap();
            assert!(mru > 0.0 && lru > 0.0);
        }
    }

    #[test]
    fn bigger_segments_read_ahead_more() {
        let t = plan_segment_size(quick()).run_serial();
        let ra: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(
            ra[2] > ra[0],
            "512-KB segments should read ahead more: {ra:?}"
        );
    }

    #[test]
    fn perfect_coalescing_does_not_save_no_ra() {
        let t = plan_coalescing(quick()).run_serial();
        let last = t.rows.last().unwrap();
        let no_ra: f64 = last[2].parse().unwrap();
        let for_: f64 = last[3].parse().unwrap();
        assert!(
            for_ <= no_ra * 1.05,
            "FOR {for_} vs No-RA {no_ra} at 100% coalescing"
        );
    }

    #[test]
    fn periodic_planner_improves_with_history() {
        let t = plan_periodic_planner(quick()).run_serial();
        assert!(t.rows.len() >= 4);
        let hit = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(hit("perfect") >= hit("history/2") - 0.5);
    }

    #[test]
    fn ported_bespoke_plans_match_serial_byte_for_byte() {
        let runner = forhdc_runner::Runner::new(4).quiet(true);
        for plan in [plan_cooperative(quick()), plan_victim(quick())] {
            let serial = plan.run_serial();
            let (parallel, stats) = plan.run_with(&runner);
            assert!(stats.failures.is_empty(), "{}", plan.id);
            assert_eq!(
                serial.to_csv(),
                parallel.expect("table").to_csv(),
                "{}",
                plan.id
            );
        }
    }
}
