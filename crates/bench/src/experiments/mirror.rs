//! `fig-mirror`: degraded-mode serving on a mirrored (RAID1/0) array.
//!
//! One read-mostly synthetic workload replayed over every
//! [`ReadSplit`] policy x rebuild-bandwidth-cap combination. Every
//! run carries the same replica failure story: member disk 1 drops
//! out 100 ms in (its reads fail over to disk 0 instead of erroring)
//! and is replaced at 400 ms, when — for the rebuild columns — a
//! chunked twin-to-member reconstruction starts as background media
//! traffic competing with the foreground reads. The `none` column is
//! the degraded baseline (failed member never reconstructed), the
//! `256KBps` column a tightly paced copy, and `unpaced` lets each
//! chunk start as soon as the previous one lands (the copy rate is
//! then limited only by contention with the foreground).
//!
//! The table reads across as the cost of reconstruction bandwidth:
//! per policy, total I/O time and p99 request latency under each
//! rebuild regime, plus the failover and copied-block tallies of the
//! paced run. Jobs are pure functions of their spec (seeded offline
//! window, deterministic rebuild), so parallel runs reassemble
//! byte-identically.

use forhdc_core::{
    FaultConfig, OfflineWindow, RebuildConfig, RetryPolicy, SeededFaults, System, SystemConfig,
};
use forhdc_runner::{point_seed, JobOutput, JobSpec, SimJob};
use forhdc_sim::{ReadSplit, SimDuration};
use forhdc_workload::SyntheticWorkload;

use crate::plan::{run_system, shared, PlannedExperiment, SharedWorkload};
use crate::table::{f1, Table};
use crate::RunOptions;

const FILES: usize = 20_000;
const HDC: u64 = 2 * 1024 * 1024;

/// Every read-splitting policy of the mirrored-array literature, in
/// column-stable order (labels: closest / rr / sq / primary).
const POLICIES: [ReadSplit; 4] = [
    ReadSplit::ClosestCopy,
    ReadSplit::RoundRobin,
    ReadSplit::ShortestQueue,
    ReadSplit::PrimaryOnly,
];

/// Rebuild regimes swept per policy: no reconstruction (degraded
/// baseline), a tight 256 KB/s cap that visibly throttles the copy,
/// and an unpaced (contention-limited) copy.
const REBUILDS: [(&str, Option<u64>); 3] = [
    ("none", None),
    ("256KBps", Some(256 << 10)),
    ("unpaced", Some(0)),
];

/// The replaced member and its outage. Reads aimed at it fail over to
/// its twin during the window; the reconstruction starts at the
/// window's end (the moment the replacement disk arrives).
const MIRROR_DISK: u16 = 1;
const OFFLINE_START_NS: u64 = 100_000_000;
const OFFLINE_END_NS: u64 = 400_000_000;

/// Used extent reconstructed, in blocks (chunked reads off the twin).
const REBUILD_BLOCKS: u64 = 8_192;
const REBUILD_CHUNK: u32 = 32;

/// The seeded fault schedule: only the replica outage, no media/bus
/// errors — failures must degrade service, never fail requests.
fn schedule(row: usize) -> FaultConfig {
    FaultConfig::new(point_seed("fig-mirror/schedule", row)).with_offline(OfflineWindow {
        disk: MIRROR_DISK,
        start_ns: OFFLINE_START_NS,
        end_ns: OFFLINE_END_NS,
    })
}

fn rebuild(rate: u64) -> RebuildConfig {
    RebuildConfig {
        disk: MIRROR_DISK,
        start: SimDuration::from_nanos(OFFLINE_END_NS),
        rate_bytes_per_sec: rate,
        chunk_blocks: REBUILD_CHUNK,
        total_blocks: REBUILD_BLOCKS,
    }
}

/// Retry/backoff defaults plus a 10 s request timeout, mirroring
/// `fig-faults`: a pathological schedule cannot wedge a run.
fn recovery() -> RetryPolicy {
    RetryPolicy {
        deadline_ns: Some(10_000_000_000),
        ..RetryPolicy::default()
    }
}

/// Degraded-mode extraction: I/O time, tail latency, and the mirror
/// conservation tallies.
fn mirror_metrics(r: &forhdc_core::Report) -> JobOutput {
    JobOutput::new()
        .metric("io_ns", r.io_time.as_nanos() as f64)
        .metric("p99_ns", r.latency.quantile(0.99).as_nanos() as f64)
        .metric("requests", r.requests as f64)
        .metric("failed_requests", r.faults.failed_requests as f64)
        .metric("failover_reads", r.faults.failover_reads as f64)
        .metric("rebuilt_blocks", r.faults.rebuilt_blocks as f64)
        .metric("mirror_reads", r.mirror_reads as f64)
}

fn mirror_job(
    spec: JobSpec,
    wl: &SharedWorkload,
    policy: ReadSplit,
    rate: Option<u64>,
    fault_cfg: FaultConfig,
    check: bool,
) -> SimJob {
    let wl = wl.clone();
    SimJob::new(spec, move || {
        let mut cfg = SystemConfig::for_()
            .with_hdc(HDC)
            .with_mirroring()
            .with_read_split(policy)
            .with_recovery(recovery());
        if let Some(rate) = rate {
            cfg = cfg.with_rebuild(rebuild(rate));
        }
        let faults = SeededFaults::new(fault_cfg.clone());
        mirror_metrics(&run_system(System::builder(cfg, wl.get()).faults(faults), check).0)
    })
}

/// `fig-mirror`: degraded-mode throughput and p99 during
/// reconstruction, read-split policy x rebuild bandwidth cap.
pub fn plan_mirror(opts: RunOptions) -> PlannedExperiment {
    let seed = point_seed("fig-mirror", 0);
    let wl = shared(move || {
        SyntheticWorkload::builder()
            .requests(opts.synthetic_requests)
            .files(FILES)
            .file_blocks(4)
            .streams(128)
            .write_fraction(0.1)
            .zipf_alpha(0.4)
            .seed(seed)
            .build()
    });
    let mut jobs = Vec::new();
    for policy in POLICIES {
        let fault_cfg = schedule(0);
        for (rb_label, rate) in REBUILDS {
            let spec = JobSpec::new(
                "fig-mirror",
                jobs.len(),
                format!("split={} rebuild={rb_label}", policy.label()),
            );
            jobs.push(mirror_job(
                spec,
                &wl,
                policy,
                rate,
                fault_cfg.clone(),
                opts.check,
            ));
        }
    }
    PlannedExperiment {
        id: "fig-mirror",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig-mirror",
                "Mirrored-array degraded mode: I/O time and p99 by read-split policy x rebuild cap (replica offline 100-400 ms, rebuild from 400 ms)",
                &[
                    "split",
                    "io_none_s",
                    "p99_none_ms",
                    "io_256KBps_s",
                    "p99_256KBps_ms",
                    "io_unpaced_s",
                    "p99_unpaced_ms",
                    "failover_reads",
                    "rebuilt_blocks",
                ],
            );
            let n = REBUILDS.len();
            for (row, policy) in POLICIES.iter().enumerate() {
                let o = &out[row * n..(row + 1) * n];
                let mut cells = vec![policy.label().to_string()];
                for point in o {
                    cells.push(f1(point.get("io_ns") / 1e9));
                    cells.push(f1(point.get("p99_ns") / 1e6));
                }
                // The conservation tallies of the paced run (column 1).
                cells.push(format!("{}", o[1].get("failover_reads") as u64));
                cells.push(format!("{}", o[1].get("rebuilt_blocks") as u64));
                t.push_row(cells);
            }
            t.note("FOR+HDC on 8 spindles mirrored into 4 pairs; every run survives the outage with zero failed requests, the rebuild competes with foreground reads for the member's heads");
            t
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_runner::Runner;

    fn quick() -> RunOptions {
        RunOptions {
            scale: 0.02,
            synthetic_requests: 600,
            ..RunOptions::default()
        }
    }

    #[test]
    fn fig_mirror_survives_the_outage_and_rebuilds() {
        let t = plan_mirror(RunOptions {
            scale: 0.02,
            synthetic_requests: 4_000,
            ..RunOptions::default()
        })
        .run_serial();
        assert_eq!(t.rows.len(), POLICIES.len());
        for row in &t.rows {
            let failovers: u64 = row[7].parse().unwrap();
            let rebuilt: u64 = row[8].parse().unwrap();
            assert!(
                failovers > 0,
                "the offline window must force failovers: {row:?}"
            );
            assert!(rebuilt > 0, "the paced rebuild must copy blocks: {row:?}");
            assert!(
                rebuilt <= REBUILD_BLOCKS,
                "rebuild overshot its target extent: {row:?}"
            );
        }
    }

    #[test]
    fn fig_mirror_parallel_matches_serial_byte_for_byte() {
        let serial = plan_mirror(quick()).run_serial();
        let runner = Runner::new(4).quiet(true);
        let (parallel, stats) = plan_mirror(quick()).run_with(&runner);
        assert!(stats.failures.is_empty());
        assert_eq!(serial.to_csv(), parallel.expect("table").to_csv());
    }
}
