//! Beyond-the-paper robustness artifacts: the `fig-faults`
//! degraded-mode sweep and the hidden `selftest-panic` runner
//! diagnostic.
//!
//! `fig-faults` replays one write-heavy synthetic workload against
//! seeded fault schedules of rising media/bus error rates (DESIGN.md
//! §6.4). Each configuration column is that configuration's I/O time
//! normalized to its own fault-free run, so 1.25 reads "25% slower at
//! this fault rate". The trailing columns summarize the degraded-mode
//! outcome for the full system (FOR+HDC): the share of requests that
//! completed as errors, and the dirty blocks lost to power loss and
//! failed flushes.
//!
//! `selftest-panic` is never part of `repro all`: its middle job
//! panics by design so CI (and suspicious operators) can verify end
//! to end that a crashing job yields a manifest failure record and a
//! non-zero exit while sibling jobs complete.

use forhdc_core::{FaultConfig, OfflineWindow, RetryPolicy, SeededFaults, System, SystemConfig};
use forhdc_runner::{point_seed, JobOutput, JobSpec, SimJob};
use forhdc_sim::SimDuration;
use forhdc_workload::SyntheticWorkload;

use crate::plan::{run_system, shared, NamedConfig, PlannedExperiment, SharedWorkload};
use crate::table::{f3, Table};
use crate::RunOptions;

const FILES: usize = 20_000;
const HDC: u64 = 2 * 1024 * 1024;

/// Swept per-block media bad-sector probability (also used as the
/// per-transfer bus-error probability). Row 0 is the clean baseline.
const RATES: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];
const RATE_LABELS: [&str; 5] = ["0", "1e-5", "1e-4", "1e-3", "1e-2"];

/// HDC flush cadence: short enough that a power loss only loses the
/// blocks dirtied since the last tick, long enough to leave dirty
/// windows for the power-loss path to bite on.
fn with_hdc_cfg(base: SystemConfig) -> SystemConfig {
    base.with_hdc(HDC)
        .with_hdc_flush_period(SimDuration::from_millis(100))
}

const CONFIGS: [NamedConfig; 6] = [
    ("segm", SystemConfig::segm),
    ("segm_hdc", || with_hdc_cfg(SystemConfig::segm())),
    ("block", SystemConfig::block),
    ("block_hdc", || with_hdc_cfg(SystemConfig::block())),
    ("for", SystemConfig::for_),
    ("for_hdc", || with_hdc_cfg(SystemConfig::for_())),
];

/// The fault schedule for one sweep row. Faulted rows add a fixed
/// 200 ms disk-1 outage and a 500 ms controller power-loss period on
/// top of the swept media/bus rates, so every degraded-mode path
/// (retry, RA abort, offline stall, lost dirty blocks) is exercised
/// at every non-zero rate.
fn schedule(row: usize, rate: f64) -> FaultConfig {
    let mut cfg = FaultConfig::new(point_seed("fig-faults/schedule", row))
        .with_media_rates(rate, rate)
        .with_bus_rate(rate);
    if rate > 0.0 {
        cfg = cfg
            .with_offline(OfflineWindow {
                disk: 1,
                start_ns: 1_000_000_000,
                end_ns: 1_200_000_000,
            })
            .with_power_loss_period_ns(500_000_000);
    }
    cfg
}

/// Retry/backoff defaults plus a 10 s request timeout, so even a
/// pathological schedule cannot wedge a run.
fn recovery() -> RetryPolicy {
    RetryPolicy {
        deadline_ns: Some(10_000_000_000),
        ..RetryPolicy::default()
    }
}

/// The degraded-mode extraction: I/O time plus the fault tallies.
fn fault_metrics(r: &forhdc_core::Report) -> JobOutput {
    JobOutput::new()
        .metric("io_ns", r.io_time.as_nanos() as f64)
        .metric("requests", r.requests as f64)
        .metric("failed_requests", r.faults.failed_requests as f64)
        .metric("timeouts", r.faults.timeouts as f64)
        .metric("retries", r.faults.retries as f64)
        .metric(
            "media_errors",
            (r.faults.media_read_errors + r.faults.media_write_errors) as f64,
        )
        .metric("bus_errors", r.faults.bus_errors as f64)
        .metric("ra_aborts", r.faults.ra_aborts as f64)
        .metric("lost_dirty", r.faults.lost_dirty_blocks as f64)
        .metric("flush_failures", r.faults.flush_failures as f64)
}

/// A job running one system under one seeded fault schedule. Media
/// faults are a pure function of the schedule seed and bus faults a
/// per-system seeded stream, so the job stays a pure function of its
/// spec and parallel runs reassemble byte-identically. `check` runs it
/// under the invariant auditor (`repro --check`).
fn fault_job(
    spec: JobSpec,
    wl: &SharedWorkload,
    cfg: impl Fn() -> SystemConfig + Send + Sync + 'static,
    fault_cfg: FaultConfig,
    check: bool,
) -> SimJob {
    let wl = wl.clone();
    SimJob::new(spec, move || {
        let sys_cfg = cfg().with_recovery(recovery());
        let faults = SeededFaults::new(fault_cfg.clone());
        let sys = System::builder(sys_cfg, wl.get()).faults(faults);
        fault_metrics(&run_system(sys, check).0)
    })
}

/// `fig-faults`: normalized I/O time as a function of the injected
/// fault rate, write-heavy workload (30% writes, Zipf α = 0.4,
/// HDC 2 MB where enabled).
pub fn plan_faults(opts: RunOptions) -> PlannedExperiment {
    let mut jobs = Vec::new();
    for (row, &rate) in RATES.iter().enumerate() {
        let seed = point_seed("fig-faults", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(FILES)
                .file_blocks(4)
                .streams(128)
                .write_fraction(0.3)
                .zipf_alpha(0.4)
                .seed(seed)
                .build()
        });
        let fault_cfg = schedule(row, rate);
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new(
                "fig-faults",
                jobs.len(),
                format!("rate={} {name}", RATE_LABELS[row]),
            );
            jobs.push(fault_job(spec, &wl, cfg, fault_cfg.clone(), opts.check));
        }
    }
    PlannedExperiment {
        id: "fig-faults",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig-faults",
                "Degraded-mode I/O time vs injected fault rate (each config normalized to its own fault-free run)",
                &[
                    "rate",
                    "segm",
                    "segm_hdc",
                    "block",
                    "block_hdc",
                    "for",
                    "for_hdc",
                    "failed_%",
                    "lost_dirty",
                ],
            );
            let n = CONFIGS.len();
            let base = &out[0..n];
            for (row, label) in RATE_LABELS.iter().enumerate() {
                let o = &out[row * n..(row + 1) * n];
                let mut cells = vec![label.to_string()];
                for c in 0..n {
                    cells.push(f3(o[c].get("io_ns") / base[c].get("io_ns")));
                }
                let full = &o[n - 1]; // for_hdc: the paper's full system
                cells.push(format!(
                    "{:.2}",
                    100.0 * full.get("failed_requests") / full.get("requests")
                ));
                cells.push(format!("{}", full.get("lost_dirty") as u64));
                t.push_row(cells);
            }
            t.note("faulted rows add a 200 ms disk-1 outage and a 500 ms power-loss period on top of the swept media/bus rate; failed_% and lost_dirty are for for_hdc");
            t
        }),
    }
}

/// The hidden crash-safety selftest: three trivial jobs, the middle
/// one panics deliberately. Runnable only by explicit id.
pub fn plan_selftest_panic() -> PlannedExperiment {
    let jobs = (0..3)
        .map(|i| {
            let spec = JobSpec::new("selftest-panic", i, format!("p{i}"));
            SimJob::new(spec, move || {
                assert!(i != 1, "selftest: job 1 panics by design");
                JobOutput::new().metric("ok", 1.0)
            })
        })
        .collect();
    PlannedExperiment {
        id: "selftest-panic",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "selftest-panic",
                "Runner crash-safety selftest (job 1 panics by design)",
                &["point", "status"],
            );
            for (i, o) in out.iter().enumerate() {
                let status = if o.try_get("ok").is_some() {
                    "ok"
                } else {
                    "failed"
                };
                t.push_row(vec![i.to_string(), status.to_string()]);
            }
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
    fn fig_faults_row0_is_clean_and_faults_bite_at_the_top_rate() {
        // Enough requests that the accessed footprint exceeds the HDC
        // capacity; with everything pinned, HDC configs would serve
        // every access from the controller and no media fault could
        // ever fire.
        let t = plan_faults(RunOptions {
            scale: 0.02,
            synthetic_requests: 4_000,
            ..RunOptions::default()
        })
        .run_serial();
        // Row 0 is each configuration's own baseline.
        for c in 1..=CONFIGS.len() {
            assert_eq!(t.rows[0][c], "1.000", "column {c}");
        }
        let failed: Vec<f64> = t.rows.iter().map(|r| r[7].parse().unwrap()).collect();
        assert_eq!(failed[0], 0.0, "no failures without faults");
        assert!(
            failed.last().unwrap() > &0.0,
            "1% media errors must fail some requests: {failed:?}"
        );
        let lost: Vec<u64> = t.rows.iter().map(|r| r[8].parse().unwrap()).collect();
        assert_eq!(lost[0], 0, "no lost writes without faults");
        assert!(
            *lost.last().unwrap() > 0,
            "power loss must lose some dirty blocks: {lost:?}"
        );
    }

    #[test]
    fn fig_faults_parallel_matches_serial_byte_for_byte() {
        let serial = plan_faults(quick()).run_serial();
        let runner = Runner::new(4).quiet(true);
        let (parallel, stats) = plan_faults(quick()).run_with(&runner);
        assert!(stats.failures.is_empty());
        assert_eq!(serial.to_csv(), parallel.expect("table").to_csv());
    }

    #[test]
    fn selftest_panic_records_exactly_the_planted_failure() {
        let plan = plan_selftest_panic();
        let runner = Runner::new(2).quiet(true);
        let (table, stats) = plan.run_with(&runner);
        assert!(table.is_none(), "a failed experiment assembles no table");
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].point, 1);
        assert!(stats.failures[0].error.contains("panics by design"));
    }
}
