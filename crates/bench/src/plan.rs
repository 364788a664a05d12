//! Job-graph planning: sweep experiments decomposed into independent
//! [`SimJob`]s plus a pure assembly step (DESIGN.md §6).
//!
//! The serial path ([`PlannedExperiment::run_serial`]) executes the
//! **same** job closures in point order and feeds the same assembly as
//! the parallel path ([`PlannedExperiment::run_with`]), so parallel
//! output is byte-identical to serial output by construction — there is
//! no second implementation to keep in sync.
//!
//! Jobs emit raw simulator quantities (nanoseconds, rates, counts) as
//! flat `f64` metrics; all formatting and normalization happens in the
//! assembly. Because `SimDuration::as_secs_f64` is literally
//! `as_nanos() as f64 / 1e9`, assembling from an `io_ns` metric
//! reproduces the legacy per-`Report` arithmetic bit for bit.

use std::sync::Arc;

use forhdc_core::{FaultModel, FullAudit, Report, System, SystemBuilder, SystemConfig};
use forhdc_runner::{ExperimentStats, JobOutput, JobSpec, Lazy, Runner, SimJob};
use forhdc_trace::{MemTracer, Tracer};
use forhdc_workload::Workload;

use crate::Table;

/// A workload built at most once and shared by the jobs that need it.
/// If every consumer hits the result cache it is never generated.
pub type SharedWorkload = Arc<Lazy<Workload>>;

/// Wraps a workload builder for sharing between jobs.
pub fn shared(build: impl FnOnce() -> Workload + Send + 'static) -> SharedWorkload {
    Arc::new(Lazy::new(build))
}

/// Pure assembly step: job outputs (in point order) → final table.
pub type AssembleFn = Box<dyn Fn(&[JobOutput]) -> Table + Send + Sync>;

/// A named system configuration in a sweep's series list.
pub type NamedConfig = (&'static str, fn() -> SystemConfig);

/// An experiment decomposed into independent jobs plus the assembly
/// that turns their outputs (in point order) into the final table.
pub struct PlannedExperiment {
    /// Experiment id (also the table id).
    pub id: &'static str,
    /// Independent simulation jobs, in deterministic point order.
    pub jobs: Vec<SimJob>,
    /// Pure assembly: outputs (aligned with `jobs`) → table.
    pub assemble: AssembleFn,
}

impl PlannedExperiment {
    /// Executes the jobs in order on the calling thread and assembles.
    pub fn run_serial(&self) -> Table {
        let outputs: Vec<JobOutput> = self.jobs.iter().map(|j| (j.run)()).collect();
        (self.assemble)(&outputs)
    }

    /// Executes the jobs on `runner` (parallel and/or cached) and
    /// assembles. The table is identical to [`Self::run_serial`]'s.
    ///
    /// When any job failed (panicked past its retry budget), there is
    /// nothing sound to assemble — a partial table would be silently
    /// wrong — so the table is `None` and the failure records are in
    /// the stats.
    pub fn run_with(&self, runner: &Runner) -> (Option<Table>, ExperimentStats) {
        let run = runner.execute(self.id, &self.jobs);
        let table = run
            .stats
            .failures
            .is_empty()
            .then(|| (self.assemble)(&run.outputs));
        (table, run.stats)
    }
}

impl std::fmt::Debug for PlannedExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedExperiment")
            .field("id", &self.id)
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

/// The standard extraction from a [`Report`] into flat job metrics.
///
/// Counts and durations are exact in `f64` at simulation scale
/// (all values ≪ 2^53), so the cache round-trips them bit-exactly.
pub fn report_metrics(r: &Report) -> JobOutput {
    JobOutput::new()
        .metric("io_ns", r.io_time.as_nanos() as f64)
        .metric("hdc_hit_rate", r.hdc_hit_rate())
        .metric("cache_hit_rate", r.cache.extent_hit_rate())
        .metric("mean_response_ns", r.mean_response.as_nanos() as f64)
        .metric("media_ops", r.disk.media_ops as f64)
        .metric("ra_blocks", r.disk.read_ahead_blocks as f64)
        .metric("hdc_flushed", r.hdc.flushed as f64)
}

/// A job that runs one `System` over a shared workload and extracts
/// the standard metrics. Covers nearly every sweep point; experiments
/// with bespoke outputs build their own [`SimJob`] directly.
///
/// With `mode.trace` set, the run carries a [`forhdc_trace::MemTracer`]
/// and writes its events to `<dir>/<experiment>/p<point:04>.jsonl`
/// before returning the same metrics. Each point owns its own file, so
/// parallel traced runs are byte-identical to serial ones by
/// construction.
///
/// With `mode.check` set, the run carries a [`FullAudit`] auditor that
/// panics on any invariant violation; the report (and hence the
/// metrics) is byte-identical to the unchecked run.
pub fn sim_job(
    spec: JobSpec,
    wl: &SharedWorkload,
    mode: crate::JobMode,
    cfg: impl Fn() -> SystemConfig + Send + Sync + 'static,
) -> SimJob {
    let wl = wl.clone();
    let check = mode.check;
    match mode.trace {
        None => SimJob::new(spec, move || {
            report_metrics(&run_system(System::builder(cfg(), wl.get()), check).0)
        }),
        Some(t) => {
            let path = crate::tracefs::point_path(t.dir, &spec.experiment, spec.point);
            SimJob::new(spec, move || {
                let sys_cfg = cfg().with_trace_sampling(t.sample);
                let sys = System::builder(sys_cfg, wl.get()).tracer(MemTracer::new());
                let (report, tracer) = run_system(sys, check);
                // A panic here is caught by the runner and recorded as
                // a job failure; the process and its siblings carry on.
                if let Err(e) = crate::tracefs::write_point(&path, &tracer.to_jsonl()) {
                    panic!("{e}");
                }
                report_metrics(&report)
            })
        }
    }
}

/// Builds and runs `sys`, under a [`FullAudit`] auditor when `check`
/// is set (`repro --check`). Every job that simulates goes through
/// here, so the flag reaches every point. The auditor only reads, so
/// the report and tracer are identical either way; a violation panics
/// the job.
pub fn run_system<T: Tracer, F: FaultModel>(
    sys: SystemBuilder<'_, T, F>,
    check: bool,
) -> (Report, T) {
    if check {
        sys.auditor(FullAudit::new()).build().run_traced()
    } else {
        sys.build().run_traced()
    }
}
