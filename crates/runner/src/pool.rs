//! Job execution: worker pool, deterministic reassembly, progress.
//!
//! Workers pull job indices from a shared atomic cursor and write
//! outputs into per-index slots, so completion order never influences
//! the assembled result — outputs always come back in point order.
//! Each job runs single-threaded inside, preserving the simulator's
//! determinism contract; parallelism exists only **between** jobs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::job::{JobOutput, SimJob};

/// One job that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Point index of the job within its experiment.
    pub point: usize,
    /// The job's label.
    pub label: String,
    /// The panic message.
    pub error: String,
}

/// Per-experiment execution statistics (also the manifest's rows).
#[derive(Debug, Clone)]
pub struct ExperimentStats {
    /// Experiment id.
    pub id: String,
    /// Total jobs in the experiment.
    pub jobs: usize,
    /// Wall-clock time for the whole experiment.
    pub wall: Duration,
    /// Jobs that panicked, in point order. Their output slots hold
    /// empty [`JobOutput`]s so sibling points stay aligned.
    pub failures: Vec<JobFailure>,
}

/// The outputs (in point order) and stats of one executed experiment.
#[derive(Debug)]
pub struct ExperimentRun {
    /// One output per job, in the order the jobs were given.
    pub outputs: Vec<JobOutput>,
    /// Execution statistics.
    pub stats: ExperimentStats,
}

/// The orchestrator: a worker-count knob and progress reporting.
#[derive(Debug)]
pub struct Runner {
    workers: usize,
    quiet: bool,
}

impl Runner {
    /// A runner with `workers` parallel workers (clamped to ≥ 1) and
    /// progress lines on.
    pub fn new(workers: usize) -> Self {
        Runner {
            workers: workers.max(1),
            quiet: false,
        }
    }

    /// Suppresses per-job progress lines (stats are still returned).
    #[must_use]
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Runs every job of `id` on the pool, returning outputs in point
    /// order. Output is **independent of the worker count**: identical
    /// jobs yield identical outputs in identical order.
    ///
    /// A panicking job closure does **not** bring the run down: the
    /// panic is caught and recorded in [`ExperimentStats::failures`]
    /// with an empty output in its slot, while every sibling job
    /// completes normally. A job is a pure function of its spec, so it
    /// is never re-run: a retry could only repeat the same panic.
    pub fn execute(&self, id: &str, jobs: &[SimJob]) -> ExperimentRun {
        let started = Instant::now();
        let total = jobs.len();
        let slots: Vec<OnceLock<JobOutput>> = (0..total).map(|_| OnceLock::new()).collect();
        let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
        let done = AtomicUsize::new(0);
        let run_one = |i: usize| {
            let job = &jobs[i];
            let t0 = Instant::now();
            let out = match catch_unwind(AssertUnwindSafe(|| (job.run)())) {
                Ok(out) => out,
                Err(payload) => {
                    let error = panic_message(payload);
                    if !self.quiet {
                        eprintln!("  [{id}] FAILED {}: {error}", job.spec.label);
                    }
                    // Keep the slot aligned; the failure record is the
                    // source of truth.
                    failures
                        .lock()
                        .expect("failure list poisoned")
                        .push(JobFailure {
                            point: i,
                            label: job.spec.label.clone(),
                            error,
                        });
                    JobOutput::new()
                }
            };
            slots[i].set(out).expect("job slot filled twice");
            let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
            if !self.quiet {
                eprintln!(
                    "  [{id} {finished}/{total}] {}  {:.2}s",
                    job.spec.label,
                    t0.elapsed().as_secs_f64()
                );
            }
        };
        let workers = self.workers.min(total);
        if workers <= 1 {
            (0..total).for_each(run_one);
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        if i >= total {
                            break;
                        }
                        run_one(i);
                    });
                }
            });
        }

        let mut failures = failures.into_inner().expect("failure list poisoned");
        failures.sort_by_key(|f| f.point);
        let outputs: Vec<JobOutput> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job produced an output"))
            .collect();
        ExperimentRun {
            outputs,
            stats: ExperimentStats {
                id: id.to_string(),
                jobs: total,
                wall: started.elapsed(),
                failures,
            },
        }
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted message covers essentially all cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn square_jobs(n: usize) -> Vec<SimJob> {
        (0..n)
            .map(|i| {
                let spec = JobSpec::new("squares", i, format!("p{i}"));
                SimJob::new(spec, move || JobOutput::new().metric("sq", (i * i) as f64))
            })
            .collect()
    }

    #[test]
    fn outputs_come_back_in_point_order_regardless_of_workers() {
        let jobs = square_jobs(17);
        let serial = Runner::new(1).quiet(true).execute("squares", &jobs);
        let parallel = Runner::new(8).quiet(true).execute("squares", &jobs);
        assert_eq!(serial.outputs, parallel.outputs);
        for (i, out) in parallel.outputs.iter().enumerate() {
            assert_eq!(out.get("sq"), (i * i) as f64);
        }
        assert_eq!(parallel.stats.jobs, 17);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let run = Runner::new(4).quiet(true).execute("empty", &[]);
        assert!(run.outputs.is_empty());
        assert_eq!(run.stats.jobs, 0);
    }

    /// n jobs where the middle one always panics.
    fn jobs_with_panicker(n: usize, bad: usize) -> Vec<SimJob> {
        (0..n)
            .map(|i| {
                let spec = JobSpec::new("panicky", i, format!("p{i}"));
                SimJob::new(spec, move || {
                    assert!(i != bad, "job {i} exploded deliberately");
                    JobOutput::new().metric("v", i as f64)
                })
            })
            .collect()
    }

    #[test]
    fn panicking_job_is_recorded_while_siblings_complete() {
        let jobs = jobs_with_panicker(5, 2);
        for workers in [1, 4] {
            let run = Runner::new(workers).quiet(true).execute("panicky", &jobs);
            assert_eq!(run.outputs.len(), 5);
            assert_eq!(run.stats.failures.len(), 1);
            let f = &run.stats.failures[0];
            assert_eq!(f.point, 2);
            assert_eq!(f.label, "p2");
            assert!(
                f.error.contains("exploded deliberately"),
                "got: {}",
                f.error
            );
            // Siblings carry real outputs; the failed slot is empty.
            for (i, out) in run.outputs.iter().enumerate() {
                if i == 2 {
                    assert!(out.iter().next().is_none());
                } else {
                    assert_eq!(out.get("v"), i as f64);
                }
            }
        }
    }
}
