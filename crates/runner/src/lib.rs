//! # forhdc-runner
//!
//! Experiment orchestration for the reproduction harness: decomposes
//! an experiment into independent [`SimJob`]s, executes them on a
//! worker pool, and reassembles outputs **in deterministic point
//! order**, so a parallel run's assembled tables are byte-identical to
//! a serial run's. Each job stays single-threaded inside, preserving
//! the simulator's determinism contract (DESIGN.md §6).
//!
//! On top of the pool sits an **observability layer**: live per-job
//! progress lines (stderr), per-experiment wall-clock / job-count /
//! failure stats ([`ExperimentStats`]), and a machine-readable run
//! manifest ([`RunManifest`], `results/manifest.json`).
//!
//! ```
//! use forhdc_runner::{JobOutput, JobSpec, Runner, SimJob};
//!
//! let jobs: Vec<SimJob> = (0..4)
//!     .map(|i| {
//!         let spec = JobSpec::new("demo", i, format!("point{i}"));
//!         SimJob::new(spec, move || {
//!             let mut out = JobOutput::new();
//!             out.push("square", (i * i) as f64);
//!             out
//!         })
//!     })
//!     .collect();
//! let run = Runner::new(2).quiet(true).execute("demo", &jobs);
//! assert_eq!(run.outputs[3].get("square"), 9.0);
//! ```

pub mod job;
pub mod lazy;
pub mod manifest;
pub mod pool;
pub mod seed;

pub use job::{JobOutput, JobSpec, SimJob};
pub use lazy::Lazy;
pub use manifest::{ManifestEntry, PhaseTimings, RunManifest, TracePhase, TraceSummary};
pub use pool::{ExperimentRun, ExperimentStats, JobFailure, Runner};
pub use seed::point_seed;
