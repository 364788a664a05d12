//! # forhdc-bench
//!
//! The reproduction harness: one runner per table and figure of the
//! paper's evaluation (§6), shared between the `repro` and `perf`
//! binaries.
//!
//! Every experiment is a [`PlannedExperiment`]: independent jobs plus
//! an assembly into a [`Table`] whose rows mirror the series the paper
//! plots; the binary prints it and writes a CSV next to it.
//! [`experiments::plan`] maps each id to its plan.
//!
//! | Experiment | Paper artifact |
//! |---|---|
//! | [`experiments::micro::plan_table1`] | Table 1 (simulation parameters) |
//! | [`experiments::micro::plan_fig1`] | Fig. 1 (sequential read vs fragmentation) |
//! | [`experiments::servers::plan_fig2`] | Fig. 2 (block access distribution) |
//! | [`experiments::synthetic::plan_fig3`] | Fig. 3 (I/O time vs file size) |
//! | [`experiments::synthetic::plan_fig4`] | Fig. 4 (I/O time vs streams) |
//! | [`experiments::synthetic::plan_fig5`] | Fig. 5 (I/O time vs Zipf α) |
//! | [`experiments::synthetic::plan_fig6`] | Fig. 6 (I/O time vs write %) |
//! | [`experiments::servers::plan_striping_sweep`] | Figs. 7 / 9 / 11 |
//! | [`experiments::servers::plan_hdc_sweep`] | Figs. 8 / 10 / 12 |
//! | [`experiments::servers::plan_table2`] | Table 2 (best-unit improvements) |
//! | [`experiments::micro::plan_model_check`] | analytic-vs-simulated cross-check |
//! | [`experiments::ablations`] | ten design-choice ablations (DESIGN.md §8) |

pub mod experiments;
pub mod fuzz;
pub mod plan;
pub mod table;

pub mod tracefs;

pub use plan::PlannedExperiment;
pub use table::Table;

/// Where and how a traced run writes its request-lifecycle events.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Root output directory; each job writes
    /// `<dir>/<experiment>/p<point:04>.jsonl`.
    pub dir: &'static str,
    /// Sampler cadence in simulated time.
    pub sample: forhdc_sim::SimDuration,
}

/// How a sweep job wraps its simulation: optional tracing, optional
/// checked mode (`repro --check` runs every point under
/// [`forhdc_core::FullAudit`]; reports stay byte-identical).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobMode {
    /// Request-lifecycle tracing destination, when on.
    pub trace: Option<TraceSpec>,
    /// Run under the invariant auditor (panics on violation).
    pub check: bool,
}

/// Global run options shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Request-count scale for the server workload clones (1.0 = the
    /// calibrated default; smaller = faster, coarser).
    pub scale: f64,
    /// Request count for the synthetic workloads (paper: 10 000).
    pub synthetic_requests: usize,
    /// Trace output root (`repro --trace DIR`). `'static` so
    /// [`RunOptions`] stays `Copy`; the binary leaks its one CLI
    /// argument.
    pub trace_dir: Option<&'static str>,
    /// Sampler cadence in simulated milliseconds (default 100).
    pub trace_sample_ms: u64,
    /// Run every simulation point under [`forhdc_core::FullAudit`]
    /// (`repro --check`). Invariant violations panic the job; the
    /// crash-safe runner records them in the manifest.
    pub check: bool,
}

impl RunOptions {
    /// The trace destination and cadence, when tracing is on.
    pub fn trace(&self) -> Option<TraceSpec> {
        self.trace_dir.map(|dir| TraceSpec {
            dir,
            sample: forhdc_sim::SimDuration::from_millis(self.trace_sample_ms),
        })
    }

    /// The per-job simulation mode (tracing + checking) for
    /// [`plan::sim_job`].
    pub fn mode(&self) -> JobMode {
        JobMode {
            trace: self.trace(),
            check: self.check,
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 1.0,
            synthetic_requests: 10_000,
            trace_dir: None,
            trace_sample_ms: 100,
            check: false,
        }
    }
}
