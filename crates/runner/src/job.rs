//! The job model: one [`SimJob`] per independent simulation point.
//!
//! A job is a [`JobSpec`] (where the point sits in its experiment,
//! and its progress label) plus a closure producing a [`JobOutput`] —
//! a flat list of named `f64` metrics extracted from the simulation's
//! `Report`. Assembly turns the outputs, in point order, into a table.

/// Where one simulation point sits in its experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Owning experiment id, e.g. `fig7`.
    pub experiment: String,
    /// Point index in the experiment's deterministic order.
    pub point: usize,
    /// Human-readable label for progress lines, e.g. `unit=64 for_hdc`.
    pub label: String,
}

impl JobSpec {
    /// A spec for `point` of `experiment`.
    pub fn new(experiment: impl Into<String>, point: usize, label: impl Into<String>) -> Self {
        JobSpec {
            experiment: experiment.into(),
            point,
            label: label.into(),
        }
    }
}

/// Named numeric results of one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobOutput {
    metrics: Vec<(String, f64)>,
}

impl JobOutput {
    /// An empty output.
    pub fn new() -> Self {
        JobOutput::default()
    }

    /// Appends one metric.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate metric name (each job's metrics must be
    /// unambiguous for table assembly).
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.try_get(&name).is_none(),
            "duplicate metric '{name}' in job output"
        );
        self.metrics.push((name, value));
    }

    /// Builder-style [`JobOutput::push`].
    #[must_use]
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.push(name, value);
        self
    }

    /// The metric named `name`.
    ///
    /// # Panics
    ///
    /// Panics when absent — a mismatch between a job's producer and
    /// the experiment's assembly is a programming error.
    pub fn get(&self, name: &str) -> f64 {
        self.try_get(name).unwrap_or_else(|| {
            panic!(
                "job output has no metric '{name}' (have: {:?})",
                self.names()
            )
        })
    }

    /// The metric named `name`, if present.
    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Metric names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|&(ref n, v)| (n.as_str(), v))
    }
}

/// One schedulable unit: a spec plus the closure that computes it.
///
/// The closure must be a **pure function of the spec**: same spec,
/// same output, regardless of worker, ordering, or repetition. The
/// runner relies on this for byte-identical parallel reassembly.
pub struct SimJob {
    /// The job's place in its experiment.
    pub spec: JobSpec,
    /// Computes the job (single-threaded inside).
    pub run: Box<dyn Fn() -> JobOutput + Send + Sync>,
}

impl SimJob {
    /// Wraps a closure with its spec.
    pub fn new(spec: JobSpec, run: impl Fn() -> JobOutput + Send + Sync + 'static) -> Self {
        SimJob {
            spec,
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for SimJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimJob")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_round_trip_and_lookup() {
        let out = JobOutput::new()
            .metric("io_ns", 1.5e9)
            .metric("hit_rate", 0.25);
        assert_eq!(out.get("io_ns"), 1.5e9);
        assert_eq!(out.try_get("missing"), None);
        assert_eq!(out.names(), vec!["io_ns", "hit_rate"]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_panics() {
        let mut out = JobOutput::new();
        out.push("x", 1.0);
        out.push("x", 2.0);
    }

    #[test]
    #[should_panic(expected = "no metric")]
    fn missing_metric_panics() {
        JobOutput::new().get("nope");
    }
}
