//! Machine-readable run manifest (`results/manifest.json`).
//!
//! Records what a `repro` invocation did: worker count and
//! per-experiment wall-clock / job-count / failure statistics. Hand-rolled JSON writer — the workspace builds fully
//! offline, so no serde.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::pool::{ExperimentStats, JobFailure};

/// Percentile summary of one traced latency phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePhase {
    /// Phase name (e.g. `seek`, `response`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
}

/// Per-experiment trace digest folded into the manifest when the run
/// was traced (`repro --trace`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace files (one per curve point) summarized.
    pub files: usize,
    /// Total events across the files.
    pub events: u64,
    /// Completed host requests observed.
    pub requests: u64,
    /// Non-empty phase histograms.
    pub phases: Vec<TracePhase>,
}

/// Wall-clock breakdown of one experiment into its pipeline phases,
/// so hot-loop wins (which land in `sim`) stay visible next to the
/// fixed planning and emission costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Planning: decomposing the experiment into jobs (workload
    /// builders are lazy, so this is normally milliseconds).
    pub plan: Duration,
    /// Simulation: running the jobs (the phase the event engine and
    /// hot-loop work actually speed up).
    pub sim: Duration,
    /// Emission: assembling and printing the table and writing CSVs.
    pub emit: Duration,
}

/// One experiment's row in the manifest.
#[derive(Debug, Clone)]
struct ManifestEntry {
    /// Experiment id.
    id: String,
    /// Total jobs.
    jobs: usize,
    /// Wall-clock time for the experiment.
    wall: Duration,
    /// Per-phase wall-clock breakdown, when the caller measured one.
    phases: Option<PhaseTimings>,
    /// Trace digest, present only for traced runs.
    trace: Option<TraceSummary>,
    /// Jobs that panicked (empty for a clean run).
    failures: Vec<JobFailure>,
}

/// Accumulates per-experiment stats and renders them as JSON.
#[derive(Debug)]
pub struct RunManifest {
    jobs: usize,
    started_unix: u64,
    started: Instant,
    entries: Vec<ManifestEntry>,
}

impl RunManifest {
    /// Starts a manifest for a run with `jobs` workers.
    pub fn new(jobs: usize) -> Self {
        RunManifest {
            jobs,
            started_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            started: Instant::now(),
            entries: Vec::new(),
        }
    }

    /// Appends one experiment's statistics.
    pub fn record(&mut self, stats: &ExperimentStats) {
        self.entries.push(ManifestEntry {
            id: stats.id.clone(),
            jobs: stats.jobs,
            wall: stats.wall,
            phases: None,
            trace: None,
            failures: stats.failures.clone(),
        });
    }

    /// Attaches a per-phase timing breakdown to the recorded
    /// experiment `id`. Returns whether the entry existed.
    pub fn attach_phases(&mut self, id: &str, phases: PhaseTimings) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.phases = Some(phases);
                true
            }
            None => false,
        }
    }

    /// Attaches a trace digest to the recorded experiment `id`.
    /// Returns whether the entry existed.
    pub fn attach_trace(&mut self, id: &str, summary: TraceSummary) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.trace = Some(summary);
                true
            }
            None => false,
        }
    }

    /// Renders the manifest as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 4,\n");
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"started_unix\": {},\n", self.started_unix));
        s.push_str(&format!(
            "  \"wall_secs\": {:.3},\n",
            self.started.elapsed().as_secs_f64()
        ));
        s.push_str("  \"experiments\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"jobs\": {}, \"wall_secs\": {:.3}",
                escape(&e.id),
                e.jobs,
                e.wall.as_secs_f64()
            ));
            if !e.failures.is_empty() {
                s.push_str(", \"failures\": [");
                for (j, f) in e.failures.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"point\": {}, \"label\": \"{}\", \"error\": \"{}\"}}",
                        f.point,
                        escape(&f.label),
                        escape(&f.error)
                    ));
                }
                s.push(']');
            }
            if let Some(ph) = &e.phases {
                s.push_str(&format!(
                    ", \"phases\": {{\"plan_secs\": {:.3}, \"sim_secs\": {:.3}, \"emit_secs\": {:.3}}}",
                    ph.plan.as_secs_f64(),
                    ph.sim.as_secs_f64(),
                    ph.emit.as_secs_f64()
                ));
            }
            if let Some(trace) = &e.trace {
                s.push_str(&format!(
                    ", \"trace\": {{\"files\": {}, \"events\": {}, \"requests\": {}, \"phases\": [",
                    trace.files, trace.events, trace.requests
                ));
                for (j, p) in trace.phases.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"phase\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                        escape(&p.name),
                        p.count,
                        p.p50_ns,
                        p.p95_ns,
                        p.p99_ns,
                        p.max_ns
                    ));
                }
                s.push_str("]}");
            }
            s.push('}');
        }
        if !self.entries.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Renders a fixed-width per-experiment timing summary (the
    /// `repro --timings` table): jobs, wall time, and —
    /// when measured — the plan/sim/emit phase breakdown, per
    /// experiment with a closing total.
    pub fn timings_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<24} {:>7} {:>9} {:>8} {:>8} {:>8}\n",
            "experiment", "jobs", "wall", "plan", "sim", "emit"
        ));
        let mut total = Duration::ZERO;
        for e in &self.entries {
            total += e.wall;
            let phases = match &e.phases {
                Some(p) => format!(
                    "{:>7.1}s {:>7.1}s {:>7.1}s",
                    p.plan.as_secs_f64(),
                    p.sim.as_secs_f64(),
                    p.emit.as_secs_f64()
                ),
                None => format!("{:>8} {:>8} {:>8}", "-", "-", "-"),
            };
            s.push_str(&format!(
                "{:<24} {:>7} {:>8.1}s {phases}\n",
                e.id,
                e.jobs,
                e.wall.as_secs_f64()
            ));
        }
        s.push_str(&format!(
            "{:<24} {:>7} {:>8.1}s\n",
            "total",
            "",
            total.as_secs_f64()
        ));
        s
    }

    /// Writes the manifest to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(id: &str, jobs: usize) -> ExperimentStats {
        ExperimentStats {
            id: id.to_string(),
            jobs,
            wall: Duration::from_millis(1500),
            failures: Vec::new(),
        }
    }

    #[test]
    fn json_shape() {
        let mut m = RunManifest::new(4);
        m.record(&stats("fig3", 32));
        m.record(&stats("fig7", 40));
        let json = m.to_json();
        assert!(json.contains("\"version\": 4"), "{json}");
        assert!(json.contains("\"jobs\": 4"), "{json}");
        assert!(
            json.contains("{\"id\": \"fig3\", \"jobs\": 32, \"wall_secs\": 1.500}"),
            "{json}"
        );
        assert!(json.contains("\"id\": \"fig7\""), "{json}");
        assert_eq!(json.matches("\"id\": ").count(), 2, "{json}");
    }

    #[test]
    fn timings_table_shape() {
        let mut m = RunManifest::new(4);
        m.record(&stats("fig3", 32));
        m.record(&stats("table1", 1));
        let t = m.timings_table();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4, "{t}");
        assert!(lines[0].starts_with("experiment"), "{t}");
        assert!(lines[1].contains("fig3") && lines[1].contains("32"), "{t}");
        assert!(lines[2].contains("table1") && lines[2].contains('1'), "{t}");
        assert!(
            lines[3].contains("total") && lines[3].contains("3.0s"),
            "{t}"
        );
        // No phases attached: the breakdown columns show dashes.
        assert!(
            lines[0].contains("plan") && lines[0].contains("emit"),
            "{t}"
        );
        assert!(lines[1].matches('-').count() >= 3, "{t}");
    }

    #[test]
    fn attach_phases_fills_breakdown_columns() {
        let mut m = RunManifest::new(4);
        m.record(&stats("fig3", 32));
        assert!(!m.attach_phases("nope", PhaseTimings::default()));
        assert!(m.attach_phases(
            "fig3",
            PhaseTimings {
                plan: Duration::from_millis(200),
                sim: Duration::from_millis(1200),
                emit: Duration::from_millis(100),
            }
        ));
        let t = m.timings_table();
        let row = t.lines().nth(1).unwrap();
        assert!(
            row.contains("0.2s") && row.contains("1.2s") && row.contains("0.1s"),
            "{t}"
        );
        let json = m.to_json();
        assert!(
            json.contains(
                "\"phases\": {\"plan_secs\": 0.200, \"sim_secs\": 1.200, \"emit_secs\": 0.100}"
            ),
            "{json}"
        );
    }

    #[test]
    fn attach_trace_folds_digest_into_entry_json() {
        let mut m = RunManifest::new(2);
        m.record(&stats("fig3", 8));
        assert!(!m.attach_trace("nope", TraceSummary::default()));
        let summary = TraceSummary {
            files: 8,
            events: 1234,
            requests: 400,
            phases: vec![TracePhase {
                name: "seek".to_string(),
                count: 300,
                p50_ns: 4_000_000,
                p95_ns: 9_000_000,
                p99_ns: 12_000_000,
                max_ns: 15_000_000,
            }],
        };
        assert!(m.attach_trace("fig3", summary.clone()));
        let json = m.to_json();
        assert!(
            json.contains(
                "\"trace\": {\"files\": 8, \"events\": 1234, \"requests\": 400, \"phases\": \
                 [{\"phase\": \"seek\", \"count\": 300, \"p50_ns\": 4000000, \"p95_ns\": 9000000, \
                 \"p99_ns\": 12000000, \"max_ns\": 15000000}]}"
            ),
            "{json}"
        );
    }

    #[test]
    fn failures_are_rendered_and_detected() {
        let mut m = RunManifest::new(2);
        let mut s = stats("fig-faults", 5);
        s.failures.push(JobFailure {
            point: 2,
            label: "rate=1e-3 for".to_string(),
            error: "boom \"quoted\"".to_string(),
        });
        m.record(&s);
        let json = m.to_json();
        assert!(
            json.contains(
                "\"failures\": [{\"point\": 2, \"label\": \"rate=1e-3 for\", \"error\": \"boom \\\"quoted\\\"\"}]"
            ),
            "{json}"
        );
        let mut clean = RunManifest::new(2);
        clean.record(&stats("fig3", 8));
        let json = clean.to_json();
        assert!(!json.contains("failures"), "{json}");
    }

    #[test]
    fn empty_manifest_and_no_cache() {
        let m = RunManifest::new(1);
        let json = m.to_json();
        assert!(!json.contains("cache"), "{json}");
        assert!(json.contains("\"experiments\": []"), "{json}");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
