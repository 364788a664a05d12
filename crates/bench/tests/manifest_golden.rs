//! Golden-file coverage for the run manifest: the JSON document
//! (including the trace digest added for traced runs) and the
//! `--timings` table are compared byte for byte against committed
//! expectations, so any accidental format drift shows up as a diff.
//!
//! Regenerate the goldens after an intentional format change with
//! `BLESS=1 cargo test -p forhdc-bench --test manifest_golden`.

use std::path::PathBuf;
use std::time::Duration;

use forhdc_runner::{
    ExperimentStats, JobFailure, PhaseTimings, RunManifest, TracePhase, TraceSummary,
};

/// A manifest with every entry shape: a traced sweep with a phase
/// breakdown, untraced sweeps, and a sweep with a recorded job
/// failure.
fn build_manifest() -> RunManifest {
    let mut m = RunManifest::new(3);
    m.record(&ExperimentStats {
        id: "fig3".to_string(),
        jobs: 44,
        wall: Duration::from_millis(2_500),
        failures: Vec::new(),
    });
    m.record(&ExperimentStats {
        id: "fig7".to_string(),
        jobs: 32,
        wall: Duration::from_millis(40),
        failures: Vec::new(),
    });
    m.record(&ExperimentStats {
        id: "table1".to_string(),
        jobs: 1,
        wall: Duration::from_millis(100),
        failures: Vec::new(),
    });
    m.record(&ExperimentStats {
        id: "selftest-panic".to_string(),
        jobs: 3,
        wall: Duration::from_millis(5),
        failures: vec![JobFailure {
            point: 1,
            label: "p1".to_string(),
            error: "selftest: job 1 panics by design".to_string(),
        }],
    });
    m.attach_phases(
        "fig3",
        PhaseTimings {
            plan: Duration::from_millis(200),
            sim: Duration::from_millis(2_100),
            emit: Duration::from_millis(200),
        },
    );
    m.attach_trace(
        "fig3",
        TraceSummary {
            files: 44,
            events: 123_456,
            requests: 11_000,
            phases: vec![
                TracePhase {
                    name: "ctrl_queue".to_string(),
                    count: 9_000,
                    p50_ns: 1_024,
                    p95_ns: 8_192,
                    p99_ns: 16_384,
                    max_ns: 20_000,
                },
                TracePhase {
                    name: "response".to_string(),
                    count: 11_000,
                    p50_ns: 2_048,
                    p95_ns: 16_384,
                    p99_ns: 32_768,
                    max_ns: 50_000,
                },
            ],
        },
    );
    m
}

/// Zeroes the two wall-clock-dependent top-level fields; everything
/// else in the document is deterministic.
fn normalize(json: &str) -> String {
    json.lines()
        .map(|line| {
            if line.starts_with("  \"started_unix\": ") {
                "  \"started_unix\": 0,"
            } else if line.starts_with("  \"wall_secs\": ") {
                "  \"wall_secs\": 0.000,"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; bless intentional changes with BLESS=1"
    );
}

#[test]
fn manifest_json_matches_golden() {
    check_golden("manifest.json", &normalize(&build_manifest().to_json()));
}

#[test]
fn timings_table_matches_golden() {
    check_golden("timings.txt", &build_manifest().timings_table());
}
