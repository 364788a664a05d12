//! End-to-end tracing determinism: a traced run must not change the
//! experiment's results, and its trace files must be byte-identical
//! between a serial and a parallel run — the property the CI trace
//! smoke checks with `diff -r`.

use std::path::{Path, PathBuf};

use forhdc_bench::{experiments, tracefs, RunOptions};
use forhdc_runner::Runner;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_trace_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `RunOptions.trace_dir` is `&'static str` so the options stay
/// `Copy`; tests leak their two short-lived paths just like the
/// binary leaks its one CLI argument.
fn leak(p: &Path) -> &'static str {
    Box::leak(p.display().to_string().into_boxed_str())
}

fn quick(trace_dir: Option<&'static str>) -> RunOptions {
    RunOptions {
        scale: 0.02,
        synthetic_requests: 300,
        trace_dir,
        ..RunOptions::default()
    }
}

#[test]
fn traced_runs_match_untraced_and_are_deterministic_across_jobs() {
    let id = "fig3";
    let d1 = tmpdir("serial");
    let d2 = tmpdir("parallel");

    let untraced = experiments::plan(id, quick(None)).run_serial();
    let serial = experiments::plan(id, quick(Some(leak(&d1)))).run_serial();
    let runner = Runner::new(2).quiet(true);
    let (parallel, stats) = experiments::plan(id, quick(Some(leak(&d2)))).run_with(&runner);
    let parallel = parallel.expect("no failures");
    assert!(stats.jobs > 1, "{id} must decompose into multiple jobs");

    // Tracing must never perturb the simulation.
    assert_eq!(
        untraced.to_csv(),
        serial.to_csv(),
        "a traced run must produce the same table as an untraced one"
    );
    assert_eq!(serial.to_csv(), parallel.to_csv());

    // Every point file must be byte-identical between --jobs 1 and 2.
    let f1 = tracefs::point_files(&d1.join(id)).expect("serial trace dir");
    let f2 = tracefs::point_files(&d2.join(id)).expect("parallel trace dir");
    assert_eq!(f1.len(), stats.jobs, "one trace file per job");
    assert_eq!(f1.len(), f2.len());
    for (a, b) in f1.iter().zip(&f2) {
        assert_eq!(a.file_name(), b.file_name());
        let (ba, bb) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert!(!ba.is_empty(), "{} must not be empty", a.display());
        assert_eq!(
            ba,
            bb,
            "{} differs between serial and parallel",
            a.display()
        );
    }

    // The merged digest parses back and its percentiles are ordered.
    let summary = tracefs::summarize_dir(&d1.join(id)).expect("summarize");
    assert_eq!(summary.files, f1.len());
    assert!(summary.requests > 0);
    assert!(
        summary.phases.iter().any(|p| p.name == "response"),
        "every completed request records a response phase"
    );
    for p in &summary.phases {
        assert!(
            p.count > 0 && p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns && p.p99_ns <= p.max_ns,
            "unordered percentiles in {}: {p:?}",
            p.name
        );
    }

    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

mod cli {
    use std::process::Command;

    fn trace() -> Command {
        Command::new(env!("CARGO_BIN_EXE_trace"))
    }

    /// Every bad input is a clean diagnostic, never a panic: a missing
    /// directory operand and a malformed `--top` are usage errors
    /// (exit 2), a directory with no trace files is a runtime error
    /// (exit 1).
    #[test]
    fn bad_input_fails_cleanly() {
        let out = trace().output().expect("spawn trace");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("no trace directory given"));

        let out = trace()
            .args([".", "--top", "several"])
            .output()
            .expect("spawn trace");
        assert_eq!(out.status.code(), Some(2));

        let empty = super::tmpdir("cli_empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = trace().arg(&empty).output().expect("spawn trace");
        assert_eq!(out.status.code(), Some(1));
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("no .jsonl trace files"));
        let _ = std::fs::remove_dir_all(&empty);
    }
}
