//! Cross-crate integration: forhdc-bench experiment plans executed by
//! the forhdc-runner pool must reproduce the serial output byte for
//! byte, and the result cache must make re-runs free without changing
//! a byte either.

use std::path::PathBuf;

use forhdc_bench::{experiments, RunOptions};
use forhdc_runner::Runner;

fn quick() -> RunOptions {
    RunOptions {
        scale: 0.02,
        synthetic_requests: 300,
        ..RunOptions::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_bench_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One synthetic sweep (fig4) and one server sweep (fig8): a parallel
/// run with 4 workers must produce byte-identical CSV to the serial
/// path.
#[test]
fn parallel_tables_are_byte_identical_to_serial() {
    for id in ["fig4", "fig8"] {
        let serial = experiments::plan(id, quick())
            .expect("sweep has a plan")
            .run_serial();
        let runner = Runner::new(4).quiet(true);
        let (parallel, stats) = experiments::plan(id, quick())
            .expect("plan")
            .run_with(&runner);
        assert!(stats.jobs > 1, "{id} must decompose into multiple jobs");
        assert_eq!(
            serial.to_csv(),
            parallel.expect("no failures").to_csv(),
            "{id}: --jobs 4 output must be byte-identical to serial"
        );
    }
}

/// A second run over a warm cache must execute zero jobs and still
/// produce byte-identical output.
#[test]
fn cached_rerun_is_free_and_identical() {
    let dir = tmpdir("cache");
    let id = "fig4";

    let cold = Runner::new(4).quiet(true).cache_dir(&dir);
    let (first, first_stats) = experiments::plan(id, quick())
        .expect("plan")
        .run_with(&cold);
    let first = first.expect("no failures");
    assert_eq!(first_stats.cache_hits, 0, "cold cache must miss everywhere");

    let warm = Runner::new(4).quiet(true).cache_dir(&dir);
    let (second, second_stats) = experiments::plan(id, quick())
        .expect("plan")
        .run_with(&warm);
    let second = second.expect("no failures");
    assert_eq!(
        second_stats.cache_hits, second_stats.jobs,
        "warm cache must hit on every job"
    );
    assert_eq!(
        first.to_csv(),
        second.to_csv(),
        "cached output must be byte-identical"
    );

    // Different options must not hit the same entries.
    let other_opts = RunOptions {
        scale: 0.02,
        synthetic_requests: 301,
        ..RunOptions::default()
    };
    let third = Runner::new(1).quiet(true).cache_dir(&dir);
    let (_, third_stats) = experiments::plan(id, other_opts)
        .expect("plan")
        .run_with(&third);
    assert_eq!(
        third_stats.cache_hits, 0,
        "changed options must miss the cache"
    );
}

/// `experiments::run` (the serial entry point used by tests and the
/// legacy path) agrees with a planned parallel run for a planned id.
#[test]
fn run_and_plan_agree() {
    let id = "ablation-zones";
    let via_run = experiments::run(id, quick());
    let runner = Runner::new(3).quiet(true);
    let (via_plan, _) = experiments::plan(id, quick())
        .expect("plan")
        .run_with(&runner);
    assert_eq!(via_run.to_csv(), via_plan.expect("no failures").to_csv());
}

mod cli {
    use std::process::Command;

    fn repro() -> Command {
        Command::new(env!("CARGO_BIN_EXE_repro"))
    }

    /// `--list` prints exactly the known experiment ids, one per line,
    /// on stdout.
    #[test]
    fn list_prints_ids_to_stdout() {
        let out = repro().arg("--list").output().expect("spawn repro");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let ids: Vec<&str> = stdout.lines().collect();
        assert_eq!(ids, forhdc_bench::experiments::ALL);
    }

    /// `--list` into a reader that has already gone away (as in
    /// `repro --list | head`) is a clean exit, not a broken-pipe panic.
    #[test]
    fn list_into_a_closed_pipe_exits_cleanly() {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = repro()
            .arg("--list")
            .stdout(writer)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
        assert!(stderr.is_empty(), "{stderr}");
    }

    /// `-h`/`--help` succeed and print usage on stdout, not stderr.
    #[test]
    fn help_goes_to_stdout_and_succeeds() {
        for flag in ["-h", "--help"] {
            let out = repro().arg(flag).output().expect("spawn repro");
            assert!(out.status.success(), "{flag} must exit 0");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.contains("usage: repro"), "{flag}: usage on stdout");
            assert!(out.stderr.is_empty(), "{flag}: nothing on stderr");
        }
    }

    /// `--trace` pointing somewhere that cannot be created fails fast
    /// with one clean diagnostic and a non-zero exit, before any job
    /// runs (a traced run that cannot land its traces is useless).
    #[test]
    fn unwritable_trace_dir_fails_cleanly() {
        let file = std::env::temp_dir().join(format!("forhdc_cli_probe_{}", std::process::id()));
        std::fs::write(&file, b"a file, not a directory").unwrap();
        let out_dir = super::tmpdir("cli_trace_out");
        let out = repro()
            .args(["fig4", "--requests", "50"])
            .arg("--out")
            .arg(&out_dir)
            .arg("--trace")
            .arg(file.join("traces")) // parent is a file: uncreatable
            .output()
            .expect("spawn repro");
        assert!(!out.status.success(), "must exit non-zero");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error: trace directory"),
            "stderr: {stderr}"
        );
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    /// The hidden crash-safety selftest end to end: the planted panic
    /// becomes a manifest failure record, sibling jobs complete, no
    /// CSV is written for the broken experiment, and the process
    /// exits non-zero.
    #[test]
    fn selftest_panic_records_failure_and_exits_nonzero() {
        let out_dir = super::tmpdir("cli_selftest");
        let out = repro()
            .args(["selftest-panic", "--jobs", "2", "--no-cache"])
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("spawn repro");
        assert!(!out.status.success(), "must exit non-zero");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("1 job(s) failed"), "stderr: {stderr}");
        let manifest =
            std::fs::read_to_string(out_dir.join("manifest.json")).expect("manifest written");
        assert!(manifest.contains("\"failures\""), "{manifest}");
        assert!(manifest.contains("panics by design"), "{manifest}");
        assert!(
            !out_dir.join("selftest-panic.csv").exists(),
            "a failed experiment must not write a CSV"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    /// Unknown experiments and bad flags exit non-zero with the error
    /// on stderr.
    #[test]
    fn bad_input_fails_with_stderr_diagnostics() {
        let out = repro().arg("fig99").output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("unknown experiment"));

        let out = repro()
            .args(["fig4", "--jobs", "zero"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2));

        // Any other flag is rejected, not taken for an experiment id.
        let out = repro()
            .args(["fig3", "--shards", "4"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("unknown argument"));
    }
}
