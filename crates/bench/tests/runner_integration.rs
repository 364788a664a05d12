//! Cross-crate integration: forhdc-bench experiment plans executed by
//! the forhdc-runner pool must reproduce the serial output byte for
//! byte.

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
        let serial = experiments::plan(id, quick()).run_serial();
        let runner = Runner::new(4).quiet(true);
        let (parallel, stats) = experiments::plan(id, quick()).run_with(&runner);
        assert!(stats.jobs > 1, "{id} must decompose into multiple jobs");
        assert_eq!(
            serial.to_csv(),
            parallel.expect("no failures").to_csv(),
            "{id}: --jobs 4 output must be byte-identical to serial"
        );
    }
}

/// `repro` runs every experiment through its plan, so every id it
/// accepts, listed or hidden, must plan at least one job under the
/// id it was asked for.
#[test]
fn every_experiment_id_has_a_plan_with_jobs() {
    for &id in experiments::ALL.iter().chain(experiments::HIDDEN) {
        let plan = experiments::plan(id, quick());
        assert_eq!(plan.id, id);
        assert!(!plan.jobs.is_empty(), "{id} plans no jobs");
        for (point, job) in plan.jobs.iter().enumerate() {
            assert_eq!(job.spec.experiment, id, "{id} job {point}");
            assert_eq!(job.spec.point, point, "{id} job {point}");
        }
    }
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
            .args(["selftest-panic", "--jobs", "2"])
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
