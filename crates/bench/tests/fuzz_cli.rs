//! CLI surface of the fuzz/replay subcommands and checked mode: bad
//! input must exit 2 with a usage diagnostic, a clean fuzz run must
//! exit 0, replay semantics must match the documented contract
//! (exit 0 = reproduced, 1 = passes now, 2 = unreadable), and
//! `--check` must not change a single output byte.

use std::path::PathBuf;
use std::process::Command;

use forhdc_bench::fuzz::FuzzCase;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_fuzz_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Bad fuzz arguments are usage errors: exit 2, diagnostic on stderr.
#[test]
fn fuzz_bad_arguments_exit_2() {
    for (args, needle) in [
        (vec!["fuzz", "--iters", "0"], "--iters must be positive"),
        (vec!["fuzz", "--iters", "many"], "--iters: invalid digit"),
        (vec!["fuzz", "--seed", "x"], "--seed: invalid digit"),
        (vec!["fuzz", "--out"], "--out needs a value"),
        (vec!["fuzz", "--bogus"], "unknown argument '--bogus'"),
    ] {
        let out = repro().args(&args).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

/// A short healthy fuzz run exits 0 and reports itself clean.
#[test]
fn short_fuzz_run_is_clean() {
    let dir = tmpdir("clean");
    let out = repro()
        .args(["fuzz", "--iters", "3", "--seed", "1", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("3 iteration(s) clean"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay argument errors: missing file operand and unreadable or
/// malformed reproducers all exit 2 without panicking.
#[test]
fn replay_bad_input_exits_2() {
    let out = repro().arg("replay").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("exactly one reproducer file"));

    let out = repro()
        .args(["replay", "/nonexistent/case.json"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("error:"));

    let dir = tmpdir("malformed");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"seed\": \"not a number\"}").unwrap();
    let out = repro().arg("replay").arg(&bad).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("error:"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The documented replay exit codes: a reproducer holding a planted
/// violation exits 0 ("reproduced"), the same case with the plant
/// removed exits 1 ("did not reproduce").
#[test]
fn replay_distinguishes_reproduced_from_passing() {
    let dir = tmpdir("replay");

    let bad = dir.join("violating.json");
    std::fs::write(&bad, FuzzCase::planted().to_json()).unwrap();
    let out = repro().arg("replay").arg(&bad).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0), "planted case must reproduce");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("reproduced"));

    let mut healthy = FuzzCase::planted();
    healthy.planted_violation = 0;
    let good = dir.join("healthy.json");
    std::fs::write(&good, healthy.to_json()).unwrap();
    let out = repro().arg("replay").arg(&good).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "healthy case must pass");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("did not reproduce"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--check` runs every simulation under the full auditor and must
/// leave the written CSV byte-identical to the unchecked run.
#[test]
fn checked_mode_output_is_byte_identical() {
    let plain = tmpdir("plain");
    let checked = tmpdir("checked");
    for (dir, extra) in [(&plain, None), (&checked, Some("--check"))] {
        let mut cmd = repro();
        cmd.args(["fig4", "--requests", "200", "--scale", "0.02"])
            .arg("--out")
            .arg(dir);
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd.output().expect("spawn repro");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read(plain.join("fig4.csv")).expect("plain csv");
    let b = std::fs::read(checked.join("fig4.csv")).expect("checked csv");
    assert_eq!(a, b, "--check must not perturb the simulation");
    let _ = std::fs::remove_dir_all(&plain);
    let _ = std::fs::remove_dir_all(&checked);
}
