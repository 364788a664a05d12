//! CLI surface of `forhdc`: every documented flag is accepted, and a
//! bad invocation — unknown command, missing or misspelled flag —
//! exits 2 with a one-line diagnostic before doing any work.

use std::path::PathBuf;
use std::process::{Command, Output};

fn forhdc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_forhdc"))
        .args(args)
        .output()
        .expect("spawn forhdc")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn generate_inspect_simulate_accept_their_flags() {
    let dir = tmpdir("ok");
    let dir_s = dir.to_str().unwrap();
    let trace = dir.join("trace.txt");
    let layout = dir.join("layout.txt");
    let (trace, layout) = (trace.to_str().unwrap(), layout.to_str().unwrap());
    for args in [
        vec!["generate", "synthetic", "--requests", "40", "--out", dir_s],
        vec!["inspect", "--trace", trace],
        vec![
            "simulate",
            "--trace",
            trace,
            "--layout",
            layout,
            "--policy",
            "for",
            "--hdc",
            "64",
            "--unit",
            "64",
            "--streams",
            "8",
            "--sched",
            "clook",
            "--flush-secs",
            "1",
        ],
    ] {
        let out = forhdc(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forhdc_bad_arguments_exit_2() {
    let dir = tmpdir("bad");
    let d = dir.to_str().unwrap();
    let missing = "/nonexistent/forhdc-trace.txt";
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command 'frobnicate'"),
        (vec!["simulate"], "--trace is required"),
        (vec!["inspect", "--trace"], "--trace needs a value"),
        (
            vec!["generate", "synthetic", "--out", d, "--sacle", "2"],
            "unknown argument '--sacle'",
        ),
        (
            vec![
                "generate",
                "web",
                "--scale",
                "0.01",
                "--out",
                d,
                "--requests",
                "5",
            ],
            "unknown argument '--requests'",
        ),
        (
            vec![
                "simulate", "--trace", missing, "--layout", missing, "--hcd", "256",
            ],
            "unknown argument '--hcd'",
        ),
        (
            vec!["inspect", "--trace", missing, "--verbose", "1"],
            "unknown argument '--verbose'",
        ),
    ] {
        let out = forhdc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: wanted '{needle}' in: {stderr}"
        );
    }
    assert!(!dir.exists(), "generate wrote {d} despite a bad flag");
}

#[test]
fn forhdc_names_the_file_it_could_not_read() {
    let (trace, layout) = ("/nonexistent/t", "/nonexistent/l");
    for args in [
        vec!["simulate", "--trace", trace, "--layout", layout],
        vec!["inspect", "--trace", trace],
    ] {
        let out = forhdc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("error: open {trace}: ")),
            "{args:?}: {stderr}"
        );
    }
}
