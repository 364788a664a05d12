//! CLI surface of `perf`, without timing anything: usage errors exit 2
//! with the usage text, `--help` prints it on stdout, and `perf cmp`
//! (CI's bench gate) compares two BENCH files row by row and exits 1
//! when a speedup falls below `--fail-below`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("spawn perf")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_perf_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).unwrap()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    for (args, needle) in [
        (vec!["--bogus"], "unknown argument '--bogus'"),
        (vec!["--baseline", "X"], "unknown argument '--baseline'"),
        (
            vec!["--fail-below", "0.5"],
            "unknown argument '--fail-below'",
        ),
        (vec!["--json"], "--json needs a value"),
        (vec!["frobnicate"], "unknown command 'frobnicate'"),
        (vec!["cmp", "A.json"], "cmp needs exactly two BENCH files"),
        (vec!["cmp", "A.json", "B.json", "C.json"], "exactly two"),
        (
            vec!["cmp", "A.json", "B.json", "--fail-below", "0"],
            "--fail-below must be positive",
        ),
        (
            vec!["cmp", "A.json", "B.json", "--fast"],
            "unknown argument '--fast'",
        ),
    ] {
        let out = perf(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = text(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
    }
}

#[test]
fn help_goes_to_stdout_and_succeeds() {
    for args in [vec!["--help"], vec!["-h"], vec!["cmp", "--help"]] {
        let out = perf(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(text(&out.stdout).contains("usage: perf"), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}: nothing on stderr");
    }
}

#[test]
fn cmp_prints_common_benches_and_gates_on_the_floor() {
    let dir = tmpdir("cmp");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    // The old file carries the `speedup` section older BENCH files have.
    std::fs::write(
        &old,
        "{\n  \"version\": 1,\n  \"mode\": \"full\",\n  \"benches\": {\n    \
         \"a/fast\": {\"ns_per_op\": 100.0, \"ops\": 10},\n    \
         \"b/slow\": {\"ns_per_op\": 100.0, \"ops\": 10},\n    \
         \"c/gone\": {\"ns_per_op\": 50.0, \"ops\": 10}\n  },\n  \
         \"speedup\": {\n    \"a/fast\": 9.99\n  }\n}\n",
    )
    .unwrap();
    std::fs::write(
        &new,
        "{\n  \"version\": 1,\n  \"mode\": \"fast\",\n  \"benches\": {\n    \
         \"b/slow\": {\"ns_per_op\": 250.0, \"ops\": 10},\n    \
         \"a/fast\": {\"ns_per_op\": 50.0, \"ops\": 10},\n    \
         \"d/new\": {\"ns_per_op\": 10.0, \"ops\": 10}\n  }\n}\n",
    )
    .unwrap();
    let rows = "a/fast\t100.0\t50.0\t2.00\nb/slow\t100.0\t250.0\t0.40\n";

    for (floor, code) in [(None, 0), (Some("0.3"), 0), (Some("0.5"), 1)] {
        let mut args = vec!["cmp", path(&old), path(&new)];
        args.extend(floor.map(|f| ["--fail-below", f]).into_iter().flatten());
        let out = perf(&args);
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        assert_eq!(text(&out.stdout), rows, "{args:?}");
        let stderr = text(&out.stderr);
        if code == 1 {
            assert!(stderr.contains("b/slow speedup 0.40x"), "{stderr}");
            assert!(!stderr.contains("a/fast"), "{stderr}");
        } else {
            assert!(stderr.is_empty(), "{args:?}: {stderr}");
        }
    }

    let missing = dir.join("missing.json");
    let out = perf(&["cmp", path(&old), path(&missing)]);
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stderr).contains("could not read"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every committed BENCH file parses: compared with itself, each of
/// its benches prints one row at speedup 1.00.
#[test]
fn cmp_reads_every_committed_bench_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_PR") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no BENCH_PR*.json under {}",
        root.display()
    );
    for file in &files {
        let benches = std::fs::read_to_string(file)
            .unwrap()
            .matches("\"ns_per_op\"")
            .count();
        let out = perf(&["cmp", path(file), path(file), "--fail-below", "1"]);
        assert_eq!(out.status.code(), Some(0), "{}", file.display());
        let stdout = text(&out.stdout);
        assert_eq!(stdout.lines().count(), benches, "{}", file.display());
        assert!(
            stdout.lines().all(|l| l.ends_with("\t1.00")),
            "{}: {stdout}",
            file.display()
        );
    }
}
