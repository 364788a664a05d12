//! CLI surface of `serve` and `loadgen`: bad flags, unbindable ports,
//! and missing or corrupt disk directories must exit 2 with a clean
//! one-line diagnostic and the usage text — never a panic.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_serve"))
}

fn loadgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_serve_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn mkdisk(dir: &PathBuf) {
    let out = serve()
        .args([
            "mkdisk",
            "--disks",
            "2",
            "--files",
            "16",
            "--file-blocks",
            "2",
            "--dir",
        ])
        .arg(dir)
        .output()
        .expect("spawn serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Exit 2 + "error:" + usage for every class of bad invocation.
fn assert_usage_error(out: std::process::Output, needle: &str, ctx: &str) {
    assert_eq!(out.status.code(), Some(2), "{ctx}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{ctx}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{ctx}: wanted '{needle}' in: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{ctx}: {stderr}");
}

#[test]
fn serve_bad_arguments_exit_2() {
    let dir = tmpdir("unknown_flag");
    let dir = dir.to_str().unwrap();
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command"),
        (vec!["run"], "--dir is required"),
        (vec!["mkdisk"], "--dir is required"),
        (vec!["run", "--dir"], "--dir needs a value"),
        (
            vec!["mkdisk", "--dir", "/tmp/x", "--disks", "zero"],
            "--disks",
        ),
        // A misspelled flag fails before anything is written or served.
        (
            vec!["mkdisk", "--dir", dir, "--files", "4", "--hcd", "256"],
            "unknown argument '--hcd'",
        ),
        (
            vec!["run", "--dir", dir, "--hcd", "256"],
            "unknown argument '--hcd'",
        ),
    ] {
        let out = serve().args(&args).output().expect("spawn serve");
        assert_usage_error(out, needle, &format!("{args:?}"));
    }
    assert!(!std::path::Path::new(dir).exists(), "mkdisk wrote {dir}");
}

#[test]
fn serve_missing_dir_exits_2() {
    let out = serve()
        .args(["run", "--dir", "/nonexistent/forhdc-disks"])
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "meta.txt", "missing dir");
}

#[test]
fn serve_corrupt_dir_exits_2() {
    // A manifest promising images that are not there.
    let dir = tmpdir("corrupt_missing");
    mkdisk(&dir);
    std::fs::remove_file(dir.join("disk001.img")).unwrap();
    let out = serve()
        .args(["run", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "disk001.img", "deleted image");

    // An image of the wrong size.
    let dir2 = tmpdir("corrupt_short");
    mkdisk(&dir2);
    let img = dir2.join("disk000.img");
    let len = std::fs::metadata(&img).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&img).unwrap();
    f.set_len(len - 1).unwrap();
    let out = serve()
        .args(["run", "--dir"])
        .arg(&dir2)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "corrupt disk directory", "truncated image");

    // A mangled manifest.
    let dir3 = tmpdir("corrupt_meta");
    mkdisk(&dir3);
    std::fs::write(dir3.join("meta.txt"), "not a manifest\n").unwrap();
    let out = serve()
        .args(["run", "--dir"])
        .arg(&dir3)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "meta", "mangled manifest");

    for d in [dir, dir2, dir3] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn serve_unbindable_port_exits_2() {
    let dir = tmpdir("bind");
    mkdisk(&dir);
    // Occupy an ephemeral port, then ask serve for exactly that port.
    let holder = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = holder.local_addr().unwrap().port().to_string();
    let out = serve()
        .args(["run", "--port", &port, "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "bind 127.0.0.1", "occupied port");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_unbindable_metrics_addr_exits_2() {
    let dir = tmpdir("mbind");
    mkdisk(&dir);
    let holder = TcpListener::bind("127.0.0.1:0").unwrap();
    let maddr = holder.local_addr().unwrap().to_string();
    let out = serve()
        .args(["run", "--metrics-addr", &maddr, "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, &format!("bind {maddr}"), "occupied metrics port");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_oversized_hdc_exits_2() {
    let dir = tmpdir("hdc");
    mkdisk(&dir);
    // The controller memory is 4 MB; ask for more than that of HDC.
    let out = serve()
        .args(["run", "--hdc", "8192", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn serve");
    assert_usage_error(out, "read-ahead cache", "oversized hdc");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_bad_arguments_exit_2() {
    for (args, needle) in [
        (vec![] as Vec<&str>, "--addr is required"),
        (vec!["--addr"], "--addr needs a value"),
        (vec!["positional"], "unexpected argument"),
        (vec!["chaos", "extra"], "unexpected argument"),
        (vec!["chaos"], "unexpected argument 'chaos'"),
        // Flags the sweep does not read, checked before connecting.
        (
            vec!["--addr", "127.0.0.1:1", "--tolerance", "0.5"],
            "unknown argument '--tolerance'",
        ),
        (
            vec!["--addr", "127.0.0.1:1", "--level", "2"],
            "unknown argument '--level'",
        ),
        (
            vec!["--addr", "127.0.0.1:1", "--retries", "some"],
            "--retries",
        ),
        (
            vec!["--addr", "127.0.0.1:1", "--backoff-ms", "-3"],
            "--backoff-ms",
        ),
        (vec!["--addr", "127.0.0.1:1", "--levels", "0"], "--levels"),
        (
            vec!["--addr", "127.0.0.1:1", "--requests", "lots"],
            "--requests",
        ),
        (
            vec!["--addr", "127.0.0.1:1", "--dump-flight"],
            "--dump-flight needs a value",
        ),
    ] {
        let out = loadgen().args(&args).output().expect("spawn loadgen");
        assert_usage_error(out, needle, &format!("{args:?}"));
    }
}

#[test]
fn loadgen_unreachable_server_exits_2() {
    // Bind-then-drop to get a port that refuses connections.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let out = loadgen()
        .args(["--addr", &format!("127.0.0.1:{port}"), "--requests", "1"])
        .output()
        .expect("spawn loadgen");
    assert_usage_error(out, "connect", "refused connection");
}

#[test]
fn serve_bad_fault_flags_exit_2() {
    let dir = tmpdir("badfaults");
    mkdisk(&dir);
    for (flags, needle) in [
        (vec!["--faults", "media=2.0"], "rate outside [0, 1]"),
        (vec!["--faults", "seed"], "want key=value"),
        (vec!["--faults", "bogus=1"], "--faults key 'bogus'"),
        (vec!["--faults", "offline=0@x+1"], "--faults"),
        (vec!["--deadline-ms", "soon"], "--deadline-ms"),
        (vec!["--retries", "-1"], "--retries"),
        (vec!["--max-inflight", "many"], "--max-inflight"),
        (vec!["--max-queue", "deep"], "--max-queue"),
    ] {
        let out = serve()
            .args(["run", "--dir"])
            .arg(&dir)
            .args(&flags)
            .output()
            .expect("spawn serve");
        assert_usage_error(out, needle, &format!("{flags:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
