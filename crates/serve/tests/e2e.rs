//! End-to-end: a real `serve` process on an ephemeral loopback port,
//! driven by real `loadgen` runs or by the client library in-process.
//! These tests hold the live server's smoke contract: verified sweeps
//! under FOR and under blind read-ahead with an HDC region, the metrics
//! exposition and flight dump, admission shedding, the client's error
//! classification, and the chaos harness on plain and mirrored arrays.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use forhdc_core::ReadAheadKind;
use forhdc_fault::RetryPolicy;
use forhdc_metrics::{http::http_get, Scrape};
use forhdc_serve::chaos::{self, Answer, ChaosConfig, ChildServer};
use forhdc_serve::client::{fetch_frame, run_level, Target, EO_OFFLINE, EO_RESET};
use forhdc_serve::protocol::{ErrorCode, Request};
use forhdc_serve::{create_images, DiskMeta, Engine, LiveOpts, ServerOpts};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

fn serve_bin() -> Command {
    Command::new(SERVE)
}

fn loadgen_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("forhdc_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Starts `serve run` with `extra` flags on an ephemeral port; returns
/// the child and its address.
fn start_server(dir: &Path, extra: &[&str]) -> (ChildServer, String) {
    let server = ChildServer::spawn(Path::new(SERVE), dir, 0, extra).expect("start serve");
    let addr = server.addr.clone();
    (server, addr)
}

fn digest_of(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("schedule digest: "))
        .unwrap_or_else(|| panic!("no digest line in: {stdout}"))
}

/// Every integer value of `"key": N` in a JSON text, in order.
fn json_values(json: &str, key: &str) -> Vec<u64> {
    json.split(&format!("\"{key}\": "))
        .skip(1)
        .map(|s| {
            let digits = s.split([',', '}', ' ', '\n']).next().unwrap();
            digits
                .parse()
                .unwrap_or_else(|e| panic!("{key}: {digits:?}: {e}"))
        })
        .collect()
}

/// Runs `cmd` to completion and returns its output; the test fails if
/// it runs past `limit` (a hang is a failure, not a stuck suite). The
/// commands given here print a few lines, well under a pipe's buffer.
fn output_within(cmd: &mut Command, limit: Duration) -> std::process::Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let t0 = Instant::now();
    while child.try_wait().expect("wait").is_none() {
        if t0.elapsed() > limit {
            let _ = child.kill();
            panic!("{cmd:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Runs `serve mkdisk` into `dir` with the given flags.
fn mkdisk(dir: &PathBuf, flags: &[&str]) {
    let out = serve_bin()
        .arg("mkdisk")
        .args(flags)
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("spawn mkdisk");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn smoke_sweep_verify_and_drain() {
    let dir = tmpdir("smoke");
    mkdisk(
        &dir,
        &[
            "--disks",
            "2",
            "--files",
            "64",
            "--file-blocks",
            "4",
            "--seed",
            "5",
        ],
    );

    let (mut server, addr) = start_server(&dir, &["--policy", "for", "--hdc", "256"]);

    // Two identical runs: same seed, same digest; payloads verified.
    let run = |seed: &str, shutdown: bool| {
        let mut c = loadgen_bin();
        c.args([
            "--addr",
            &addr,
            "--levels",
            "1,2,4,8",
            "--requests",
            "160",
            "--seed",
            seed,
            "--verify",
        ]);
        if shutdown {
            c.arg("--shutdown");
        }
        let out = c.output().expect("spawn loadgen");
        assert!(
            out.status.success(),
            "loadgen failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run("11", false);
    let second = run("11", false);
    let third = run("7", true);

    // The sweep table carries every percentile column and four rows.
    for col in ["rps", "p50ms", "p95ms", "p99ms", "p99.9ms"] {
        assert!(first.contains(col), "missing column {col} in: {first}");
    }
    let rows = first
        .lines()
        .filter(|l| l.trim_start().starts_with(['1', '2', '4', '8']))
        .count();
    assert!(rows >= 4, "want 4 sweep rows in: {first}");

    // Fixed seed => identical schedule; different seed => different.
    assert_eq!(digest_of(&first), digest_of(&second));
    assert_ne!(digest_of(&first), digest_of(&third));

    // --shutdown drained the server to a clean exit...
    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status}");

    // ...and the final report is complete.
    let report = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    for key in [
        "\"serve\"",
        "\"policy\": \"FOR\"",
        "\"totals\"",
        "\"e2e_latency\"",
        "\"p50_ns\"",
        "\"p95_ns\"",
        "\"p99_ns\"",
        "\"p999_ns\"",
        "\"media\"",
        "\"per_disk\"",
    ] {
        assert!(report.contains(key), "missing {key} in report: {report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live telemetry contract, end to end: a loadgen sweep against a
/// real server with `--metrics-addr` bound, scraped over HTTP before
/// and after. The second scrape must conserve work (server-side READ
/// count == loadgen completions, bytes == requests x file bytes), every
/// counter must be monotone across the two scrapes, at least eight
/// `forhdc_` families must be present with per-disk labels, the
/// `--dump-flight` JSONL must parse with the forhdc-trace parser, and
/// the loadgen JSON must embed merged server-side quantiles.
#[test]
fn metrics_scrape_conserves_work_and_flight_dump_parses() {
    let dir = tmpdir("metrics");
    mkdisk(
        &dir,
        &[
            "--disks",
            "2",
            "--files",
            "32",
            "--file-blocks",
            "2",
            "--seed",
            "9",
        ],
    );

    let mport_file = dir.join("mport");
    let mport_arg = mport_file.to_str().unwrap().to_string();
    let (mut server, addr) = start_server(
        &dir,
        &[
            "--policy",
            "for",
            "--hdc",
            "128",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-port-file",
            &mport_arg,
        ],
    );
    // The data port file is written before the metrics listener binds;
    // wait for the metrics port separately.
    let deadline = Instant::now() + Duration::from_secs(20);
    let maddr = loop {
        if let Ok(s) = std::fs::read_to_string(&mport_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break format!("127.0.0.1:{s}");
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its metrics port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let scrape = || {
        let text = http_get(&maddr, "/metrics", Duration::from_secs(10)).expect("scrape");
        (Scrape::parse(&text).expect("parse scrape"), text)
    };
    let (first, _) = scrape();

    // A sweep with known totals: 60 requests/level x 2 levels.
    let json_path = dir.join("sweep.json");
    let flight_path = dir.join("flight.jsonl");
    let out = loadgen_bin()
        .args(["--addr", &addr, "--levels", "1,2", "--requests", "60"])
        .args(["--seed", "3", "--verify", "--scrape", "--json"])
        .arg(&json_path)
        .arg("--dump-flight")
        .arg(&flight_path)
        .output()
        .expect("spawn loadgen");
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("srv_p50ms"), "{stdout}");
    assert!(stdout.contains("srv_p99ms"), "{stdout}");

    let (second, second_text) = scrape();

    // Conservation: the server's READ counter equals the loadgen
    // completions and the byte counter equals requests x file bytes.
    let total_reads = 60u64 * 2;
    assert_eq!(
        second.counter("forhdc_requests_total", &[("op", "read")]),
        Some(total_reads),
        "server READ count != loadgen completions:\n{second_text}"
    );
    assert_eq!(
        second.counter("forhdc_bytes_served_total", &[]),
        Some(total_reads * 2 * 4096),
        "served bytes != requests x file bytes:\n{second_text}"
    );
    // Work landed on both disks and every block came off the page
    // store or the media — per-disk conservation.
    let disk_sum = |name: &str| -> u64 {
        (0..2)
            .map(|d| {
                second
                    .counter(name, &[("disk", &d.to_string())])
                    .unwrap_or_else(|| panic!("{name}{{disk={d}}} missing:\n{second_text}"))
            })
            .sum()
    };
    assert_eq!(
        disk_sum("forhdc_disk_store_hits_total") + disk_sum("forhdc_disk_store_misses_total"),
        total_reads * 2,
        "store hits + misses != blocks requested:\n{second_text}"
    );

    // Monotonicity: every counter-family sample of the first scrape is
    // <= its twin in the second.
    let mut compared = 0usize;
    for s in &first.samples {
        if !["_total", "_count", "_bucket", "_sum"]
            .iter()
            .any(|suf| s.name.ends_with(suf))
        {
            continue;
        }
        let later = second
            .samples
            .iter()
            .find(|x| x.name == s.name && x.labels == s.labels)
            .unwrap_or_else(|| panic!("{} {:?} vanished from second scrape", s.name, s.labels));
        assert!(
            later.value >= s.value,
            "{} {:?} went backwards: {} -> {}",
            s.name,
            s.labels,
            s.value,
            later.value
        );
        compared += 1;
    }
    assert!(compared >= 20, "only {compared} counter samples compared");

    // The fault-tolerance families are registered and quiet on a
    // healthy run: no errors of any code, no retries, no sheds, and
    // every disk's offline gauge reads 0.
    for code in ["media", "offline", "timeout", "overload", "other"] {
        assert_eq!(
            second.counter("forhdc_errors_total", &[("code", code)]),
            Some(0),
            "errors_total{{code={code}}} on a healthy run:\n{second_text}"
        );
    }
    assert_eq!(second.counter("forhdc_retries_total", &[]), Some(0));
    assert_eq!(second.counter("forhdc_shed_total", &[]), Some(0));
    assert_eq!(second.counter("forhdc_rebuild_blocks_total", &[]), Some(0));
    for d in ["0", "1"] {
        assert_eq!(
            second.value("forhdc_disk_offline", &[("disk", d)]),
            Some(0.0),
            "disk_offline{{disk={d}}}:\n{second_text}"
        );
        assert_eq!(
            second.counter("forhdc_failover_reads_total", &[("disk", d)]),
            Some(0),
            "failover_reads_total{{disk={d}}} on an unmirrored run:\n{second_text}"
        );
        assert_eq!(
            second.value("forhdc_rebuild_progress", &[("disk", d)]),
            Some(0.0),
            "rebuild_progress{{disk={d}}} with no rebuild:\n{second_text}"
        );
    }

    // Family coverage: at least eight forhdc_ families, per-disk labels
    // present.
    let mut families: Vec<&str> = second
        .samples
        .iter()
        .filter(|s| s.name.starts_with("forhdc_"))
        .map(|s| {
            s.name
                .strip_suffix("_bucket")
                .or_else(|| s.name.strip_suffix("_sum"))
                .or_else(|| s.name.strip_suffix("_count"))
                .unwrap_or(&s.name)
        })
        .collect();
    families.sort_unstable();
    families.dedup();
    assert!(
        families.len() >= 8,
        "want >= 8 forhdc_ families, got {}: {families:?}",
        families.len()
    );
    for d in ["0", "1"] {
        assert!(
            second
                .samples
                .iter()
                .any(|s| s.labels.iter().any(|(k, v)| k == "disk" && v == d)),
            "no samples labeled disk=\"{d}\":\n{second_text}"
        );
    }

    // The flight dump is JSONL the forhdc-trace parser accepts, and it
    // recorded real request lifecycles.
    let flight = std::fs::read_to_string(&flight_path).expect("flight dump written");
    let events = forhdc_trace::parse_jsonl(&flight).expect("flight dump parses");
    assert!(!events.is_empty(), "flight recorder captured nothing");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, forhdc_trace::TraceEvent::Complete { .. })),
        "no Complete events in flight dump"
    );
    // The `trace` binary's analyses accept it: the per-phase
    // percentile table, the utilization timeline (empty: the live
    // server runs no sampler) and the slowest-request spans.
    let summary = forhdc_trace::TraceSummary::from_events(&events);
    assert!(summary.requests > 0, "no requests in the flight summary");
    assert!(
        !summary.phase_percentiles().is_empty(),
        "no phase percentiles"
    );
    assert!(forhdc_trace::utilization_timeline(&events, 24).is_empty());
    let slowest = forhdc_trace::slowest_requests(&events, 3);
    assert_eq!(slowest.len(), 3, "want the 3 slowest request spans");

    // The loadgen JSON embeds per-level and merged server-side
    // quantiles.
    let sweep = std::fs::read_to_string(&json_path).expect("sweep json written");
    assert!(sweep.contains("\"server_latency\""), "{sweep}");
    assert!(sweep.contains("\"server\": {"), "{sweep}");

    // Drain the server; the final report carries the extended totals.
    let out = loadgen_bin()
        .args(["--addr", &addr, "--levels", "1", "--requests", "2"])
        .args(["--shutdown"])
        .output()
        .expect("spawn loadgen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status}");
    let report = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    for key in ["\"uptime_secs\"", "\"inflight\"", "\"store_hits\""] {
        assert!(report.contains(key), "missing {key} in report: {report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blind segment read-ahead plus an HDC region: hits on read-ahead and
/// pinned blocks are served straight from the images, `--verify`
/// checks every byte of them, the sweep conserves every request, and
/// the report counts both kinds of hit.
#[test]
fn stats_over_the_wire_match_report_shape() {
    let dir = tmpdir("stats");
    mkdisk(
        &dir,
        &["--disks", "2", "--files", "64", "--file-blocks", "4"],
    );
    let (mut server, addr) = start_server(&dir, &["--policy", "segm", "--hdc", "256"]);

    let out = loadgen_bin()
        .args(["--addr", &addr, "--levels", "2,8", "--requests", "400"])
        .args(["--verify", "--shutdown"])
        .output()
        .expect("spawn loadgen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("schedule digest: 0x"), "{stdout}");
    assert!(
        stdout.contains("conservation: issued=800 ok=800 errors=0 balanced=true"),
        "{stdout}"
    );

    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status}");
    let report = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    assert!(report.contains("\"policy\": \"Segm\""), "{report}");
    assert!(report.contains("\"requests\": "), "{report}");
    assert!(report.contains("\"errors\": 0,"), "{report}");
    for key in ["read_ahead_blocks", "hdc_read_hits"] {
        assert!(
            json_values(&report, key).iter().any(|&n| n > 0),
            "no {key} in: {report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The media-fault contract over the wire: a planted bad block fails
/// a READ with a structured `ERR MediaError` after exactly the
/// configured number of server-side retries, and the retry/error
/// counters agree.
#[test]
fn planted_bad_block_errs_after_exact_retries() {
    use forhdc_serve::protocol::{
        parse_error, read_response, write_request, ErrorCode, Request, ST_ERR, ST_OK,
    };
    use std::io::Write;

    let dir = tmpdir("plant");
    mkdisk(
        &dir,
        &["--disks", "2", "--files", "16", "--file-blocks", "2"],
    );
    let (mut server, addr) = start_server(&dir, &["--retries", "2", "--backoff-ms", "1"]);

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut w = std::io::BufWriter::new(stream);
    let mut rpc = |req: &Request| {
        write_request(&mut w, req).unwrap();
        w.flush().unwrap();
        read_response(&mut r).expect("response")
    };

    // Plant under (file 3, offset 0), then read the file cold.
    let (st, _) = rpc(&Request::FaultPlant { file: 3, offset: 0 });
    assert_eq!(st, ST_OK);
    let (st, body) = rpc(&Request::Read {
        file: 3,
        offset: 0,
        nblocks: 2,
    });
    assert_eq!(st, ST_ERR, "payload: {}", String::from_utf8_lossy(&body));
    let (code, msg) = parse_error(&body);
    assert_eq!(code, Some(ErrorCode::MediaError), "{msg}");
    assert!(msg.contains("after 2 retries"), "{msg}");

    // Exactly 2 retries and 1 media error on the counters.
    let (st, body) = rpc(&Request::Metrics);
    assert_eq!(st, ST_OK);
    let scrape = Scrape::parse(std::str::from_utf8(&body).unwrap()).expect("parse metrics");
    assert_eq!(scrape.counter("forhdc_retries_total", &[]), Some(2));
    assert_eq!(
        scrape.counter("forhdc_errors_total", &[("code", "media")]),
        Some(1)
    );
    // A healthy file still reads fine on the same connection.
    let (st, body) = rpc(&Request::Read {
        file: 4,
        offset: 0,
        nblocks: 2,
    });
    assert_eq!(st, ST_OK);
    assert_eq!(body.len(), 2 * 4096);

    let (st, _) = rpc(&Request::Shutdown);
    assert_eq!(st, ST_OK);
    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM drains to a clean exit: the server announces the drain,
/// dumps the flight recorder between parseable markers on stderr,
/// writes its final JSON report, and exits 0.
#[test]
fn sigterm_drains_dumps_flight_and_exits_clean() {
    let dir = tmpdir("sigterm");
    mkdisk(
        &dir,
        &["--disks", "2", "--files", "16", "--file-blocks", "2"],
    );

    // The child appends its stderr to serve.log in the image dir.
    let (mut server, addr) = start_server(&dir, &[]);
    let report = dir.join("report.json");

    // Some traffic so the flight recorder has lifecycles to dump.
    let out = loadgen_bin()
        .args(["--addr", &addr, "--levels", "2", "--requests", "20"])
        .output()
        .expect("spawn loadgen");
    assert!(out.status.success());

    let kill = Command::new("kill")
        .args(["-TERM", &server.id().unwrap().to_string()])
        .status()
        .expect("spawn kill");
    assert!(kill.success());
    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status} on SIGTERM");

    let stderr = std::fs::read_to_string(dir.join("serve.log")).unwrap();
    assert!(
        stderr.contains("serve: termination signal received, draining"),
        "{stderr}"
    );
    assert!(
        stderr.contains("reason: termination signal) begin"),
        "{stderr}"
    );
    assert!(
        stderr.contains("serve: flight recorder dump end"),
        "{stderr}"
    );
    // The dumped JSONL between the markers parses.
    let body: String = stderr
        .lines()
        .skip_while(|l| !l.contains("reason: termination signal) begin"))
        .skip(1)
        .take_while(|l| !l.starts_with("serve: flight recorder dump end"))
        .map(|l| format!("{l}\n"))
        .collect();
    let events = forhdc_trace::parse_jsonl(&body).expect("dump parses");
    assert!(!events.is_empty(), "flight dump empty");

    let report = std::fs::read_to_string(&report).expect("report written on SIGTERM");
    assert!(report.contains("\"errors_by_code\""), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shed path under pressure: with `--max-inflight 1` and 32
/// closed-loop connections, the server must answer every request —
/// shedding with `ERR Overload`, never hanging — and the client-side
/// conservation total must balance.
#[test]
fn max_inflight_one_sheds_overload_and_never_hangs() {
    let dir = tmpdir("shed");
    mkdisk(
        &dir,
        &["--disks", "2", "--files", "32", "--file-blocks", "2"],
    );
    let (mut server, addr) = start_server(&dir, &["--max-inflight", "1"]);

    let json_path = dir.join("shed.json");
    let mut loadgen = loadgen_bin();
    loadgen
        .args(["--addr", &addr, "--levels", "32", "--requests", "640"])
        .args(["--retries", "0", "--shutdown", "--json"])
        .arg(&json_path);
    let out = output_within(&mut loadgen, Duration::from_secs(120));
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("balanced=true"), "{stdout}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    let overload: u64 = json_values(&json, "overload").iter().sum();
    assert!(overload > 0, "no request shed with Overload: {json}");

    let status = server.wait().expect("wait serve");
    assert!(status.success(), "server exited {status}");
    // The server counted its sheds too.
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap();
    let shed = json_values(&report, "shed")[0];
    assert_eq!(shed, overload, "server shed != client overload: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The client's outcome buckets against an in-process server: a disk
/// offline for about 100 ms is ridden out by retries, and without
/// retries the same failures land in the offline bucket.
#[test]
fn client_retries_through_offline_and_buckets_it_without_retries() {
    let dir = tmpdir("classify");
    let meta = create_images(
        &dir,
        &DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 32,
            files: 32,
            file_blocks: 2,
            seed: 42,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        },
    )
    .expect("mkdisk");
    let engine = Engine::open_with(&dir, meta, ReadAheadKind::For, 0, LiveOpts::default())
        .expect("open engine");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        forhdc_serve::run(engine, listener, None, &ServerOpts::default())
    });
    let target = Target::open(&addr, 0.4).expect("meta");
    let offline = |ms| {
        fetch_frame(&addr, &Request::FaultOffline { disk: 0, ms }, "fault").expect("fault");
    };
    let retrying = RetryPolicy {
        max_retries: 6,
        backoff_base_ns: 25_000_000,
        backoff_cap_ns: 400_000_000,
        deadline_ns: None,
    };

    // Disk 0 goes down, the burst starts, and the disk returns after
    // about 100 ms: far inside the ~1.2 s the retries can wait.
    offline(60_000);
    let burst = {
        let target = target.clone();
        std::thread::spawn(move || run_level(&target, 4, 200, 1, true, retrying))
    };
    std::thread::sleep(Duration::from_millis(100));
    offline(0);
    let ridden = burst.join().unwrap().expect("burst");
    assert_eq!(ridden.outcomes.issued(), 200, "{ridden:?}");
    assert_eq!(ridden.outcomes.ok, 200, "{ridden:?}");
    assert!(ridden.outcomes.retries > 0, "{ridden:?}");

    // Without retries, every read of disk 0 fails offline, and nothing
    // else fails.
    offline(60_000);
    let no_retry = RetryPolicy {
        max_retries: 0,
        ..retrying
    };
    let failed = run_level(&target, 4, 200, 2, true, no_retry).expect("burst");
    offline(0);
    let o = failed.outcomes;
    assert_eq!(o.issued(), 200, "{o:?}");
    assert!(o.errs[EO_OFFLINE] > 0 && o.ok > 0, "{o:?}");
    assert_eq!(o.errors(), o.errs[EO_OFFLINE], "{o:?}");
    assert_eq!(o.retries, 0, "{o:?}");

    fetch_frame(&addr, &Request::Shutdown, "shutdown").expect("shutdown");
    server.join().unwrap().expect("server report");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the chaos harness on `dir` with the `--faults` schedule and
/// checks what both arrays share; a run past 300 s fails (a hang is a
/// failure, not a stuck suite).
fn run_chaos(dir: &Path, faults: Option<&str>) -> chaos::ChaosReport {
    let cfg = ChaosConfig {
        dir: dir.to_path_buf(),
        serve_bin: PathBuf::from(SERVE),
        faults: faults.map(str::to_string),
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(chaos::chaos(&cfg)).ok());
    let report = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("chaos still running after 300 s")
        .unwrap_or_else(|e| {
            let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
            panic!("chaos failed: {e}\nserve.log:\n{log}")
        });
    // Conservation: the phases issued their whole budgets, each
    // request ending in exactly one outcome.
    let phases = 3 + u64::from(report.degraded.is_some());
    assert_eq!(report.conservation.issued(), phases * chaos::REQUESTS);
    // Phase B spanned the SIGKILL: its in-flight reads were reset and
    // retried against the restarted server.
    let killed = &report.killed.outcomes;
    assert!(killed.errs[EO_RESET] + killed.retries > 0, "{killed:?}");
    assert!(report.recovered.outcomes.ok > 0, "{report:?}");
    assert!(report.shutdown.success(), "{report:?}");
    // The offline, timeout and overload probes answer their ERR code,
    // and the restarted server counted each.
    for code in [
        ErrorCode::DiskOffline,
        ErrorCode::Timeout,
        ErrorCode::Overload,
    ] {
        assert_eq!(report.probes[code.index()], Answer::Err(code), "{report:?}");
        assert!(report.errors_total[code.index()] > 0, "{code}: {report:?}");
    }
    report
}

/// The full chaos harness: kill -9 mid-sweep, same-port restart,
/// per-code fault probes, recovery-throughput floor, conservation,
/// under seeded media errors and a 200-ms offline window on disk 2 at
/// the start of each server life, which phase A rides out by retrying.
#[test]
fn chaos_harness_passes_end_to_end() {
    let dir = tmpdir("chaos");
    mkdisk(
        &dir,
        &["--disks", "4", "--files", "64", "--file-blocks", "4"],
    );
    let report = run_chaos(&dir, Some("seed=7,media=0.001,offline=2@0+200"));
    let media = ErrorCode::MediaError;
    assert_eq!(
        report.probes[media.index()],
        Answer::Err(media),
        "{report:?}"
    );
    assert!(report.errors_total[media.index()] > 0, "{report:?}");
    // Phase A starts inside the scheduled window: reads of disk 2
    // back off until it closes.
    assert!(
        report.baseline.outcomes.retries > 0,
        "{:?}",
        report.baseline
    );
    // The window is long closed by phase C.
    let recovered = &report.recovered.outcomes;
    assert_eq!(recovered.errs[EO_OFFLINE], 0, "{recovered:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos harness on a mirrored (RAID1/0) array: a planted bad
/// block is served from the twin instead of erroring, a replica going
/// offline is invisible to clients (the degraded burst sees zero
/// DiskOffline errors and counts failovers), clearing the window
/// rebuilds the member from its mirror, and the conservation budget
/// widens to four phases.
#[test]
fn mirrored_chaos_fails_over_and_rebuilds_end_to_end() {
    let dir = tmpdir("mchaos");
    mkdisk(
        &dir,
        &[
            "--disks",
            "4",
            "--files",
            "64",
            "--file-blocks",
            "4",
            "--mirror",
            "1",
        ],
    );
    let report = run_chaos(&dir, None);
    assert_eq!(
        report.probes[ErrorCode::MediaError.index()],
        Answer::Ok,
        "{report:?}"
    );
    let degraded = report.degraded.as_ref().expect("phase M on a mirror");
    assert_eq!(degraded.outcomes.errs[EO_OFFLINE], 0, "{degraded:?}");
    assert!(report.failovers > 0, "{report:?}");
    assert!(report.rebuilt_blocks > 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
