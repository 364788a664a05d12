//! `loadgen` — closed-loop load generator and chaos harness for `serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--levels 1,2,4,8] [--requests N] [--seed S]
//!         [--alpha A] [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
//!         [--verify] [--scrape] [--shutdown] [--json FILE]
//!         [--dump-flight FILE]
//!
//! loadgen chaos --dir DIR [--serve-bin PATH] [--conc C] [--requests N]
//!         [--seed S] [--alpha A] [--deadline-ms MS] [--retries N]
//!         [--backoff-ms MS] [--backoff-cap-ms MS] [--kill-at F]
//!         [--tolerance F] [--faults SPEC] [--max-inflight N]
//!         [--max-queue N] [--rebuild-mbps N] [--json FILE]
//! ```
//!
//! Fetches the array metadata over the wire (`META`), then sweeps the
//! given concurrency levels: at each level the request budget is split
//! across that many connections, and every connection runs a closed
//! loop — draw a file from the Zipf popularity distribution, read it
//! whole, wait for the bytes, repeat. The per-connection schedule is a
//! pure function of `(--seed, level, connection)`, so a fixed seed
//! reproduces the identical request sequence; the printed schedule
//! digest (an order-independent XOR of per-connection FNV hashes)
//! makes that checkable from the outside. One table row per level:
//! throughput, per-outcome counts, and p50/p95/p99/p99.9 latency from
//! the shared power-of-two histogram.
//!
//! Every issued request ends in exactly one outcome — `ok` or one of
//! the error buckets (`media`/`offline`/`timeout`/`overload` from the
//! server's structured `ERR` frames, `reset` for connection failures,
//! `other` for anything else) — so `issued == ok + errors` holds by
//! construction and is re-checked as a conservation total in the JSON
//! report. A connection reset mid-sweep is a per-request error, not a
//! process exit: the worker reconnects and keeps going. `--retries`
//! arms client-side retries for the transient buckets (offline,
//! overload, reset, and the draining status) with capped exponential
//! backoff whose jitter is a pure function of
//! `(connection seed, request, attempt)`.
//!
//! `--scrape` additionally fetches the server's `METRICS` exposition
//! before and after each level and takes the per-level delta of the
//! server-side READ latency histogram — same power-of-two bucket
//! geometry, so the distributions merge losslessly with the client's
//! own — adding `srv_p50ms`/`srv_p99ms` columns and a merged
//! server-side summary to the JSON report. `--dump-flight FILE` saves
//! the server's flight-recorder JSONL (a `DUMP` frame) after the
//! sweep.
//!
//! `loadgen chaos` is the fault-tolerance harness: it spawns its own
//! `serve run` on the given image directory, measures a baseline
//! burst, then kills the server with SIGKILL mid-sweep and restarts it
//! on the same port — asserting that workers ride through the outage
//! (resets become per-request errors, reconnects succeed), that the
//! request budget is conserved across the crash, and that
//! post-recovery throughput returns to within `--tolerance` of the
//! baseline. On the cold restarted server it then injects one fault
//! per error code through `FAULT` admin frames (planted bad block,
//! offline window, stalled disk, admission overload) and asserts each
//! surfaces as the matching structured `ERR` code and a non-zero
//! `forhdc_errors_total{code=...}` counter, before draining the
//! server with a clean SHUTDOWN.
//!
//! On a mirrored (RAID1/0) image directory the harness runs one more
//! probe: it takes a single replica offline mid-run, sweeps a full
//! degraded burst asserting that **zero** `DiskOffline` errors reach
//! clients (reads fail over to the surviving twin, counted by
//! `forhdc_failover_reads_total`) and that degraded throughput stays
//! above the `--tolerance` floor, then clears the window — which
//! auto-starts a rebuild — sends an explicit `REBUILD` frame, and
//! waits for `forhdc_rebuild_progress` to reach 100 before the
//! recovery phase. The conservation budget widens to four phases on a
//! mirrored array and must still balance exactly.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use forhdc_fault::RetryPolicy;
use forhdc_metrics::{histogram_delta, Scrape};
use forhdc_serve::image::{block_payload, rank_to_file, DiskMeta};
use forhdc_serve::protocol::{
    parse_error, read_response, write_request, ErrorCode, Request, MAX_READ_BLOCKS, ST_ERR, ST_OK,
    ST_SHUTTING_DOWN,
};
use forhdc_trace::{out, outln, PowerHistogram, Quantiles};
use forhdc_workload::ZipfSampler;

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if matches!(name, "verify" | "shutdown" | "scrape") {
                    flags.insert(name.to_string(), String::from("1"));
                } else {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
            } else if a == "chaos" && positional.is_empty() {
                positional.push(a);
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    fn set(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

const USAGE: &str = "\
loadgen — closed-loop load generator and chaos harness for serve

  loadgen --addr HOST:PORT [--levels 1,2,4,8] [--requests N] [--seed S]
          [--alpha A] [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
          [--verify] [--scrape] [--shutdown] [--json FILE]
          [--dump-flight FILE]
  loadgen chaos --dir DIR [--serve-bin PATH] [--conc C] [--requests N]
          [--seed S] [--alpha A] [--deadline-ms MS] [--retries N]
          [--backoff-ms MS] [--backoff-cap-ms MS] [--kill-at F]
          [--tolerance F] [--faults SPEC] [--max-inflight N]
          [--max-queue N] [--rebuild-mbps N] [--json FILE]
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("usage:\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Error-bucket slots. The first four mirror [`ErrorCode::index`];
/// `reset` is any transport failure (refused connect, mid-frame
/// close), `other` any remaining non-OK status.
const EO_MEDIA: usize = 0;
const EO_OFFLINE: usize = 1;
const EO_TIMEOUT: usize = 2;
const EO_OVERLOAD: usize = 3;
const EO_RESET: usize = 4;
const EO_OTHER: usize = 5;
const EO_LABELS: [&str; 6] = ["media", "offline", "timeout", "overload", "reset", "other"];

/// Per-outcome request accounting. Every issued request lands in
/// exactly one bucket, so `issued() == ok + errors()` always.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    /// Requests answered `ST_OK` with the full payload.
    ok: u64,
    /// Final failures by bucket ([`EO_LABELS`] order).
    errs: [u64; 6],
    /// Client-side retry attempts (not an outcome; a retried request
    /// still ends in exactly one bucket).
    retries: u64,
}

impl Outcomes {
    fn errors(&self) -> u64 {
        self.errs.iter().sum()
    }

    fn issued(&self) -> u64 {
        self.ok + self.errors()
    }

    fn merge(&mut self, o: &Outcomes) {
        self.ok += o.ok;
        for (a, b) in self.errs.iter_mut().zip(o.errs.iter()) {
            *a += b;
        }
        self.retries += o.retries;
    }

    fn errors_json(&self) -> String {
        let mut s = String::from("{");
        for (i, label) in EO_LABELS.iter().enumerate() {
            s.push_str(&format!(
                "\"{label}\": {}{}",
                self.errs[i],
                if i + 1 < EO_LABELS.len() { ", " } else { "" }
            ));
        }
        s.push('}');
        s
    }

    /// One compact human-readable cluster for log lines.
    fn summary(&self) -> String {
        format!(
            "ok={} media={} offl={} tmo={} shed={} rst={} other={} retries={}",
            self.ok,
            self.errs[EO_MEDIA],
            self.errs[EO_OFFLINE],
            self.errs[EO_TIMEOUT],
            self.errs[EO_OVERLOAD],
            self.errs[EO_RESET],
            self.errs[EO_OTHER],
            self.retries,
        )
    }
}

/// One level's measured outcome.
struct LevelResult {
    conc: u32,
    requests: u64,
    secs: f64,
    latency: Quantiles,
    outcomes: Outcomes,
    /// Server-side READ latency over this level (scrape delta), when
    /// `--scrape` is on.
    server: Option<Quantiles>,
    digest: u64,
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    if args.positional.first().map(String::as_str) == Some("chaos") {
        return chaos(&args);
    }
    sweep(&args)
}

/// Builds the client-side retry policy from the shared flag set.
/// `--retries 0` (the default) keeps every failure a final outcome.
fn retry_policy(args: &Args) -> Result<RetryPolicy, String> {
    Ok(RetryPolicy {
        max_retries: args.flag("retries", 0u32)?,
        backoff_base_ns: args.flag("backoff-ms", 25u64)?.saturating_mul(1_000_000),
        backoff_cap_ns: args
            .flag("backoff-cap-ms", 400u64)?
            .saturating_mul(1_000_000),
        deadline_ns: None,
    })
}

fn sweep(args: &Args) -> Result<(), String> {
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .ok_or("--addr is required")?;
    let levels = parse_levels(&args.flag("levels", String::from("1,2,4,8"))?)?;
    let requests: u64 = args.flag("requests", 2000u64)?;
    let seed: u64 = args.flag("seed", 42u64)?;
    let alpha: f64 = args.flag("alpha", 0.4f64)?;
    let verify = args.set("verify");
    let scrape = args.set("scrape");
    let policy = retry_policy(args)?;

    let meta = fetch_meta(&addr)?;
    if meta.file_blocks > MAX_READ_BLOCKS {
        return Err(format!(
            "files of {} blocks exceed the {MAX_READ_BLOCKS}-block read limit",
            meta.file_blocks
        ));
    }
    let perm = Arc::new(rank_to_file(meta.files, meta.seed));
    let zipf = Arc::new(ZipfSampler::new(meta.files as usize, alpha));

    outln!(
        "loadgen: {} files x {} blocks, alpha={alpha}, seed={seed}, {} requests/level",
        meta.files,
        meta.file_blocks,
        requests
    );
    out!(
        "{:>5} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "conc",
        "requests",
        "ok",
        "media",
        "offl",
        "tmo",
        "shed",
        "rst",
        "secs",
        "rps",
        "p50ms",
        "p95ms",
        "p99ms",
        "p99.9ms",
        "maxms",
        "meanms"
    );
    if scrape {
        out!(" {:>9} {:>9}", "srv_p50ms", "srv_p99ms");
    }
    outln!();
    let mut results = Vec::new();
    let mut digest_all = 0u64;
    let mut totals = Outcomes::default();
    let mut server_merged = PowerHistogram::new();
    for &conc in &levels {
        let before = if scrape {
            Some(scrape_server_read_hist(&addr)?)
        } else {
            None
        };
        let mut r = run_level(
            &addr, &meta, &perm, &zipf, conc, requests, seed, verify, policy,
        )?;
        if let Some(before) = &before {
            let after = scrape_server_read_hist(&addr)?;
            let delta = histogram_delta(&after, before);
            server_merged.merge(&delta);
            r.server = Some(delta.quantiles());
        }
        digest_all ^= r.digest;
        totals.merge(&r.outcomes);
        out!(
            "{:>5} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8.2} {:>9.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.conc,
            r.requests,
            r.outcomes.ok,
            r.outcomes.errs[EO_MEDIA],
            r.outcomes.errs[EO_OFFLINE],
            r.outcomes.errs[EO_TIMEOUT],
            r.outcomes.errs[EO_OVERLOAD],
            r.outcomes.errs[EO_RESET],
            r.secs,
            r.requests as f64 / r.secs,
            ms(r.latency.p50_ns),
            ms(r.latency.p95_ns),
            ms(r.latency.p99_ns),
            ms(r.latency.p999_ns),
            ms(r.latency.max_ns),
            ms(r.latency.mean_ns),
        );
        if let Some(srv) = &r.server {
            out!(" {:>9.2} {:>9.2}", ms(srv.p50_ns), ms(srv.p99_ns));
        }
        outln!();
        results.push(r);
    }
    outln!("schedule digest: 0x{digest_all:016x}");
    outln!(
        "conservation: issued={} ok={} errors={} balanced={}",
        totals.issued(),
        totals.ok,
        totals.errors(),
        totals.issued() == totals.ok + totals.errors(),
    );

    if let Some(path) = args.flags.get("json") {
        let server = scrape.then(|| server_merged.quantiles());
        let json = results_json(&results, digest_all, &totals, server.as_ref());
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = args.flags.get("dump-flight") {
        let dump = fetch_frame(&addr, &Request::Dump, "dump")?;
        std::fs::write(path, &dump).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "loadgen: wrote {} bytes of flight-recorder JSONL to {path}",
            dump.len()
        );
    }
    if args.set("shutdown") {
        let mut c = connect(&addr)?;
        write_request(&mut c, &Request::Shutdown).map_err(|e| e.to_string())?;
        c.flush().map_err(|e| e.to_string())?;
        let (st, msg) = read_response(&mut c).map_err(|e| e.to_string())?;
        if st != ST_OK {
            return Err(format!(
                "shutdown refused (status {st}): {}",
                String::from_utf8_lossy(&msg)
            ));
        }
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn parse_levels(spec: &str) -> Result<Vec<u32>, String> {
    let mut levels = Vec::new();
    for part in spec.split(',') {
        let n: u32 = part
            .trim()
            .parse()
            .map_err(|e| format!("--levels '{part}': {e}"))?;
        if n == 0 {
            return Err("--levels entries must be >= 1".into());
        }
        levels.push(n);
    }
    if levels.is_empty() {
        return Err("--levels must name at least one concurrency level".into());
    }
    Ok(levels)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// A buffered request/response connection.
struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

fn open_conn(addr: &str) -> Result<Conn, String> {
    let stream = connect(addr)?;
    let r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok(Conn {
        r,
        w: BufWriter::new(stream),
    })
}

/// One request/response exchange on a fresh connection, returning the
/// OK payload.
fn fetch_frame(addr: &str, req: &Request, what: &str) -> Result<Vec<u8>, String> {
    let mut c = open_conn(addr)?;
    write_request(&mut c.w, req).map_err(|e| e.to_string())?;
    c.w.flush().map_err(|e| e.to_string())?;
    let (st, body) = read_response(&mut c.r).map_err(|e| format!("{what}: {e}"))?;
    if st != ST_OK {
        return Err(format!(
            "{what} refused (status {st}): {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(body)
}

fn fetch_meta(addr: &str) -> Result<DiskMeta, String> {
    let body = fetch_frame(addr, &Request::Meta, "meta")?;
    let text = std::str::from_utf8(&body).map_err(|_| "meta payload is not UTF-8")?;
    DiskMeta::from_text(text)
}

/// Scrapes the server's `METRICS` exposition and reconstructs the
/// cumulative server-side READ latency histogram.
fn scrape_server_read_hist(addr: &str) -> Result<PowerHistogram, String> {
    let scrape = scrape_metrics(addr)?;
    scrape
        .histogram("forhdc_op_latency_ns", &[("op", "read")])?
        .ok_or_else(|| "server metrics lack forhdc_op_latency_ns{op=\"read\"}".to_string())
}

fn scrape_metrics(addr: &str) -> Result<Scrape, String> {
    let body = fetch_frame(addr, &Request::Metrics, "metrics")?;
    let text = std::str::from_utf8(&body).map_err(|_| "metrics payload is not UTF-8")?;
    Scrape::parse(text)
}

/// A deterministic per-connection seed: splitmix64 over the user seed
/// and the (level, connection) coordinates.
fn conn_seed(seed: u64, level: u32, conn: u32) -> u64 {
    let mut z = seed
        .wrapping_add((level as u64) << 32 | conn as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[allow(clippy::too_many_arguments)]
fn run_level(
    addr: &str,
    meta: &DiskMeta,
    perm: &Arc<Vec<u32>>,
    zipf: &Arc<ZipfSampler>,
    conc: u32,
    requests: u64,
    seed: u64,
    verify: bool,
    policy: RetryPolicy,
) -> Result<LevelResult, String> {
    let started = Instant::now();
    let mut workers = Vec::new();
    for conn in 0..conc {
        let n = requests / conc as u64 + u64::from((conn as u64) < requests % conc as u64);
        if n == 0 {
            continue;
        }
        let addr = addr.to_string();
        let meta = meta.clone();
        let perm = Arc::clone(perm);
        let zipf = Arc::clone(zipf);
        workers.push(thread::spawn(move || {
            conn_loop(
                &addr,
                &meta,
                &perm,
                &zipf,
                conn_seed(seed, conc, conn),
                n,
                verify,
                policy,
            )
        }));
    }
    let mut hist = PowerHistogram::new();
    let mut digest = 0u64;
    let mut outcomes = Outcomes::default();
    for w in workers {
        let (h, d, o) = w
            .join()
            .map_err(|_| "connection thread panicked".to_string())??;
        hist.merge(&h);
        digest ^= d;
        outcomes.merge(&o);
    }
    Ok(LevelResult {
        conc,
        requests: outcomes.issued(),
        secs: started.elapsed().as_secs_f64(),
        latency: hist.quantiles(),
        outcomes,
        server: None,
        digest,
    })
}

/// What one wire attempt of a request produced.
enum AttemptOutcome {
    /// Full payload received; carries the attempt's wall latency.
    Ok(u64),
    /// The attempt failed into `slot`; `retryable` marks the
    /// transient buckets worth a backoff-and-retry.
    Fail { slot: usize, retryable: bool },
}

fn fail(slot: usize, retryable: bool) -> AttemptOutcome {
    AttemptOutcome::Fail { slot, retryable }
}

/// One wire attempt: ensure a connection, send the READ, classify the
/// response. Transport failures drop the connection (the next attempt
/// reconnects) and land in the `reset` bucket. Only a payload that
/// contradicts the OK status — wrong length, verify mismatch — is a
/// hard error: that is corruption, not component failure.
fn attempt_read(
    conn: &mut Option<Conn>,
    addr: &str,
    file: u32,
    nblocks: u32,
    block_bytes: usize,
    verify: bool,
) -> Result<AttemptOutcome, String> {
    if conn.is_none() {
        match open_conn(addr) {
            Ok(c) => *conn = Some(c),
            Err(_) => return Ok(fail(EO_RESET, true)),
        }
    }
    let c = conn.as_mut().expect("connection just ensured");
    let t0 = Instant::now();
    let sent = write_request(
        &mut c.w,
        &Request::Read {
            file,
            offset: 0,
            nblocks,
        },
    )
    .and_then(|()| c.w.flush());
    if sent.is_err() {
        *conn = None;
        return Ok(fail(EO_RESET, true));
    }
    let (st, body) = match read_response(&mut c.r) {
        Ok(x) => x,
        Err(_) => {
            *conn = None;
            return Ok(fail(EO_RESET, true));
        }
    };
    match st {
        ST_OK => {
            if body.len() != nblocks as usize * block_bytes {
                return Err(format!(
                    "READ file {file}: got {} bytes, want {}",
                    body.len(),
                    nblocks as usize * block_bytes
                ));
            }
            if verify {
                for (i, page) in body.chunks_exact(block_bytes).enumerate() {
                    let want = block_payload(file, i as u64, block_bytes as u32);
                    if page != &want[..] {
                        return Err(format!("READ file {file} block {i}: payload mismatch"));
                    }
                }
            }
            Ok(AttemptOutcome::Ok(t0.elapsed().as_nanos() as u64))
        }
        ST_ERR => {
            let (code, _msg) = parse_error(&body);
            Ok(match code {
                // The server already spent its own retry budget on a
                // persistent media error; more client attempts would
                // hit the same bad sector.
                Some(ErrorCode::MediaError) => fail(EO_MEDIA, false),
                Some(c @ (ErrorCode::DiskOffline | ErrorCode::Timeout | ErrorCode::Overload)) => {
                    fail(c.index(), true)
                }
                None => fail(EO_OTHER, false),
            })
        }
        // Draining: the server refuses further work on this
        // connection, so reconnect on the retry.
        st if st == ST_SHUTTING_DOWN => {
            *conn = None;
            Ok(fail(EO_OTHER, true))
        }
        _ => Ok(fail(EO_OTHER, false)),
    }
}

/// One closed-loop connection: `n` whole-file reads drawn from the
/// Zipf popularity distribution, each retried per the policy before
/// settling into exactly one outcome bucket. Returns the ok-latency
/// histogram, the FNV digest of the request schedule (retries do not
/// change the schedule), and the outcome counts.
#[allow(clippy::too_many_arguments)]
fn conn_loop(
    addr: &str,
    meta: &DiskMeta,
    perm: &[u32],
    zipf: &ZipfSampler,
    rng_seed: u64,
    n: u64,
    verify: bool,
    policy: RetryPolicy,
) -> Result<(PowerHistogram, u64, Outcomes), String> {
    let mut conn = open_conn(addr).ok();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut hist = PowerHistogram::new();
    let mut digest = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    let mut outcomes = Outcomes::default();
    let block_bytes = meta.block_bytes as usize;
    for ri in 0..n {
        let file = perm[zipf.sample(&mut rng)];
        let offset = 0u64;
        let nblocks = meta.file_blocks;
        for b in file
            .to_le_bytes()
            .iter()
            .chain(offset.to_le_bytes().iter())
            .chain(nblocks.to_le_bytes().iter())
        {
            digest = (digest ^ *b as u64).wrapping_mul(0x100_0000_01B3);
        }
        let mut attempt = 0u32;
        loop {
            match attempt_read(&mut conn, addr, file, nblocks, block_bytes, verify)? {
                AttemptOutcome::Ok(lat_ns) => {
                    hist.record(lat_ns);
                    outcomes.ok += 1;
                    break;
                }
                AttemptOutcome::Fail { slot, retryable } => {
                    if retryable {
                        if let Some(backoff) = policy.next_backoff_ns(rng_seed, ri, attempt + 1, 0)
                        {
                            outcomes.retries += 1;
                            attempt += 1;
                            thread::sleep(Duration::from_nanos(backoff));
                            continue;
                        }
                    }
                    outcomes.errs[slot] += 1;
                    break;
                }
            }
        }
    }
    Ok((hist, digest, outcomes))
}

fn level_json(r: &LevelResult) -> String {
    let server_part = match &r.server {
        Some(q) => format!(", \"server_latency\": {}", q.to_json()),
        None => String::new(),
    };
    format!(
        "{{\"conc\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \"retries\": {}, \
         \"secs\": {:.3}, \"rps\": {:.1}, \"latency\": {}{}}}",
        r.conc,
        r.requests,
        r.outcomes.ok,
        r.outcomes.errors_json(),
        r.outcomes.retries,
        r.secs,
        r.requests as f64 / r.secs,
        r.latency.to_json(),
        server_part,
    )
}

fn results_json(
    results: &[LevelResult],
    digest: u64,
    totals: &Outcomes,
    server: Option<&Quantiles>,
) -> String {
    let mut s = String::from("{\n  \"levels\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            level_json(r),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    if let Some(q) = server {
        s.push_str(&format!("  \"server\": {},\n", q.to_json()));
    }
    s.push_str(&format!(
        "  \"conservation\": {{\"issued\": {}, \"ok\": {}, \"errors\": {}, \"retries\": {}, \
         \"balanced\": {}}},\n",
        totals.issued(),
        totals.ok,
        totals.errors(),
        totals.retries,
        totals.issued() == totals.ok + totals.errors(),
    ));
    s.push_str(&format!("  \"digest\": \"0x{digest:016x}\"\n}}\n"));
    s
}

// ---------------------------------------------------------------------------
// chaos: crash/recovery harness
// ---------------------------------------------------------------------------

/// Configuration for the spawned `serve run` under chaos.
struct ChaosCfg {
    serve_bin: PathBuf,
    dir: String,
    deadline_ms: u64,
    max_inflight: usize,
    max_queue: u32,
    faults: Option<String>,
    rebuild_mbps: u64,
}

/// A spawned server process, SIGKILLed on drop unless already reaped.
struct ServerProc(Option<std::process::Child>);

impl ServerProc {
    fn kill(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    fn wait(&mut self) -> Result<std::process::ExitStatus, String> {
        self.0
            .take()
            .ok_or_else(|| "server already reaped".to_string())?
            .wait()
            .map_err(|e| format!("wait for serve: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn spawn_server(cfg: &ChaosCfg, port: u16, port_file: &Path) -> Result<ServerProc, String> {
    let mut cmd = std::process::Command::new(&cfg.serve_bin);
    cmd.arg("run")
        .arg("--dir")
        .arg(&cfg.dir)
        .arg("--port")
        .arg(port.to_string())
        .arg("--port-file")
        .arg(port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    if cfg.deadline_ms > 0 {
        cmd.arg("--deadline-ms").arg(cfg.deadline_ms.to_string());
    }
    if cfg.max_inflight > 0 {
        cmd.arg("--max-inflight").arg(cfg.max_inflight.to_string());
    }
    if cfg.max_queue > 0 {
        cmd.arg("--max-queue").arg(cfg.max_queue.to_string());
    }
    if let Some(spec) = &cfg.faults {
        cmd.arg("--faults").arg(spec);
    }
    if cfg.rebuild_mbps > 0 {
        cmd.arg("--rebuild-mbps").arg(cfg.rebuild_mbps.to_string());
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cfg.serve_bin.display()))?;
    Ok(ServerProc(Some(child)))
}

fn wait_port_file(path: &Path, timeout: Duration) -> Result<u16, String> {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return Ok(port);
            }
        }
        if t0.elapsed() > timeout {
            return Err(format!(
                "no port file at {} after {timeout:?}",
                path.display()
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

fn wait_ping(addr: &str, timeout: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if fetch_frame(addr, &Request::Ping, "ping").is_ok() {
            return Ok(());
        }
        if t0.elapsed() > timeout {
            return Err(format!(
                "server on {addr} not answering PING after {timeout:?}"
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Sends one `FAULT` admin frame and asserts the server accepted it.
fn inject(addr: &str, req: &Request, what: &str) -> Result<(), String> {
    fetch_frame(addr, req, what).map(|_| ())
}

/// One READ on a fresh connection, returning the raw status and, for
/// `ERR`, the structured code and diagnostic.
fn probe_read(
    addr: &str,
    file: u32,
    nblocks: u32,
) -> Result<(u8, Option<ErrorCode>, String), String> {
    let mut c = open_conn(addr)?;
    write_request(
        &mut c.w,
        &Request::Read {
            file,
            offset: 0,
            nblocks,
        },
    )
    .map_err(|e| e.to_string())?;
    c.w.flush().map_err(|e| e.to_string())?;
    let (st, body) = read_response(&mut c.r).map_err(|e| format!("probe read: {e}"))?;
    if st == ST_ERR {
        let (code, msg) = parse_error(&body);
        Ok((st, code, msg))
    } else {
        Ok((st, None, String::new()))
    }
}

fn expect_err(
    what: &str,
    got: (u8, Option<ErrorCode>, String),
    want: ErrorCode,
) -> Result<String, String> {
    match got {
        (ST_ERR, Some(code), msg) if code == want => Ok(msg),
        (st, code, msg) => Err(format!(
            "probe {what}: want ERR {want}, got status {st} code {code:?} ({msg})"
        )),
    }
}

fn chaos(args: &Args) -> Result<(), String> {
    let dir = args
        .flags
        .get("dir")
        .cloned()
        .ok_or("--dir is required for chaos")?;
    let serve_bin = match args.flags.get("serve-bin") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .parent()
            .ok_or("cannot locate serve next to loadgen")?
            .join("serve"),
    };
    let conc: u32 = args.flag("conc", 8u32)?;
    if conc == 0 {
        return Err("--conc must be >= 1".into());
    }
    let requests: u64 = args.flag("requests", 600u64)?;
    let seed: u64 = args.flag("seed", 42u64)?;
    let alpha: f64 = args.flag("alpha", 0.4f64)?;
    let kill_at: f64 = args.flag("kill-at", 0.4f64)?;
    let tolerance: f64 = args.flag("tolerance", 0.25f64)?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(format!(
            "--tolerance {tolerance}: want a fraction in [0, 1]"
        ));
    }
    let mut policy = retry_policy(args)?;
    if !args.set("retries") {
        // Chaos wants workers to ride through the restart by default.
        policy.max_retries = 6;
    }
    let cfg = ChaosCfg {
        serve_bin,
        dir,
        deadline_ms: args.flag("deadline-ms", 600u64)?,
        max_inflight: args.flag("max-inflight", 0usize)?,
        max_queue: args.flag("max-queue", 0u32)?,
        faults: args.flags.get("faults").cloned(),
        rebuild_mbps: args.flag("rebuild-mbps", 0u64)?,
    };

    let port_file = std::env::temp_dir().join(format!("forhdc_chaos_port_{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut srv = spawn_server(&cfg, 0, &port_file)?;
    let port = wait_port_file(&port_file, Duration::from_secs(10))?;
    let addr = format!("127.0.0.1:{port}");
    wait_ping(&addr, Duration::from_secs(10))?;
    outln!("chaos: life 1 up on {addr}");

    let meta = fetch_meta(&addr)?;
    if meta.file_blocks > MAX_READ_BLOCKS {
        return Err(format!(
            "files of {} blocks exceed the {MAX_READ_BLOCKS}-block read limit",
            meta.file_blocks
        ));
    }
    if meta.files < 4 {
        return Err("chaos needs an array of at least 4 files".into());
    }
    let perm = Arc::new(rank_to_file(meta.files, meta.seed));
    let zipf = Arc::new(ZipfSampler::new(meta.files as usize, alpha));

    // Phase A: baseline burst.
    let a = run_level(
        &addr, &meta, &perm, &zipf, conc, requests, seed, false, policy,
    )?;
    let rps_pre = a.requests as f64 / a.secs;
    outln!(
        "chaos: phase A (baseline)   {} in {:.2}s, rps={rps_pre:.0}",
        a.outcomes.summary(),
        a.secs
    );

    // Phase B: same burst, with a SIGKILL + same-port restart landing
    // in the middle. Workers must ride through: resets are per-request
    // errors, reconnects target the restarted server.
    let kill_after = Duration::from_secs_f64((a.secs * kill_at).clamp(0.05, 5.0));
    let b_handle = {
        let addr = addr.clone();
        let meta = meta.clone();
        let perm = Arc::clone(&perm);
        let zipf = Arc::clone(&zipf);
        thread::spawn(move || {
            run_level(
                &addr,
                &meta,
                &perm,
                &zipf,
                conc,
                requests,
                seed + 1,
                false,
                policy,
            )
        })
    };
    thread::sleep(kill_after);
    srv.kill();
    outln!(
        "chaos: SIGKILL after {:.2}s, restarting on port {port}",
        kill_after.as_secs_f64()
    );
    let restart_t0 = Instant::now();
    let mut srv = spawn_server(&cfg, port, &port_file)?;
    wait_ping(&addr, Duration::from_secs(15))?;
    let restart_secs = restart_t0.elapsed().as_secs_f64();
    outln!("chaos: life 2 up on {addr} after {restart_secs:.2}s");
    let b = b_handle
        .join()
        .map_err(|_| "phase B thread panicked".to_string())??;
    outln!(
        "chaos: phase B (kill mid-sweep) {} in {:.2}s",
        b.outcomes.summary(),
        b.secs
    );
    if b.outcomes.issued() != requests {
        return Err(format!(
            "conservation broken across the crash: issued {} of the {requests} budget",
            b.outcomes.issued()
        ));
    }

    // Deterministic per-code probes against the cold restarted server.
    let disks: u16 = meta.disks;
    let mut probed: Vec<&str> = Vec::new();

    // MediaError: plant a persistent bad block under the coldest file.
    // Unmirrored, the server's own retries exhaust against it and the
    // client sees ERR media; mirrored, the read must come back OK —
    // served from the twin, with the planted sector repaired.
    let plant_file = meta.files - 1;
    inject(
        &addr,
        &Request::FaultPlant {
            file: plant_file,
            offset: 0,
        },
        "fault plant",
    )?;
    if meta.mirrored {
        let (st, code, msg) = probe_read(&addr, plant_file, meta.file_blocks)?;
        if st != ST_OK {
            return Err(format!(
                "probe media: want OK via mirror failover, got status {st} code {code:?} ({msg})"
            ));
        }
        outln!("chaos: probe media    -> OK (served from the mirror)");
    } else {
        let msg = expect_err(
            "media",
            probe_read(&addr, plant_file, meta.file_blocks)?,
            ErrorCode::MediaError,
        )?;
        outln!("chaos: probe media    -> ERR media ({msg})");
        probed.push("media");
    }

    // DiskOffline: take every disk offline, read, bring them back.
    for d in 0..disks {
        inject(
            &addr,
            &Request::FaultOffline {
                disk: d,
                ms: 60_000,
            },
            "fault offline",
        )?;
    }
    let msg = expect_err(
        "offline",
        probe_read(&addr, 0, meta.file_blocks)?,
        ErrorCode::DiskOffline,
    )?;
    for d in 0..disks {
        inject(
            &addr,
            &Request::FaultOffline { disk: d, ms: 0 },
            "fault offline clear",
        )?;
    }
    // Clearing cancels the admin window only; a `--faults` offline
    // schedule may still be open, so wait any residual window out.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (st, code, msg) = probe_read(&addr, 0, meta.file_blocks)?;
        if st == ST_OK {
            break;
        }
        if !(code == Some(ErrorCode::DiskOffline) && Instant::now() < deadline) {
            return Err(format!(
                "probe offline: read after clearing got status {st} code {code:?} ({msg})"
            ));
        }
        thread::sleep(Duration::from_millis(50));
    }
    outln!("chaos: probe offline  -> ERR offline ({msg}), cleared -> OK");
    probed.push("offline");

    // Timeout: stall every disk past the deadline; the read waits the
    // deadline out and fails with Timeout.
    if cfg.deadline_ms > 0 {
        let stall = cfg.deadline_ms.saturating_mul(3);
        for d in 0..disks {
            inject(
                &addr,
                &Request::FaultStall { disk: d, ms: stall },
                "fault stall",
            )?;
        }
        let msg = expect_err(
            "timeout",
            probe_read(&addr, 1, meta.file_blocks)?,
            ErrorCode::Timeout,
        )?;
        for d in 0..disks {
            inject(
                &addr,
                &Request::FaultStall { disk: d, ms: 0 },
                "fault stall clear",
            )?;
        }
        outln!("chaos: probe timeout  -> ERR timeout ({msg})");
        probed.push("timeout");
    }

    // Overload: stall the disks again, fill every --max-inflight slot
    // with reads that will sit in the stall window, then probe — the
    // probe must shed instantly, not hang.
    if cfg.max_inflight > 0 && cfg.deadline_ms > 0 {
        let stall = cfg.deadline_ms.saturating_mul(2);
        for d in 0..disks {
            inject(
                &addr,
                &Request::FaultStall { disk: d, ms: stall },
                "fault stall",
            )?;
        }
        let holders: Vec<_> = (0..cfg.max_inflight)
            .map(|_| {
                let addr = addr.clone();
                let nblocks = meta.file_blocks;
                thread::spawn(move || probe_read(&addr, 2, nblocks))
            })
            .collect();
        thread::sleep(Duration::from_millis(cfg.deadline_ms / 3));
        let msg = expect_err(
            "overload",
            probe_read(&addr, 3, meta.file_blocks)?,
            ErrorCode::Overload,
        )?;
        for h in holders {
            let _ = h
                .join()
                .map_err(|_| "overload holder panicked".to_string())?;
        }
        for d in 0..disks {
            inject(
                &addr,
                &Request::FaultStall { disk: d, ms: 0 },
                "fault stall clear",
            )?;
        }
        outln!("chaos: probe overload -> ERR overload ({msg})");
        probed.push("overload");
    }

    // Mirror probe (RAID1/0 arrays only): one replica of a pair going
    // offline must be invisible to clients — reads fail over to the
    // surviving twin — and clearing the window rebuilds the member
    // from its mirror while the array keeps serving.
    let mut mirror = None;
    if meta.mirrored {
        let member: u16 = 1; // twin of disk 0: every pair keeps a survivor
        let member_label = member.to_string();
        inject(
            &addr,
            &Request::FaultOffline {
                disk: member,
                ms: 600_000,
            },
            "fault offline (mirror)",
        )?;
        let m = run_level(
            &addr,
            &meta,
            &perm,
            &zipf,
            conc,
            requests,
            seed + 3,
            false,
            policy,
        )?;
        let rps_degraded = m.requests as f64 / m.secs;
        outln!(
            "chaos: phase M (degraded)   {} in {:.2}s, rps={rps_degraded:.0}",
            m.outcomes.summary(),
            m.secs
        );
        if m.outcomes.errs[EO_OFFLINE] != 0 {
            return Err(format!(
                "{} DiskOffline errors reached clients with replica {member} offline on a \
                 mirrored array",
                m.outcomes.errs[EO_OFFLINE]
            ));
        }
        if rps_degraded < tolerance * rps_pre {
            return Err(format!(
                "degraded throughput {rps_degraded:.0} rps fell below {tolerance} x baseline \
                 {rps_pre:.0} rps"
            ));
        }
        let scrape = scrape_metrics(&addr)?;
        let failovers = scrape
            .counter("forhdc_failover_reads_total", &[("disk", &member_label)])
            .unwrap_or(0);
        if failovers == 0 {
            return Err(format!(
                "forhdc_failover_reads_total{{disk=\"{member}\"}} is zero with replica \
                 {member} offline"
            ));
        }
        // Clearing the window auto-starts the rebuild; the explicit
        // REBUILD frame is then a no-op acknowledgement (or a restart
        // if the copy already finished).
        inject(
            &addr,
            &Request::FaultOffline {
                disk: member,
                ms: 0,
            },
            "fault offline clear (mirror)",
        )?;
        inject(&addr, &Request::Rebuild { disk: member }, "rebuild")?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let rebuilt = loop {
            let s = scrape_metrics(&addr)?;
            let progress = s
                .value("forhdc_rebuild_progress", &[("disk", &member_label)])
                .unwrap_or(-1.0);
            if progress >= 100.0 {
                break s.counter("forhdc_rebuild_blocks_total", &[]).unwrap_or(0);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "rebuild of disk {member} stuck at {progress}% after 60s"
                ));
            }
            thread::sleep(Duration::from_millis(50));
        };
        if rebuilt == 0 {
            return Err("forhdc_rebuild_blocks_total is zero after a completed rebuild".into());
        }
        outln!(
            "chaos: probe mirror   -> replica {member} offline invisibly ({failovers} \
             failovers), rebuilt {rebuilt} blocks"
        );
        mirror = Some((m, failovers, rebuilt, rps_degraded));
    }

    // Phase C: post-recovery burst on fresh connections.
    let c = run_level(
        &addr,
        &meta,
        &perm,
        &zipf,
        conc,
        requests,
        seed + 2,
        false,
        policy,
    )?;
    let rps_post = c.requests as f64 / c.secs;
    outln!(
        "chaos: phase C (recovered)  {} in {:.2}s, rps={rps_post:.0}",
        c.outcomes.summary(),
        c.secs
    );
    if c.outcomes.ok == 0 {
        return Err("no request succeeded after the restart — reconnect failed".into());
    }
    if rps_post < tolerance * rps_pre {
        return Err(format!(
            "post-recovery throughput {rps_post:.0} rps fell below {tolerance} x baseline \
             {rps_pre:.0} rps"
        ));
    }

    // The restarted server's counters must show every probed code.
    let scrape = scrape_metrics(&addr)?;
    let mut counter_bits = Vec::new();
    for label in &probed {
        let n = scrape
            .counter("forhdc_errors_total", &[("code", label)])
            .unwrap_or(0);
        if n == 0 {
            return Err(format!(
                "forhdc_errors_total{{code=\"{label}\"}} is zero after the {label} probe"
            ));
        }
        counter_bits.push(format!("{label}={n}"));
    }
    let retries_srv = scrape.counter("forhdc_retries_total", &[]).unwrap_or(0);
    let shed_srv = scrape.counter("forhdc_shed_total", &[]).unwrap_or(0);
    outln!(
        "chaos: life 2 metrics errors_total{{{}}} retries_total={retries_srv} shed_total={shed_srv}",
        counter_bits.join(", ")
    );

    // Conservation across every phase (three, or four with the mirror
    // probe's degraded burst): every issued request ended in exactly
    // one of ok / error / shed.
    let mut total = Outcomes::default();
    total.merge(&a.outcomes);
    total.merge(&b.outcomes);
    if let Some((m, ..)) = &mirror {
        total.merge(&m.outcomes);
    }
    total.merge(&c.outcomes);
    let phases = 3 + u64::from(mirror.is_some());
    let balanced =
        total.issued() == total.ok + total.errors() && total.issued() == phases * requests;
    outln!(
        "chaos: conservation issued={} ok={} errors={} balanced={balanced}",
        total.issued(),
        total.ok,
        total.errors(),
    );
    if !balanced {
        return Err(format!(
            "conservation broken: issued {} of the {} budget (ok {} + errors {})",
            total.issued(),
            phases * requests,
            total.ok,
            total.errors(),
        ));
    }

    // Clean drain: SHUTDOWN must be acknowledged and the process exit 0.
    fetch_frame(&addr, &Request::Shutdown, "shutdown")?;
    let status = srv.wait()?;
    if !status.success() {
        return Err(format!("server exited {status} after SHUTDOWN"));
    }
    let _ = std::fs::remove_file(&port_file);

    if let Some(path) = args.flags.get("json") {
        let probes_json = probed
            .iter()
            .map(|label| format!("\"{label}\": true"))
            .collect::<Vec<_>>()
            .join(", ");
        let mut phase_rows = vec![level_json(&a), level_json(&b)];
        if let Some((m, ..)) = &mirror {
            phase_rows.push(level_json(m));
        }
        phase_rows.push(level_json(&c));
        let phases_json = phase_rows
            .iter()
            .map(|p| format!("    {p}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let mirror_json = match &mirror {
            Some((_, failovers, rebuilt, rps_degraded)) => format!(
                "  \"mirror\": {{\"failover_reads\": {failovers}, \"rebuilt_blocks\": \
                 {rebuilt}, \"rps_degraded\": {rps_degraded:.1}}},\n"
            ),
            None => String::new(),
        };
        let json = format!(
            "{{\n  \"chaos\": {{\"rps_pre\": {rps_pre:.1}, \"rps_post\": {rps_post:.1}, \
             \"tolerance\": {tolerance}, \"kill_after_secs\": {:.3}, \
             \"restart_secs\": {restart_secs:.3}}},\n  \"phases\": [\n{phases_json}\n  \
             ],\n  \"probes\": {{{probes_json}}},\n{mirror_json}  \"conservation\": \
             {{\"issued\": {}, \
             \"ok\": {}, \"errors\": {}, \"retries\": {}, \"balanced\": {balanced}}},\n  \
             \"pass\": true\n}}\n",
            kill_after.as_secs_f64(),
            total.issued(),
            total.ok,
            total.errors_json(),
            total.retries,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }

    outln!(
        "chaos: PASS rps_pre={rps_pre:.0} rps_post={rps_post:.0} (floor {:.0})",
        tolerance * rps_pre
    );
    Ok(())
}
