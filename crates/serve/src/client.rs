//! The closed-loop client: the paper's "S streams replaying requests
//! as fast as possible" against a live server.
//!
//! A [`Target`] holds a server's address and the array metadata it
//! answers `META` with. [`run_level`] splits a request budget across
//! `conc` connections, and each connection runs `conn_loop`: draw a
//! file from the Zipf popularity distribution, read it whole, wait for
//! the bytes, repeat. The per-connection schedule is a pure function of
//! `(seed, level, connection)`, so a fixed seed reproduces the
//! identical request sequence, and [`LevelResult::digest`] (an
//! order-independent XOR of per-connection FNV hashes) makes that
//! checkable from the outside.
//!
//! Every issued request ends in exactly one [`Outcomes`] bucket — `ok`
//! or one of the error buckets (`media`/`offline`/`timeout`/`overload`
//! from the server's structured `ERR` frames, `reset` for connection
//! failures, `other` for anything else) — so `issued == ok + errors`
//! holds by construction. A connection reset is a per-request error,
//! not a failure of the run: the worker reconnects and keeps going. A
//! [`RetryPolicy`] arms client-side retries for the transient buckets
//! (offline, overload, reset, and the draining status) with capped
//! exponential backoff whose jitter is a pure function of
//! `(connection seed, request, attempt)`.
//!
//! `loadgen` sweeps [`run_level`] over concurrency levels; the chaos
//! harness ([`crate::chaos`]) runs it across a server crash.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use forhdc_fault::RetryPolicy;
use forhdc_metrics::Scrape;
use forhdc_trace::{PowerHistogram, Quantiles};
use forhdc_workload::ZipfSampler;

use crate::image::{block_payload, rank_to_file, DiskMeta};
use crate::protocol::{
    parse_error, read_response, write_request, ErrorCode, Request, MAX_READ_BLOCKS, ST_ERR, ST_OK,
    ST_SHUTTING_DOWN,
};

/// Error-bucket slots. The first four mirror [`ErrorCode::index`];
/// `reset` is any transport failure (refused connect, mid-frame
/// close), `other` any remaining non-OK status.
pub const EO_MEDIA: usize = 0;
pub const EO_OFFLINE: usize = 1;
pub const EO_TIMEOUT: usize = 2;
pub const EO_OVERLOAD: usize = 3;
pub const EO_RESET: usize = 4;
pub const EO_OTHER: usize = 5;
/// Bucket names, in slot order.
pub const EO_LABELS: [&str; 6] = ["media", "offline", "timeout", "overload", "reset", "other"];

/// Per-outcome request accounting. Every issued request lands in
/// exactly one bucket, so `issued() == ok + errors()` always.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests answered `ST_OK` with the full payload.
    pub ok: u64,
    /// Final failures by bucket ([`EO_LABELS`] order).
    pub errs: [u64; 6],
    /// Client-side retry attempts (not an outcome; a retried request
    /// still ends in exactly one bucket).
    pub retries: u64,
}

impl Outcomes {
    /// Requests that ended in an error bucket.
    pub fn errors(&self) -> u64 {
        self.errs.iter().sum()
    }

    /// Requests issued: every one ended `ok` or in an error bucket.
    pub fn issued(&self) -> u64 {
        self.ok + self.errors()
    }

    /// Adds `o`'s counts to these.
    pub fn merge(&mut self, o: &Outcomes) {
        self.ok += o.ok;
        for (a, b) in self.errs.iter_mut().zip(o.errs.iter()) {
            *a += b;
        }
        self.retries += o.retries;
    }
}

/// One level's measured outcome.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Connections the budget was split across.
    pub conc: u32,
    /// Requests issued.
    pub requests: u64,
    /// Wall seconds from the first connect to the last answer.
    pub secs: f64,
    /// Latency of the `ok` requests (last attempt only).
    pub latency: Quantiles,
    /// Where every request ended.
    pub outcomes: Outcomes,
    /// Server-side READ latency over this level, when the caller
    /// scraped it.
    pub server: Option<Quantiles>,
    /// XOR of the per-connection schedule digests.
    pub digest: u64,
}

impl LevelResult {
    /// Requests per second.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.secs
    }
}

/// A server to read from, with the array layout it serves.
#[derive(Debug, Clone)]
pub struct Target {
    /// `HOST:PORT`.
    pub addr: String,
    /// The server's `META` answer.
    pub meta: DiskMeta,
    /// Popularity rank to file id.
    perm: Arc<Vec<u32>>,
    zipf: Arc<ZipfSampler>,
    /// Requests settled through this target and its clones.
    settled: Arc<AtomicU64>,
}

impl Target {
    /// Fetches `META` from `addr` and builds the Zipf(`alpha`)
    /// popularity over its files.
    pub fn open(addr: &str, alpha: f64) -> Result<Target, String> {
        let meta = fetch_meta(addr)?;
        if meta.file_blocks > MAX_READ_BLOCKS {
            return Err(format!(
                "files of {} blocks exceed the {MAX_READ_BLOCKS}-block read limit",
                meta.file_blocks
            ));
        }
        Ok(Target {
            addr: addr.to_string(),
            perm: Arc::new(rank_to_file(meta.files, meta.seed)),
            zipf: Arc::new(ZipfSampler::new(meta.files as usize, alpha)),
            meta,
            settled: Arc::default(),
        })
    }

    /// Requests that have settled into an outcome bucket through this
    /// target or any clone of it, across every [`run_level`] so far.
    /// It rises while a level runs, so another thread can act once a
    /// level is part way through.
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Relaxed)
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// A buffered request/response connection.
pub(crate) struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    pub(crate) fn open(addr: &str) -> Result<Conn, String> {
        let stream = connect(addr)?;
        let r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            r,
            w: BufWriter::new(stream),
        })
    }

    /// Sends `req` and returns the response's status and payload.
    pub(crate) fn call(&mut self, req: &Request) -> Result<(u8, Vec<u8>), String> {
        write_request(&mut self.w, req)
            .and_then(|()| self.w.flush())
            .map_err(|e| e.to_string())?;
        read_response(&mut self.r).map_err(|e| e.to_string())
    }
}

/// One request/response exchange on a fresh connection, returning the
/// OK payload.
pub fn fetch_frame(addr: &str, req: &Request, what: &str) -> Result<Vec<u8>, String> {
    let (st, body) = Conn::open(addr)?
        .call(req)
        .map_err(|e| format!("{what}: {e}"))?;
    if st != ST_OK {
        return Err(format!(
            "{what} refused (status {st}): {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(body)
}

/// The server's array metadata (`META`).
fn fetch_meta(addr: &str) -> Result<DiskMeta, String> {
    let body = fetch_frame(addr, &Request::Meta, "meta")?;
    let text = std::str::from_utf8(&body).map_err(|_| "meta payload is not UTF-8")?;
    DiskMeta::from_text(text)
}

/// The server's metrics exposition (`METRICS`), parsed.
pub fn scrape_metrics(addr: &str) -> Result<Scrape, String> {
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

/// Splits `requests` across `conc` closed-loop connections to `target`
/// and waits for all of them. `verify` checks every payload byte.
pub fn run_level(
    target: &Target,
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
        let target = target.clone();
        workers.push(thread::spawn(move || {
            conn_loop(&target, conn_seed(seed, conc, conn), n, verify, policy)
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
        match Conn::open(addr) {
            Ok(c) => *conn = Some(c),
            Err(_) => return Ok(fail(EO_RESET, true)),
        }
    }
    let c = conn.as_mut().expect("connection just ensured");
    let t0 = Instant::now();
    let (st, body) = match c.call(&Request::Read {
        file,
        offset: 0,
        nblocks,
    }) {
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
fn conn_loop(
    target: &Target,
    rng_seed: u64,
    n: u64,
    verify: bool,
    policy: RetryPolicy,
) -> Result<(PowerHistogram, u64, Outcomes), String> {
    let addr = target.addr.as_str();
    let mut conn = Conn::open(addr).ok();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut hist = PowerHistogram::new();
    let mut digest = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    let mut outcomes = Outcomes::default();
    let block_bytes = target.meta.block_bytes as usize;
    for ri in 0..n {
        let file = target.perm[target.zipf.sample(&mut rng)];
        let offset = 0u64;
        let nblocks = target.meta.file_blocks;
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
        target.settled.fetch_add(1, Ordering::Relaxed);
    }
    Ok((hist, digest, outcomes))
}
