//! The TCP server runtime: accept threads, per-connection handlers,
//! drain-clean shutdown.
//!
//! The listener runs non-blocking and is shared by a small pool of
//! accept threads; each accepted connection gets its own blocking
//! handler thread (the thread-per-connection model of the classic
//! servers the paper studies). A `SHUTDOWN` request flips a process-
//! wide flag: accept threads stop taking connections, in-flight
//! requests finish, new READs on surviving connections get
//! `ST_SHUTTING_DOWN`, and the main thread waits for the active count
//! to reach zero before printing the final report.
//!
//! An OK READ leaves as its header, sent with `MSG_MORE`, then one
//! `sendfile(2)` per planned image segment, with no user-space copy;
//! any other response is one write of a reused frame buffer.
//!
//! Every observable event feeds the engine's [`ServeMetrics`]: per-op
//! request counters and latency histograms, connection and inflight
//! gauges, and the flight recorder. The registry is exposed over the
//! protocol (`METRICS`/`DUMP` frames) and — when a side listener is
//! passed to [`run`] — over plain HTTP as Prometheus text exposition,
//! with windowed RPS/MBps rates appended so successive scrapes read
//! as deltas.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use forhdc_metrics::http::{read_request_path, write_response as write_http, CONTENT_TYPE_METRICS};
use forhdc_metrics::{Gauge, RateWindow};

use crate::engine::{Engine, Plan, ReadError, Segment};
use crate::metrics::{OpKind, ServeMetrics};
use crate::protocol::{
    begin_response, push_error, read_request, response_header, seal_response, ErrorCode,
    FrameError, Request, ST_BAD_REQUEST, ST_BUSY, ST_ERR, ST_INTERNAL, ST_OK, ST_RANGE,
    ST_SHUTTING_DOWN,
};
use crate::report::{server_report, stats_line, ServeTotals};
use crate::zerocopy;

/// How often accept threads poll the non-blocking listener while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// How often the main thread checks for drain completion.
const DRAIN_POLL: Duration = Duration::from_millis(50);
/// How long a drain waits for in-flight connections before the server
/// exits anyway (clients holding idle connections open must not pin a
/// terminating server forever).
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The process-wide termination request, flipped by the SIGTERM/SIGINT
/// handler the `serve` binary installs. The supervise loop polls it
/// and runs the same drain as a protocol `SHUTDOWN`, then dumps the
/// flight recorder to stderr so an operator kill still leaves a
/// post-mortem trail.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// The flag a signal handler should store `true` into to request a
/// graceful drain (async-signal-safe: a relaxed atomic store).
pub fn termination_flag() -> &'static AtomicBool {
    &TERMINATE
}

/// Tunables for [`run`].
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Accept threads sharing the listener.
    pub accept_threads: usize,
    /// Connections beyond this are answered `ST_BUSY` and closed.
    pub max_conns: usize,
    /// Seconds between stderr stats lines (0 disables them).
    pub stats_secs: u64,
    /// READs in flight beyond this are shed with `ERR Overload`
    /// (0 = unbounded). The strict server-wide admission bound; the
    /// engine's `--max-queue` is its per-disk sibling.
    pub max_inflight: usize,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            accept_threads: 2,
            max_conns: 256,
            stats_secs: 0,
            max_inflight: 0,
        }
    }
}

struct Shared {
    engine: Arc<Engine>,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    /// READs currently admitted (strict semaphore for `max_inflight`).
    read_slots: AtomicUsize,
    max_inflight: usize,
    /// Serializes flight-recorder stderr dumps so two faulting workers
    /// cannot interleave their JSONL.
    dump_lock: Mutex<()>,
}

impl Shared {
    fn new(engine: Engine, max_inflight: usize) -> Self {
        Shared {
            metrics: Arc::clone(engine.metrics()),
            engine: Arc::new(engine),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            read_slots: AtomicUsize::new(0),
            max_inflight,
            dump_lock: Mutex::new(()),
        }
    }

    fn totals(&self) -> ServeTotals {
        let m = &self.metrics;
        let mut errors_by_code = [0u64; 5];
        for (slot, c) in errors_by_code.iter_mut().zip(&m.errors_total) {
            *slot = c.get();
        }
        ServeTotals {
            connections: m.connections_total.get(),
            requests: m.requests_ok(),
            errors: m.errors_sum(),
            rejected: m.connections_rejected_total.get(),
            inflight: m.inflight_ops.get().max(0) as u64,
            shed: m.shed_total.get(),
            retries: m.retries_total.get(),
            errors_by_code,
        }
    }

    fn e2e(&self) -> forhdc_trace::Quantiles {
        self.metrics.op_latency_ns[OpKind::Read.index()]
            .snapshot()
            .quantiles()
    }

    fn report(&self) -> String {
        let snap = self.engine.snapshot();
        server_report(
            &self.engine,
            &snap,
            &self.totals(),
            &self.e2e(),
            self.metrics.uptime_secs(),
        )
    }

    /// Syncs collector families via a snapshot, then renders the
    /// exposition text. Shared by the `METRICS` frame and the HTTP
    /// endpoint.
    fn metrics_text(&self) -> String {
        let _ = self.engine.snapshot();
        self.metrics.render()
    }

    /// Writes the flight recorder to stderr between parseable markers.
    fn dump_flight_to_stderr(&self, why: &str) {
        let _guard = self.dump_lock.lock();
        let dump = self.metrics.flight.dump_jsonl();
        eprintln!(
            "serve: flight recorder dump ({} events, reason: {why}) begin",
            dump.lines().count()
        );
        eprint!("{dump}");
        eprintln!("serve: flight recorder dump end");
    }
}

/// Drops back the active-connection count (and gauge) even on handler
/// panic.
struct ActiveGuard<'a>(&'a Shared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.connections_active.dec();
    }
}

/// Holds the inflight-ops gauge up for the duration of one operation.
struct InflightGuard<'a>(&'a Gauge);

impl<'a> InflightGuard<'a> {
    fn new(g: &'a Gauge) -> Self {
        g.inc();
        InflightGuard(g)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Runs the server on an already-bound listener until a client asks it
/// to shut down, then drains and returns the final JSON report.
///
/// When `metrics_listener` is given, a side thread answers HTTP GETs
/// on it (`/metrics` or `/`) with the Prometheus exposition until
/// shutdown.
pub fn run(
    engine: Engine,
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    opts: &ServerOpts,
) -> Result<String, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let shared = Arc::new(Shared::new(engine, opts.max_inflight));
    let mut acceptors = Vec::new();
    for i in 0..opts.accept_threads.max(1) {
        let listener = listener
            .try_clone()
            .map_err(|e| format!("listener clone: {e}"))?;
        let shared = Arc::clone(&shared);
        let max_conns = opts.max_conns;
        acceptors.push(
            thread::Builder::new()
                .name(format!("accept-{i}"))
                .spawn(move || accept_loop(listener, shared, max_conns))
                .map_err(|e| format!("spawn accept thread: {e}"))?,
        );
    }
    let metrics_thread = match metrics_listener {
        Some(l) => {
            l.set_nonblocking(true)
                .map_err(|e| format!("metrics listener: {e}"))?;
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("metrics-http".to_string())
                    .spawn(move || metrics_loop(l, shared))
                    .map_err(|e| format!("spawn metrics thread: {e}"))?,
            )
        }
        None => None,
    };
    // Supervise: periodic stats, then drain once shutdown is flagged —
    // by a protocol SHUTDOWN or by the signal handler's termination
    // flag. The drain waits for in-flight connections up to a grace
    // period, then exits anyway.
    let mut last_stats = Instant::now();
    let mut draining_since: Option<Instant> = None;
    let mut terminated = false;
    loop {
        thread::sleep(DRAIN_POLL);
        if opts.stats_secs > 0 && last_stats.elapsed().as_secs() >= opts.stats_secs {
            last_stats = Instant::now();
            let snap = shared.engine.snapshot();
            eprintln!(
                "{}",
                stats_line(
                    &snap,
                    &shared.totals(),
                    &shared.e2e(),
                    shared.metrics.uptime_secs()
                )
            );
        }
        if TERMINATE.load(Ordering::SeqCst) && !terminated {
            terminated = true;
            eprintln!("serve: termination signal received, draining");
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let since = *draining_since.get_or_insert_with(Instant::now);
            let active = shared.active.load(Ordering::SeqCst);
            if active == 0 {
                break;
            }
            if since.elapsed() >= DRAIN_GRACE {
                eprintln!("serve: drain grace expired with {active} connections, exiting");
                break;
            }
        }
    }
    for a in acceptors {
        a.join().map_err(|_| "accept thread panicked".to_string())?;
    }
    if let Some(t) = metrics_thread {
        t.join()
            .map_err(|_| "metrics thread panicked".to_string())?;
    }
    if terminated {
        shared.dump_flight_to_stderr("termination signal");
    }
    Ok(shared.report())
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_conns: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reserve an active slot before the handler thread
                // exists so drain can never miss a connection.
                let was = shared.active.fetch_add(1, Ordering::SeqCst);
                if was >= max_conns {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.connections_rejected_total.inc();
                    let mut out = Responder::new(stream);
                    out.payload().extend_from_slice(b"connection limit reached");
                    out.send(ST_BUSY);
                    continue;
                }
                let conn_id = shared.metrics.connections_total.get();
                shared.metrics.connections_total.inc();
                shared.metrics.connections_active.inc();
                let worker = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name(format!("conn-{conn_id}"))
                    .spawn(move || {
                        let _guard = ActiveGuard(&worker);
                        handle_conn(&worker, stream);
                    });
                if spawned.is_err() {
                    // The guard never existed; release the slot here.
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.connections_active.dec();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves Prometheus scrapes on the side listener until shutdown.
/// Each scrape appends windowed rates derived from the previous one.
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    let window = RateWindow::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => serve_scrape(&shared, &window, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_scrape(shared: &Shared, window: &RateWindow, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::new(read_half);
    let mut w = BufWriter::new(stream);
    let path = match read_request_path(&mut r) {
        Ok(Some(p)) => p,
        Ok(None) => return,
        Err(_) => {
            let _ = write_http(&mut w, 400, "Bad Request", "text/plain", "bad request\n");
            return;
        }
    };
    if path != "/metrics" && path != "/" {
        let _ = write_http(&mut w, 404, "Not Found", "text/plain", "try /metrics\n");
        return;
    }
    let mut body = shared.metrics_text();
    push_window_rates(shared, window, &mut body);
    let _ = write_http(&mut w, 200, "OK", CONTENT_TYPE_METRICS, &body);
}

/// Appends `forhdc_window_*` gauges — rates over the interval since
/// the previous scrape of this endpoint — once a previous scrape
/// exists.
fn push_window_rates(shared: &Shared, window: &RateWindow, body: &mut String) {
    let m = &shared.metrics;
    let reads = m.requests_total[OpKind::Read.index()].get();
    let bytes = m.bytes_served_total.get();
    if let Some((secs, rates)) = window.observe(&[reads, bytes]) {
        body.push_str(&format!(
            "# HELP forhdc_window_seconds Seconds since the previous scrape\n\
             # TYPE forhdc_window_seconds gauge\n\
             forhdc_window_seconds {secs:.3}\n\
             # HELP forhdc_window_rps OK READs per second over the scrape window\n\
             # TYPE forhdc_window_rps gauge\n\
             forhdc_window_rps {:.3}\n\
             # HELP forhdc_window_mbps Served payload megabytes per second over the scrape window\n\
             # TYPE forhdc_window_mbps gauge\n\
             forhdc_window_mbps {:.3}\n",
            rates[0],
            rates[1] / 1e6,
        ));
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    serve_conn(shared, BufReader::new(read_half), stream);
}

/// Answers requests from `r` on `w` until the peer leaves, a frame is
/// malformed, or the client asks for shutdown.
fn serve_conn<R: Read, W: Wire>(shared: &Shared, mut r: R, w: W) {
    let mut w = Responder::new(w);
    loop {
        let req = match read_request(&mut r) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between frames
            Err(FrameError::Malformed(m)) => {
                shared.metrics.error_counter(None).inc();
                w.payload().extend_from_slice(m.as_bytes());
                w.send(ST_BAD_REQUEST);
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let _inflight = InflightGuard::new(&shared.metrics.inflight_ops);
        let t0 = Instant::now();
        let keep_going = match req {
            Request::Ping => respond(shared, &mut w, OpKind::Ping, t0, ST_OK, b""),
            Request::Meta => {
                let text = shared.engine.meta().to_text();
                respond(shared, &mut w, OpKind::Meta, t0, ST_OK, text.as_bytes())
            }
            Request::Stats => {
                let json = shared.report();
                respond(shared, &mut w, OpKind::Stats, t0, ST_OK, json.as_bytes())
            }
            Request::Metrics => {
                let text = shared.metrics_text();
                respond(shared, &mut w, OpKind::Metrics, t0, ST_OK, text.as_bytes())
            }
            Request::Dump => {
                let dump = shared.metrics.flight.dump_jsonl();
                respond(shared, &mut w, OpKind::Dump, t0, ST_OK, dump.as_bytes())
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = respond(shared, &mut w, OpKind::Shutdown, t0, ST_OK, b"draining");
                return;
            }
            Request::Read {
                file,
                offset,
                nblocks,
            } => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    respond(
                        shared,
                        &mut w,
                        OpKind::Read,
                        t0,
                        ST_SHUTTING_DOWN,
                        b"server is draining",
                    )
                } else {
                    serve_read(shared, &mut w, t0, file, offset, nblocks)
                }
            }
            Request::FaultOffline { disk, ms } => {
                let res = shared.engine.set_offline_ms(disk, ms);
                // Clearing a mirrored member's window means the
                // "replaced disk" is back: resynchronize it from its
                // twin automatically (a client can also REBUILD
                // explicitly; both are idempotent).
                let rebuilding = res.is_ok()
                    && ms == 0
                    && shared.engine.meta().mirrored
                    && shared.engine.rebuild(disk).unwrap_or(false);
                respond_fault(
                    shared,
                    &mut w,
                    t0,
                    res.map(|()| {
                        format!(
                            "disk {disk} offline {ms} ms{}",
                            if rebuilding { ", rebuild started" } else { "" }
                        )
                    }),
                )
            }
            Request::FaultPlant { file, offset } => {
                let res = shared.engine.plant_bad_block(file, offset);
                respond_fault(
                    shared,
                    &mut w,
                    t0,
                    res.map(|(d, b)| format!("planted bad block: disk {d} block {b}")),
                )
            }
            Request::FaultStall { disk, ms } => {
                let res = shared.engine.set_stall_ms(disk, ms);
                respond_fault(
                    shared,
                    &mut w,
                    t0,
                    res.map(|()| format!("disk {disk} stalled {ms} ms")),
                )
            }
            Request::Rebuild { disk } => {
                let res = shared.engine.rebuild(disk);
                respond_fault(
                    shared,
                    &mut w,
                    t0,
                    res.map(|started| {
                        if started {
                            format!("rebuilding disk {disk} from its mirror")
                        } else {
                            format!("disk {disk} rebuild already running")
                        }
                    }),
                )
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Strict `--max-inflight` semaphore: [`AdmitGuard::admit`] reserves a
/// READ slot or refuses at the bound; dropping the guard releases it.
struct AdmitGuard<'a>(Option<&'a Shared>);

impl<'a> AdmitGuard<'a> {
    fn admit(shared: &'a Shared) -> Option<Self> {
        if shared.max_inflight == 0 {
            return Some(AdmitGuard(None));
        }
        let prev = shared.read_slots.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.max_inflight {
            shared.read_slots.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(AdmitGuard(Some(shared)))
    }
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.0 {
            s.read_slots.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Admits (or sheds) and serves one READ, mapping engine errors onto
/// the wire: structured failures become `ERR` frames carrying their
/// [`ErrorCode`]; the legacy range/internal paths keep their dedicated
/// statuses. A planned READ is sent off every lock; if its transfer
/// fails midway the header has promised bytes that cannot follow, so
/// the connection closes.
fn serve_read<W: Wire>(
    shared: &Shared,
    w: &mut Responder<W>,
    t0: Instant,
    file: u32,
    offset: u64,
    nblocks: u32,
) -> bool {
    let Some(_slot) = AdmitGuard::admit(shared) else {
        shared.metrics.shed_total.inc();
        return respond_err(
            shared,
            w,
            ErrorCode::Overload,
            &format!(
                "READs in flight at the --max-inflight bound ({})",
                shared.max_inflight
            ),
        );
    };
    match shared.engine.plan(file, offset, nblocks, &mut w.plan) {
        Ok(()) => send_counted(shared, OpKind::Read, t0, ST_OK, || {
            w.send_read(&shared.engine).is_ok()
        }),
        Err(ReadError::Range(m)) => respond(shared, w, OpKind::Read, t0, ST_RANGE, m.as_bytes()),
        Err(ReadError::Internal(m)) => {
            // An internal error means the images failed underneath us:
            // leave a post-mortem trail.
            shared.dump_flight_to_stderr(&m);
            respond(shared, w, OpKind::Read, t0, ST_INTERNAL, m.as_bytes())
        }
        Err(ReadError::Media(m)) => respond_err(shared, w, ErrorCode::MediaError, &m),
        Err(ReadError::Offline(m)) => respond_err(shared, w, ErrorCode::DiskOffline, &m),
        Err(ReadError::Timeout(m)) => respond_err(shared, w, ErrorCode::Timeout, &m),
        Err(ReadError::Overload(m)) => respond_err(shared, w, ErrorCode::Overload, &m),
    }
}

/// Answers a `FAULT` admin frame: OK with a confirmation line, or
/// `ST_RANGE` when the target is outside the array.
fn respond_fault<W: Wire>(
    shared: &Shared,
    w: &mut Responder<W>,
    t0: Instant,
    res: Result<String, ReadError>,
) -> bool {
    match res {
        Ok(msg) => respond(shared, w, OpKind::Fault, t0, ST_OK, msg.as_bytes()),
        Err(e) => respond(
            shared,
            w,
            OpKind::Fault,
            t0,
            ST_RANGE,
            e.to_string().as_bytes(),
        ),
    }
}

/// Where a connection's responses go: a frame with one `write_all`, an
/// OK READ as its header and then each planned segment of its images.
trait Wire: Write {
    fn send_header(&mut self, header: &[u8]) -> io::Result<()>;
    fn send_segment(&mut self, image: &File, seg: &Segment) -> io::Result<()>;
}

impl Wire for TcpStream {
    fn send_header(&mut self, header: &[u8]) -> io::Result<()> {
        zerocopy::send_more(self, header)
    }

    fn send_segment(&mut self, image: &File, seg: &Segment) -> io::Result<()> {
        zerocopy::send_file(self, image, seg.offset, seg.len)
    }
}

/// One connection's write half: the stream, the frame buffer every
/// non-READ response is built in, and the reused READ plan.
struct Responder<W> {
    w: W,
    frame: Vec<u8>,
    plan: Plan,
}

impl<W: Wire> Responder<W> {
    fn new(w: W) -> Self {
        Responder {
            w,
            frame: Vec::new(),
            plan: Plan::default(),
        }
    }

    /// Starts the next response: the frame, cleared, with its header
    /// reserved. Append the payload, then [`Responder::send`].
    fn payload(&mut self) -> &mut Vec<u8> {
        begin_response(&mut self.frame);
        &mut self.frame
    }

    /// Seals the frame with `status` and sends it in one write; returns
    /// `false` when the peer is gone.
    fn send(&mut self, status: u8) -> bool {
        seal_response(&mut self.frame, status);
        self.w.write_all(&self.frame).is_ok()
    }

    /// Sends the OK READ planned into `self.plan`: the header, then
    /// each segment through [`Engine::transfer`].
    fn send_read(&mut self, engine: &Engine) -> io::Result<()> {
        let header = response_header(ST_OK, self.plan.bytes() as usize);
        self.w.send_header(&header)?;
        engine.transfer(&self.plan, |image, seg| self.w.send_segment(image, seg))
    }
}

/// Sends one structured `ERR` response, counting it into
/// `forhdc_errors_total{code=...}` first; returns `false` when the peer
/// is gone.
fn respond_err<W: Wire>(shared: &Shared, w: &mut Responder<W>, code: ErrorCode, msg: &str) -> bool {
    push_error(w.payload(), code, msg);
    shared.metrics.error_counter(Some(code)).inc();
    w.send(ST_ERR)
}

/// Sends one response with `payload`; returns `false` when the peer is
/// gone.
fn respond<W: Wire>(
    shared: &Shared,
    w: &mut Responder<W>,
    op: OpKind,
    t0: Instant,
    status: u8,
    payload: &[u8],
) -> bool {
    w.payload().extend_from_slice(payload);
    send_counted(shared, op, t0, status, || w.send(status))
}

/// Counts a response, then sends it with `send`: OK ones go into the
/// per-op request counters, the rest into the unstructured error
/// counter. Counting first means a client that has read the response
/// and then scrapes `/metrics` sees it counted. A delivered OK
/// response's latency goes into the per-op histogram. Returns whether
/// the response was delivered.
fn send_counted(
    shared: &Shared,
    op: OpKind,
    t0: Instant,
    status: u8,
    send: impl FnOnce() -> bool,
) -> bool {
    if status == ST_OK {
        shared.metrics.requests_total[op.index()].inc();
    } else {
        shared.metrics.error_counter(None).inc();
    }
    let delivered = send();
    if delivered && status == ST_OK {
        shared.metrics.op_latency_ns[op.index()].record(t0.elapsed().as_nanos() as u64);
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{block_payload, create_images, DiskMeta};
    use crate::protocol::{read_response, write_request};
    use forhdc_core::ReadAheadKind;

    fn spawn_server(
        tag: &str,
    ) -> (
        std::path::PathBuf,
        std::net::SocketAddr,
        thread::JoinHandle<Result<String, String>>,
    ) {
        spawn_server_opts(
            tag,
            crate::engine::LiveOpts::default(),
            ServerOpts::default(),
        )
    }

    fn spawn_server_opts(
        tag: &str,
        live: crate::engine::LiveOpts,
        opts: ServerOpts,
    ) -> (
        std::path::PathBuf,
        std::net::SocketAddr,
        thread::JoinHandle<Result<String, String>>,
    ) {
        let dir = std::env::temp_dir().join(format!("forhdc_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 16,
            file_blocks: 2,
            seed: 9,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open_with(&dir, meta, ReadAheadKind::For, 0, live).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || run(engine, listener, None, &opts));
        (dir, addr, handle)
    }

    fn request(stream: &mut TcpStream, req: &Request) -> (u8, Vec<u8>) {
        write_request(stream, req).unwrap();
        stream.flush().unwrap();
        read_response(stream).unwrap()
    }

    #[test]
    fn serves_reads_and_drains_on_shutdown() {
        let (dir, addr, handle) = spawn_server("basic");
        let mut c = TcpStream::connect(addr).unwrap();
        assert_eq!(request(&mut c, &Request::Ping), (ST_OK, Vec::new()));
        let (st, data) = request(
            &mut c,
            &Request::Read {
                file: 3,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        assert_eq!(&data[..4096], &block_payload(3, 0, 4096)[..]);
        assert_eq!(&data[4096..], &block_payload(3, 1, 4096)[..]);
        let (st, meta_text) = request(&mut c, &Request::Meta);
        assert_eq!(st, ST_OK);
        DiskMeta::from_text(std::str::from_utf8(&meta_text).unwrap()).unwrap();
        let (st, stats) = request(&mut c, &Request::Stats);
        assert_eq!(st, ST_OK);
        assert!(std::str::from_utf8(&stats)
            .unwrap()
            .contains("\"per_disk\""));
        let (st, range) = request(
            &mut c,
            &Request::Read {
                file: 999,
                offset: 0,
                nblocks: 1,
            },
        );
        assert_eq!(st, ST_RANGE);
        assert!(!range.is_empty());
        let (st, _) = request(&mut c, &Request::Shutdown);
        assert_eq!(st, ST_OK);
        drop(c);
        let report = handle.join().unwrap().unwrap();
        assert!(report.contains("\"e2e_latency\""), "{report}");
        // Five OK responses: ping, read, meta, stats, shutdown ack.
        assert!(report.contains("\"requests\": 5"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_and_dump_frames_answer_over_the_protocol() {
        let (dir, addr, handle) = spawn_server("frames");
        let mut c = TcpStream::connect(addr).unwrap();
        let (st, data) = request(
            &mut c,
            &Request::Read {
                file: 1,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        assert_eq!(data.len(), 2 * 4096);
        let (st, text) = request(&mut c, &Request::Metrics);
        assert_eq!(st, ST_OK);
        let text = String::from_utf8(text).unwrap();
        assert!(
            text.contains("forhdc_requests_total{op=\"read\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE forhdc_disk_service_ns histogram"),
            "{text}"
        );
        let (st, dump) = request(&mut c, &Request::Dump);
        assert_eq!(st, ST_OK);
        let dump = String::from_utf8(dump).unwrap();
        let events = forhdc_trace::parse_jsonl(&dump).expect("dump parses");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, forhdc_trace::TraceEvent::Complete { .. })),
            "{dump}"
        );
        let _ = request(&mut c, &Request::Shutdown);
        drop(c);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_side_listener_scrapes_with_window_rates() {
        let dir = std::env::temp_dir().join(format!("forhdc_server_http_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 16,
            file_blocks: 2,
            seed: 9,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mlistener = TcpListener::bind("127.0.0.1:0").unwrap();
        let maddr = mlistener.local_addr().unwrap().to_string();
        let opts = ServerOpts::default();
        let handle = thread::spawn(move || run(engine, listener, Some(mlistener), &opts));
        let scrape =
            |path: &str| forhdc_metrics::http::http_get(&maddr, path, Duration::from_secs(10));
        let first = scrape("/metrics").unwrap();
        assert!(first.contains("forhdc_uptime_seconds"), "{first}");
        // No window yet on the first scrape.
        assert!(!first.contains("forhdc_window_seconds"), "{first}");
        let mut c = TcpStream::connect(addr).unwrap();
        let (st, _) = request(
            &mut c,
            &Request::Read {
                file: 2,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        let second = scrape("/metrics").unwrap();
        assert!(second.contains("forhdc_window_seconds"), "{second}");
        assert!(second.contains("forhdc_window_rps"), "{second}");
        assert!(second.contains("forhdc_window_mbps"), "{second}");
        assert!(
            second.contains("forhdc_requests_total{op=\"read\"} 1"),
            "{second}"
        );
        assert!(scrape("/nope").is_err());
        let _ = request(&mut c, &Request::Shutdown);
        drop(c);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_frames_inject_and_err_frames_carry_codes() {
        use crate::protocol::{parse_error, ST_ERR};
        let live = crate::engine::LiveOpts {
            recovery: forhdc_fault::RetryPolicy {
                max_retries: 2,
                backoff_base_ns: 200_000,
                backoff_cap_ns: 1_000_000,
                deadline_ns: None,
            },
            ..Default::default()
        };
        let (dir, addr, handle) = spawn_server_opts("faults", live, ServerOpts::default());
        let mut c = TcpStream::connect(addr).unwrap();
        // Plant a bad block under file 3; a cold read must fail
        // ERR MediaError after the retry budget.
        let (st, msg) = request(&mut c, &Request::FaultPlant { file: 3, offset: 0 });
        assert_eq!(st, ST_OK);
        assert!(std::str::from_utf8(&msg).unwrap().contains("planted"));
        let (st, payload) = request(
            &mut c,
            &Request::Read {
                file: 3,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_ERR);
        let (code, m) = parse_error(&payload);
        assert_eq!(code, Some(ErrorCode::MediaError));
        assert!(m.contains("after 2 retries"), "{m}");
        // Take both disks offline; reads fail fast with DiskOffline.
        for disk in 0..2 {
            let (st, _) = request(&mut c, &Request::FaultOffline { disk, ms: 60_000 });
            assert_eq!(st, ST_OK);
        }
        let (st, payload) = request(
            &mut c,
            &Request::Read {
                file: 5,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_ERR);
        assert_eq!(parse_error(&payload).0, Some(ErrorCode::DiskOffline));
        // Bring them back; the same read now serves.
        for disk in 0..2 {
            let (st, _) = request(&mut c, &Request::FaultOffline { disk, ms: 0 });
            assert_eq!(st, ST_OK);
        }
        let (st, data) = request(
            &mut c,
            &Request::Read {
                file: 5,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        assert_eq!(&data[..4096], &block_payload(5, 0, 4096)[..]);
        // Admin frames validate their targets.
        let (st, _) = request(&mut c, &Request::FaultOffline { disk: 9, ms: 10 });
        assert_eq!(st, ST_RANGE);
        // The error metrics carry the per-code split.
        let (st, text) = request(&mut c, &Request::Metrics);
        assert_eq!(st, ST_OK);
        let text = String::from_utf8(text).unwrap();
        assert!(
            text.contains("forhdc_errors_total{code=\"media\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("forhdc_errors_total{code=\"offline\"} 1"),
            "{text}"
        );
        assert!(text.contains("forhdc_retries_total 2"), "{text}");
        let _ = request(&mut c, &Request::Shutdown);
        drop(c);
        let report = handle.join().unwrap().unwrap();
        assert!(report.contains("\"errors_by_code\""), "{report}");
        assert!(report.contains("\"media\": 1"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn spawn_mirrored_server(
        tag: &str,
    ) -> (
        std::path::PathBuf,
        std::net::SocketAddr,
        thread::JoinHandle<Result<String, String>>,
    ) {
        let dir =
            std::env::temp_dir().join(format!("forhdc_server_m_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 4,
            unit_blocks: 4,
            files: 16,
            file_blocks: 2,
            seed: 9,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: true,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServerOpts::default();
        let handle = thread::spawn(move || run(engine, listener, None, &opts));
        (dir, addr, handle)
    }

    /// Parses the value of a metric line like `name{labels} 42`.
    fn metric_value(text: &str, prefix: &str) -> u64 {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no metric {prefix} in:\n{text}"))
    }

    #[test]
    fn mirrored_server_fails_over_and_rebuilds_over_the_wire() {
        let (dir, addr, handle) = spawn_mirrored_server("failover");
        let mut c = TcpStream::connect(addr).unwrap();
        // Take one member of pair 0 offline; every read must still
        // answer OK from the surviving twin.
        let (st, _) = request(
            &mut c,
            &Request::FaultOffline {
                disk: 1,
                ms: 60_000,
            },
        );
        assert_eq!(st, ST_OK);
        for file in 0..16 {
            let (st, data) = request(
                &mut c,
                &Request::Read {
                    file,
                    offset: 0,
                    nblocks: 2,
                },
            );
            assert_eq!(st, ST_OK, "file {file} failed with one replica offline");
            assert_eq!(&data[..4096], &block_payload(file, 0, 4096)[..]);
        }
        let (st, text) = request(&mut c, &Request::Metrics);
        assert_eq!(st, ST_OK);
        let text = String::from_utf8(text).unwrap();
        assert!(
            metric_value(&text, "forhdc_failover_reads_total{disk=\"1\"}") > 0,
            "{text}"
        );
        assert_eq!(
            metric_value(&text, "forhdc_errors_total{code=\"offline\"}"),
            0
        );
        // Clearing the window auto-starts a rebuild from the twin.
        let (st, msg) = request(&mut c, &Request::FaultOffline { disk: 1, ms: 0 });
        assert_eq!(st, ST_OK);
        assert!(
            std::str::from_utf8(&msg)
                .unwrap()
                .contains("rebuild started"),
            "{msg:?}"
        );
        let t0 = Instant::now();
        loop {
            let (st, text) = request(&mut c, &Request::Metrics);
            assert_eq!(st, ST_OK);
            let text = String::from_utf8(text).unwrap();
            if metric_value(&text, "forhdc_rebuild_progress{disk=\"1\"}") == 100 {
                assert!(metric_value(&text, "forhdc_rebuild_blocks_total") > 0);
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "rebuild never finished"
            );
            thread::sleep(Duration::from_millis(5));
        }
        // An explicit REBUILD frame is valid too; out-of-range rejects.
        let (st, _) = request(&mut c, &Request::Rebuild { disk: 1 });
        assert_eq!(st, ST_OK);
        let (st, _) = request(&mut c, &Request::Rebuild { disk: 9 });
        assert_eq!(st, ST_RANGE);
        let (st, data) = request(
            &mut c,
            &Request::Read {
                file: 0,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        assert_eq!(data.len(), 2 * 4096);
        let _ = request(&mut c, &Request::Shutdown);
        drop(c);
        let report = handle.join().unwrap().unwrap();
        assert!(report.contains("\"mirrored\": true"), "{report}");
        assert!(report.contains("\"failover_reads\""), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_inflight_sheds_overload_and_recovers() {
        use crate::protocol::{parse_error, ST_ERR};
        let (dir, addr, handle) = spawn_server_opts(
            "shed",
            crate::engine::LiveOpts::default(),
            ServerOpts {
                max_inflight: 1,
                ..ServerOpts::default()
            },
        );
        // Stall both disks so the first READ holds its admission slot.
        let mut admin = TcpStream::connect(addr).unwrap();
        for disk in 0..2 {
            let (st, _) = request(&mut admin, &Request::FaultStall { disk, ms: 700 });
            assert_eq!(st, ST_OK);
        }
        let slow = thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            request(
                &mut c,
                &Request::Read {
                    file: 1,
                    offset: 0,
                    nblocks: 2,
                },
            )
        });
        // Let the slow READ take the only slot, then overload.
        thread::sleep(Duration::from_millis(250));
        let (st, payload) = request(
            &mut admin,
            &Request::Read {
                file: 2,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_ERR);
        let (code, m) = parse_error(&payload);
        assert_eq!(code, Some(ErrorCode::Overload));
        assert!(m.contains("max-inflight"), "{m}");
        // The stalled READ still completes OK...
        let (st, data) = slow.join().unwrap();
        assert_eq!(st, ST_OK);
        assert_eq!(data.len(), 2 * 4096);
        // ...and the slot is free again.
        let (st, _) = request(
            &mut admin,
            &Request::Read {
                file: 2,
                offset: 0,
                nblocks: 2,
            },
        );
        assert_eq!(st, ST_OK);
        let (st, text) = request(&mut admin, &Request::Metrics);
        assert_eq!(st, ST_OK);
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains("forhdc_shed_total 1"), "{text}");
        assert!(
            text.contains("forhdc_errors_total{code=\"overload\"} 1"),
            "{text}"
        );
        let _ = request(&mut admin, &Request::Shutdown);
        drop(admin);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Write` that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct CountingWriter(Vec<Vec<u8>>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// OK READs need a socket; they are checked over one in
    /// `ok_reads_sendfile_one_frame_each_over_a_socket`.
    impl Wire for &mut CountingWriter {
        fn send_header(&mut self, _: &[u8]) -> io::Result<()> {
            unreachable!("an OK READ reached the in-memory writer")
        }

        fn send_segment(&mut self, _: &File, _: &Segment) -> io::Result<()> {
            unreachable!("an OK READ reached the in-memory writer")
        }
    }

    #[test]
    fn every_response_is_one_write_of_one_frame() {
        use crate::protocol::{parse_error, ST_ERR};
        let dir = std::env::temp_dir().join(format!("forhdc_server_writes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 16,
            file_blocks: 256,
            seed: 9,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        let shared = Shared::new(engine, 0);
        let read = |file, nblocks| Request::Read {
            file,
            offset: 0,
            nblocks,
        };
        let reqs = [
            Request::Ping,
            read(999, 1),
            Request::FaultOffline {
                disk: 0,
                ms: 60_000,
            },
            Request::FaultOffline {
                disk: 1,
                ms: 60_000,
            },
            read(5, 2),
        ];
        let mut input = Vec::new();
        for r in &reqs {
            write_request(&mut input, r).unwrap();
        }
        let mut w = CountingWriter::default();
        serve_conn(&shared, std::io::Cursor::new(input), &mut w);
        assert_eq!(w.0.len(), reqs.len(), "one write per response");
        let mut frames = Vec::new();
        for bytes in &w.0 {
            let mut c = std::io::Cursor::new(bytes);
            frames.push(read_response(&mut c).unwrap());
            assert_eq!(c.position() as usize, bytes.len(), "one frame per write");
        }
        assert_eq!(frames[0], (ST_OK, Vec::new()));
        assert_eq!(frames[1].0, ST_RANGE);
        assert_eq!(frames[2].0, ST_OK);
        assert_eq!(frames[3].0, ST_OK);
        assert_eq!(frames[4].0, ST_ERR);
        assert_eq!(parse_error(&frames[4].1).0, Some(ErrorCode::DiskOffline));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Builds images for `meta` under a fresh directory named by `tag`.
    fn images(tag: &str, meta: DiskMeta) -> (std::path::PathBuf, DiskMeta) {
        let dir = std::env::temp_dir().join(format!("forhdc_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = create_images(&dir, &meta).unwrap();
        (dir, meta)
    }

    /// Serves one connection on `shared` in a thread; returns the
    /// client end and the thread, which ends when the client
    /// half-closes.
    fn one_conn(shared: Arc<Shared>) -> (TcpStream, thread::JoinHandle<Arc<Shared>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = thread::spawn(move || {
            handle_conn(&shared, stream);
            shared
        });
        (client, server)
    }

    /// Sends `reqs` back to back, half-closes, and reads every byte
    /// the server sends until it closes.
    fn pipeline(c: &mut TcpStream, reqs: &[Request]) -> Vec<u8> {
        let mut input = Vec::new();
        for r in reqs {
            write_request(&mut input, r).unwrap();
        }
        c.write_all(&input).unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut wire = Vec::new();
        c.read_to_end(&mut wire).unwrap();
        wire
    }

    #[test]
    fn ok_reads_sendfile_one_frame_each_over_a_socket() {
        use crate::protocol::{parse_error, ST_ERR};
        let (dir, meta) = images(
            "sendfile",
            DiskMeta {
                block_bytes: 4096,
                disks: 4,
                unit_blocks: 4,
                files: 16,
                file_blocks: 256,
                seed: 9,
                fragmentation: 0.0,
                disk_blocks: 0,
                mirrored: true,
            },
        );
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        // The 2-unit READ is two segments on members of both pairs.
        let mut plan = Plan::default();
        engine.plan(3, 0, 8, &mut plan).unwrap();
        let disks: Vec<u16> = plan.segments().iter().map(|s| s.disk).collect();
        assert_eq!(disks.len(), 2, "{:?}", plan.segments());
        let vd = |d| forhdc_sim::mirror::virtual_disk(d, true);
        assert_ne!(vd(disks[0]), vd(disks[1]));
        let (mut c, server) = one_conn(Arc::new(Shared::new(engine, 0)));
        let read = |file, nblocks| Request::Read {
            file,
            offset: 0,
            nblocks,
        };
        let offline = |disk| Request::FaultOffline { disk, ms: 60_000 };
        let wire = pipeline(
            &mut c,
            &[read(3, 8), read(4, 256), offline(0), offline(1), read(5, 8)],
        );
        server.join().unwrap();
        let mut r = std::io::Cursor::new(&wire[..]);
        let mut frame = || read_response(&mut r).unwrap();
        for (file, nblocks) in [(3, 8), (4, 256)] {
            let (st, data) = frame();
            assert_eq!(st, ST_OK);
            assert_eq!(data.len(), nblocks * 4096);
            for (b, page) in data.chunks_exact(4096).enumerate() {
                assert!(
                    page == &block_payload(file, b as u64, 4096)[..],
                    "file {file} block {b}"
                );
            }
        }
        assert_eq!(frame().0, ST_OK);
        assert_eq!(frame().0, ST_OK);
        let (st, payload) = frame();
        assert_eq!(st, ST_ERR);
        assert_eq!(parse_error(&payload).0, Some(ErrorCode::DiskOffline));
        assert_eq!(
            r.position() as usize,
            wire.len(),
            "bytes after the last frame"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_read_and_the_socket_share_one_decision_path() {
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 64,
            file_blocks: 8,
            seed: 13,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let (dir, meta) = images("onepath", meta);
        let open = || Engine::open(&dir, meta.clone(), ReadAheadKind::For, 64).unwrap();
        // A skewed schedule with partial reads, so hits, HDC hits,
        // read-ahead and misses all occur.
        let sched: Vec<(u32, u64, u32)> = (0..300u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let file = ((x % 64) * (x % 64) / 64) as u32;
                let offset = x % 5;
                (file, offset, (8 - offset as u32).min(1 + (x % 7) as u32))
            })
            .collect();
        let local = open();
        let mut want = Vec::new();
        for &(file, offset, nblocks) in &sched {
            local.read(file, offset, nblocks, &mut want).unwrap();
        }
        let (mut c, server) = one_conn(Arc::new(Shared::new(open(), 0)));
        let reqs: Vec<Request> = sched
            .iter()
            .map(|&(file, offset, nblocks)| Request::Read {
                file,
                offset,
                nblocks,
            })
            .collect();
        let wire = pipeline(&mut c, &reqs);
        let shared = server.join().unwrap();
        let mut r = std::io::Cursor::new(&wire[..]);
        let mut got = Vec::new();
        for _ in &sched {
            let (st, data) = read_response(&mut r).unwrap();
            assert_eq!(st, ST_OK);
            got.extend_from_slice(&data);
        }
        assert_eq!(r.position() as usize, wire.len());
        assert!(got == want, "the socket sent other bytes than Engine::read");
        let counts = |s: &crate::engine::EngineSnapshot| -> Vec<[u64; 6]> {
            s.disks
                .iter()
                .map(|d| {
                    [
                        d.extent_lookups,
                        d.extent_hits,
                        d.media_ops,
                        d.media_blocks,
                        d.read_ahead_blocks,
                        d.hdc_read_hits,
                    ]
                })
                .collect()
        };
        let (a, b) = (counts(&local.snapshot()), counts(&shared.engine.snapshot()));
        assert_eq!(a, b);
        for i in 1..6 {
            assert!(a.iter().any(|d| d[i] > 0), "counter {i} never moved: {a:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_transfer_cut_short_never_completes_an_ok_frame() {
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 1,
            unit_blocks: 4,
            files: 4,
            file_blocks: 8,
            seed: 2,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let (dir, meta) = images("cutshort", meta);
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut w = Responder::new(listener.accept().unwrap().0);
        engine.plan(3, 0, 8, &mut w.plan).unwrap();
        // The image shrinks between the plan's checks and the send.
        let seg = w.plan.segments()[0];
        std::fs::OpenOptions::new()
            .write(true)
            .open(DiskMeta::image_path(&dir, 0))
            .unwrap()
            .set_len(seg.offset + 4096)
            .unwrap();
        let err = w.send_read(&engine).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        drop(w);
        // The client gets the header and one block, then EOF: never a
        // whole frame.
        assert!(read_response(&mut c).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_image_gets_internal_and_the_connection_serves_on() {
        let (dir, addr, handle) = spawn_server("truncated");
        let mut c = TcpStream::connect(addr).unwrap();
        let (st, text) = request(&mut c, &Request::Meta);
        assert_eq!(st, ST_OK);
        let meta = DiskMeta::from_text(std::str::from_utf8(&text).unwrap()).unwrap();
        // Cut the image holding the last file at that file's first block.
        let last = meta.files - 1;
        let logical = meta
            .layout()
            .block_at(forhdc_layout::FileId::new(last), 0)
            .unwrap();
        let (disk, phys) = meta.striping().locate(logical);
        std::fs::OpenOptions::new()
            .write(true)
            .open(DiskMeta::image_path(&dir, disk.index()))
            .unwrap()
            .set_len(phys.index() * 4096)
            .unwrap();
        let read = |file| Request::Read {
            file,
            offset: 0,
            nblocks: 2,
        };
        let (st, msg) = request(&mut c, &read(last));
        assert_eq!(st, ST_INTERNAL);
        assert!(std::str::from_utf8(&msg)
            .unwrap()
            .contains("image read failed"));
        let (st, data) = request(&mut c, &read(0));
        assert_eq!(st, ST_OK);
        assert_eq!(&data[..4096], &block_payload(0, 0, 4096)[..]);
        assert_eq!(&data[4096..], &block_payload(0, 1, 4096)[..]);
        let _ = request(&mut c, &Request::Shutdown);
        drop(c);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frame_gets_bad_request() {
        let (dir, addr, handle) = spawn_server("malformed");
        let mut c = TcpStream::connect(addr).unwrap();
        // 1-byte frame with an unknown opcode.
        c.write_all(&1u32.to_le_bytes()).unwrap();
        c.write_all(&[200u8]).unwrap();
        c.flush().unwrap();
        let (st, msg) = read_response(&mut c).unwrap();
        assert_eq!(st, ST_BAD_REQUEST);
        assert!(std::str::from_utf8(&msg).unwrap().contains("opcode"));
        drop(c);
        let mut c2 = TcpStream::connect(addr).unwrap();
        let _ = request(&mut c2, &Request::Shutdown);
        drop(c2);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
