//! The live-server workloads: a disk-image array served by
//! `forhdc_serve::run` inside this process and read whole-file over
//! loopback TCP by a closed loop of client threads.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use forhdc_core::controller::ControllerDecision;
use forhdc_core::{DiskController, ReadAheadKind};
use forhdc_layout::{build_disk_bitmaps, FileId, FileMap};
use forhdc_serve::image::{block_payload, create_images, open_dir, rank_to_file, DiskMeta};
use forhdc_serve::protocol::{
    read_request, write_request, write_response, Request, MAX_RESPONSE_FRAME, ST_OK,
};
use forhdc_serve::{Engine, LiveOpts, ServerOpts};
use forhdc_sim::{DiskConfig, PhysBlock, ReadWrite, StripingMap};
use forhdc_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hist::Hist;
use crate::json::Json;
use crate::spans::{Span, Spans, ROOT};
use crate::workloads::LiveSpec;
use crate::{fastest, median, rss_mb, Outcome};

/// Popularity skew of the whole-file READs (as `loadgen`).
const ZIPF_ALPHA: f64 = 0.4;
/// The image layout seed. Images are a fixture shared by every run
/// seed (the run seed drives the request schedule), so ten seeds do not
/// build ten 512-MiB arrays.
const IMAGE_SEED: u64 = 42;
/// Server start-ups per run; `setup_s` is the fastest. A start-up takes
/// 0.4-4 ms, so many are cheap, and the fastest of many is the least
/// moved by a busy host.
const SETUPS: usize = 25;
/// Length of one timed closed-loop window, seconds.
const WINDOW_S: f64 = 0.5;
/// Calls per span in the layer passes.
const BATCH: usize = 1024;

/// The client connection count: one per hardware thread.
pub fn connections() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn meta_for(spec: &LiveSpec) -> DiskMeta {
    DiskMeta {
        block_bytes: DiskConfig::default().block_bytes(),
        disks: spec.disks,
        unit_blocks: spec.unit_blocks,
        files: spec.files,
        file_blocks: spec.file_blocks,
        seed: IMAGE_SEED,
        fragmentation: 0.0,
        disk_blocks: 0,
        mirrored: spec.mirrored,
    }
}

fn hdc_blocks(spec: &LiveSpec) -> u32 {
    spec.hdc_kib * 1024 / DiskConfig::default().block_bytes()
}

/// FNV-1a over what the images of `meta` hold: the manifest, where the
/// layout and striping put every file's extents, and a few blocks'
/// payloads. The cache directory is named by it, so a build whose
/// serve crate lays images out or fills them differently gets a fresh
/// fixture instead of images an older build wrote.
fn fingerprint(meta: &DiskMeta) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(meta.to_text().as_bytes());
    let map = meta.layout();
    let striping = meta.striping();
    for f in 0..meta.files {
        for e in map.extents(FileId::new(f)) {
            let (disk, phys) = striping.locate(e.start);
            for x in [
                e.start.index(),
                e.len as u64,
                disk.index() as u64,
                phys.index(),
            ] {
                eat(&x.to_le_bytes());
            }
        }
    }
    for f in [0, meta.files - 1] {
        eat(&block_payload(
            f,
            meta.file_blocks as u64 - 1,
            meta.block_bytes,
        ));
    }
    h
}

/// The cached image directory for `spec`, created on first use. It is
/// built under a temporary name and renamed into place, so a killed
/// run never leaves a half-written fixture behind, and a fixture in
/// place is never replaced while another run may be reading it.
fn fixture(spec: &LiveSpec, root: &Path) -> Result<(PathBuf, DiskMeta), String> {
    let want = meta_for(spec);
    let dir = root.join("images").join(format!(
        "d{}-f{}x{}-u{}-m{}-{:016x}",
        want.disks,
        want.files,
        want.file_blocks,
        want.unit_blocks,
        want.mirrored as u8,
        fingerprint(&want)
    ));
    if let Ok(meta) = open_dir(&dir) {
        let mut probe = meta.clone();
        probe.disk_blocks = 0;
        if probe == want {
            return Ok((dir, meta));
        }
    }
    if dir.exists() {
        // Damaged, as this name is only ever renamed into place whole:
        // move it aside, then rebuild.
        let stale = dir.with_extension(format!("stale-{}", std::process::id()));
        std::fs::rename(&dir, &stale).map_err(|e| format!("move {}: {e}", dir.display()))?;
        let _ = std::fs::remove_dir_all(&stale);
    }
    let tmp = dir.with_extension(format!("partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let t = Instant::now();
    create_images(&tmp, &want)?;
    if std::fs::rename(&tmp, &dir).is_err() {
        // Another run won the race; use its images.
        let _ = std::fs::remove_dir_all(&tmp);
    }
    eprintln!(
        "{}: built images in {:.1} s at {}",
        spec.name,
        t.elapsed().as_secs_f64(),
        dir.display()
    );
    let meta = open_dir(&dir)?;
    Ok((dir, meta))
}

/// splitmix64 over the run seed and the connection index.
fn conn_seed(seed: u64, conn: usize) -> u64 {
    let mut z = seed
        .wrapping_add((conn as u64) << 32)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each connection's file sequence: Zipf ranks over the image's
/// popularity permutation (the one the server's HDC pinning uses).
fn schedules(meta: &DiskMeta, seed: u64, conns: usize, len: usize) -> Vec<Vec<u32>> {
    let perm = rank_to_file(meta.files, meta.seed);
    let zipf = ZipfSampler::new(meta.files as usize, ZIPF_ALPHA);
    (0..conns)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(conn_seed(seed, c));
            (0..len).map(|_| perm[zipf.sample(&mut rng)]).collect()
        })
        .collect()
}

/// The connections' sequences interleaved, as one thread replays them.
fn merged(scheds: &[Vec<u32>], n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| scheds[i % scheds.len()][(i / scheds.len()) % scheds[0].len()])
        .collect()
}

fn read_frame(file: u32, nblocks: u32, out: &mut Vec<u8>) {
    out.clear();
    write_request(
        out,
        &Request::Read {
            file,
            offset: 0,
            nblocks,
        },
    )
    .expect("writing to a Vec cannot fail");
}

/// One client connection with a reused response buffer.
struct Conn {
    s: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn { s, buf: Vec::new() })
    }

    /// Reads one response frame; returns its status byte.
    fn recv(&mut self) -> io::Result<u8> {
        let mut len4 = [0u8; 4];
        self.s.read_exact(&mut len4)?;
        let len = u32::from_le_bytes(len4);
        if len == 0 || len > MAX_RESPONSE_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response frame of {len} bytes"),
            ));
        }
        self.buf.resize(len as usize, 0);
        self.s.read_exact(&mut self.buf)?;
        Ok(self.buf[0])
    }

    fn payload(&self) -> &[u8] {
        &self.buf[1..]
    }

    /// One control exchange; the OK payload.
    fn call(&mut self, req: &Request) -> Result<&[u8], String> {
        let mut frame = Vec::new();
        write_request(&mut frame, req).expect("writing to a Vec cannot fail");
        self.s
            .write_all(&frame)
            .map_err(|e| format!("{req:?}: {e}"))?;
        let st = self.recv().map_err(|e| format!("{req:?}: {e}"))?;
        if st != ST_OK {
            return Err(format!(
                "{req:?} answered status {st}: {}",
                String::from_utf8_lossy(self.payload())
            ));
        }
        Ok(self.payload())
    }
}

/// A server running on a thread of this process.
struct Server {
    addr: SocketAddr,
    handle: thread::JoinHandle<Result<String, String>>,
}

impl Server {
    /// Opens a fresh engine over the images and serves it, exactly as
    /// `serve run` does with its defaults. Returns the server and the
    /// seconds from `Engine::open_with` to the first answered PING.
    fn start(dir: &Path, meta: &DiskMeta, hdc: u32) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let engine = Engine::open_with(
            dir,
            meta.clone(),
            ReadAheadKind::For,
            hdc,
            LiveOpts::default(),
        )?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let handle = thread::Builder::new()
            .name("server".into())
            .spawn(move || forhdc_serve::run(engine, listener, None, &ServerOpts::default()))
            .map_err(|e| format!("spawn server: {e}"))?;
        let server = Server { addr, handle };
        let ping = Conn::open(addr).and_then(|mut c| c.call(&Request::Ping).map(|_| ()));
        let secs = t0.elapsed().as_secs_f64();
        if let Err(e) = ping {
            let _ = server.stop();
            return Err(e);
        }
        Ok((server, secs))
    }

    /// Drains the server and returns its final report.
    fn stop(self) -> Result<String, String> {
        let sent = Conn::open(self.addr).and_then(|mut c| c.call(&Request::Shutdown).map(|_| ()));
        let joined = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        sent?;
        joined
    }
}

/// What one closed-loop window produced.
struct Window {
    ok: u64,
    failed: u64,
    problems: Vec<String>,
    hist: Hist,
    secs: f64,
    spans: Option<Spans>,
}

/// Runs every connection closed-loop for `dur`: each sends its next
/// READ only after the previous response arrived. `verify` checks every
/// payload byte; `trace` records `client.*` spans into buffers of the
/// given capacity.
fn window(
    addr: SocketAddr,
    meta: &DiskMeta,
    scheds: &[Vec<u32>],
    cursors: &mut [usize],
    dur: Duration,
    verify: bool,
    trace: Option<(Instant, usize)>,
) -> Result<Window, String> {
    let conns: Vec<Conn> = scheds
        .iter()
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(scheds.len() + 1);
    let nconns = scheds.len() as u64;
    let nblocks = meta.file_blocks;
    let bs = meta.block_bytes as usize;
    let want = nblocks as usize * bs;
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(scheds.iter().zip(cursors.iter_mut()))
            .enumerate()
            .map(|(ci, (mut c, (sched, cursor)))| {
                let (stop, barrier) = (&stop, &barrier);
                s.spawn(move || {
                    let mut spans = trace.map(|(origin, cap)| Spans::with_capacity(origin, cap));
                    let mut hist = Hist::new();
                    let (mut ok, mut failed) = (0u64, 0u64);
                    let mut problems = Vec::new();
                    let mut frame = Vec::with_capacity(32);
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let file = sched[*cursor % sched.len()];
                        let req = *cursor as u64 * nconns + ci as u64;
                        *cursor += 1;
                        read_frame(file, nblocks, &mut frame);
                        let t0 = Instant::now();
                        let sent = c.s.write_all(&frame);
                        let t1 = spans.as_ref().map(|_| Instant::now());
                        let st = sent.and_then(|()| c.recv());
                        let t2 = Instant::now();
                        let st = match st {
                            Ok(st) => st,
                            Err(e) => {
                                problems.push(format!("READ file {file}: {e}"));
                                failed += 1;
                                break;
                            }
                        };
                        if let (Some(sp), Some(t1)) = (spans.as_mut(), t1) {
                            let origin = trace.expect("spans imply trace").0;
                            let ns = |t: Instant| (t - origin).as_nanos() as u64;
                            let root = sp.push(Span {
                                req,
                                name: "client.request",
                                parent: ROOT,
                                start_ns: ns(t0),
                                end_ns: ns(t2),
                            });
                            if root != ROOT {
                                for (name, a, b) in
                                    [("client.send", t0, t1), ("client.recv", t1, t2)]
                                {
                                    sp.push(Span {
                                        req,
                                        name,
                                        parent: root,
                                        start_ns: ns(a),
                                        end_ns: ns(b),
                                    });
                                }
                            }
                        }
                        let body = c.payload();
                        if st != ST_OK || body.len() != want {
                            failed += 1;
                            if problems.len() < 5 {
                                problems.push(format!(
                                    "READ file {file}: status {st}, {} bytes (want {want})",
                                    body.len()
                                ));
                            }
                            continue;
                        }
                        if verify {
                            let bad = body.chunks_exact(bs).enumerate().find(|&(i, page)| {
                                page != &block_payload(file, i as u64, bs as u32)[..]
                            });
                            if let Some((i, _)) = bad {
                                failed += 1;
                                if problems.len() < 5 {
                                    problems.push(format!(
                                        "READ file {file} block {i}: payload mismatch"
                                    ));
                                }
                                continue;
                            }
                        }
                        hist.record((t2 - t0).as_nanos() as u64);
                        ok += 1;
                    }
                    (ok, failed, problems, hist, Instant::now(), spans)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        let mut w = Window {
            ok: 0,
            failed: 0,
            problems: Vec::new(),
            hist: Hist::new(),
            secs: 0.0,
            spans: trace.map(|(origin, _)| Spans::with_capacity(origin, 0)),
        };
        let mut end = start;
        for h in handles {
            let (ok, failed, problems, hist, done, spans) =
                h.join().map_err(|_| "client thread panicked".to_string())?;
            w.ok += ok;
            w.failed += failed;
            w.problems.extend(problems);
            w.hist.merge(&hist);
            end = end.max(done);
            if let (Some(all), Some(sp)) = (w.spans.as_mut(), spans) {
                all.absorb(sp);
            }
        }
        w.secs = (end - start).as_secs_f64();
        Ok(w)
    })
}

/// Checks the server's `STATS` count of OK requests against the
/// client's: every OK READ plus the start-up PING.
///
/// The server counts a response just after flushing it, so the last
/// READs may land a moment after the client has them. `STATS` is polled
/// until the count is complete or a second has passed. Each poll counts
/// itself once answered, so poll `k` (from 0) must see exactly
/// `k` more; a count beyond that is a failure at once.
fn check_stats(server: &Server, reads_ok: u64, problems: &mut Vec<String>) -> Result<Json, String> {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut c = Conn::open(server.addr)?;
    let mut k = 0u64;
    loop {
        let body = c.call(&Request::Stats)?;
        let stats =
            Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("STATS: {e}"))?;
        let got = stats
            .at(&["totals", "requests"])
            .and_then(Json::num)
            .unwrap_or(-1.0);
        let want = (reads_ok + 1 + k) as f64;
        if got == want {
            return Ok(stats);
        }
        if got > want || Instant::now() >= deadline {
            problems.push(format!(
                "STATS counts {got} OK requests; the client saw {reads_ok} READs + 1 PING \
                 + {k} earlier STATS"
            ));
            return Ok(stats);
        }
        thread::sleep(Duration::from_millis(2));
        k += 1;
    }
}

/// The end-to-end run: set the server up [`SETUPS`] times, warm it up
/// verifying every byte, then time `seconds` of closed-loop windows.
/// Each window of [`WINDOW_S`] runs on fresh connections (so fresh
/// server threads and a fresh draw of their CPU placement); every
/// reported figure is the median over windows, which damps transient
/// stalls of a shared host.
pub fn e2e(spec: &LiveSpec, seed: u64, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let (dir, meta) = fixture(spec, root)?;
    let conns = connections();
    let len = ((150_000.0 * (seconds + spec.warmup_s)) as usize / conns).clamp(1 << 12, 1 << 20);
    let scheds = schedules(&meta, seed, conns, len);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for i in 0..SETUPS {
        let (s, secs) = Server::start(&dir, &meta, hdc_blocks(spec))?;
        setups.push(secs);
        if i + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS >= 1");
    let mut cursors = vec![0usize; conns];
    let warm = window(
        server.addr,
        &meta,
        &scheds,
        &mut cursors,
        Duration::from_secs_f64(spec.warmup_s),
        true,
        None,
    )?;
    let (mut ok, mut failed) = (warm.ok, warm.failed);
    let mut problems = warm.problems;
    let (mut rps, mut p50, mut p99, mut p999) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let n = ((seconds / WINDOW_S).round() as usize).max(3);
    let mut samples = 0;
    for _ in 0..n {
        let w = window(
            server.addr,
            &meta,
            &scheds,
            &mut cursors,
            Duration::from_secs_f64(seconds / n as f64),
            false,
            None,
        )?;
        ok += w.ok;
        failed += w.failed;
        problems.extend(w.problems);
        let h = &w.hist;
        if h.supported_percentile(10).is_none_or(|p| p < 99.0) {
            problems.push(format!(
                "a window of {} samples cannot support p99 (needs 1000)",
                h.count()
            ));
        }
        samples += h.count();
        rps.push(w.ok as f64 / w.secs);
        p50.push(h.percentile(50.0).unwrap_or(0.0) / 1e3);
        p99.push(h.percentile(99.0).unwrap_or(0.0) / 1e3);
        p999.push(h.percentile(99.9).unwrap_or(0.0) / 1e3);
    }
    check_stats(&server, ok, &mut problems)?;
    server.stop()?;
    eprintln!(
        "{}: {conns} conns, {n} windows, {samples} samples; medians: {:.0} rps, \
         p50 {:.2} us, p99 {:.2} us, p99.9 {:.2} us",
        spec.name,
        median(&rps),
        median(&p50),
        median(&p99),
        median(&p999)
    );
    Ok(Outcome {
        attempted: ok + failed,
        failed,
        metrics: vec![
            ("rps", median(&rps), "1/s"),
            ("p50_us", median(&p50), "us"),
            ("p99_us", median(&p99), "us"),
            ("setup_s", fastest(&setups), "s"),
            ("rss_mb", rss_mb(), "MiB"),
            ("p999_us", median(&p999), "us"),
            (
                "error_rate",
                failed as f64 / (ok + failed).max(1) as f64,
                "ratio",
            ),
            ("connections", conns as f64, "count"),
        ],
        problems,
    })
}

/// One piece of a request on one physical disk, and the media run the
/// controller asked for (`None` = cache hit).
#[derive(Clone, Copy)]
struct Piece {
    disk: u16,
    start: PhysBlock,
    nblocks: u32,
    media: Option<(PhysBlock, u32)>,
}

/// Standalone controllers that see exactly what the engine's see: built
/// and pinned as `Engine::open` builds and pins them, fed the same
/// pieces in the same order, with the same mirror read-split and
/// media-run clipping. Driven in lockstep with an engine, they say
/// which of its reads hit.
struct Replica {
    meta: DiskMeta,
    map: FileMap,
    striping: StripingMap,
    ctls: Vec<DiskController>,
    rr: Vec<u64>,
}

impl Replica {
    fn new(meta: &DiskMeta, hdc: u32) -> Replica {
        let map = meta.layout();
        let striping = meta.striping();
        let cfg = DiskConfig::default();
        let bitmaps = build_disk_bitmaps(&map, &striping, meta.disk_blocks);
        let mut ctls: Vec<DiskController> = (0..meta.disks)
            .map(|d| {
                let vd = if meta.mirrored { d / 2 } else { d };
                DiskController::new(
                    &cfg,
                    ReadAheadKind::For,
                    hdc,
                    Some(bitmaps[vd as usize].clone()),
                )
            })
            .collect();
        if hdc > 0 {
            let mut full = vec![false; ctls.len()];
            let mut nfull = 0;
            'files: for &file in &rank_to_file(meta.files, meta.seed) {
                for off in 0..meta.file_blocks as u64 {
                    let Some(logical) = map.block_at(FileId::new(file), off) else {
                        continue;
                    };
                    let (disk, phys) = striping.locate(logical);
                    for m in meta.members(disk.index()) {
                        let m = m as usize;
                        if full[m] {
                            continue;
                        }
                        if !ctls[m].pin(phys) {
                            full[m] = true;
                            nfull += 1;
                            if nfull == ctls.len() {
                                break 'files;
                            }
                        }
                    }
                }
            }
        }
        Replica {
            rr: vec![0; meta.virtual_disks() as usize],
            meta: meta.clone(),
            map,
            striping,
            ctls,
        }
    }

    /// Splits a whole-file read into `(virtual disk, start, nblocks)`
    /// pieces at striping-unit boundaries, as `Engine::read` does.
    fn split(&self, file: u32, out: &mut Vec<(u16, PhysBlock, u32)>) {
        out.clear();
        let unit = self.striping.unit_blocks() as u64;
        for e in self.map.extents(FileId::new(file)) {
            let mut cursor = e.start;
            let mut left = e.len as u64;
            while left > 0 {
                let chunk = (unit - cursor.index() % unit).min(left);
                let (disk, phys) = self.striping.locate(cursor);
                out.push((disk.index(), phys, chunk as u32));
                cursor = cursor.offset(chunk);
                left -= chunk;
            }
        }
    }

    /// The physical member that serves a piece on virtual disk `vd`.
    fn member(&mut self, vd: u16) -> u16 {
        if !self.meta.mirrored {
            return vd;
        }
        let tick = self.rr[vd as usize];
        self.rr[vd as usize] += 1;
        vd * 2 + (tick & 1) as u16
    }

    /// The controller's decision for one piece, completing its media
    /// run at once (clipped to the image as the engine clips it).
    fn decide(&mut self, disk: u16, start: PhysBlock, nblocks: u32) -> Option<(PhysBlock, u32)> {
        let ctl = &mut self.ctls[disk as usize];
        match ctl.on_request(ReadWrite::Read, start, nblocks) {
            ControllerDecision::CacheHit => None,
            ControllerDecision::Media {
                start: ms,
                nblocks: mb,
                ..
            } => {
                let avail = self.meta.disk_blocks.saturating_sub(ms.index());
                let clipped = mb.min(avail as u32).max(nblocks);
                ctl.on_media_complete(ReadWrite::Read, ms, clipped, nblocks);
                Some((ms, clipped))
            }
            ControllerDecision::HdcWriteAbsorbed => unreachable!("the replica issues reads only"),
        }
    }

    /// Replays one whole-file read; appends its pieces.
    fn read(&mut self, file: u32, split: &mut Vec<(u16, PhysBlock, u32)>, out: &mut Vec<Piece>) {
        self.split(file, split);
        for &(vd, start, nblocks) in split.iter() {
            let disk = self.member(vd);
            let media = self.decide(disk, start, nblocks);
            out.push(Piece {
                disk,
                start,
                nblocks,
                media,
            });
        }
    }
}

/// Times `Engine::read` of `files` on a fresh engine from `threads`
/// threads (thread `t` takes every `threads`-th request). Returns the
/// engine and each request's `(start, end)` in ns since `origin`
/// (request order).
fn engine_replay(
    dir: &Path,
    meta: &DiskMeta,
    hdc: u32,
    files: &[u32],
    threads: usize,
    origin: Instant,
) -> Result<(Engine, Vec<(u64, u64)>), String> {
    let engine = Engine::open_with(
        dir,
        meta.clone(),
        ReadAheadKind::For,
        hdc,
        LiveOpts::default(),
    )?;
    let nblocks = meta.file_blocks;
    let barrier = Barrier::new(threads);
    let mut times = vec![(0, 0); files.len()];
    thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (engine, barrier) = (&engine, &barrier);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(files.len() / threads + 1);
                    let mut buf = Vec::with_capacity(nblocks as usize * meta.block_bytes as usize);
                    barrier.wait();
                    for i in (t..files.len()).step_by(threads) {
                        buf.clear();
                        let t0 = origin.elapsed().as_nanos() as u64;
                        let r = engine.read(files[i], 0, nblocks, &mut buf);
                        let t1 = origin.elapsed().as_nanos() as u64;
                        r.map_err(|e| format!("Engine::read file {}: {e}", files[i]))?;
                        out.push((i, t0, t1));
                    }
                    Ok::<_, String>(out)
                })
            })
            .collect();
        for h in handles {
            let part = h
                .join()
                .map_err(|_| "replay thread panicked".to_string())??;
            for (i, t0, t1) in part {
                times[i] = (t0, t1);
            }
        }
        Ok(())
    })?;
    Ok((engine, times))
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

fn durations(times: &[(u64, u64)]) -> Vec<u64> {
    times.iter().map(|&(a, b)| b - a).collect()
}

/// The traced run: the client loop untraced then traced (for
/// `trace.overhead_pct`), the server's counts, then each layer's
/// public calls timed in isolation on the same schedule.
pub fn trace(
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    root: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let (dir, meta) = fixture(spec, root)?;
    let hdc = hdc_blocks(spec);
    let conns = connections();
    let pairs = ((seconds / 4.0 / WINDOW_S).round() as usize).clamp(2, 4);
    let len = ((150_000.0 * (2.0 * pairs as f64 * WINDOW_S + spec.warmup_s)) as usize / conns)
        .clamp(1 << 12, 1 << 20);
    let scheds = schedules(&meta, seed, conns, len);
    let origin = Instant::now();
    let mut spans = Spans::with_capacity(origin, 1 << 16);

    // Client loop: warm-up, then untraced and traced windows in turn,
    // so drift of a shared host hits both alike.
    let (server, setup_secs) = Server::start(&dir, &meta, hdc)?;
    let mut cursors = vec![0usize; conns];
    let warm = window(
        server.addr,
        &meta,
        &scheds,
        &mut cursors,
        Duration::from_secs_f64(spec.warmup_s),
        true,
        None,
    )?;
    let (mut reads_ok, mut failed) = (warm.ok, warm.failed);
    let mut problems = warm.problems;
    let (mut plain_rps, mut traced_rps, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut client_spans = Spans::with_capacity(origin, 0);
    for _ in 0..pairs {
        for traced in [false, true] {
            let w = window(
                server.addr,
                &meta,
                &scheds,
                &mut cursors,
                Duration::from_secs_f64(WINDOW_S),
                false,
                traced.then_some((origin, 3 * 50_000)),
            )?;
            reads_ok += w.ok;
            failed += w.failed;
            problems.extend(w.problems);
            let rps = w.ok as f64 / w.secs;
            match w.spans {
                Some(sp) => {
                    client_spans.absorb(sp);
                    traced_rps.push(rps);
                }
                None => {
                    plain_rps.push(rps);
                    p99.push(w.hist.percentile(99.0).unwrap_or(0.0) / 1e3);
                }
            }
        }
    }
    let stats = check_stats(&server, reads_ok, &mut problems)?;
    server.stop()?;
    let (n_req, rtt_total, _) = client_spans
        .self_times()
        .get("client.request")
        .copied()
        .unwrap_or_default();
    let rtt_ns = rtt_total as f64 / n_req.max(1) as f64;
    let num = |path: &[&str]| stats.at(path).and_then(Json::num).unwrap_or(0.0);
    let per_disk = stats.get("per_disk").map(Json::arr).unwrap_or(&[]);
    let disk_num = |d: &Json, k: &str| d.get(k).and_then(Json::num).unwrap_or(0.0);
    let media_ops: Vec<f64> = per_disk.iter().map(|d| disk_num(d, "media_ops")).collect();
    let balance = if meta.mirrored {
        media_ops
            .chunks(2)
            .map(|p| p[0].min(p[1]) / p[0].max(p[1]).max(1.0))
            .fold(1.0, f64::min)
    } else {
        let max = media_ops.iter().cloned().fold(0.0, f64::max);
        media_ops.iter().cloned().fold(f64::INFINITY, f64::min) / max.max(1.0)
    };

    // Engine: one thread on a fresh engine, in lockstep with a replica
    // that classifies each read; then two threads on another.
    let n = spec.replay;
    let files = merged(&scheds, n);
    let (engine, times) = engine_replay(&dir, &meta, hdc, &files, 1, origin)?;
    for (i, &(start_ns, end_ns)) in times.iter().enumerate() {
        spans.push(Span {
            req: i as u64,
            name: "engine.read",
            parent: ROOT,
            start_ns,
            end_ns,
        });
    }
    let t1 = durations(&times);
    let mut replica = Replica::new(&meta, hdc);
    let mut split = Vec::new();
    let mut pieces = Vec::with_capacity(n * 2);
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    for (i, &file) in files.iter().enumerate() {
        let first = pieces.len();
        replica.read(file, &mut split, &mut pieces);
        if pieces[first..].iter().all(|p| p.media.is_none()) {
            hit_ns.push(t1[i]);
        } else {
            miss_ns.push(t1[i]);
        }
    }
    let snap = engine.snapshot();
    for (d, row) in snap.disks.iter().enumerate() {
        let cs = replica.ctls[d].cache_stats();
        let replica_media = pieces
            .iter()
            .filter(|p| p.disk as usize == d && p.media.is_some())
            .count() as u64;
        if (cs.extent_lookups, cs.extent_hits, replica_media)
            != (row.extent_lookups, row.extent_hits, row.media_ops)
        {
            problems.push(format!(
                "disk {d}: replayed controller saw {}/{} extent hits and {replica_media} media ops; \
                 the engine {}/{} and {}",
                cs.extent_hits, cs.extent_lookups, row.extent_hits, row.extent_lookups, row.media_ops
            ));
        }
    }
    let (ra_used, ra_inserted) = replica.ctls.iter().fold((0u64, 0u64), |(u, i), c| {
        (u + c.cache_stats().ra_used, i + c.cache_stats().ra_inserted)
    });
    drop(engine);
    let (_, times2) = engine_replay(&dir, &meta, hdc, &files, 2, origin)?;
    let (read1, read2) = (mean(&t1), mean(&durations(&times2)));

    // Layer passes over the pieces the replica recorded.
    let mut split_buf = Vec::new();
    let mut npieces = 0usize;
    let locate_total = spans.batched(BATCH, "array.locate", files.len(), |i| {
        replica.split(files[i], &mut split_buf);
        npieces += split_buf.len();
    });
    std::hint::black_box(npieces);
    let mut fresh = Replica::new(&meta, hdc);
    let decide_total = spans.batched(BATCH, "controller.decide", pieces.len(), |i| {
        let p = pieces[i];
        std::hint::black_box(fresh.decide(p.disk, p.start, p.nblocks));
    });
    let images: Vec<File> = (0..meta.disks)
        .map(|d| File::open(DiskMeta::image_path(&dir, d)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let runs: Vec<(u16, PhysBlock, u32)> = pieces
        .iter()
        .filter_map(|p| p.media.map(|(s, n)| (p.disk, s, n)))
        .collect();
    let bs = meta.block_bytes as usize;
    let mut buf = vec![0u8; runs.iter().map(|r| r.2 as usize).max().unwrap_or(1) * bs];
    let mut pread_err = None;
    let pread_total = spans.batched(BATCH, "image.pread", runs.len(), |i| {
        let (d, s, n) = runs[i];
        if let Err(e) =
            images[d as usize].read_exact_at(&mut buf[..n as usize * bs], s.index() * bs as u64)
        {
            pread_err.get_or_insert(e);
        }
    });
    if let Some(e) = pread_err {
        return Err(format!("image read: {e}"));
    }
    let pread_blocks: u64 = runs.iter().map(|r| r.2 as u64).sum();

    // Protocol codec: decode the schedule's frames, encode its payloads.
    let mut frames = Vec::new();
    for &f in &files {
        let mut one = Vec::new();
        read_frame(f, meta.file_blocks, &mut one);
        frames.extend_from_slice(&one);
    }
    let mut rd = io::Cursor::new(&frames[..]);
    let mut decoded = 0usize;
    let decode_total = spans.batched(BATCH, "protocol.decode", files.len(), |_| {
        if let Ok(Some(_)) = read_request(&mut rd) {
            decoded += 1;
        }
    });
    if decoded != files.len() {
        problems.push(format!("decoded {decoded} of {} READ frames", files.len()));
    }
    let payload = vec![0xA5u8; meta.file_blocks as usize * bs];
    let mut wire = Vec::with_capacity(payload.len() + 8);
    let encode_total = spans.batched(BATCH, "protocol.encode", files.len(), |_| {
        wire.clear();
        write_response(&mut wire, ST_OK, &payload).expect("writing to a Vec cannot fail");
        std::hint::black_box(&wire);
    });

    spans.absorb(client_spans);
    spans.write_jsonl(&out.join(spec.name).join("spans.jsonl"))?;
    eprintln!("{}: self time per span\n{}", spec.name, spans.table());

    let reqs = files.len() as f64;
    let per_piece = pieces.len() as f64 / reqs;
    let locate_ns = locate_total as f64 / pieces.len().max(1) as f64;
    let decide_ns = decide_total as f64 / pieces.len().max(1) as f64;
    let pread_ns = pread_total as f64 / runs.len().max(1) as f64;
    let decode_ns = decode_total as f64 / reqs;
    let encode_ns = encode_total as f64 / reqs;
    let contention_ns = read2 - read1;
    let split_phase = locate_ns * per_piece;
    let probe_phase = decide_ns * per_piece;
    let media_phase = pread_ns * runs.len() as f64 / reqs;
    let transfer_phase = decode_ns + encode_ns;
    let reads = reads_ok as f64;
    let lookups = num(&["media", "extent_lookups"]);
    Ok(Outcome {
        attempted: reads_ok + failed,
        failed,
        metrics: vec![
            ("split.ns_per_req", split_phase, "ns"),
            ("probe.ns_per_req", probe_phase, "ns"),
            ("media.ns_per_req", media_phase, "ns"),
            ("queue.ns_per_req", contention_ns, "ns"),
            ("transfer.ns_per_req", transfer_phase, "ns"),
            (
                "residual.ns_per_req",
                rtt_ns - split_phase - probe_phase - media_phase - contention_ns - transfer_phase,
                "ns",
            ),
            (
                "cache.extent_hit_ratio",
                num(&["media", "extent_hits"]) / lookups.max(1.0),
                "ratio",
            ),
            (
                "cache.ra_useful_ratio",
                ra_used as f64 / ra_inserted.max(1) as f64,
                "ratio",
            ),
            (
                "disk.media_ops_per_req",
                num(&["media", "media_ops"]) / reads,
                "count",
            ),
            (
                "hdc.hits_per_req",
                num(&["media", "hdc_read_hits"]) / reads,
                "count",
            ),
            ("protocol.decode_ns", decode_ns, "ns"),
            ("protocol.encode_ns", encode_ns, "ns"),
            ("engine.read_ns", read1, "ns"),
            ("engine.hit_read_ns", mean(&hit_ns), "ns"),
            ("engine.miss_read_ns", mean(&miss_ns), "ns"),
            ("engine.contention_ns", contention_ns, "ns"),
            (
                "server.residual_us",
                (rtt_ns - read2 - decode_ns - encode_ns) / 1e3,
                "us",
            ),
            ("controller.decide_ns", decide_ns, "ns"),
            ("array.locate_ns", locate_ns, "ns"),
            ("image.pread_ns", pread_ns, "ns"),
            (
                "image.pread_kib",
                (pread_blocks as f64 * bs as f64 / 1024.0) / runs.len().max(1) as f64,
                "KiB",
            ),
            (
                "engine.extent_hit_ratio",
                num(&["media", "extent_hits"]) / lookups.max(1.0),
                "ratio",
            ),
            (
                "engine.media_ops_per_req",
                num(&["media", "media_ops"]) / reads,
                "count",
            ),
            (
                "engine.hdc_hits_per_req",
                num(&["media", "hdc_read_hits"]) / reads,
                "count",
            ),
            (
                "engine.store_fallbacks",
                per_disk
                    .iter()
                    .map(|d| disk_num(d, "store_fallbacks"))
                    .sum(),
                "count",
            ),
            ("engine.mirror_balance", balance, "ratio"),
            ("server.shed", num(&["totals", "shed"]), "count"),
            ("server.errors", num(&["totals", "errors"]), "count"),
            ("client.rtt_us", rtt_ns / 1e3, "us"),
            ("client.p99_us", median(&p99), "us"),
            (
                "trace.overhead_pct",
                100.0 * (1.0 - median(&traced_rps) / median(&plain_rps)),
                "%",
            ),
            ("live.setup_s", setup_secs, "s"),
        ],
        problems,
    })
}
