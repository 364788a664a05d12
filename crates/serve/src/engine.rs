//! The serving engine: per-disk FOR/HDC controllers in front of real
//! image files.
//!
//! Each physical disk pairs the simulator's [`DiskController`] (the
//! read-ahead cache, the HDC region, and the FOR bitmap decision —
//! unchanged from the reproduction) with an open image file. A READ is
//! served in two steps, a plan and a transfer:
//!
//! - [`Engine::plan`] is the one decision path. It runs admission, the
//!   fault gates and mirror routing, and asks each disk's controller
//!   for a decision — cache hit, or a media run extended by read-ahead
//!   — counting the media traffic the model implies. It emits the
//!   [`Segment`]s of image bytes that hold the demanded blocks, each
//!   checked against its image's length with one `fstat`, so a short
//!   image fails before any byte is sent.
//! - [`Engine::transfer`] moves those bytes through a sink, timing each
//!   media segment into the disk's service histogram. The server
//!   `sendfile`s them from the OS page cache into the socket;
//!   [`Engine::read`] `pread`s them into a buffer.
//!
//! The images already sit in the OS page cache, so the engine keeps no
//! copy of block bytes: a hit and a miss differ in what the model
//! counts, not in where the bytes come from. Each disk's mutex guards
//! only its controller (one head per disk); image I/O is positional
//! and takes no lock.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use forhdc_core::controller::ControllerDecision;
use forhdc_core::{DiskController, ReadAheadKind};
use forhdc_fault::{FaultConfig, RetryPolicy};
use forhdc_layout::{build_disk_bitmaps, FileId, FileMap};
use forhdc_metrics::Gauge;
use forhdc_sim::mirror::{self, MirrorRouter, Route};
use forhdc_sim::{DiskConfig, DiskId, PhysBlock, ReadSplit, ReadWrite, StripingMap};
use forhdc_trace::{FaultKind, PowerHistogram, ProbeResult, Quantiles, TraceEvent};

use crate::faults::LiveFaults;
use crate::image::{rank_to_file, DiskMeta};
use crate::metrics::ServeMetrics;
use crate::protocol::MAX_READ_BLOCKS;

/// Blocks per rebuild copy chunk: large enough to stream, small enough
/// to pace smoothly.
const REBUILD_CHUNK_BLOCKS: u32 = 256;

/// The live read-split policy: a member's cache and queue are known
/// only under its disk lock, so the lock-free cursor alone decides.
const LIVE_READ_SPLIT: ReadSplit = ReadSplit::RoundRobin;

/// Why a read request was refused.
#[derive(Debug)]
pub enum ReadError {
    /// The request names a file or block range the array does not hold.
    Range(String),
    /// The backing image failed underneath the engine.
    Internal(String),
    /// A persistent media error survived the retry budget
    /// (`ERR MediaError` on the wire).
    Media(String),
    /// The target disk is inside an offline window
    /// (`ERR DiskOffline` on the wire).
    Offline(String),
    /// The request crossed its deadline — directly, or because the
    /// deadline preempted the remaining retries (`ERR Timeout`).
    Timeout(String),
    /// Admission control shed the request at the per-disk queue limit
    /// (`ERR Overload`).
    Overload(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Range(m)
            | ReadError::Internal(m)
            | ReadError::Media(m)
            | ReadError::Offline(m)
            | ReadError::Timeout(m)
            | ReadError::Overload(m) => write!(f, "{m}"),
        }
    }
}

/// Operational knobs for the live serving path, all inert by default:
/// no fault schedule, the default [`RetryPolicy`] (which never faults a
/// clean disk), no deadline, no queue bound.
#[derive(Debug, Clone, Default)]
pub struct LiveOpts {
    /// Seeded fault schedule (media error rate, offline windows);
    /// `None` serves fault-free.
    pub faults: Option<FaultConfig>,
    /// Retry/backoff/deadline policy for faulted media reads.
    pub recovery: RetryPolicy,
    /// Per-disk queue-depth bound; a request arriving at a disk whose
    /// queue is this deep is shed with `Overload` (0 = unbounded).
    pub max_queue: u32,
    /// Rebuild pacing cap in MB/s: each copy chunk sleeps out the
    /// remainder of its bandwidth budget (0 = unpaced).
    pub rebuild_mbps: u64,
}

/// Decrements a queue-depth gauge when the request leaves the disk,
/// on success and error paths alike.
struct DepthGuard<'a>(&'a Gauge);

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// One contiguous byte range of one disk image: the unit a planned
/// READ transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Physical disk whose image holds the bytes.
    pub disk: u16,
    /// Byte offset in the image.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Blocks of the media run (demanded plus read-ahead) whose
    /// demanded prefix this segment is; 0 when the controller hit.
    pub run_blocks: u32,
}

/// A planned READ (see [`Engine::plan`]): its flight-recorder request
/// and the [`Segment`]s holding its bytes, in request order. Reuse one
/// across requests and planning allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct Plan {
    req: u64,
    t0: u64,
    segs: Vec<Segment>,
}

impl Plan {
    /// The segments, in request order.
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Payload bytes of the READ.
    pub fn bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.len).sum()
    }

    /// Appends `seg`, extending the last segment when both are hits on
    /// adjacent bytes of the same image. Media segments stay whole: each
    /// is one media op, timed on its own.
    fn push(&mut self, seg: Segment) {
        if let Some(last) = self.segs.last_mut() {
            if last.disk == seg.disk
                && last.offset + last.len == seg.offset
                && last.run_blocks == 0
                && seg.run_blocks == 0
            {
                last.len += seg.len;
                return;
            }
        }
        self.segs.push(seg);
    }
}

/// A point-in-time view of one disk's serving state.
#[derive(Debug, Clone)]
pub struct DiskSnapshot {
    /// Disk index.
    pub disk: u16,
    /// Extent-level cache lookups.
    pub extent_lookups: u64,
    /// Extent-level cache hits (every block resident).
    pub extent_hits: u64,
    /// Reads served by pinned HDC blocks.
    pub hdc_read_hits: u64,
    /// Blocks currently pinned in the HDC region.
    pub pinned: u32,
    /// Media operations issued to the image file.
    pub media_ops: u64,
    /// Blocks moved by media operations (demanded + read-ahead).
    pub media_blocks: u64,
    /// Of those, speculative read-ahead blocks.
    pub read_ahead_blocks: u64,
    /// Demanded blocks served as controller hits.
    pub store_hits: u64,
    /// Demanded blocks served by media runs.
    pub store_misses: u64,
    /// Mirrored reads failed over to the twin after this member failed.
    pub failover_reads: u64,
    /// Whether the disk is inside an offline window right now.
    pub offline: bool,
    /// Whether a rebuild stream is writing this disk right now.
    pub rebuilding: bool,
    /// Media service-time quantiles (wall-clock nanoseconds): each
    /// media segment's transfer.
    pub service: Quantiles,
}

/// A point-in-time view of the whole engine.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Per-disk rows, in disk order.
    pub disks: Vec<DiskSnapshot>,
    /// All disks' service histograms merged.
    pub service_all: Quantiles,
}

impl EngineSnapshot {
    /// Total extent lookups across disks.
    pub fn extent_lookups(&self) -> u64 {
        self.disks.iter().map(|d| d.extent_lookups).sum()
    }

    /// Total extent hits across disks.
    pub fn extent_hits(&self) -> u64 {
        self.disks.iter().map(|d| d.extent_hits).sum()
    }

    /// Total media operations across disks.
    pub fn media_ops(&self) -> u64 {
        self.disks.iter().map(|d| d.media_ops).sum()
    }

    /// Total HDC read hits across disks.
    pub fn hdc_read_hits(&self) -> u64 {
        self.disks.iter().map(|d| d.hdc_read_hits).sum()
    }

    /// Total mirrored failover reads across disks.
    pub fn failover_reads(&self) -> u64 {
        self.disks.iter().map(|d| d.failover_reads).sum()
    }

    /// Extent hit rate in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.extent_lookups();
        if lookups == 0 {
            0.0
        } else {
            self.extent_hits() as f64 / lookups as f64
        }
    }
}

/// The shared serving engine (see the module docs).
#[derive(Debug)]
pub struct Engine {
    meta: DiskMeta,
    map: FileMap,
    striping: StripingMap,
    policy: ReadAheadKind,
    hdc_blocks: u32,
    /// Per-disk controllers: each lock guards decisions only.
    disks: Vec<Mutex<DiskController>>,
    /// Per-disk images, read positionally without a lock.
    files: Vec<File>,
    metrics: Arc<ServeMetrics>,
    live: LiveFaults,
    max_queue: u32,
    /// Picks the member that serves each mirrored piece.
    router: MirrorRouter,
    /// Per-disk rebuild-in-progress flags (idempotence gate).
    rebuilding: Vec<AtomicBool>,
    rebuild_mbps: u64,
}

impl Engine {
    /// Opens a validated disk directory and builds one controller per
    /// disk: the policy's read-ahead cache, `hdc_blocks` of HDC region
    /// (filled with the hottest files' blocks, in popularity order),
    /// and — for FOR — the continuation bitmaps of the layout.
    pub fn open(
        dir: &Path,
        meta: DiskMeta,
        policy: ReadAheadKind,
        hdc_blocks: u32,
    ) -> Result<Engine, String> {
        Engine::open_with(dir, meta, policy, hdc_blocks, LiveOpts::default())
    }

    /// [`Engine::open`] with the operational knobs of the live serving
    /// path: a seeded fault schedule, the recovery policy, and the
    /// per-disk admission bound.
    pub fn open_with(
        dir: &Path,
        meta: DiskMeta,
        policy: ReadAheadKind,
        hdc_blocks: u32,
        opts: LiveOpts,
    ) -> Result<Engine, String> {
        let map = meta.layout();
        let striping = meta.striping();
        let cfg = DiskConfig::default();
        if meta.block_bytes != cfg.block_bytes() {
            return Err(format!(
                "manifest block size {} differs from the controller's {}",
                meta.block_bytes,
                cfg.block_bytes()
            ));
        }
        let bitmaps = if policy.needs_bitmap() {
            Some(build_disk_bitmaps(&map, &striping, meta.disk_blocks))
        } else {
            None
        };
        // Pre-validate the controller-memory split so an oversized
        // --hdc is a clean CLI error, not a panic.
        let bitmap_blocks = match &bitmaps {
            Some(bms) => (bms[0].size_bytes().div_ceil(cfg.block_bytes() as u64)) as u32,
            None => 0,
        };
        if hdc_blocks + bitmap_blocks >= cfg.cache_blocks() {
            return Err(format!(
                "HDC region of {hdc_blocks} blocks plus a {bitmap_blocks}-block bitmap \
                 leaves no read-ahead cache of the {}-block controller memory",
                cfg.cache_blocks()
            ));
        }
        let mut disks = Vec::with_capacity(meta.disks as usize);
        let mut files = Vec::with_capacity(meta.disks as usize);
        for d in 0..meta.disks {
            // Bitmaps are per *virtual* disk; mirror members share
            // their pair's copy (the images are identical).
            let vd = mirror::virtual_disk(d, meta.mirrored);
            let bitmap = bitmaps.as_ref().map(|bms| bms[vd as usize].clone());
            let path = DiskMeta::image_path(dir, d);
            // Mirrored images open writable so a rebuild stream can
            // reconstruct a member in place.
            files.push(
                OpenOptions::new()
                    .read(true)
                    .write(meta.mirrored)
                    .open(&path)
                    .map_err(|e| format!("open {}: {e}", path.display()))?,
            );
            disks.push(Mutex::new(DiskController::new(
                &cfg, policy, hdc_blocks, bitmap,
            )));
        }
        let metrics = Arc::new(ServeMetrics::new(meta.disks));
        let live = LiveFaults::new(meta.disks, opts.faults, opts.recovery);
        let rebuilding = (0..meta.disks).map(|_| AtomicBool::new(false)).collect();
        let router = MirrorRouter::new(LIVE_READ_SPLIT, meta.virtual_disks());
        let engine = Engine {
            meta,
            map,
            striping,
            policy,
            hdc_blocks,
            disks,
            files,
            metrics,
            live,
            max_queue: opts.max_queue,
            router,
            rebuilding,
            rebuild_mbps: opts.rebuild_mbps,
        };
        if hdc_blocks > 0 {
            engine.pin_hottest();
        }
        Ok(engine)
    }

    /// The array manifest.
    pub fn meta(&self) -> &DiskMeta {
        &self.meta
    }

    /// The active read-ahead discipline.
    pub fn policy(&self) -> ReadAheadKind {
        self.policy
    }

    /// The per-disk HDC region size in blocks.
    pub fn hdc_blocks(&self) -> u32 {
        self.hdc_blocks
    }

    /// The engine's metric registry, flight recorder, and clocks.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The live fault state (schedule + admin-injected faults).
    pub fn live_faults(&self) -> &LiveFaults {
        &self.live
    }

    /// Admin (`FAULT PLANT`): plants a persistent bad block under the
    /// physical location of `(file, offset)`; returns that location so
    /// callers can log or target it.
    pub fn plant_bad_block(&self, file: u32, offset: u64) -> Result<(u16, u64), ReadError> {
        if file >= self.meta.files || offset >= self.meta.file_blocks as u64 {
            return Err(ReadError::Range(format!(
                "cannot plant at file {file} offset {offset}: outside the array"
            )));
        }
        let logical = self
            .map
            .block_at(FileId::new(file), offset)
            .ok_or_else(|| {
                ReadError::Range(format!("file {file} offset {offset} is not mapped"))
            })?;
        let (disk, phys) = self.striping.locate(logical);
        // Striping names a virtual disk; a bad sector lives on one
        // physical member. Plant on the pair's primary — a read that
        // lands there fails over to the twin and repairs the decree.
        let member = self.meta.members(disk.index()).start;
        self.live.plant(member, phys.index());
        Ok((member, phys.index()))
    }

    /// Admin (`FAULT OFFLINE`): takes `disk` offline for `ms`
    /// wall-clock milliseconds from now (`ms = 0` clears the window
    /// and brings it back).
    pub fn set_offline_ms(&self, disk: u16, ms: u64) -> Result<(), ReadError> {
        self.live.set_offline(disk, self.admin_until(disk, ms)?);
        self.metrics.disk_offline[disk as usize].set((ms != 0) as i64);
        Ok(())
    }

    /// Admin (`FAULT STALL`): stalls `disk`'s media path for `ms`
    /// milliseconds — operations wait the window out instead of
    /// failing (`ms = 0` clears).
    pub fn set_stall_ms(&self, disk: u16, ms: u64) -> Result<(), ReadError> {
        self.live.set_stall(disk, self.admin_until(disk, ms)?);
        Ok(())
    }

    /// The end of an admin window of `ms` milliseconds on `disk` from
    /// now, in ns since start (0 when `ms = 0` clears the window).
    fn admin_until(&self, disk: u16, ms: u64) -> Result<u64, ReadError> {
        if disk >= self.meta.disks {
            return Err(ReadError::Range(format!("disk {disk} outside the array")));
        }
        Ok(match ms {
            0 => 0,
            _ => self.metrics.now_ns().saturating_add(ms * 1_000_000),
        })
    }

    /// Admin (`REBUILD`): reconstructs `disk`'s image from its mirror
    /// twin with a background copy stream — chunked and paced to the
    /// engine's `--rebuild-mbps` cap, while foreground reads go on.
    /// Progress lands in the `forhdc_rebuild_progress` gauge and every
    /// copied block in `forhdc_rebuild_blocks_total`. Idempotent:
    /// returns `Ok(false)` if a rebuild of that disk is already
    /// streaming.
    pub fn rebuild(self: &Arc<Engine>, disk: u16) -> Result<bool, ReadError> {
        if !self.meta.mirrored {
            return Err(ReadError::Range(
                "REBUILD needs a mirrored array (mkdisk --mirror)".into(),
            ));
        }
        if disk >= self.meta.disks {
            return Err(ReadError::Range(format!("disk {disk} outside the array")));
        }
        if self.rebuilding[disk as usize].swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        self.metrics.disk_rebuild_progress[disk as usize].set(0);
        let engine = Arc::clone(self);
        if let Err(e) = std::thread::Builder::new()
            .name(format!("rebuild-{disk}"))
            .spawn(move || engine.rebuild_stream(disk))
        {
            self.rebuilding[disk as usize].store(false, Ordering::SeqCst);
            return Err(ReadError::Internal(format!("spawning rebuild: {e}")));
        }
        Ok(true)
    }

    /// Whether a rebuild stream is writing `disk` right now.
    pub fn rebuild_active(&self, disk: u16) -> bool {
        self.rebuilding
            .get(disk as usize)
            .is_some_and(|b| b.load(Ordering::SeqCst))
    }

    /// The rebuild thread body: copy the twin's image chunk by chunk
    /// onto the target, lifting admin-planted bad-sector decrees over
    /// each reconstructed range, pacing each chunk to the bandwidth
    /// cap. Runs until the full image is covered; an I/O error aborts
    /// the stream (the flag clears either way so a retry can restart).
    fn rebuild_stream(&self, disk: u16) {
        let bs = self.meta.block_bytes;
        let total = self.meta.disk_blocks;
        let src = mirror::twin(disk) as usize;
        let dst = disk as usize;
        let m = &self.metrics;
        let mut buf = vec![0u8; REBUILD_CHUNK_BLOCKS as usize * bs as usize];
        let mut done = 0u64;
        while done < total {
            let n = (REBUILD_CHUNK_BLOCKS as u64).min(total - done) as u32;
            let chunk = &mut buf[..n as usize * bs as usize];
            let at = done * bs as u64;
            let t0 = Instant::now();
            let copied = self.files[src]
                .read_exact_at(chunk, at)
                .and_then(|()| self.files[dst].write_all_at(chunk, at));
            if copied.is_err() {
                m.flight.record(TraceEvent::Fault {
                    t: m.now_ns(),
                    req: u64::MAX,
                    disk,
                    kind: FaultKind::MediaWrite,
                });
                m.error_counter(None).inc();
                break;
            }
            self.live.unplant_range(disk, done..done + n as u64);
            done += n as u64;
            m.rebuild_blocks_total.add(n as u64);
            m.disk_rebuild_progress[dst].set((done * 100 / total.max(1)) as i64);
            // ns per chunk = bytes × 1e9 / (mbps × 1e6); mbps 0 = unpaced.
            if let Some(pace_ns) = (n as u64 * bs as u64 * 1000).checked_div(self.rebuild_mbps) {
                let budget = Duration::from_nanos(pace_ns);
                let spent = t0.elapsed();
                if budget > spent {
                    std::thread::sleep(budget - spent);
                }
            }
        }
        if done >= total {
            m.disk_rebuild_progress[dst].set(100);
        }
        self.rebuilding[dst].store(false, Ordering::SeqCst);
    }

    /// Fills every disk's HDC region with the hottest files' blocks,
    /// walking the popularity permutation (a pure function of the
    /// image seed — the live analogue of the paper's host-side
    /// profile). Only the controllers learn the pins; no bytes are
    /// read.
    fn pin_hottest(&self) {
        let perm = rank_to_file(self.meta.files, self.meta.seed);
        let mut full = vec![false; self.disks.len()];
        let mut full_count = 0usize;
        'files: for &file in &perm {
            for off in 0..self.meta.file_blocks as u64 {
                let Some(logical) = self.map.block_at(FileId::new(file), off) else {
                    continue;
                };
                let (disk, phys) = self.striping.locate(logical);
                // Pin into every member of the (virtual) disk so either
                // replica serves the HDC hit after a failover.
                for member in self.meta.members(disk.index()) {
                    let di = member as usize;
                    if full[di] {
                        continue;
                    }
                    let mut ctl = self.disks[di].lock().expect("disk lock poisoned");
                    if !ctl.pin(phys) {
                        full[di] = true;
                        full_count += 1;
                        if full_count == self.disks.len() {
                            break 'files;
                        }
                    }
                }
            }
        }
    }

    /// Serves one file read into a buffer: [`Engine::plan`], then one
    /// `pread` per segment. Appends exactly `nblocks × block_bytes`
    /// bytes to `out` on success and leaves it as it was on error.
    pub fn read(
        &self,
        file: u32,
        offset: u64,
        nblocks: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), ReadError> {
        let mut plan = Plan::default();
        self.plan(file, offset, nblocks, &mut plan)?;
        let len0 = out.len();
        out.resize(len0 + plan.bytes() as usize, 0);
        let mut rest = &mut out[len0..];
        self.transfer(&plan, |image, seg| {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(seg.len as usize);
            rest = tail;
            image
                .read_exact_at(dst, seg.offset)
                .map_err(|e| self.fault(DiskId::new(seg.disk), plan.req, e))
        })
        .inspect_err(|_| out.truncate(len0))
    }

    /// Plans one file read: validates the range, walks the file's
    /// extents, splits at striping-unit boundaries, and routes each
    /// piece through its disk's controller (see `plan_member`).
    /// On success `plan` holds the segments of the demanded bytes,
    /// every one checked against its image's length; nothing has been
    /// read yet. On error `plan` holds no usable segments.
    pub fn plan(
        &self,
        file: u32,
        offset: u64,
        nblocks: u32,
        plan: &mut Plan,
    ) -> Result<(), ReadError> {
        if file >= self.meta.files {
            return Err(ReadError::Range(format!(
                "file {file} out of range (array holds {})",
                self.meta.files
            )));
        }
        if nblocks == 0 || nblocks > MAX_READ_BLOCKS {
            return Err(ReadError::Range(format!(
                "nblocks {nblocks} outside 1..={MAX_READ_BLOCKS}"
            )));
        }
        let end = offset
            .checked_add(nblocks as u64)
            .filter(|&e| e <= self.meta.file_blocks as u64)
            .ok_or_else(|| {
                ReadError::Range(format!(
                    "blocks [{offset}, {offset}+{nblocks}) past the {}-block file",
                    self.meta.file_blocks
                ))
            })?;
        let m = &self.metrics;
        plan.segs.clear();
        plan.req = m.next_req_id();
        plan.t0 = m.now_ns();
        m.flight.record(TraceEvent::Issue {
            t: plan.t0,
            req: plan.req,
            stream: file,
            start: file as u64 * self.meta.file_blocks as u64 + offset,
            nblocks,
            write: false,
        });
        let unit = self.striping.unit_blocks() as u64;
        for e in self.map.extents(FileId::new(file)) {
            let first = e.file_offset as u64;
            let lo = first.max(offset);
            let hi = (first + e.len as u64).min(end);
            if lo >= hi {
                continue;
            }
            let mut cursor = e.start.offset(lo - first);
            let mut left = hi - lo;
            while left > 0 {
                let within = cursor.index() % unit;
                let chunk = (unit - within).min(left) as u32;
                let (disk, phys) = self.striping.locate(cursor);
                plan.push(self.plan_extent(disk, phys, chunk, plan.req, plan.t0)?);
                cursor = cursor.offset(chunk as u64);
                left -= chunk as u64;
            }
        }
        Ok(())
    }

    /// Moves a planned READ's bytes through `sink`, one call per
    /// segment in request order, then closes the request in the flight
    /// recorder. Each media segment's call is timed into its disk's
    /// service histogram and a `Media` flight event. Stops at the
    /// sink's first error.
    pub fn transfer<E>(
        &self,
        plan: &Plan,
        mut sink: impl FnMut(&File, &Segment) -> Result<(), E>,
    ) -> Result<(), E> {
        let m = &self.metrics;
        let bs = self.meta.block_bytes as u64;
        for seg in &plan.segs {
            let t0 = Instant::now();
            sink(&self.files[seg.disk as usize], seg)?;
            if seg.run_blocks == 0 {
                continue;
            }
            let service_ns = t0.elapsed().as_nanos() as u64;
            m.disk_service_ns[seg.disk as usize].record(service_ns);
            m.flight.record(TraceEvent::Media {
                t: m.now_ns(),
                req: plan.req,
                disk: seg.disk,
                wait: 0,
                seek: 0,
                rotation: 0,
                transfer: service_ns,
                overhead: 0,
                nblocks: seg.run_blocks,
                read_ahead: seg.run_blocks - (seg.len / bs) as u32,
                write: false,
            });
        }
        let t1 = m.now_ns();
        m.flight.record(TraceEvent::Complete {
            t: t1,
            req: plan.req,
            response: t1.saturating_sub(plan.t0),
        });
        m.bytes_served_total.add(plan.bytes());
        Ok(())
    }

    /// Plans one striping-unit-aligned piece on one (virtual) disk.
    /// Unmirrored arrays go straight to the physical member. Mirrored
    /// arrays route the piece with the [`MirrorRouter`], which skips a
    /// member that is offline while its twin is up before any attempt.
    /// If the policy's pick fails offline or on bad media, the piece
    /// fails over to the twin — it holds an identical image, so the
    /// client never sees the member fault. A media failover also
    /// repairs the failed member's admin-planted sectors from the
    /// mirror (the sector-remap model); seeded schedule errors stay, by
    /// the purity law. `forhdc_failover_reads_total{disk}` counts,
    /// under the member that could not serve, each piece its twin
    /// served.
    fn plan_extent(
        &self,
        disk: DiskId,
        start: PhysBlock,
        nblocks: u32,
        req: u64,
        t0: u64,
    ) -> Result<Segment, ReadError> {
        if !self.meta.mirrored {
            return self.plan_member(disk, start, nblocks, req, t0);
        }
        let m = &self.metrics;
        let now = m.now_ns();
        let offline = |d: u16| {
            let until = self.live.offline_until(d, now);
            until
                .inspect(|_| m.disk_offline[d as usize].set(1))
                .is_some()
        };
        let route = self.router.pick(disk.index(), offline, |_| false, |_| 0);
        let (first, twin) = (route.member(), mirror::twin(route.member()));
        let planned = self.plan_member(DiskId::new(first), start, nblocks, req, t0);
        let (seg, skipped) = match (route, planned) {
            (Route::Failover(_), Ok(seg)) => (seg, twin),
            (Route::Policy(_), Err(e @ (ReadError::Offline(_) | ReadError::Media(_)))) => {
                let seg = self.plan_member(DiskId::new(twin), start, nblocks, req, t0)?;
                if matches!(e, ReadError::Media(_)) {
                    self.live
                        .unplant_range(first, start.index()..start.index() + nblocks as u64);
                }
                (seg, first)
            }
            (_, r) => return r,
        };
        m.disk_failover_reads_total[skipped as usize].inc();
        Ok(seg)
    }

    /// Plans one physically contiguous piece on one physical disk:
    /// admission control and the fault gates run first (queue shed,
    /// stall wait, deadline, offline), then the controller classifies
    /// the piece. A hit checks for admin-planted blocks; a miss clips
    /// the media run the controller asked for, runs the retry loop over
    /// bad demanded sectors and counts the run. Either way the image
    /// must hold the range — the demanded blocks of a hit, the whole
    /// clipped run of a miss — and the piece becomes the segment of its
    /// demanded blocks. `t0` is the request's issue instant; the
    /// deadline is measured against it.
    fn plan_member(
        &self,
        disk: DiskId,
        start: PhysBlock,
        nblocks: u32,
        req: u64,
        t0: u64,
    ) -> Result<Segment, ReadError> {
        let bs = self.meta.block_bytes;
        let di = disk.as_usize();
        let m = &self.metrics;
        let policy = self.live.policy();
        // Admission: shed instead of queueing past the bound. The
        // gauge counts holders and waiters of the disk lock, so this
        // is the per-disk analogue of the server's inflight limit.
        if self.max_queue > 0 && m.disk_queue_depth[di].get() >= self.max_queue as i64 {
            m.shed_total.inc();
            return Err(ReadError::Overload(format!(
                "disk {di}: queue depth at the --max-queue bound ({})",
                self.max_queue
            )));
        }
        m.disk_queue_depth[di].inc();
        let _depth = DepthGuard(&m.disk_queue_depth[di]);
        // A stalled disk holds the request (and its admission slots)
        // until the stall window closes — or the deadline, whichever
        // comes first.
        if let Some(until) = self.live.stalled_until(disk.index(), m.now_ns()) {
            let wake = match policy.deadline_ns {
                Some(d) => until.min(t0.saturating_add(d)),
                None => until,
            };
            let now = m.now_ns();
            if wake > now {
                std::thread::sleep(Duration::from_nanos(wake - now));
            }
        }
        if policy.expired(m.now_ns().saturating_sub(t0)) {
            return Err(ReadError::Timeout(format!(
                "request past its {} ms deadline",
                policy.deadline_ns.unwrap_or(0) / 1_000_000
            )));
        }
        // An offline disk fails fast with a retry-after hint; the
        // client owns the retry (it can also steer to a mirror once
        // one exists).
        let now = m.now_ns();
        if let Some(until) = self.live.offline_until(disk.index(), now) {
            m.disk_offline[di].set(1);
            m.flight.record(TraceEvent::Fault {
                t: now,
                req,
                disk: disk.index(),
                kind: FaultKind::Offline,
            });
            return Err(ReadError::Offline(format!(
                "disk {di} offline for another {} ms",
                until.saturating_sub(now).div_ceil(1_000_000)
            )));
        }
        m.disk_offline[di].set(0);
        let mut ctl = self.disks[di].lock().expect("disk lock poisoned");
        let run_blocks = match ctl.on_request(ReadWrite::Read, start, nblocks) {
            ControllerDecision::CacheHit => {
                // An admin-planted bad block poisons cached copies too:
                // the FAULT frame declares the sector bad from now on,
                // so a resident block must not mask it (seeded schedule
                // errors keep cache-masking semantics).
                if let Some(bad) = (0..nblocks as u64)
                    .map(|i| start.index() + i)
                    .find(|&b| self.live.planted(disk.index(), b))
                {
                    self.recover_bad_block(disk, bad, req, t0)?;
                }
                m.flight.record(TraceEvent::Probe {
                    t: m.now_ns(),
                    req,
                    disk: disk.index(),
                    nblocks,
                    result: ProbeResult::Hit,
                });
                m.disk_store_hits_total[di].add(nblocks as u64);
                0
            }
            // A read's media run starts at the demanded blocks.
            ControllerDecision::Media {
                nblocks: media_blocks,
                ..
            } => {
                m.flight.record(TraceEvent::Probe {
                    t: m.now_ns(),
                    req,
                    disk: disk.index(),
                    nblocks,
                    result: ProbeResult::Miss,
                });
                m.disk_store_misses_total[di].add(nblocks as u64);
                // Clip the run to the image (read-ahead may overshoot
                // the padded tail on non-FOR policies).
                let avail = self.meta.disk_blocks.saturating_sub(start.index());
                let mut clipped = media_blocks.min(avail as u32).max(nblocks);
                if self.live.media_armed() {
                    // Degraded read-ahead: a bad sector in the
                    // speculative suffix aborts the extension there —
                    // the demand prefix still completes at full size.
                    for i in nblocks..clipped {
                        if self
                            .live
                            .media_error(disk.index(), start.index() + i as u64)
                        {
                            clipped = i;
                            break;
                        }
                    }
                    // A bad sector under the demanded range enters the
                    // bounded retry loop; only a recovered block falls
                    // through to the actual transfer.
                    if let Some(bad) = (0..nblocks as u64)
                        .map(|i| start.index() + i)
                        .find(|&b| self.live.media_error(disk.index(), b))
                    {
                        self.recover_bad_block(disk, bad, req, t0)?;
                    }
                }
                self.check_image(disk, start.index() + clipped as u64, req)?;
                m.disk_media_reads_total[di].inc();
                m.disk_media_blocks_total[di].add(clipped as u64);
                m.disk_media_bytes_total[di].add(clipped as u64 * bs as u64);
                m.disk_read_ahead_blocks_total[di].add(clipped.saturating_sub(nblocks) as u64);
                ctl.on_media_complete(ReadWrite::Read, start, clipped, nblocks);
                clipped
            }
            ControllerDecision::HdcWriteAbsorbed => {
                unreachable!("the serving protocol only issues reads")
            }
        };
        drop(ctl);
        if run_blocks == 0 {
            self.check_image(disk, start.index() + nblocks as u64, req)?;
        }
        Ok(Segment {
            disk: disk.index(),
            offset: start.index() * bs as u64,
            len: nblocks as u64 * bs as u64,
            run_blocks,
        })
    }

    /// Checks with one `fstat` that `disk`'s image holds its first
    /// `end` blocks, so a short image fails the plan before any byte of
    /// the response is sent.
    fn check_image(&self, disk: DiskId, end: u64, req: u64) -> Result<(), ReadError> {
        let need = end * self.meta.block_bytes as u64;
        let len = self.files[disk.as_usize()]
            .metadata()
            .map_err(|e| self.fault(disk, req, e))?
            .len();
        if len < need {
            let short = format!("image is {len} bytes, the read needs {need}");
            let e = io::Error::new(io::ErrorKind::UnexpectedEof, short);
            return Err(self.fault(disk, req, e));
        }
        Ok(())
    }

    /// Runs the recovery policy against a bad sector under the demand
    /// range: bounded retries with seeded-jitter backoff, preempted by
    /// the request deadline. Persistent bad sectors are a pure
    /// function of the schedule, so every re-probe fails and the loop
    /// runs to exactly `max_retries` retries (or the deadline); the
    /// re-probe is still real so a future transient source heals.
    /// Runs while the caller holds the disk lock — the head is busy
    /// retrying, which is exactly the degraded-mode cost model.
    fn recover_bad_block(
        &self,
        disk: DiskId,
        block: u64,
        req: u64,
        t0: u64,
    ) -> Result<(), ReadError> {
        let m = &self.metrics;
        let policy = self.live.policy();
        let seed = self.live.seed();
        let mut attempt = 1u32;
        loop {
            m.flight.record(TraceEvent::Fault {
                t: m.now_ns(),
                req,
                disk: disk.index(),
                kind: FaultKind::MediaRead,
            });
            let elapsed = m.now_ns().saturating_sub(t0);
            let Some(backoff) = policy.next_backoff_ns(seed, req, attempt, elapsed) else {
                return Err(if attempt > policy.max_retries {
                    ReadError::Media(format!(
                        "disk {}: block {block}: persistent media error after {} retries",
                        disk.index(),
                        policy.max_retries
                    ))
                } else {
                    ReadError::Timeout(format!(
                        "disk {}: block {block}: deadline preempted recovery at attempt {attempt}",
                        disk.index()
                    ))
                });
            };
            m.retries_total.inc();
            std::thread::sleep(Duration::from_nanos(backoff));
            attempt += 1;
            if !self.live.media_error(disk.index(), block) {
                return Ok(());
            }
        }
    }

    /// Records a media-read fault into the flight recorder and wraps
    /// the I/O error for the protocol layer.
    fn fault(&self, disk: DiskId, req: u64, e: std::io::Error) -> ReadError {
        self.metrics.flight.record(TraceEvent::Fault {
            t: self.metrics.now_ns(),
            req,
            disk: disk.index(),
            kind: FaultKind::MediaRead,
        });
        internal(disk, e)
    }

    /// Snapshots every disk's counters and histograms (briefly locking
    /// each disk in turn), and syncs the collector-style registry
    /// families — controller-owned hit counters and the pinned-block
    /// gauge — so a metrics render after a snapshot is exact.
    pub fn snapshot(&self) -> EngineSnapshot {
        let m = &self.metrics;
        let mut disks = Vec::with_capacity(self.disks.len());
        let mut merged = PowerHistogram::new();
        let now = m.now_ns();
        for (i, mx) in self.disks.iter().enumerate() {
            let offline = self.live.offline_until(i as u16, now).is_some();
            m.disk_offline[i].set(offline as i64);
            let ctl = mx.lock().expect("disk lock poisoned");
            let cache = ctl.cache_stats();
            let (extent_lookups, extent_hits) = (cache.extent_lookups, cache.extent_hits);
            let hdc_read_hits = ctl.hdc_stats().read_hits;
            let pinned = ctl.hdc_resident();
            drop(ctl);
            m.disk_extent_lookups_total[i].set_total(extent_lookups);
            m.disk_extent_hits_total[i].set_total(extent_hits);
            m.disk_hdc_hits_total[i].set_total(hdc_read_hits);
            m.disk_pinned_blocks[i].set(pinned as i64);
            let service = m.disk_service_ns[i].snapshot();
            merged.merge(&service);
            disks.push(DiskSnapshot {
                disk: i as u16,
                extent_lookups,
                extent_hits,
                hdc_read_hits,
                pinned,
                media_ops: m.disk_media_reads_total[i].get(),
                media_blocks: m.disk_media_blocks_total[i].get(),
                read_ahead_blocks: m.disk_read_ahead_blocks_total[i].get(),
                store_hits: m.disk_store_hits_total[i].get(),
                store_misses: m.disk_store_misses_total[i].get(),
                failover_reads: m.disk_failover_reads_total[i].get(),
                offline,
                rebuilding: self.rebuild_active(i as u16),
                service: service.quantiles(),
            });
        }
        EngineSnapshot {
            disks,
            service_all: merged.quantiles(),
        }
    }
}

fn internal(disk: DiskId, e: std::io::Error) -> ReadError {
    ReadError::Internal(format!("disk {}: image read failed: {e}", disk.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{block_payload, create_images};
    use std::path::PathBuf;

    fn build(tag: &str, policy: ReadAheadKind, hdc: u32) -> (PathBuf, Engine) {
        build_with(tag, policy, hdc, LiveOpts::default())
    }

    fn build_with(tag: &str, policy: ReadAheadKind, hdc: u32, opts: LiveOpts) -> (PathBuf, Engine) {
        let dir = std::env::temp_dir().join(format!("forhdc_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::image::DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 64,
            file_blocks: 4,
            seed: 11,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open_with(&dir, meta, policy, hdc, opts).unwrap();
        (dir, engine)
    }

    /// A 4-image mirrored array (2 virtual disks of 2 members each).
    fn build_mirrored(tag: &str, opts: LiveOpts) -> (PathBuf, Engine) {
        let dir =
            std::env::temp_dir().join(format!("forhdc_engine_m_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::image::DiskMeta {
            block_bytes: 4096,
            disks: 4,
            unit_blocks: 4,
            files: 64,
            file_blocks: 4,
            seed: 11,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: true,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open_with(&dir, meta, ReadAheadKind::For, 0, opts).unwrap();
        (dir, engine)
    }

    fn wait_rebuild(engine: &Engine, disk: u16) {
        let t0 = Instant::now();
        while engine.rebuild_active(disk) {
            assert!(t0.elapsed() < Duration::from_secs(30), "rebuild stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A recovery policy fast enough for tests: sub-millisecond
    /// backoffs, two retries.
    fn fast_policy(deadline_ns: Option<u64>) -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_base_ns: 200_000,
            backoff_cap_ns: 1_000_000,
            deadline_ns,
        }
    }

    #[test]
    fn whole_file_read_returns_verified_bytes() {
        let (dir, engine) = build("verify", ReadAheadKind::For, 0);
        for file in [0u32, 5, 63] {
            let mut out = Vec::new();
            engine.read(file, 0, 4, &mut out).unwrap();
            assert_eq!(out.len(), 4 * 4096);
            for off in 0..4u64 {
                assert_eq!(
                    &out[off as usize * 4096..(off as usize + 1) * 4096],
                    &block_payload(file, off, 4096)[..],
                    "file {file} block {off}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Asserts `out` holds blocks `offset..` of `file`, byte for byte.
    fn assert_payload(out: &[u8], file: u32, offset: u64) {
        for (b, page) in out.chunks_exact(4096).enumerate() {
            let off = offset + b as u64;
            assert!(
                page == &block_payload(file, off, 4096)[..],
                "file {file} block {off}"
            );
        }
    }

    /// Sums one per-disk counter over the snapshot.
    fn total(snap: &EngineSnapshot, f: impl Fn(&DiskSnapshot) -> u64) -> u64 {
        snap.disks.iter().map(f).sum()
    }

    #[test]
    fn the_store_fills_once_on_the_first_hit() {
        // No bytes are kept: only the first read is a media op, and
        // every later one is a hit served from the image alike.
        let (dir, engine) = build("fillonce", ReadAheadKind::For, 0);
        let mut out = Vec::new();
        let mut reread = || {
            let before = engine.snapshot();
            out.clear();
            engine.read(3, 0, 4, &mut out).unwrap();
            assert_payload(&out, 3, 0);
            (before, engine.snapshot())
        };
        // Cold: a media op.
        let (before, after) = reread();
        assert!(after.media_ops() > before.media_ops());
        // First and second hits: no media op, four hit blocks each.
        for _ in 0..2 {
            let (before, after) = reread();
            assert_eq!(after.media_ops(), before.media_ops());
            assert_eq!(
                total(&after, |d| d.store_hits) - total(&before, |d| d.store_hits),
                4
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_ahead_blocks_fill_on_their_first_hit() {
        let (dir, engine) = build("rafill", ReadAheadKind::BlindBlock, 0);
        // File f sits on disk f % 2 right after file f - 2, so a blind
        // read-ahead past file 0 covers file 2.
        let mut out = Vec::new();
        engine.read(0, 0, 4, &mut out).unwrap();
        assert_payload(&out, 0, 0);
        let cold = engine.snapshot();
        assert!(cold.disks[0].read_ahead_blocks >= 4);
        out.clear();
        engine.read(2, 0, 4, &mut out).unwrap();
        assert_payload(&out, 2, 0);
        let warm = engine.snapshot();
        assert_eq!(warm.media_ops(), cold.media_ops(), "file 2 was read ahead");
        assert_eq!(warm.extent_hits(), cold.extent_hits() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plans_cover_demanded_blocks_and_coalesce_adjacent_hits() {
        // One disk: a file's two striping units lie back to back.
        let dir = std::env::temp_dir().join(format!("forhdc_engine_plan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::image::DiskMeta {
            block_bytes: 4096,
            disks: 1,
            unit_blocks: 4,
            files: 8,
            file_blocks: 8,
            seed: 3,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 0).unwrap();
        let mut plan = Plan::default();
        // Cold: the first unit is a media run that reads the file
        // ahead, so the second unit hits; a media segment stays whole.
        engine.plan(5, 1, 7, &mut plan).unwrap();
        let segs = plan.segments().to_vec();
        assert_eq!(plan.bytes(), 7 * 4096);
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert_eq!((segs[0].len, segs[0].run_blocks), (3 * 4096, 7));
        assert_eq!((segs[1].len, segs[1].run_blocks), (4 * 4096, 0));
        assert_eq!(segs[0].offset + segs[0].len, segs[1].offset);
        // Warm: two adjacent hits become one segment.
        engine.plan(5, 1, 7, &mut plan).unwrap();
        assert_eq!(
            plan.segments(),
            &[Segment {
                run_blocks: 0,
                len: 7 * 4096,
                ..segs[0]
            }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeat_reads_hit_the_cache() {
        let (dir, engine) = build("hits", ReadAheadKind::For, 0);
        let mut out = Vec::new();
        engine.read(3, 0, 4, &mut out).unwrap();
        let cold = engine.snapshot();
        out.clear();
        engine.read(3, 0, 4, &mut out).unwrap();
        let warm = engine.snapshot();
        assert_eq!(
            warm.media_ops(),
            cold.media_ops(),
            "re-read must not touch media"
        );
        assert!(warm.extent_hits() > cold.extent_hits());
        assert_eq!(out.len(), 4 * 4096);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hdc_pins_hot_files_and_serves_them() {
        let (dir, engine) = build("hdc", ReadAheadKind::For, 64);
        let snap = engine.snapshot();
        let pinned: u32 = snap.disks.iter().map(|d| d.pinned).sum();
        assert!(pinned > 0, "bootstrap must pin blocks");
        // The hottest file is rank 0 of the shared permutation; its
        // read must be an HDC hit with no media op.
        let hot = rank_to_file(64, 11)[0];
        let mut out = Vec::new();
        engine.read(hot, 0, 4, &mut out).unwrap();
        let after = engine.snapshot();
        assert_eq!(after.media_ops(), snap.media_ops());
        assert!(after.hdc_read_hits() > snap.hdc_read_hits());
        assert_eq!(out.len(), 4 * 4096);
        assert_payload(&out, hot, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn churning_page_store_keeps_every_byte() {
        // A 512-block HDC leaves about 500 blocks of read-ahead cache
        // per disk, so 4096 blocks per disk churn the controller's
        // resident set every few hundred media blocks.
        let dir = std::env::temp_dir().join(format!("forhdc_engine_churn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::image::DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 2048,
            file_blocks: 4,
            seed: 5,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 512).unwrap();
        let mut out = Vec::new();
        let mut read_verified = |file: u32, offset: u64, nblocks: u32| {
            out.clear();
            engine.read(file, offset, nblocks, &mut out).unwrap();
            assert_payload(&out, file, offset);
        };
        for pass in 0..3u64 {
            for i in 0..2048u64 {
                let file = ((i * 7919 + pass * 131) % 2048) as u32;
                let (offset, nblocks) = if i % 3 == 0 { (1, 2) } else { (0, 4) };
                read_verified(file, offset, nblocks);
            }
        }
        let snap = engine.snapshot();
        for d in &snap.disks {
            assert!(d.media_blocks > 4 * 1536, "disk {} barely churned", d.disk);
        }
        // The 64 hottest files are pinned, so they fit the cache: once
        // a pass has hit them, another adds no media op.
        let hot = &rank_to_file(2048, 5)[..64];
        for &file in hot {
            read_verified(file, 0, 4);
        }
        let warm = engine.snapshot();
        for &file in hot {
            read_verified(file, 0, 4);
        }
        let again = engine.snapshot();
        assert_eq!(again.media_ops(), warm.media_ops());
        assert_eq!(
            total(&again, |d| d.store_hits),
            total(&warm, |d| d.store_hits) + 64 * 4
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_errors_are_clean() {
        let (dir, engine) = build("range", ReadAheadKind::BlindSegment, 0);
        let mut out = Vec::new();
        assert!(matches!(
            engine.read(64, 0, 1, &mut out),
            Err(ReadError::Range(_))
        ));
        assert!(matches!(
            engine.read(0, 4, 1, &mut out),
            Err(ReadError::Range(_))
        ));
        assert!(matches!(
            engine.read(0, 0, 0, &mut out),
            Err(ReadError::Range(_))
        ));
        assert!(matches!(
            engine.read(0, u64::MAX, 2, &mut out),
            Err(ReadError::Range(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_image_fails_misses_and_fills_cleanly() {
        let (dir, engine) = build("truncated", ReadAheadKind::For, 0);
        let loc = |file| {
            let logical = engine.map.block_at(FileId::new(file), 0).unwrap();
            engine.striping.locate(logical)
        };
        // Files 61 and 63 are the last two on disk 1; file 1 its first.
        let ((disk, lost), (disk63, _), (disk1, _)) = (loc(61), loc(63), loc(1));
        assert_eq!((disk, disk63, disk1), (DiskId::new(1), disk, disk));
        let mut out = Vec::new();
        engine.read(63, 0, 4, &mut out).unwrap();
        // Cut the image at file 61 behind the engine's back.
        OpenOptions::new()
            .write(true)
            .open(DiskMeta::image_path(&dir, disk.index()))
            .unwrap()
            .set_len(lost.index() * 4096)
            .unwrap();
        let before = engine.snapshot();
        // File 61 is a miss, file 63 a hit: the image no longer holds
        // either, so both are internal errors that leave `out` as it
        // was.
        let mut out = vec![7u8; 5];
        for file in [61, 63] {
            match engine.read(file, 0, 4, &mut out) {
                Err(ReadError::Internal(m)) => assert!(m.contains("disk 1"), "{m}"),
                other => panic!("file {file}: want Internal, got {other:?}"),
            }
            assert_eq!(out, [7u8; 5], "file {file}");
        }
        let after = engine.snapshot();
        assert_eq!(after.extent_hits(), before.extent_hits() + 1);
        // The intact head of the same image still serves.
        out.clear();
        engine.read(1, 0, 4, &mut out).unwrap();
        assert_payload(&out, 1, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_hdc_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("forhdc_engine_badhdc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::image::DiskMeta {
            block_bytes: 4096,
            disks: 1,
            unit_blocks: 4,
            files: 8,
            file_blocks: 4,
            seed: 1,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let err = Engine::open(&dir, meta, ReadAheadKind::BlindBlock, 1024).unwrap_err();
        assert!(err.contains("read-ahead cache"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planted_bad_block_fails_after_exact_retries() {
        let opts = LiveOpts {
            recovery: fast_policy(None),
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("plant", ReadAheadKind::For, 0, opts);
        let (disk, phys) = engine.plant_bad_block(9, 1).unwrap();
        assert!(engine.live_faults().media_error(disk, phys));
        let mut out = Vec::new();
        // Cold read over the planted block: the media run crosses it,
        // recovery burns exactly max_retries retries, then fails Media.
        match engine.read(9, 0, 4, &mut out) {
            Err(ReadError::Media(m)) => assert!(m.contains("after 2 retries"), "{m}"),
            other => panic!("want Media, got {other:?}"),
        }
        assert_eq!(engine.metrics().retries_total.get(), 2);
        // Other files still serve.
        out.clear();
        engine.read(10, 0, 4, &mut out).unwrap();
        assert_eq!(out.len(), 4 * 4096);
        // Planting outside the array is a clean range error.
        assert!(matches!(
            engine.plant_bad_block(64, 0),
            Err(ReadError::Range(_))
        ));
        assert!(matches!(
            engine.plant_bad_block(0, 99),
            Err(ReadError::Range(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planting_poisons_an_already_cached_block() {
        let opts = LiveOpts {
            recovery: fast_policy(None),
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("plantwarm", ReadAheadKind::For, 0, opts);
        // Warm the cache over the target extent, then plant under it:
        // the re-read must take the recovery path despite the resident
        // copy, or chaos probes would depend on cache state.
        let mut out = Vec::new();
        engine.read(9, 0, 4, &mut out).unwrap();
        let (disk, phys) = engine.plant_bad_block(9, 1).unwrap();
        assert!(engine.live_faults().planted(disk, phys));
        out.clear();
        match engine.read(9, 0, 4, &mut out) {
            Err(ReadError::Media(m)) => assert!(m.contains("after 2 retries"), "{m}"),
            other => panic!("want Media, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_block_in_the_ra_suffix_clips_not_fails() {
        let opts = LiveOpts {
            recovery: fast_policy(None),
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("raclip", ReadAheadKind::BlindSegment, 0, opts);
        // Demand one block; the blind-segment policy would extend the
        // run. A bad sector right after the demand range must clip the
        // extension, not fail the read.
        let (disk, phys) = engine.plant_bad_block(3, 1).unwrap();
        assert!(engine.live_faults().media_error(disk, phys));
        let mut out = Vec::new();
        engine.read(3, 0, 1, &mut out).unwrap();
        assert_eq!(out.len(), 4096);
        assert_eq!(&out[..], &block_payload(3, 0, 4096)[..]);
        assert_eq!(engine.metrics().retries_total.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offline_disk_fails_fast_and_recovers() {
        let (dir, engine) = build("offline", ReadAheadKind::For, 0);
        for d in 0..2 {
            engine.set_offline_ms(d, 60_000).unwrap();
        }
        let mut out = Vec::new();
        match engine.read(5, 0, 4, &mut out) {
            Err(ReadError::Offline(m)) => assert!(m.contains("offline"), "{m}"),
            other => panic!("want Offline, got {other:?}"),
        }
        engine.snapshot();
        assert!(engine.metrics().disk_offline.iter().all(|g| g.get() == 1));
        for d in 0..2 {
            engine.set_offline_ms(d, 0).unwrap();
        }
        out.clear();
        engine.read(5, 0, 4, &mut out).unwrap();
        assert_eq!(out.len(), 4 * 4096);
        engine.snapshot();
        assert!(engine.metrics().disk_offline.iter().all(|g| g.get() == 0));
        assert!(matches!(
            engine.set_offline_ms(9, 10),
            Err(ReadError::Range(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_times_out_stalled_reads() {
        let opts = LiveOpts {
            recovery: fast_policy(Some(30_000_000)), // 30 ms deadline
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("stall", ReadAheadKind::For, 0, opts);
        for d in 0..2 {
            engine.set_stall_ms(d, 5_000).unwrap();
        }
        let mut out = Vec::new();
        let t0 = Instant::now();
        match engine.read(2, 0, 4, &mut out) {
            Err(ReadError::Timeout(m)) => assert!(m.contains("deadline"), "{m}"),
            other => panic!("want Timeout, got {other:?}"),
        }
        // The deadline cut the 5 s stall short.
        assert!(t0.elapsed() < Duration::from_secs(2));
        for d in 0..2 {
            engine.set_stall_ms(d, 0).unwrap();
        }
        out.clear();
        engine.read(2, 0, 4, &mut out).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deep_queue_sheds_with_overload() {
        let opts = LiveOpts {
            max_queue: 2,
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("shed", ReadAheadKind::For, 0, opts);
        // Pin both disks' queue gauges at the bound; the next arrival
        // must shed, and clearing the gauges must re-admit.
        for g in &engine.metrics().disk_queue_depth {
            g.set(2);
        }
        let mut out = Vec::new();
        match engine.read(1, 0, 4, &mut out) {
            Err(ReadError::Overload(m)) => assert!(m.contains("max-queue"), "{m}"),
            other => panic!("want Overload, got {other:?}"),
        }
        assert_eq!(engine.metrics().shed_total.get(), 1);
        for g in &engine.metrics().disk_queue_depth {
            g.set(0);
        }
        out.clear();
        engine.read(1, 0, 4, &mut out).unwrap();
        assert_eq!(out.len(), 4 * 4096);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_media_faults_error_some_reads() {
        let opts = LiveOpts {
            faults: Some(FaultConfig::new(21).with_media_rates(0.08, 0.0)),
            recovery: fast_policy(None),
            ..LiveOpts::default()
        };
        let (dir, engine) = build_with("seeded", ReadAheadKind::None, 0, opts);
        let (mut ok, mut media) = (0u32, 0u32);
        let mut out = Vec::new();
        for file in 0..64 {
            out.clear();
            match engine.read(file, 0, 4, &mut out) {
                Ok(()) => ok += 1,
                Err(ReadError::Media(_)) => media += 1,
                other => panic!("{other:?}"),
            }
        }
        // At 8% per block over 256 demanded blocks, both outcomes
        // appear for any seed worth keeping.
        assert!(ok > 0, "no read survived");
        assert!(media > 0, "no read faulted");
        assert_eq!(engine.metrics().retries_total.get(), media as u64 * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_policy_serves_correct_bytes() {
        for (tag, policy) in [
            ("p_segm", ReadAheadKind::BlindSegment),
            ("p_block", ReadAheadKind::BlindBlock),
            ("p_none", ReadAheadKind::None),
            ("p_track", ReadAheadKind::PartialTrack),
            ("p_for", ReadAheadKind::For),
        ] {
            let (dir, engine) = build(tag, policy, 0);
            let mut out = Vec::new();
            engine.read(7, 1, 2, &mut out).unwrap();
            assert_eq!(out.len(), 2 * 4096);
            assert_eq!(&out[..4096], &block_payload(7, 1, 4096)[..]);
            assert_eq!(&out[4096..], &block_payload(7, 2, 4096)[..]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn mirrored_reads_split_over_both_members_and_verify() {
        let (dir, engine) = build_mirrored("split", LiveOpts::default());
        let mut out = Vec::new();
        for file in 0..64u32 {
            out.clear();
            engine.read(file, 0, 4, &mut out).unwrap();
            assert_eq!(out.len(), 4 * 4096);
            for off in 0..4u64 {
                assert_eq!(
                    &out[off as usize * 4096..(off as usize + 1) * 4096],
                    &block_payload(file, off, 4096)[..],
                    "file {file} block {off}"
                );
            }
        }
        let snap = engine.snapshot();
        // Round-robin: every member of every pair took media traffic,
        // and none of it was failover.
        for d in &snap.disks {
            assert!(d.media_ops > 0, "member {} saw no media traffic", d.disk);
        }
        assert_eq!(snap.failover_reads(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirrored_offline_member_fails_over_invisibly() {
        let (dir, engine) = build_mirrored("failover", LiveOpts::default());
        let m = engine.metrics();
        // A one-block read is one piece. Fault-free, the first read of
        // its pair lands on the primary, so the cursor's next pick is
        // the twin; take the twin offline.
        let mut plan = Plan::default();
        engine.plan(0, 0, 1, &mut plan).unwrap();
        let survivor = plan.segments()[0].disk;
        let offline = mirror::twin(survivor);
        engine.set_offline_ms(offline, 60_000).unwrap();
        // The router skips the offline member before any attempt: the
        // read counts one failover and records no offline fault.
        let mut out = Vec::new();
        engine.read(0, 0, 1, &mut out).unwrap();
        assert_eq!(m.disk_failover_reads_total[offline as usize].get(), 1);
        let offline_faults = || {
            m.flight
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::Fault {
                            kind: FaultKind::Offline,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(offline_faults(), 0);
        for file in 0..64u32 {
            out.clear();
            engine.read(file, 0, 4, &mut out).unwrap();
            assert_eq!(out.len(), 4 * 4096);
            assert_eq!(&out[..4096], &block_payload(file, 0, 4096)[..]);
        }
        assert!(
            m.disk_failover_reads_total[offline as usize].get() > 1,
            "reads on the degraded pair must fail over"
        );
        assert_eq!(m.errors_sum(), 0);
        assert_eq!(offline_faults(), 0);
        // The survivor never failed over.
        assert_eq!(m.disk_failover_reads_total[survivor as usize].get(), 0);
        engine.set_offline_ms(offline, 0).unwrap();
        out.clear();
        engine.read(0, 0, 4, &mut out).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirrored_read_with_both_members_offline_counts_no_failover() {
        let (dir, engine) = build_mirrored("both_offline", LiveOpts::default());
        engine.set_offline_ms(0, 60_000).unwrap();
        engine.set_offline_ms(1, 60_000).unwrap();
        // Find a one-block read whose piece lives on virtual disk 0.
        let file = (0..64u32)
            .find(|&f| {
                let logical = engine.map.block_at(FileId::new(f), 0).unwrap();
                engine.striping.locate(logical).0.index() == 0
            })
            .expect("some file starts on virtual disk 0");
        let mut out = Vec::new();
        let err = engine.read(file, 0, 1, &mut out).unwrap_err();
        assert!(matches!(err, ReadError::Offline(_)), "{err}");
        let failovers: u64 = engine
            .metrics()
            .disk_failover_reads_total
            .iter()
            .map(|c| c.get())
            .sum();
        assert_eq!(failovers, 0, "no member served the read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirrored_media_error_repairs_from_the_twin() {
        let opts = LiveOpts {
            recovery: fast_policy(None),
            ..LiveOpts::default()
        };
        let (dir, engine) = build_mirrored("repair", opts);
        let (member, phys) = engine.plant_bad_block(9, 1).unwrap();
        assert_eq!(
            member,
            mirror::members(mirror::virtual_disk(member, true), true).start,
            "plants land on the pair's primary"
        );
        assert!(engine.live_faults().planted(member, phys));
        // Two reads visit both members of the pair (round-robin); the
        // one that lands on the planted member exhausts retries, fails
        // over, and repairs the decree from the mirror.
        let mut out = Vec::new();
        for _ in 0..2 {
            out.clear();
            engine.read(9, 0, 4, &mut out).unwrap();
            assert_eq!(&out[4096..2 * 4096], &block_payload(9, 1, 4096)[..]);
        }
        assert_eq!(
            engine.metrics().disk_failover_reads_total[member as usize].get(),
            1
        );
        assert!(
            !engine.live_faults().planted(member, phys),
            "failover must repair the planted sector from the twin"
        );
        // Repaired: further reads touch the member without faulting.
        let retries = engine.metrics().retries_total.get();
        for _ in 0..2 {
            out.clear();
            engine.read(9, 0, 4, &mut out).unwrap();
        }
        assert_eq!(engine.metrics().retries_total.get(), retries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_restores_a_corrupted_member_bit_exactly() {
        let (dir, engine) = build_mirrored("rebuild", LiveOpts::default());
        let engine = Arc::new(engine);
        let total = engine.meta().disk_blocks;
        // Scribble over member 3's image behind the engine's back —
        // the "replaced disk" whose content is garbage.
        let path3 = DiskMeta::image_path(&dir, 3);
        let junk = vec![0xAAu8; (total * 4096 / 2) as usize];
        OpenOptions::new()
            .write(true)
            .open(&path3)
            .unwrap()
            .write_all_at(&junk, 4096)
            .unwrap();
        assert!(engine.rebuild(3).unwrap());
        wait_rebuild(&engine, 3);
        let m = engine.metrics();
        assert_eq!(m.rebuild_blocks_total.get(), total);
        assert_eq!(m.disk_rebuild_progress[3].get(), 100);
        // Bit-exact against the surviving twin (itself pure
        // block_payload output from mkdisk).
        let twin = std::fs::read(DiskMeta::image_path(&dir, 2)).unwrap();
        let rebuilt = std::fs::read(&path3).unwrap();
        assert_eq!(twin.len(), rebuilt.len());
        assert!(twin == rebuilt, "rebuilt image differs from its mirror");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_is_paced_gated_and_mirror_only() {
        // Unmirrored arrays reject REBUILD cleanly.
        let (dir, engine) = build("norebuild", ReadAheadKind::For, 0);
        let engine = Arc::new(engine);
        assert!(matches!(engine.rebuild(0), Err(ReadError::Range(_))));
        let _ = std::fs::remove_dir_all(&dir);
        // A paced rebuild is slow enough to observe in flight: the
        // second trigger reports "already running", and the copy takes
        // at least its bandwidth budget.
        let opts = LiveOpts {
            rebuild_mbps: 4,
            ..LiveOpts::default()
        };
        let (dir, engine) = build_mirrored("paced", opts);
        let engine = Arc::new(engine);
        assert!(matches!(engine.rebuild(9), Err(ReadError::Range(_))));
        let total = engine.meta().disk_blocks;
        let t0 = Instant::now();
        assert!(engine.rebuild(1).unwrap());
        assert!(!engine.rebuild(1).unwrap(), "second trigger must no-op");
        wait_rebuild(&engine, 1);
        let budget = Duration::from_nanos(total * 4096 * 1000 / 4);
        assert!(
            t0.elapsed() >= budget / 2,
            "paced rebuild finished implausibly fast: {:?} for a {budget:?} budget",
            t0.elapsed()
        );
        assert_eq!(engine.metrics().rebuild_blocks_total.get(), total);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
