//! The full-system simulation: disk array + controllers + bus + host
//! streams, driven by a deterministic event loop.
//!
//! This is the experiment vehicle of §6: a workload's disk-level trace
//! is replayed closed-loop by `S` streams over the 8-disk Ultra160
//! array, and the total I/O time (completion of the last request) is
//! the figure of merit. "Contention for buses, memories, and other
//! components is simulated in detail. For request scheduling, each disk
//! controller has a queue that implements the LOOK algorithm. Before
//! queuing a new request, the disk controller checks the cache."

use std::collections::HashMap;

use forhdc_cache::fx::FxHashMap;
use forhdc_cache::{BlockReplacement, ProbeMap, SegmentReplacement};
use forhdc_check::{Auditor, FinalDigest, FullAudit, NoChecks};
use forhdc_fault::{FaultModel, FaultStats, NoFaults, RetryPolicy};
use forhdc_host::StreamDriver;
use forhdc_layout::build_disk_bitmaps;
use forhdc_sim::mirror::{self, MirrorRouter, Route};
use forhdc_sim::sched::{QueuedOp, Scheduler};
use forhdc_sim::{
    ArrayConfig, BusModel, DiskId, DiskMechanics, DiskStats, EventQueue, ReadSplit, ReadWrite,
    SchedulerKind, SimDuration, SimTime, StreamId, StripingMap,
};
use forhdc_trace::{FaultKind, NullTracer, ProbeResult, TraceEvent, Tracer};
use forhdc_workload::{TraceRequest, Workload};

use crate::controller::{ControllerDecision, DiskController};
use crate::planner::{plan_cooperative, plan_top_misses, HdcPlan};
use crate::policy::ReadAheadKind;
use crate::report::Report;
use crate::victim::HdcCommand;

/// A mirror reconstruction running alongside the workload: starting at
/// `start`, the target member is rebuilt from its twin, one paced chunk
/// at a time. Each chunk is one real media read on the source and one
/// real media write on the target, so the copy competes with foreground
/// traffic for heads and queues (the pair's private copy path skips the
/// shared host bus). Requires a mirrored array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildConfig {
    /// Physical member being reconstructed (its twin is the source).
    pub disk: u16,
    /// Simulated time at which the copy starts (e.g. the end of the
    /// offline window that replaced the disk).
    pub start: SimDuration,
    /// Pacing cap in bytes of reconstructed data per second of
    /// simulated time (`0` = unpaced: the next chunk starts as soon as
    /// the previous one lands).
    pub rate_bytes_per_sec: u64,
    /// Blocks copied per chunk (one source read + one target write).
    pub chunk_blocks: u32,
    /// Blocks to reconstruct — the used extent of the member, starting
    /// at physical block 0.
    pub total_blocks: u64,
}

/// Configuration of one experimental system (one curve point).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The array hardware (Table 1 defaults).
    pub array: ArrayConfig,
    /// Read-ahead discipline.
    pub read_ahead: ReadAheadKind,
    /// Host-guided cache per disk, in bytes (0 = HDC off).
    pub hdc_bytes_per_disk: u64,
    /// Block-cache replacement (MRU per §4; LRU for ablation).
    pub block_replacement: BlockReplacement,
    /// Segment-cache replacement (LRU conventional; others for
    /// ablation).
    pub segment_replacement: SegmentReplacement,
    /// Cooperative HDC (§5's future-work remark): the pinned set is
    /// planned *globally*; blocks whose home controller is full
    /// overflow into sibling controllers and are served over the bus
    /// like any other controller-cache hit. Only meaningful with
    /// `hdc_bytes_per_disk > 0`.
    pub cooperative_hdc: bool,
    /// Periodic `flush_hdc()` interval. `None` reproduces the paper's
    /// default (dirty HDC blocks written only at the end of the run);
    /// `Some(30 s)` models the Unix sync policy whose throughput cost
    /// the paper measured at under 1 %. Flush write-backs are charged
    /// as real media operations.
    pub hdc_flush_period: Option<SimDuration>,
    /// Fixed simulated-time cadence for the tracing sampler (queue
    /// depth, utilization, cache occupancy, RA accuracy per disk).
    /// Only consulted when the attached tracer is enabled; sampling
    /// never perturbs the simulation itself.
    pub trace_sample_period: Option<SimDuration>,
    /// Fault recovery policy (retries, backoff, deadline). Inert unless
    /// a fault model is attached. The simulator waits its jitter-free
    /// backoff and enforces the deadline with a timeout event.
    pub recovery: RetryPolicy,
    /// Optional mirror reconstruction running as background media
    /// traffic (requires a mirrored array).
    pub rebuild: Option<RebuildConfig>,
}

impl SystemConfig {
    fn with_policy(read_ahead: ReadAheadKind) -> Self {
        SystemConfig {
            array: ArrayConfig::default(),
            read_ahead,
            hdc_bytes_per_disk: 0,
            block_replacement: BlockReplacement::Mru,
            segment_replacement: SegmentReplacement::Lru,
            cooperative_hdc: false,
            hdc_flush_period: None,
            trace_sample_period: None,
            recovery: RetryPolicy::default(),
            rebuild: None,
        }
    }

    /// The conventional drive: segment cache + blind read-ahead
    /// (`Segm`).
    pub fn segm() -> Self {
        SystemConfig::with_policy(ReadAheadKind::BlindSegment)
    }

    /// Blind read-ahead over the block-organized cache (`Block`).
    pub fn block() -> Self {
        SystemConfig::with_policy(ReadAheadKind::BlindBlock)
    }

    /// Read-ahead disabled (`No-RA`).
    pub fn no_ra() -> Self {
        SystemConfig::with_policy(ReadAheadKind::None)
    }

    /// File-Oriented Read-ahead (`FOR`).
    pub fn for_() -> Self {
        SystemConfig::with_policy(ReadAheadKind::For)
    }

    /// Partial-track read-ahead (`Track`, Shriver 97 — an extra
    /// baseline beyond the paper's four systems).
    pub fn partial_track() -> Self {
        SystemConfig::with_policy(ReadAheadKind::PartialTrack)
    }

    /// Dedicates `bytes` of each controller cache to HDC.
    pub fn with_hdc(mut self, bytes: u64) -> Self {
        self.hdc_bytes_per_disk = bytes;
        self
    }

    /// Sets the striping unit in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the unit is zero or misaligned (see
    /// [`ArrayConfig::with_striping_unit_bytes`]).
    pub fn with_striping_unit(mut self, bytes: u32) -> Self {
        self.array = self.array.with_striping_unit_bytes(bytes);
        self
    }

    /// Sets the per-disk scheduler (ablation).
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.array.scheduler = kind;
        self
    }

    /// Sets the segment size (and Table 1 segment count).
    pub fn with_segment_bytes(mut self, bytes: u32) -> Self {
        self.array.disk = self.array.disk.with_segment_bytes(bytes);
        self
    }

    /// Sets the cache replacement policies (ablation).
    pub fn with_replacement(
        mut self,
        block: BlockReplacement,
        segment: SegmentReplacement,
    ) -> Self {
        self.block_replacement = block;
        self.segment_replacement = segment;
        self
    }

    /// Enables the Ultrastar-like zoned-recording profile (outer
    /// cylinders transfer faster; Table 1's 54 MB/s stays the average).
    pub fn with_zoned_recording(mut self) -> Self {
        self.array.disk = self.array.disk.with_zoned_recording();
        self
    }

    /// Enables RAID-1 mirroring over adjacent disk pairs (§2.2:
    /// redundancy for reliable servers). Reads go to the closest copy;
    /// writes to both members.
    pub fn with_mirroring(mut self) -> Self {
        self.array.mirrored = true;
        self
    }

    /// Sets the read-splitting policy for mirrored pairs (which member
    /// serves each read). Only meaningful with mirroring enabled.
    pub fn with_read_split(mut self, policy: ReadSplit) -> Self {
        self.array.read_split = policy;
        self
    }

    /// Attaches a mirror rebuild: starting at `rebuild.start`, the
    /// target member is reconstructed from its twin as paced background
    /// media traffic competing with the foreground workload.
    pub fn with_rebuild(mut self, rebuild: RebuildConfig) -> Self {
        self.rebuild = Some(rebuild);
        self
    }

    /// Enables cooperative HDC planning (global top-K with overflow
    /// into sibling controllers).
    pub fn with_cooperative_hdc(mut self) -> Self {
        self.cooperative_hdc = true;
        self
    }

    /// Enables periodic HDC flushing every `period` (e.g. the Unix
    /// 30-second sync).
    pub fn with_hdc_flush_period(mut self, period: SimDuration) -> Self {
        self.hdc_flush_period = Some(period);
        self
    }

    /// Sets the tracing sampler cadence (simulated time between
    /// per-disk [`forhdc_trace::TraceEvent::Sample`] observations).
    pub fn with_trace_sampling(mut self, period: SimDuration) -> Self {
        self.trace_sample_period = Some(period);
        self
    }

    /// Sets the fault recovery policy (retries/backoff/deadline).
    pub fn with_recovery(mut self, recovery: RetryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// HDC capacity per disk in blocks.
    pub fn hdc_blocks(&self) -> u32 {
        (self.hdc_bytes_per_disk / self.array.disk.block_bytes() as u64) as u32
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::segm()
    }
}

/// One simulator event. Kept to 16 bytes, the size of a request id
/// and its tag, so a queue entry is its 16-byte key plus this; the
/// retry payloads, which only fault paths create, live out of line.
#[derive(Debug)]
enum Event {
    MediaDone {
        disk: DiskId,
    },
    /// The request's last sub-completion has landed: it completes.
    SubDone {
        req: u64,
    },
    HdcFlush,
    /// Tracing sampler tick. Reads state and emits [`TraceEvent`]s
    /// only; it never mutates the simulation, so traced and untraced
    /// runs produce identical reports.
    Sample,
    /// Requeue a media op after its backoff expires (fault path only).
    RetryMedia {
        disk: DiskId,
        op: Box<QueuedOp>,
    },
    /// Re-attempt a bus transfer after its backoff expires (fault path
    /// only).
    RetryBus(Box<BusRetry>),
    /// An offline window covering this disk has ended; resume service
    /// (fault path only).
    DiskOnline {
        disk: DiskId,
    },
    /// Controller power loss: volatile dirty HDC contents are discarded
    /// array-wide (fault path only).
    PowerLoss,
    /// Per-request deadline expired (fault path only).
    Timeout {
        req: u64,
    },
    /// Issue the next paced chunk of a mirror rebuild (rebuild runs
    /// only).
    RebuildTick,
}

/// A bus transfer waiting out its retry backoff.
#[derive(Debug)]
struct BusRetry {
    req: u64,
    disk: u16,
    bytes: u64,
    attempt: u32,
}

/// Tokens at or above this mark internal flush write-backs: they carry
/// no host request, so no bus transfer or completion is due.
const FLUSH_TOKEN_BASE: u64 = 1 << 63;

/// Tokens in `REBUILD_TOKEN_BASE..FLUSH_TOKEN_BASE` mark mirror-rebuild
/// copy legs: real media work on a pair's members, moved over the
/// pair's private copy path — no shared-bus transfer, no host
/// completion.
const REBUILD_TOKEN_BASE: u64 = 1 << 62;

#[derive(Debug)]
struct CurrentOp {
    token: u64,
    kind: ReadWrite,
    start: forhdc_sim::PhysBlock,
    total: u32,
    requested: u32,
    timing: forhdc_sim::ServiceTiming,
    /// Which service attempt this is (0 = first try); carried so a
    /// media error can decide between retry and giving up.
    attempt: u32,
}

struct DiskState {
    mech: DiskMechanics,
    sched: Scheduler,
    ctl: DiskController,
    stats: DiskStats,
    busy: bool,
    current: Option<CurrentOp>,
    /// Busy time accumulated over completed operations. Unlike
    /// `stats.busy_time` (credited in one lump at completion) this is
    /// interval-exact, so a sampler window's busy delta never exceeds
    /// the window.
    busy_accum: SimDuration,
    /// When the in-flight operation started service (valid while
    /// `busy`).
    busy_since: SimTime,
    /// Busy total as of the last sampler observation.
    busy_sampled: SimDuration,
    /// Whether a [`Event::DiskOnline`] wake-up is already queued for an
    /// offline window covering this disk (prevents duplicate wakes).
    wake_scheduled: bool,
}

impl std::fmt::Debug for DiskState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskState")
            .field("busy", &self.busy)
            .field("queued", &self.sched.len())
            .finish()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PendingReq {
    stream: StreamId,
    /// Sub-completions not yet placed: one per extent, or per member
    /// for a mirrored write. Each bus reservation for the request
    /// places one, and so does a media leg that exhausts its retries.
    remaining: u32,
    /// The latest end among the placed sub-completions; the request
    /// completes there once the last one is placed.
    latest: SimTime,
    issued_at: SimTime,
    /// Set when any sub-operation exhausted its retries (or the request
    /// timed out): the request still completes, as an error.
    failed: bool,
}

/// A fully assembled system ready to replay one workload.
///
/// [`System::builder`] is the one way to assemble it; [`System::new`],
/// [`System::with_plan`], [`System::new_traced`] and
/// [`System::new_checked`] are shorthands for common builder chains.
/// Three type parameters carry optional facades, each attached through
/// one builder slot that replaces its parameter:
///
/// * **Tracer** ([`SystemBuilder::tracer`]) — defaults to
///   [`NullTracer`], whose constant-false `enabled()` lets every
///   emission site compile to nothing, so untraced runs pay zero
///   overhead. [`System::run_traced`] returns the tracer full of
///   events.
/// * **Fault model** ([`SystemBuilder::faults`]) — defaults to
///   [`NoFaults`], compiled out the same way, so the default build is
///   byte-identical to the pre-fault simulator. A real model (e.g.
///   [`forhdc_fault::SeededFaults`]) injects deterministic media, bus,
///   offline-window, and power-loss faults.
/// * **Auditor** ([`SystemBuilder::auditor`]) — defaults to
///   [`NoChecks`] (audit sites compile away; unchecked reports stay
///   byte-identical). [`FullAudit`] validates invariants at every audit
///   point and panics on the first violation (checked mode, DESIGN.md
///   §6.5); [`System::run_audited`] returns it.
///
/// # Example
///
/// ```
/// use forhdc_core::{FaultConfig, FullAudit, SeededFaults, System, SystemConfig};
/// use forhdc_workload::SyntheticWorkload;
///
/// let wl = SyntheticWorkload::builder().requests(100).files(1_000).seed(3).build();
/// let cfg = SystemConfig::for_().with_hdc(2 * 1024 * 1024);
/// let report = System::new(cfg.clone(), &wl).run();
/// assert_eq!(report.requests, wl.trace.len() as u64);
///
/// // Every facade attaches through the builder.
/// let (faulted, audit) = System::builder(cfg, &wl)
///     .faults(SeededFaults::new(FaultConfig::new(7)))
///     .auditor(FullAudit::new())
///     .build()
///     .run_audited();
/// assert_eq!(faulted.requests, report.requests);
/// assert!(audit.observations() > 0);
/// ```
#[derive(Debug)]
pub struct System<T: Tracer = NullTracer, F: FaultModel = NoFaults, A: Auditor = NoChecks> {
    tracer: T,
    faults: F,
    auditor: A,
    fstats: FaultStats,
    cfg: SystemConfig,
    striping: StripingMap,
    disks: Vec<DiskState>,
    bus: BusModel,
    queue: EventQueue<Event>,
    driver: StreamDriver,
    pending: ProbeMap<PendingReq>,
    next_req: u64,
    workload_name: String,
    payload_bytes: u64,
    completed: u64,
    last_completion: SimTime,
    /// Host HDC commands to apply before the issue with the given
    /// sequence number (victim-cache mode).
    hdc_commands: HashMap<u64, Vec<HdcCommand>>,
    issued_count: u64,
    latency: crate::latency::LatencyHistogram,
    /// Overflow pins of the cooperative plan: (home virtual disk, phys
    /// block) → holder. Reads covered by home HDC ∪ this map are bus
    /// hits.
    coop_overflow: FxHashMap<(u16, u64), u16>,
    coop_hits: u64,
    /// Reusable buffer for periodic HDC flushes (no per-cycle
    /// allocation).
    flush_buf: Vec<forhdc_sim::PhysBlock>,
    /// Reusable buffer for striping splits (no per-request
    /// allocation on the issue path).
    split_buf: Vec<forhdc_sim::request::DiskExtent>,
    /// Picks the member that serves each mirrored read.
    router: MirrorRouter,
    /// Mirrored reads routed in total, and the subset routed by the
    /// configured policy. The remainder were failovers (counted in
    /// `fstats.failover_reads`), so
    /// `mirror_reads == mirror_policy_reads + failover_reads` always.
    mirror_reads: u64,
    mirror_policy_reads: u64,
    /// Blocks of the rebuild target already issued (copied or skipped
    /// after exhausted retries); the next chunk starts here.
    rebuild_next: u64,
    /// Earliest simulated time the next rebuild chunk may start (the
    /// pacing anchor).
    rebuild_pace_at: SimTime,
}

impl System {
    /// Starts assembling a system for `cfg` serving `workload`. Left
    /// alone, [`SystemBuilder::build`] plans the HDC contents from the
    /// trace (perfect knowledge, as in §6.1) and attaches no tracer,
    /// fault model or auditor.
    pub fn builder(cfg: SystemConfig, workload: &Workload) -> SystemBuilder<'_> {
        SystemBuilder {
            cfg,
            workload,
            plan: None,
            hdc_commands: HashMap::new(),
            tracer: NullTracer,
            faults: NoFaults,
            auditor: NoChecks,
        }
    }

    /// `System::builder(cfg, workload).build()`.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`SystemBuilder::build`].
    pub fn new(cfg: SystemConfig, workload: &Workload) -> Self {
        System::builder(cfg, workload).build()
    }

    /// `System::builder(cfg, workload).plan(plan).build()`.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`SystemBuilder::build`].
    pub fn with_plan(cfg: SystemConfig, workload: &Workload, plan: HdcPlan) -> Self {
        System::builder(cfg, workload).plan(plan).build()
    }

    /// `System::builder(cfg, workload).auditor(FullAudit::new()).build()`:
    /// checked mode, panicking on the first violated invariant.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`SystemBuilder::build`], or (during the
    /// run) on any violated invariant.
    pub fn new_checked(
        cfg: SystemConfig,
        workload: &Workload,
    ) -> System<NullTracer, NoFaults, FullAudit> {
        System::builder(cfg, workload)
            .auditor(FullAudit::new())
            .build()
    }
}

impl<T: Tracer> System<T> {
    /// `System::builder(cfg, workload).tracer(tracer).build()`.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`SystemBuilder::build`].
    pub fn new_traced(cfg: SystemConfig, workload: &Workload, tracer: T) -> Self {
        System::builder(cfg, workload).tracer(tracer).build()
    }
}

/// Assembles a [`System`]; start one with [`System::builder`].
///
/// The tracer, fault-model and auditor slots each replace one type
/// parameter, so a slot left empty keeps its zero-sized disabled facade
/// and compiles out of the hot path.
#[derive(Debug)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct SystemBuilder<
    'w,
    T: Tracer = NullTracer,
    F: FaultModel = NoFaults,
    A: Auditor = NoChecks,
> {
    cfg: SystemConfig,
    workload: &'w Workload,
    plan: Option<HdcPlan>,
    hdc_commands: HashMap<u64, Vec<HdcCommand>>,
    tracer: T,
    faults: F,
    auditor: A,
}

impl<'w, T: Tracer, F: FaultModel, A: Auditor> SystemBuilder<'w, T, F, A> {
    /// Pins `plan` instead of planning from the trace (the periodic
    /// planner, planning-policy ablations, victim-cache mode). An
    /// explicit plan wins over `cfg.cooperative_hdc`.
    pub fn plan(mut self, plan: HdcPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches a host HDC command stream (victim-cache mode, §5):
    /// commands mapped to issue index `k` are applied just before the
    /// `k`-th request is issued. Pins charge a host→controller bus
    /// transfer.
    pub fn hdc_commands(mut self, commands: HashMap<u64, Vec<HdcCommand>>) -> Self {
        self.hdc_commands = commands;
        self
    }

    /// Attaches a tracer; [`System::run_traced`] returns it.
    pub fn tracer<T2: Tracer>(self, tracer: T2) -> SystemBuilder<'w, T2, F, A> {
        SystemBuilder {
            cfg: self.cfg,
            workload: self.workload,
            plan: self.plan,
            hdc_commands: self.hdc_commands,
            tracer,
            faults: self.faults,
            auditor: self.auditor,
        }
    }

    /// Attaches a fault model.
    pub fn faults<F2: FaultModel>(self, faults: F2) -> SystemBuilder<'w, T, F2, A> {
        SystemBuilder {
            cfg: self.cfg,
            workload: self.workload,
            plan: self.plan,
            hdc_commands: self.hdc_commands,
            tracer: self.tracer,
            faults,
            auditor: self.auditor,
        }
    }

    /// Attaches an auditor; [`System::run_audited`] returns it.
    pub fn auditor<A2: Auditor>(self, auditor: A2) -> SystemBuilder<'w, T, F, A2> {
        SystemBuilder {
            cfg: self.cfg,
            workload: self.workload,
            plan: self.plan,
            hdc_commands: self.hdc_commands,
            tracer: self.tracer,
            faults: self.faults,
            auditor,
        }
    }

    /// Assembles the system; every constructor funnels here.
    ///
    /// The HDC plan is resolved in this one place: an explicit
    /// [`Self::plan`] wins; otherwise `cfg.cooperative_hdc` plans
    /// cooperatively (home pins go into their controllers' HDC regions,
    /// overflow pins are tracked at the host and served as
    /// controller-cache hits from their holders); otherwise the
    /// top-miss planner fills each HDC, or nothing is pinned when there
    /// is no HDC. With an enabled auditor this also validates the FOR
    /// continuation bitmaps against the workload's filemap before the
    /// replay starts.
    ///
    /// # Panics
    ///
    /// Panics if the workload footprint exceeds the array capacity; if
    /// the plan covers a different disk count, or pins more blocks on a
    /// disk than its HDC holds; if cooperative HDC is configured on a
    /// mirrored array; on an invalid rebuild configuration; or — with
    /// an enabled auditor — on a violated construction-time invariant.
    pub fn build(self) -> System<T, F, A> {
        let SystemBuilder {
            cfg,
            workload,
            plan,
            hdc_commands,
            tracer,
            faults,
            mut auditor,
        } = self;
        let virtual_disks = cfg.array.virtual_disks();
        let striping = StripingMap::new(virtual_disks, cfg.array.striping_unit_blocks());
        let mut coop_overflow = FxHashMap::default();
        let plan = match plan {
            Some(plan) => plan,
            None if cfg.cooperative_hdc && cfg.hdc_blocks() > 0 => {
                assert!(
                    !cfg.array.mirrored,
                    "cooperative HDC over mirrored pairs is not supported (pins address virtual disks)"
                );
                let coop = plan_cooperative(&workload.trace, &striping, cfg.hdc_blocks());
                coop_overflow.reserve(coop.overflow.len());
                for ((home_disk, block), holder) in coop.overflow {
                    coop_overflow.insert((home_disk, block.index()), holder);
                }
                HdcPlan::from_per_disk(coop.home)
            }
            None if cfg.hdc_blocks() > 0 => {
                plan_top_misses(&workload.trace, &striping, cfg.hdc_blocks())
            }
            None => HdcPlan::empty(virtual_disks),
        };
        assert_eq!(
            plan.disks(),
            virtual_disks as usize,
            "plan/array disk mismatch"
        );
        let disk_capacity = cfg.array.disk.geometry.capacity_blocks();
        assert!(
            workload.layout.total_blocks() <= disk_capacity * virtual_disks as u64,
            "workload footprint exceeds array capacity"
        );
        if let Some(rb) = cfg.rebuild {
            assert!(cfg.array.mirrored, "rebuild requires a mirrored array");
            assert!(
                (rb.disk as usize) < cfg.array.disks as usize,
                "rebuild disk out of range"
            );
            assert!(
                rb.total_blocks <= disk_capacity,
                "rebuild target exceeds disk capacity"
            );
            assert!(rb.chunk_blocks > 0, "rebuild chunk must be non-zero");
        }
        // Bitmaps and HDC plans address virtual disks; under mirroring
        // both members of a pair hold identical data and get identical
        // copies.
        let mut bitmaps: Vec<Option<forhdc_layout::ForBitmap>> = if cfg.read_ahead.needs_bitmap() {
            let built = build_disk_bitmaps(&workload.layout, &striping, disk_capacity);
            if auditor.enabled() {
                // Checked mode: the continuation bitmaps the controllers
                // will consult must agree with the layout's filemap
                // before any read-ahead decision is taken from them.
                auditor.observe_structure(
                    0,
                    "FOR bitmap / filemap consistency",
                    forhdc_layout::check_bitmap_consistency(&workload.layout, &striping, &built),
                );
            }
            built.into_iter().map(Some).collect()
        } else {
            (0..virtual_disks).map(|_| None).collect()
        };
        let disks: Vec<DiskState> = (0..cfg.array.disks)
            .map(|pd| {
                let vd = mirror::virtual_disk(pd, cfg.array.mirrored);
                // The last (or only) member of a virtual disk takes its
                // bitmap; an earlier mirror member pays for a copy.
                let bitmap = if pd + 1 < mirror::members(vd, cfg.array.mirrored).end {
                    bitmaps[vd as usize].clone()
                } else {
                    bitmaps[vd as usize].take()
                };
                let mut ctl =
                    DiskController::new(&cfg.array.disk, cfg.read_ahead, cfg.hdc_blocks(), bitmap)
                        .with_replacement(cfg.block_replacement, cfg.segment_replacement);
                for &block in plan.blocks_for(vd as usize) {
                    // The initial pin loads happen before the replay and
                    // are amortized over the period (§5), so they are
                    // not charged to the I/O time.
                    let pinned = ctl.pin(block);
                    assert!(
                        pinned,
                        "HDC plan for disk {vd} exceeds its capacity of {} blocks",
                        cfg.hdc_blocks()
                    );
                }
                DiskState {
                    mech: DiskMechanics::new(&cfg.array.disk),
                    sched: Scheduler::new(cfg.array.scheduler),
                    ctl,
                    stats: DiskStats::new(),
                    busy: false,
                    current: None,
                    busy_accum: SimDuration::ZERO,
                    busy_since: SimTime::ZERO,
                    busy_sampled: SimDuration::ZERO,
                    wake_scheduled: false,
                }
            })
            .collect();
        let payload_bytes = workload.trace.total_blocks() * cfg.array.disk.block_bytes() as u64;
        let bus = BusModel::new(cfg.array.bus_rate, cfg.array.bus_overhead);
        let driver = StreamDriver::new(&workload.trace, workload.streams);
        let router = MirrorRouter::new(cfg.array.read_split, virtual_disks);
        System {
            tracer,
            faults,
            auditor,
            fstats: FaultStats::default(),
            cfg,
            striping,
            disks,
            bus,
            queue: EventQueue::new(),
            driver,
            // Closed-loop replay: at most one outstanding request per
            // stream. A timed-out request leaves the map at once.
            pending: ProbeMap::new(workload.streams as usize),
            next_req: 0,
            workload_name: workload.name.clone(),
            payload_bytes,
            completed: 0,
            last_completion: SimTime::ZERO,
            hdc_commands,
            issued_count: 0,
            latency: crate::latency::LatencyHistogram::new(),
            coop_overflow,
            coop_hits: 0,
            flush_buf: Vec::new(),
            split_buf: Vec::new(),
            router,
            mirror_reads: 0,
            mirror_policy_reads: 0,
            rebuild_next: 0,
            rebuild_pace_at: SimTime::ZERO,
        }
    }
}

impl<T: Tracer, F: FaultModel, A: Auditor> System<T, F, A> {
    /// Runs the replay to completion and returns the report.
    pub fn run(self) -> Report {
        self.run_all().0
    }

    /// Runs the replay to completion and returns the report together
    /// with the tracer (holding every event it collected).
    pub fn run_traced(self) -> (Report, T) {
        let (report, tracer, _auditor) = self.run_all();
        (report, tracer)
    }

    /// Runs the replay to completion and returns the report together
    /// with the auditor (checked mode; panics on the first violated
    /// invariant, so a return means the run was clean).
    pub fn run_audited(self) -> (Report, A) {
        let (report, _tracer, auditor) = self.run_all();
        (report, auditor)
    }

    /// The event loop shared by every `run_*` entry point.
    fn run_all(mut self) -> (Report, T, A) {
        let initial = self.driver.start();
        for (stream, req) in initial {
            self.issue(stream, req, SimTime::ZERO);
        }
        if let Some(period) = self.cfg.hdc_flush_period {
            if self.cfg.hdc_blocks() > 0 && !self.queue.is_empty() {
                self.queue.schedule(SimTime::ZERO + period, Event::HdcFlush);
            }
        }
        if self.tracer.enabled() && !self.queue.is_empty() {
            if let Some(period) = self.cfg.trace_sample_period {
                self.queue.schedule(SimTime::ZERO + period, Event::Sample);
            }
        }
        if self.faults.enabled() && !self.queue.is_empty() {
            if let Some(period) = self.faults.power_loss_period_ns() {
                self.queue.schedule(
                    SimTime::ZERO + SimDuration::from_nanos(period),
                    Event::PowerLoss,
                );
            }
        }
        if let Some(rb) = self.cfg.rebuild {
            if !self.queue.is_empty() {
                self.queue
                    .schedule(SimTime::ZERO + rb.start, Event::RebuildTick);
            }
        }
        while let Some(fired) = self.queue.pop() {
            if self.auditor.enabled() {
                self.auditor.observe_event(fired.time.as_nanos());
            }
            match fired.event {
                Event::MediaDone { disk } => self.media_done(disk, fired.time),
                Event::SubDone { req } => self.sub_done(req, fired.time),
                Event::HdcFlush => self.hdc_flush(fired.time),
                Event::Sample => self.sample(fired.time),
                Event::RetryMedia { disk, op } => self.retry_media(disk, *op, fired.time),
                Event::RetryBus(r) => {
                    self.reserve_bus_for(r.req, r.disk, r.bytes, fired.time, r.attempt)
                }
                Event::DiskOnline { disk } => self.disk_online(disk, fired.time),
                Event::PowerLoss => self.power_loss(fired.time),
                Event::Timeout { req } => self.timeout(req, fired.time),
                Event::RebuildTick => self.rebuild_tick(fired.time),
            }
        }
        // The figure of merit is the completion of the last host
        // request; trailing internal work (a final scheduled flush) is
        // not the workload's I/O time.
        let io_time = self.last_completion.since(SimTime::ZERO);
        debug_assert!(
            self.driver.is_done(),
            "trace not drained: simulator stalled"
        );
        self.build_report(io_time)
    }

    fn issue(&mut self, stream: StreamId, req: TraceRequest, now: SimTime) {
        if !self.hdc_commands.is_empty() {
            if let Some(cmds) = self.hdc_commands.remove(&self.issued_count) {
                for cmd in cmds {
                    self.apply_hdc_command(cmd, now);
                }
            }
        }
        self.issued_count += 1;
        let id = self.next_req;
        self.next_req += 1;
        if self.auditor.enabled() {
            self.auditor.observe_issue(now.as_nanos());
        }
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Issue {
                t: now.as_nanos(),
                req: id,
                stream: stream.index(),
                start: req.start.index(),
                nblocks: req.nblocks,
                write: req.kind.is_write(),
            });
        }
        let mut extents = std::mem::take(&mut self.split_buf);
        self.striping
            .split_into(req.start, req.nblocks, &mut extents);
        // A read extent is served by one member; a write updates
        // every member of its virtual disk.
        let per_extent = if req.kind.is_read() {
            1
        } else {
            mirror::members(0, self.cfg.array.mirrored).len() as u32
        };
        self.pending.insert(
            id,
            PendingReq {
                stream,
                remaining: extents.len() as u32 * per_extent,
                latest: now,
                issued_at: now,
                failed: false,
            },
        );
        if self.faults.enabled() {
            if let Some(deadline) = self.cfg.recovery.deadline_ns {
                let at = now + SimDuration::from_nanos(deadline);
                self.queue.schedule(at, Event::Timeout { req: id });
            }
        }
        for &extent in &extents {
            self.arrive(id, extent, req.kind, now);
        }
        self.split_buf = extents;
    }

    /// Applies one host HDC command: a pin moves one block of data
    /// host→controller over the shared bus; an unpin is command-only.
    fn apply_hdc_command(&mut self, cmd: HdcCommand, now: SimTime) {
        let disk = match cmd {
            HdcCommand::Pin(logical) => {
                let (disk, phys) = self.striping.locate(logical);
                let block_bytes = self.cfg.array.disk.block_bytes() as u64;
                self.bus.reserve(now, block_bytes);
                for m in mirror::members(disk.index(), self.cfg.array.mirrored) {
                    let _ = self.disks[m as usize].ctl.pin(phys);
                }
                disk
            }
            HdcCommand::Unpin(logical) => {
                let (disk, phys) = self.striping.locate(logical);
                for m in mirror::members(disk.index(), self.cfg.array.mirrored) {
                    self.disks[m as usize].ctl.unpin(phys);
                }
                disk
            }
        };
        if self.auditor.enabled() {
            // The HDC pin/unpin audit point.
            for m in mirror::members(disk.index(), self.cfg.array.mirrored) {
                self.audit_disk(m as usize, now);
            }
        }
    }

    /// Routes one extent to its physical disk(s): a mirrored read to
    /// one member, anything else to every member.
    fn arrive(
        &mut self,
        id: u64,
        extent: forhdc_sim::request::DiskExtent,
        kind: ReadWrite,
        now: SimTime,
    ) {
        let (start, nblocks) = (extent.start, extent.nblocks);
        if self.cfg.array.mirrored && !kind.is_write() {
            // A member inside an offline window never wins while its
            // twin is up: the pair degrades to single-copy service (a
            // failover read) instead of stalling the request.
            let (disks, faults) = (&self.disks, &self.faults);
            let route = self.router.pick(
                extent.disk.index(),
                |m| faults.enabled() && faults.offline_until(m, now.as_nanos()).is_some(),
                |m| disks[m as usize].ctl.covers(start, nblocks),
                |m| disks[m as usize].sched.len() + usize::from(disks[m as usize].busy),
            );
            self.mirror_reads += 1;
            match route {
                Route::Failover(_) => self.fstats.failover_reads += 1,
                Route::Policy(_) => self.mirror_policy_reads += 1,
            }
            self.dispatch(id, route.member() as usize, start, nblocks, kind, now);
            return;
        }
        // Every member must be updated; an unmirrored disk is its own
        // only member.
        for m in mirror::members(extent.disk.index(), self.cfg.array.mirrored) {
            self.dispatch(id, m as usize, start, nblocks, kind, now);
        }
    }

    /// Whether a read extent is fully covered by the cooperative pin
    /// set (home HDC region plus sibling-held overflow blocks).
    fn coop_covers(&self, disk_idx: usize, start: forhdc_sim::PhysBlock, nblocks: u32) -> bool {
        if self.coop_overflow.is_empty() {
            return false;
        }
        let home = disk_idx as u16;
        (0..nblocks as u64).all(|i| {
            let b = start.offset(i);
            self.coop_overflow.contains_key(&(home, b.index()))
                || self.disks[disk_idx].ctl.covers(b, 1)
        })
    }

    /// Presents one extent to one physical disk's controller.
    fn dispatch(
        &mut self,
        id: u64,
        disk_idx: usize,
        start: forhdc_sim::PhysBlock,
        nblocks: u32,
        kind: ReadWrite,
        now: SimTime,
    ) {
        let block_bytes = self.cfg.array.disk.block_bytes() as u64;
        if kind.is_read() && self.coop_covers(disk_idx, start, nblocks) {
            // Cooperative hit: some blocks come from sibling
            // controllers, all over the same shared bus.
            self.coop_hits += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Probe {
                    t: now.as_nanos(),
                    req: id,
                    disk: disk_idx as u16,
                    nblocks,
                    result: ProbeResult::CoopHit,
                });
            }
            self.reserve_bus_for(id, disk_idx as u16, nblocks as u64 * block_bytes, now, 0);
            return;
        }
        let d = &mut self.disks[disk_idx];
        match d.ctl.on_request(kind, start, nblocks) {
            decision @ (ControllerDecision::CacheHit | ControllerDecision::HdcWriteAbsorbed) => {
                // Controller memory ↔ host transfer over the shared bus.
                if self.tracer.enabled() {
                    let result = if decision == ControllerDecision::CacheHit {
                        ProbeResult::Hit
                    } else {
                        ProbeResult::HdcAbsorbed
                    };
                    self.tracer.emit(TraceEvent::Probe {
                        t: now.as_nanos(),
                        req: id,
                        disk: disk_idx as u16,
                        nblocks,
                        result,
                    });
                }
                self.reserve_bus_for(id, disk_idx as u16, nblocks as u64 * block_bytes, now, 0);
            }
            ControllerDecision::Media {
                start,
                nblocks: total,
                read_ahead: _,
            } => {
                let cylinder = d.mech.geometry().cylinder_of(start);
                d.sched.push(QueuedOp {
                    token: id,
                    start,
                    nblocks: total,
                    requested: nblocks,
                    kind,
                    cylinder,
                    queued_at: now,
                    attempt: 0,
                });
                d.stats.note_queue_depth(d.sched.len());
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Probe {
                        t: now.as_nanos(),
                        req: id,
                        disk: disk_idx as u16,
                        nblocks,
                        result: ProbeResult::Miss,
                    });
                    self.tracer.emit(TraceEvent::Queue {
                        t: now.as_nanos(),
                        req: id,
                        disk: disk_idx as u16,
                        depth: d.sched.len() as u32,
                    });
                }
                if !d.busy {
                    self.start_next(DiskId::new(disk_idx as u16), now);
                }
            }
        }
    }

    fn start_next(&mut self, disk: DiskId, now: SimTime) {
        if self.faults.enabled() {
            if let Some(until) = self.faults.offline_until(disk.index(), now.as_nanos()) {
                // Offline window: in-flight service finishes, but no new
                // op starts until the window ends. One wake-up event per
                // stall; overlapping windows re-gate on wake.
                let d = &mut self.disks[disk.as_usize()];
                if !d.sched.is_empty() && !d.wake_scheduled {
                    d.wake_scheduled = true;
                    self.fstats.offline_stalls += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Fault {
                            t: now.as_nanos(),
                            req: u64::MAX,
                            disk: disk.index(),
                            kind: FaultKind::Offline,
                        });
                    }
                    // `u64::MAX` marks a permanently failed disk: no
                    // wake is scheduled and its queued ops never run
                    // (requests against it can still finish via the
                    // per-request timeout).
                    if until < u64::MAX {
                        self.queue
                            .schedule(SimTime::from_nanos(until), Event::DiskOnline { disk });
                    }
                }
                return;
            }
        }
        let d = &mut self.disks[disk.as_usize()];
        debug_assert!(!d.busy);
        let Some(op) = d.sched.pop_next(d.mech.head_cylinder()) else {
            return;
        };
        let timing = d.mech.service(op.kind, op.start, op.nblocks, now);
        // Charge the FOR bitmap scan: one bit per block examined.
        let extra = if self.cfg.read_ahead.needs_bitmap() && op.kind.is_read() {
            self.cfg.array.disk.bitmap_scan_per_block * (op.nblocks as u64 + 1)
        } else {
            SimDuration::ZERO
        };
        d.busy = true;
        d.busy_since = now;
        d.current = Some(CurrentOp {
            token: op.token,
            kind: op.kind,
            start: op.start,
            total: op.nblocks,
            requested: op.requested,
            timing,
            attempt: op.attempt,
        });
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Media {
                t: now.as_nanos(),
                req: op.token,
                disk: disk.index(),
                wait: now.since(op.queued_at).as_nanos(),
                seek: timing.seek.as_nanos(),
                rotation: timing.rotation.as_nanos(),
                transfer: timing.transfer.as_nanos(),
                // Bitmap-scan cost rides in the overhead slot: it is
                // controller work charged before the media moves.
                overhead: (timing.overhead + extra).as_nanos(),
                nblocks: op.nblocks,
                read_ahead: op.nblocks - op.requested,
                write: op.kind.is_write(),
            });
        }
        self.queue
            .schedule(now + timing.total() + extra, Event::MediaDone { disk });
    }

    fn media_done(&mut self, disk: DiskId, now: SimTime) {
        let block_bytes = self.cfg.array.disk.block_bytes() as u64;
        let d = &mut self.disks[disk.as_usize()];
        let op = d.current.take().expect("media completion without an op");
        d.busy = false;
        d.busy_accum += now.since(d.busy_since);
        if self.faults.enabled() && self.media_done_faulted(disk, &op, now) {
            if self.auditor.enabled() {
                // Degraded completions mutate the caches too (read-ahead
                // aborts install partial runs; failed flushes re-dirty).
                self.audit_disk(disk.as_usize(), now);
            }
            self.start_next(disk, now);
            return;
        }
        let d = &mut self.disks[disk.as_usize()];
        let ra = op.total - op.requested;
        match op.kind {
            ReadWrite::Read => d.stats.record_op(&op.timing, op.total as u64, 0, ra as u64),
            ReadWrite::Write => d.stats.record_op(&op.timing, 0, op.total as u64, 0),
        }
        d.ctl
            .on_media_complete(op.kind, op.start, op.total, op.requested);
        if self.auditor.enabled() {
            // The cache insert/evict audit point: `on_media_complete`
            // just installed the transferred run.
            self.audit_disk(disk.as_usize(), now);
        }
        if op.token < REBUILD_TOKEN_BASE {
            // Only the demanded payload crosses the bus; read-ahead
            // stays in the controller cache. Flush write-backs and
            // rebuild copy legs move data media <-> cache only, so they
            // skip both bus and completion.
            self.reserve_bus_for(
                op.token,
                disk.index(),
                op.requested as u64 * block_bytes,
                now,
                0,
            );
        } else if op.token < FLUSH_TOKEN_BASE {
            self.rebuild_advance(&op, now);
        }
        self.start_next(disk, now);
    }

    /// Issues the next paced chunk of the mirror rebuild: one media
    /// read on the source member (the target's twin). Its completion
    /// queues the matching write leg via [`System::rebuild_advance`].
    /// The copy stops once the target extent is covered or the
    /// foreground workload has drained.
    fn rebuild_tick(&mut self, now: SimTime) {
        let Some(rb) = self.cfg.rebuild else { return };
        if self.rebuild_next >= rb.total_blocks
            || (self.pending.is_empty() && self.driver.is_done())
        {
            return;
        }
        let left = rb.total_blocks - self.rebuild_next;
        let n = (rb.chunk_blocks as u64).min(left) as u32;
        let start = forhdc_sim::PhysBlock::new(self.rebuild_next);
        let src = mirror::twin(rb.disk) as usize;
        let token = REBUILD_TOKEN_BASE + self.next_req;
        self.next_req += 1;
        // Anchor the pacing to the chunk's issue time, so a cap of R
        // bytes/s issues chunks no faster than R regardless of how long
        // each copy takes under contention.
        let bytes = n as u64 * self.cfg.array.disk.block_bytes() as u64;
        self.rebuild_pace_at = match bytes
            .saturating_mul(1_000_000_000)
            .checked_div(rb.rate_bytes_per_sec)
        {
            Some(pace_ns) => now + SimDuration::from_nanos(pace_ns.max(1)),
            None => now, // rate 0 = unpaced: next chunk as soon as this lands
        };
        let d = &mut self.disks[src];
        let cylinder = d.mech.geometry().cylinder_of(start);
        d.sched.push(QueuedOp {
            token,
            start,
            nblocks: n,
            requested: n,
            kind: ReadWrite::Read,
            cylinder,
            queued_at: now,
            attempt: 0,
        });
        d.stats.note_queue_depth(d.sched.len());
        if !self.disks[src].busy {
            self.start_next(DiskId::new(src as u16), now);
        }
    }

    /// Advances the rebuild after one of its media legs completed: a
    /// finished source read queues the mirrored write onto the target;
    /// a finished target write accounts the chunk and schedules the
    /// next tick at the pacing anchor.
    fn rebuild_advance(&mut self, op: &CurrentOp, now: SimTime) {
        let Some(rb) = self.cfg.rebuild else { return };
        match op.kind {
            ReadWrite::Read => {
                let tgt = rb.disk as usize;
                let d = &mut self.disks[tgt];
                let cylinder = d.mech.geometry().cylinder_of(op.start);
                d.sched.push(QueuedOp {
                    token: op.token,
                    start: op.start,
                    nblocks: op.total,
                    requested: op.requested,
                    kind: ReadWrite::Write,
                    cylinder,
                    queued_at: now,
                    attempt: 0,
                });
                d.stats.note_queue_depth(d.sched.len());
                if !self.disks[tgt].busy {
                    self.start_next(DiskId::new(tgt as u16), now);
                }
            }
            ReadWrite::Write => {
                self.fstats.rebuilt_blocks += op.total as u64;
                self.rebuild_next += op.total as u64;
                self.queue
                    .schedule(self.rebuild_pace_at.max(now), Event::RebuildTick);
            }
        }
    }

    /// Handles a media completion under an active fault model: probes
    /// every block of the op against the model and, when one is bad,
    /// performs the degraded-mode bookkeeping (read-ahead abort, retry
    /// with backoff, or failed completion). Returns `true` when a fault
    /// was injected — the caller must then skip the healthy completion
    /// path. The healthy case returns `false` without touching state.
    fn media_done_faulted(&mut self, disk: DiskId, op: &CurrentOp, now: SimTime) -> bool {
        let first_bad = (0..op.total).find(|&i| {
            self.faults.media_error(
                disk.index(),
                op.start.offset(i as u64).index(),
                op.kind.is_write(),
            )
        });
        let Some(bad) = first_bad else {
            return false;
        };
        let block_bytes = self.cfg.array.disk.block_bytes() as u64;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault {
                t: now.as_nanos(),
                req: op.token,
                disk: disk.index(),
                kind: if op.kind.is_write() {
                    FaultKind::MediaWrite
                } else {
                    FaultKind::MediaRead
                },
            });
        }
        if op.kind.is_read() && bad >= op.requested {
            // Read-ahead abort: the demanded prefix is intact. Install
            // it, move the payload, and degrade to demand-only service —
            // the error cost only the speculative blocks (FOR degrades
            // to demand reads instead of wedging).
            self.fstats.media_read_errors += 1;
            self.fstats.ra_aborts += 1;
            let d = &mut self.disks[disk.as_usize()];
            d.stats
                .record_op(&op.timing, bad as u64, 0, (bad - op.requested) as u64);
            d.ctl
                .on_media_complete(op.kind, op.start, bad, op.requested);
            self.reserve_bus_for(
                op.token,
                disk.index(),
                op.requested as u64 * block_bytes,
                now,
                0,
            );
            return true;
        }
        // A demanded block (or a write target) is bad: the op did its
        // mechanical work but transferred nothing.
        if op.kind.is_write() {
            self.fstats.media_write_errors += 1;
        } else {
            self.fstats.media_read_errors += 1;
        }
        self.disks[disk.as_usize()]
            .stats
            .record_op(&op.timing, 0, 0, 0);
        let policy = self.cfg.recovery;
        if op.attempt < policy.max_retries {
            self.fstats.retries += 1;
            let delay = SimDuration::from_nanos(policy.backoff_ns(op.attempt));
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Retry {
                    t: now.as_nanos(),
                    req: op.token,
                    disk: disk.index(),
                    attempt: op.attempt + 1,
                    delay: delay.as_nanos(),
                });
            }
            // Reads retry demand-only: re-speculating into a bad region
            // would fail forever, so the retry drops the read-ahead.
            let nblocks = if op.kind.is_read() {
                op.requested
            } else {
                op.total
            };
            let cylinder = self.disks[disk.as_usize()]
                .mech
                .geometry()
                .cylinder_of(op.start);
            let retry = QueuedOp {
                token: op.token,
                start: op.start,
                nblocks,
                requested: op.requested,
                kind: op.kind,
                cylinder,
                queued_at: now,
                attempt: op.attempt + 1,
            };
            let op = Box::new(retry);
            self.queue
                .schedule(now + delay, Event::RetryMedia { disk, op });
            return true;
        }
        // Retries exhausted.
        if op.token >= FLUSH_TOKEN_BASE {
            // A failed flush: the volatile copy is all we have. Re-pin
            // the blocks dirty so a later flush can try again; blocks
            // unpinned in the meantime are lost writes.
            self.fstats.flush_failures += 1;
            let blocks: Vec<forhdc_sim::PhysBlock> =
                (0..op.total as u64).map(|i| op.start.offset(i)).collect();
            self.fstats.lost_dirty_blocks += self.disks[disk.as_usize()].ctl.unflush_hdc(&blocks);
        } else if op.token >= REBUILD_TOKEN_BASE {
            // A rebuild leg exhausted its retries: skip the chunk (it
            // stays unreconstructed, so it never counts as rebuilt) and
            // keep the copy moving.
            self.rebuild_next += op.total as u64;
            self.queue
                .schedule(self.rebuild_pace_at.max(now), Event::RebuildTick);
        } else {
            // Host request: this leg ends now, as an error, so the
            // stream keeps flowing in degraded mode.
            self.place(op.token, now, true);
        }
        true
    }

    /// Re-queues a media op after its retry backoff expired.
    fn retry_media(&mut self, disk: DiskId, mut op: QueuedOp, now: SimTime) {
        op.queued_at = now;
        let token = op.token;
        let d = &mut self.disks[disk.as_usize()];
        d.sched.push(op);
        d.stats.note_queue_depth(d.sched.len());
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Queue {
                t: now.as_nanos(),
                req: token,
                disk: disk.index(),
                depth: d.sched.len() as u32,
            });
        }
        if !self.disks[disk.as_usize()].busy {
            self.start_next(disk, now);
        }
    }

    /// The offline window that stalled this disk has ended; resume. A
    /// still-open overlapping window simply re-gates in `start_next`.
    fn disk_online(&mut self, disk: DiskId, now: SimTime) {
        let d = &mut self.disks[disk.as_usize()];
        d.wake_scheduled = false;
        if !d.busy {
            self.start_next(disk, now);
        }
    }

    /// Controller power loss: every disk's volatile dirty HDC contents
    /// are discarded (the pins survive; the unwritten data does not).
    fn power_loss(&mut self, now: SimTime) {
        self.fstats.power_losses += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault {
                t: now.as_nanos(),
                req: u64::MAX,
                disk: 0,
                kind: FaultKind::PowerLoss,
            });
        }
        let mut lost = 0;
        for d in &mut self.disks {
            lost += d.ctl.discard_dirty_hdc();
        }
        self.fstats.lost_dirty_blocks += lost;
        if self.auditor.enabled() {
            for di in 0..self.disks.len() {
                self.audit_disk(di, now);
            }
        }
        // Keep the outage schedule while host work remains.
        if let Some(period) = self.faults.power_loss_period_ns() {
            if !(self.pending.is_empty() && self.driver.is_done()) {
                self.queue
                    .schedule(now + SimDuration::from_nanos(period), Event::PowerLoss);
            }
        }
    }

    /// Per-request deadline expired. If the request is still pending it
    /// completes now, as an error; its in-flight sub-operations finish
    /// on their own and their completions are dropped by `sub_done`.
    fn timeout(&mut self, id: u64, now: SimTime) {
        let Some(mut p) = self.pending.remove(id) else {
            return;
        };
        self.fstats.timeouts += 1;
        p.failed = true;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Timeout {
                t: now.as_nanos(),
                req: id,
            });
        }
        self.complete_request(id, p, now);
    }

    /// Reserves the shared bus for `bytes` of payload for request `id`
    /// and places its sub-completion, rolling the transient bus
    /// fault when a model is attached. Callers emit their own `Probe`
    /// events first, so the trace event order is unchanged from the
    /// fault-free build.
    fn reserve_bus_for(&mut self, id: u64, disk: u16, bytes: u64, now: SimTime, attempt: u32) {
        let slot = self.bus.reserve(now, bytes);
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Bus {
                t: now.as_nanos(),
                req: id,
                wait: slot.start.since(now).as_nanos(),
                busy: slot.end.since(slot.start).as_nanos(),
                bytes,
            });
        }
        let failed = self.faults.enabled() && self.faults.bus_error();
        if failed {
            self.fstats.bus_errors += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Fault {
                    t: now.as_nanos(),
                    req: id,
                    disk,
                    kind: FaultKind::Bus,
                });
            }
            let policy = self.cfg.recovery;
            if attempt < policy.max_retries {
                self.fstats.retries += 1;
                let delay = SimDuration::from_nanos(policy.backoff_ns(attempt));
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Retry {
                        t: now.as_nanos(),
                        req: id,
                        disk,
                        attempt: attempt + 1,
                        delay: delay.as_nanos(),
                    });
                }
                let retry = BusRetry {
                    req: id,
                    disk,
                    bytes,
                    attempt: attempt + 1,
                };
                self.queue
                    .schedule(slot.end + delay, Event::RetryBus(Box::new(retry)));
                return;
            }
        }
        self.place(id, slot.end, failed);
    }

    /// Places one sub-completion of request `id`, ending at `end` (as
    /// an error when `failed`). The last one schedules the request's
    /// single completion event at the latest end. A request that
    /// already timed out has left `pending`, and its late legs are
    /// dropped here.
    fn place(&mut self, id: u64, end: SimTime, failed: bool) {
        let Some(p) = self.pending.get_mut(id) else {
            return;
        };
        p.failed |= failed;
        p.remaining -= 1;
        p.latest = p.latest.max(end);
        if p.remaining == 0 {
            let at = p.latest;
            self.queue.schedule(at, Event::SubDone { req: id });
        }
    }

    /// Periodic `flush_hdc()`: write every dirty pinned block back to
    /// the media, as coalesced runs, charged like any other write.
    fn hdc_flush(&mut self, now: SimTime) {
        let mut dirty = std::mem::take(&mut self.flush_buf);
        for di in 0..self.disks.len() {
            let d = &mut self.disks[di];
            d.ctl.flush_hdc_into(&mut dirty);
            let mut i = 0;
            while i < dirty.len() {
                // Coalesce physically contiguous dirty blocks.
                let start = dirty[i];
                let mut n = 1u32;
                while i + (n as usize) < dirty.len()
                    && dirty[i + n as usize] == start.offset(n as u64)
                {
                    n += 1;
                }
                i += n as usize;
                let token = FLUSH_TOKEN_BASE + self.next_req;
                self.next_req += 1;
                let cylinder = d.mech.geometry().cylinder_of(start);
                d.sched.push(QueuedOp {
                    token,
                    start,
                    nblocks: n,
                    requested: n,
                    kind: ReadWrite::Write,
                    cylinder,
                    queued_at: now,
                    attempt: 0,
                });
                d.stats.note_queue_depth(d.sched.len());
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Queue {
                        t: now.as_nanos(),
                        req: token,
                        disk: di as u16,
                        depth: d.sched.len() as u32,
                    });
                }
            }
            if !self.disks[di].busy {
                self.start_next(DiskId::new(di as u16), now);
            }
            if self.auditor.enabled() {
                // The HDC flush audit point: dirty bits just cleared.
                self.audit_disk(di, now);
            }
        }
        self.flush_buf = dirty;
        // Keep flushing while host work remains.
        if let Some(period) = self.cfg.hdc_flush_period {
            if !(self.pending.is_empty() && self.driver.is_done()) {
                self.queue.schedule(now + period, Event::HdcFlush);
            }
        }
    }

    fn sub_done(&mut self, id: u64, now: SimTime) {
        let Some(p) = self.pending.remove(id) else {
            // Only a fault path can orphan a completion: a request that
            // timed out already completed (as an error) after its last
            // leg was placed.
            debug_assert!(self.faults.enabled(), "completion for unknown request");
            return;
        };
        self.complete_request(id, p, now);
    }

    /// Final accounting for one host request (normal or degraded
    /// completion).
    fn complete_request(&mut self, id: u64, p: PendingReq, now: SimTime) {
        let response = now.since(p.issued_at);
        if self.auditor.enabled() {
            self.auditor.observe_complete(now.as_nanos(), p.failed);
        }
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Complete {
                t: now.as_nanos(),
                req: id,
                response: response.as_nanos(),
            });
        }
        if p.failed {
            self.fstats.failed_requests += 1;
        }
        self.latency.record(response);
        self.completed += 1;
        self.last_completion = self.last_completion.max(now);
        if let Some((stream, req)) = self.driver.complete(p.stream) {
            self.issue(stream, req, now);
        }
    }

    /// One sampler tick: emits a [`TraceEvent::Sample`] per disk.
    /// Reads simulation state and updates only the tracing-side
    /// `busy_sampled` bookkeeping, so the simulated outcome is
    /// identical with or without sampling.
    fn sample(&mut self, now: SimTime) {
        let period = self
            .cfg
            .trace_sample_period
            .expect("sample event without a configured period");
        for (i, d) in self.disks.iter_mut().enumerate() {
            // Interval-exact busy time: completed ops plus the live
            // prefix of the in-flight one, so the per-window delta can
            // never exceed the window.
            let busy_now = if d.busy {
                d.busy_accum + now.since(d.busy_since)
            } else {
                d.busy_accum
            };
            let delta = busy_now.saturating_sub(d.busy_sampled);
            d.busy_sampled = busy_now;
            let util_pm = (delta.as_nanos() * 1000 / period.as_nanos()).min(1000) as u32;
            let ra_pm = (d.ctl.cache_stats().ra_accuracy() * 1000.0).round() as u32;
            self.tracer.emit(TraceEvent::Sample {
                t: now.as_nanos(),
                disk: i as u16,
                depth: d.sched.len() as u32,
                util_pm,
                cache_blocks: d.ctl.ra_resident_blocks(),
                hdc_blocks: d.ctl.hdc_resident(),
                ra_pm,
            });
        }
        // Keep sampling while host work remains.
        if !(self.pending.is_empty() && self.driver.is_done()) {
            self.queue.schedule(now + period, Event::Sample);
        }
    }

    /// Checked mode: runs the deep structural validators of one disk's
    /// controller (cache coherence, HDC coherence, occupancy bounds)
    /// and routes the verdict through the auditor, which panics on the
    /// first `Err`. Only called behind `auditor.enabled()`.
    fn audit_disk(&mut self, disk_idx: usize, now: SimTime) {
        let result = self.disks[disk_idx].ctl.audit();
        self.auditor
            .observe_structure(now.as_nanos(), "controller structures", result);
    }

    fn build_report(mut self, io_time: SimDuration) -> (Report, T, A) {
        let mut cache = forhdc_cache::CacheStats::default();
        let mut hdc = forhdc_cache::HdcStats::default();
        let mut disk = DiskStats::default();
        let mut per_disk_busy = Vec::with_capacity(self.disks.len());
        let mut bitmap_scans = 0;
        let mut hdc_dirtied = 0;
        let mut hdc_dirty_unpins = 0;
        let mut still_dirty = 0;
        for d in &mut self.disks {
            // End-of-run flush (§6.1: dirty HDC blocks are updated at the
            // end of the execution; the paper measured the periodic-sync
            // alternative at <1% throughput effect).
            let _ = d.ctl.flush_hdc();
            cache.merge(d.ctl.cache_stats());
            hdc.merge(d.ctl.hdc_stats());
            disk.merge(&d.stats);
            per_disk_busy.push(d.stats.busy_time);
            bitmap_scans += d.ctl.bitmap_scans();
            hdc_dirtied += d.ctl.hdc_dirtied();
            hdc_dirty_unpins += d.ctl.hdc_dirty_unpins();
            still_dirty += d.ctl.hdc_dirty_count() as u64;
        }
        let report = Report {
            workload: self.workload_name,
            policy: self.cfg.read_ahead,
            hdc_bytes_per_disk: self.cfg.hdc_bytes_per_disk,
            io_time,
            requests: self.completed,
            payload_bytes: self.payload_bytes,
            cache,
            hdc,
            disk,
            per_disk_busy,
            bus_busy: self.bus.busy_time(),
            bus_wait: self.bus.wait_time(),
            mean_response: self.latency.mean(),
            max_response: self.latency.max(),
            latency: self.latency,
            coop_hits: self.coop_hits,
            bitmap_scans,
            faults: self.fstats,
            hdc_dirtied,
            hdc_dirty_unpins,
            mirror_reads: self.mirror_reads,
            mirror_policy_reads: self.mirror_policy_reads,
        };
        if self.auditor.enabled() {
            // The end-of-run conservation audit point, over the same
            // counters the report (and every CSV) is built from.
            self.auditor.observe_final(&FinalDigest {
                issued: self.issued_count,
                completed: report.requests,
                failed: report.faults.failed_requests,
                in_flight: self.pending.len() as u64,
                hdc_dirtied: report.hdc_dirtied,
                hdc_flushed: report.hdc.flushed,
                lost_dirty: report.faults.lost_dirty_blocks,
                dirty_unpins: report.hdc_dirty_unpins,
                still_dirty,
                mirror_reads: report.mirror_reads,
                mirror_policy_reads: report.mirror_policy_reads,
                mirror_failover_reads: report.faults.failover_reads,
                rebuilt_blocks: report.faults.rebuilt_blocks,
                rebuild_target_blocks: self.cfg.rebuild.map_or(0, |rb| rb.total_blocks),
            });
        }
        (report, self.tracer, self.auditor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_fault::{FaultConfig, OfflineWindow, SeededFaults};
    use forhdc_workload::SyntheticWorkload;

    fn small_wl(seed: u64) -> Workload {
        SyntheticWorkload::builder()
            .requests(400)
            .files(3_000)
            .file_blocks(4)
            .streams(32)
            .seed(seed)
            .build()
    }

    #[test]
    fn an_event_fits_sixteen_bytes() {
        // The queue moves an event on every sift; the retry payloads
        // that would widen it are boxed.
        assert!(std::mem::size_of::<Event>() <= 16);
    }

    #[test]
    fn all_requests_complete() {
        let wl = small_wl(1);
        let r = System::new(SystemConfig::segm(), &wl).run();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert!(r.io_time > SimDuration::ZERO);
        assert!(r.disk.media_ops > 0);
    }

    #[test]
    fn systems_replay_the_workload_request_buffer() {
        let wl = small_wl(3);
        let a = System::new(SystemConfig::for_(), &wl);
        let b = System::new(SystemConfig::segm(), &wl);
        let buf = wl.trace.requests().as_ptr();
        assert!(std::ptr::eq(a.driver.trace().requests().as_ptr(), buf));
        assert!(std::ptr::eq(b.driver.trace().requests().as_ptr(), buf));
    }

    #[test]
    fn extending_a_trace_clone_leaves_a_built_system_unchanged() {
        let wl = small_wl(4);
        let want = System::new(SystemConfig::for_(), &wl).run();
        let sys = System::new(SystemConfig::for_(), &wl);
        let mut grown = wl.clone();
        grown
            .trace
            .extend(wl.trace.requests()[..10].iter().copied());
        assert_eq!(grown.trace.len(), wl.trace.len() + 10);
        assert_eq!(sys.driver.trace().len(), wl.trace.len());
        let got = sys.run();
        assert_eq!((got.requests, got.io_time), (want.requests, want.io_time));
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = small_wl(2);
        let a = System::new(SystemConfig::for_(), &wl).run();
        let b = System::new(SystemConfig::for_(), &wl).run();
        assert_eq!(a.io_time, b.io_time);
        assert_eq!(a.disk.media_ops, b.disk.media_ops);
        assert_eq!(a.cache.block_hits, b.cache.block_hits);
    }

    #[test]
    fn for_beats_blind_on_small_files() {
        let wl = small_wl(3);
        let segm = System::new(SystemConfig::segm(), &wl).run();
        let for_ = System::new(SystemConfig::for_(), &wl).run();
        assert!(
            for_.io_time < segm.io_time,
            "FOR {} !< Segm {}",
            for_.io_time,
            segm.io_time
        );
        // FOR moves far fewer speculative blocks.
        assert!(for_.disk.read_ahead_blocks < segm.disk.read_ahead_blocks / 2);
    }

    #[test]
    fn hdc_reduces_io_time_on_skewed_workload() {
        let wl = SyntheticWorkload::builder()
            .requests(600)
            .files(3_000)
            .file_blocks(4)
            .zipf_alpha(0.9)
            .streams(32)
            .seed(4)
            .build();
        let base = System::new(SystemConfig::segm(), &wl).run();
        let hdc = System::new(SystemConfig::segm().with_hdc(2 * 1024 * 1024), &wl).run();
        assert!(hdc.io_time <= base.io_time);
        assert!(hdc.hdc_hit_rate() > 0.0);
    }

    #[test]
    fn no_ra_never_reads_ahead() {
        let wl = small_wl(5);
        let r = System::new(SystemConfig::no_ra(), &wl).run();
        assert_eq!(r.disk.read_ahead_blocks, 0);
    }

    #[test]
    fn writes_hit_the_media_without_hdc() {
        let wl = SyntheticWorkload::builder()
            .requests(300)
            .files(2_000)
            .write_fraction(0.5)
            .seed(6)
            .build();
        let r = System::new(SystemConfig::segm(), &wl).run();
        assert!(r.disk.blocks_written > 0);
    }

    #[test]
    fn empty_trace_finishes_instantly() {
        let wl = Workload {
            name: "empty".into(),
            layout: forhdc_layout::LayoutBuilder::new().build(&[]),
            trace: forhdc_workload::Trace::default(),
            streams: 4,
        };
        let r = System::new(SystemConfig::segm(), &wl).run();
        assert_eq!(r.requests, 0);
        assert_eq!(r.io_time, SimDuration::ZERO);
    }

    #[test]
    fn striping_unit_sweep_runs() {
        let wl = small_wl(7);
        for unit in [16 * 1024u32, 64 * 1024, 128 * 1024] {
            let r = System::new(SystemConfig::segm().with_striping_unit(unit), &wl).run();
            assert_eq!(r.requests, wl.trace.len() as u64, "unit {unit}");
        }
    }

    #[test]
    fn periodic_flush_writes_dirty_blocks_and_costs_little() {
        // The paper: 30-second periodic syncs cost < 1% of throughput.
        // Proportions matter: the paper's claim holds for 30-second
        // syncs against 100+-second runs with ~2-20% writes. This
        // scaled-down version keeps the ratio of dirty traffic to run
        // length comparable; the full-scale check is the repro
        // harness's ablation-flush on the web clone.
        let wl = SyntheticWorkload::builder()
            .requests(3_000)
            .files(3_000)
            .file_blocks(4)
            .zipf_alpha(0.9)
            .write_fraction(0.05)
            .streams(64)
            .seed(9)
            .build();
        let lazy = System::new(SystemConfig::segm().with_hdc(2 << 20), &wl).run();
        let periodic = System::new(
            SystemConfig::segm()
                .with_hdc(2 << 20)
                .with_hdc_flush_period(SimDuration::from_secs(2)),
            &wl,
        )
        .run();
        assert_eq!(periodic.requests, lazy.requests);
        // The skewed write workload absorbs writes into HDC and the
        // periodic system writes them back during the run.
        assert!(periodic.hdc.flushed > 0, "no dirty blocks flushed");
        assert!(periodic.disk.blocks_written > lazy.disk.blocks_written);
        let slowdown = periodic.io_time.as_nanos() as f64 / lazy.io_time.as_nanos() as f64;
        assert!(
            slowdown < 1.05,
            "periodic flush cost {:.2}% at this write intensity",
            (slowdown - 1.0) * 100.0
        );
    }

    #[test]
    fn partial_track_policy_lands_between_no_ra_and_blind() {
        let wl = small_wl(10);
        let blind = System::new(SystemConfig::block(), &wl).run();
        let track = System::new(SystemConfig::partial_track(), &wl).run();
        let no_ra = System::new(SystemConfig::no_ra(), &wl).run();
        // Track-bounded read-ahead moves fewer speculative blocks than
        // blind, more than none.
        assert!(track.disk.read_ahead_blocks < blind.disk.read_ahead_blocks);
        assert!(track.disk.read_ahead_blocks > no_ra.disk.read_ahead_blocks);
    }

    #[test]
    fn mirrored_array_completes_and_doubles_writes() {
        let wl = SyntheticWorkload::builder()
            .requests(400)
            .files(3_000)
            .file_blocks(4)
            .write_fraction(0.3)
            .streams(32)
            .seed(11)
            .build();
        let plain = System::new(SystemConfig::segm(), &wl).run();
        let mirrored = System::new(SystemConfig::segm().with_mirroring(), &wl).run();
        assert_eq!(mirrored.requests, wl.trace.len() as u64);
        // Every write lands on both members.
        let written = mirrored.disk.blocks_written;
        assert!(
            written >= plain.disk.blocks_written * 2 * 9 / 10,
            "mirrored writes {written} vs plain {}",
            plain.disk.blocks_written
        );
    }

    #[test]
    fn mirrored_reads_use_both_members() {
        let wl = SyntheticWorkload::builder()
            .requests(600)
            .files(4_000)
            .file_blocks(4)
            .streams(64)
            .seed(12)
            .build();
        let r = System::new(SystemConfig::segm().with_mirroring(), &wl).run();
        // Read load balancing: no member idles while its twin works.
        let max = r.per_disk_busy.iter().map(|b| b.as_nanos()).max().unwrap();
        let min = r.per_disk_busy.iter().map(|b| b.as_nanos()).min().unwrap();
        assert!(min > 0, "an entire member idled");
        assert!(max < min * 3, "member imbalance {max} vs {min}");
    }

    #[test]
    fn mirroring_is_deterministic_too() {
        let wl = small_wl(13);
        let a = System::new(SystemConfig::for_().with_mirroring(), &wl).run();
        let b = System::new(SystemConfig::for_().with_mirroring(), &wl).run();
        assert_eq!(a.io_time, b.io_time);
    }

    #[test]
    fn read_split_primary_only_leaves_replicas_read_idle() {
        // small_wl is read-only, so under primary-only splitting the
        // odd members never see any work at all.
        let wl = small_wl(14);
        let r = System::new(
            SystemConfig::segm()
                .with_mirroring()
                .with_read_split(ReadSplit::PrimaryOnly),
            &wl,
        )
        .run();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert!(r.mirror_reads > 0);
        assert_eq!(r.mirror_reads, r.mirror_policy_reads);
        for (i, busy) in r.per_disk_busy.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(busy.as_nanos(), 0, "replica {i} served reads");
            }
        }
    }

    #[test]
    fn read_split_policies_complete_and_conserve() {
        for policy in [
            ReadSplit::ClosestCopy,
            ReadSplit::RoundRobin,
            ReadSplit::ShortestQueue,
            ReadSplit::PrimaryOnly,
        ] {
            let wl = small_wl(15);
            let cfg = SystemConfig::for_()
                .with_mirroring()
                .with_read_split(policy);
            let a = System::new(cfg.clone(), &wl).run();
            let b = System::new(cfg, &wl).run();
            assert_eq!(a.requests, wl.trace.len() as u64, "{policy:?}");
            assert_reports_identical(&a, &b);
            // Fault-free: every routed read was a policy pick.
            assert_eq!(a.mirror_reads, a.mirror_policy_reads, "{policy:?}");
            assert_eq!(a.faults.failover_reads, 0, "{policy:?}");
        }
    }

    #[test]
    fn round_robin_split_balances_the_members() {
        let wl = SyntheticWorkload::builder()
            .requests(600)
            .files(4_000)
            .file_blocks(4)
            .streams(64)
            .seed(16)
            .build();
        let r = System::new(
            SystemConfig::segm()
                .with_mirroring()
                .with_read_split(ReadSplit::RoundRobin),
            &wl,
        )
        .run();
        let max = r.per_disk_busy.iter().map(|b| b.as_nanos()).max().unwrap();
        let min = r.per_disk_busy.iter().map(|b| b.as_nanos()).min().unwrap();
        assert!(min > 0, "an entire member idled");
        assert!(max < min * 3, "round-robin imbalance {max} vs {min}");
    }

    #[test]
    fn replica_offline_degrades_reads_without_failures() {
        let wl = small_wl(17);
        // One replica of pair 0 is out for the first 50 ms: its twin
        // carries every read alone, and nothing fails.
        let window = OfflineWindow {
            disk: 1,
            start_ns: 0,
            end_ns: 50_000_000,
        };
        let fc = FaultConfig::new(2).with_offline(window);
        let (r, _audit) = System::builder(SystemConfig::segm().with_mirroring(), &wl)
            .faults(SeededFaults::new(fc))
            .auditor(FullAudit::new())
            .build()
            .run_audited();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert_eq!(r.faults.failed_requests, 0);
        assert!(
            r.faults.failover_reads > 0,
            "no reads failed over: {:?}",
            r.faults
        );
        assert_eq!(
            r.mirror_reads,
            r.mirror_policy_reads + r.faults.failover_reads
        );
    }

    #[test]
    fn rebuild_reconstructs_target_under_load() {
        let wl = SyntheticWorkload::builder()
            .requests(1_200)
            .files(3_000)
            .file_blocks(4)
            .streams(32)
            .seed(18)
            .build();
        let rb = RebuildConfig {
            disk: 1,
            start: SimDuration::ZERO,
            rate_bytes_per_sec: 0, // unpaced: finish well inside the run
            chunk_blocks: 32,
            total_blocks: 256,
        };
        let (r, _audit) =
            System::new_checked(SystemConfig::segm().with_mirroring().with_rebuild(rb), &wl)
                .run_audited();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert_eq!(
            r.faults.rebuilt_blocks, rb.total_blocks,
            "rebuild incomplete: {:?}",
            r.faults
        );
    }

    #[test]
    fn rebuild_pacing_caps_the_copy_rate() {
        let wl = small_wl(19);
        let run = |rate: u64| {
            let rb = RebuildConfig {
                disk: 1,
                start: SimDuration::ZERO,
                rate_bytes_per_sec: rate,
                chunk_blocks: 32,
                total_blocks: 1 << 20,
            };
            System::new(SystemConfig::segm().with_mirroring().with_rebuild(rb), &wl).run()
        };
        let slow = run(1 << 20); // 1 MiB/s
        let fast = run(64 << 20); // 64 MiB/s
        assert!(
            slow.faults.rebuilt_blocks < fast.faults.rebuilt_blocks,
            "pacing had no effect: slow {} fast {}",
            slow.faults.rebuilt_blocks,
            fast.faults.rebuilt_blocks
        );
        // The cap bounds the copy directly: at most rate x io_time
        // bytes land on the target (one in-flight chunk of slack).
        let bb = SystemConfig::segm().array.disk.block_bytes() as f64;
        let budget = slow.io_time.as_secs_f64() * (1u64 << 20) as f64 / bb;
        assert!(
            slow.faults.rebuilt_blocks as f64 <= budget + 32.0,
            "paced copy overshot: {} blocks vs budget {budget:.0}",
            slow.faults.rebuilt_blocks
        );
    }

    #[test]
    fn offline_window_then_rebuild_composes() {
        // The full failure story: a replica drops out (reads fail over
        // to its twin), comes back, and is reconstructed under load —
        // zero failed requests, all conservation laws audited.
        let wl = small_wl(21);
        let window = OfflineWindow {
            disk: 1,
            start_ns: 0,
            end_ns: 20_000_000,
        };
        let rb = RebuildConfig {
            disk: 1,
            start: SimDuration::from_millis(20),
            rate_bytes_per_sec: 0,
            chunk_blocks: 32,
            total_blocks: 512,
        };
        let fc = FaultConfig::new(4).with_offline(window);
        let (r, _audit) =
            System::builder(SystemConfig::segm().with_mirroring().with_rebuild(rb), &wl)
                .faults(SeededFaults::new(fc))
                .auditor(FullAudit::new())
                .build()
                .run_audited();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert_eq!(r.faults.failed_requests, 0);
        assert!(
            r.faults.failover_reads > 0,
            "no degraded reads: {:?}",
            r.faults
        );
        assert!(
            r.faults.rebuilt_blocks > 0,
            "no rebuild progress: {:?}",
            r.faults
        );
    }

    #[test]
    fn cooperative_hdc_serves_overflow_from_siblings() {
        // Heat concentrated on ONE disk: with 32-block units, logical
        // units 0, 8, 16, … live on disk 0. 600 hot blocks there exceed
        // a 256-block HDC region; the per-disk plan can pin only 256 of
        // them, the cooperative plan pins all 600 (344 in siblings).
        use forhdc_workload::{Trace, TraceRequest};
        let layout = forhdc_layout::LayoutBuilder::new().build(&vec![4u32; 20_000]);
        let mut reqs = Vec::new();
        // Hot: blocks inside disk-0 units (unit u maps to disk u % 8).
        for _round in 0..6u64 {
            for i in 0..600u64 {
                let unit = (i / 32) * 8; // disk 0
                let l = unit * 32 + i % 32; // same hot set every round
                reqs.push(TraceRequest {
                    start: forhdc_sim::LogicalBlock::new(l),
                    nblocks: 1,
                    kind: ReadWrite::Read,
                });
            }
        }
        // Cold background spread everywhere.
        for i in 0..1_200u64 {
            reqs.push(TraceRequest {
                start: forhdc_sim::LogicalBlock::new(20_000 + i * 37 % 50_000),
                nblocks: 1,
                kind: ReadWrite::Read,
            });
        }
        let wl = Workload {
            name: "hot-disk".into(),
            layout,
            trace: Trace::new(reqs),
            streams: 64,
        };
        const HDC: u64 = 1 << 20; // 256 blocks per disk
        let per_disk_cfg = SystemConfig::segm().with_hdc(HDC);
        let per_disk = System::new(per_disk_cfg.clone(), &wl).run();
        let coop_cfg = per_disk_cfg.clone().with_cooperative_hdc();
        let coop = System::new(coop_cfg.clone(), &wl).run();
        // An explicit plan wins over the cooperative flag: the per-disk
        // plan replays exactly as the per-disk run.
        let striping = StripingMap::new(8, per_disk_cfg.array.striping_unit_blocks());
        let plan = plan_top_misses(&wl.trace, &striping, per_disk_cfg.hdc_blocks());
        let explicit = System::builder(coop_cfg, &wl).plan(plan).build().run();
        assert_eq!(explicit.coop_hits, 0);
        assert_eq!(explicit.io_time, per_disk.io_time);
        assert_eq!(coop.requests, wl.trace.len() as u64);
        assert_eq!(per_disk.coop_hits, 0);
        assert!(coop.coop_hits > 0, "no sibling-served hits");
        assert!(
            coop.io_time < per_disk.io_time,
            "coop {} should beat per-disk {} under one-disk heat",
            coop.io_time,
            per_disk.io_time
        );
    }

    #[test]
    #[should_panic(expected = "HDC plan for disk 0 exceeds its capacity of 256 blocks")]
    fn plan_beyond_hdc_capacity_panics() {
        let wl = small_wl(15);
        let cfg = SystemConfig::segm().with_hdc(1 << 20);
        let mut per_disk = vec![Vec::new(); 8];
        per_disk[0] = (0..=u64::from(cfg.hdc_blocks()))
            .map(forhdc_sim::PhysBlock::new)
            .collect();
        let _ = System::builder(cfg, &wl)
            .plan(HdcPlan::from_per_disk(per_disk))
            .build();
    }

    #[test]
    fn tracing_never_perturbs_the_run_and_events_round_trip() {
        use forhdc_trace::MemTracer;
        let wl = small_wl(14);
        let plain = System::new(SystemConfig::for_(), &wl).run();
        let cfg = SystemConfig::for_().with_trace_sampling(SimDuration::from_millis(50));
        let (traced, tracer) = System::new_traced(cfg.clone(), &wl, MemTracer::new()).run_traced();
        // Identical outcome with the tracer attached and sampling on.
        assert_eq!(plain.io_time, traced.io_time);
        assert_eq!(plain.disk.media_ops, traced.disk.media_ops);
        assert_eq!(plain.cache.block_hits, traced.cache.block_hits);
        assert_eq!(plain.mean_response, traced.mean_response);
        let count =
            |f: fn(&TraceEvent) -> bool| tracer.events.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Issue { .. })),
            traced.requests
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Complete { .. })),
            traced.requests
        );
        assert!(count(|e| matches!(e, TraceEvent::Media { .. })) > 0);
        assert!(count(|e| matches!(e, TraceEvent::Sample { .. })) > 0);
        // Deterministic: a second traced run emits the same bytes.
        let (_, again) = System::new_traced(cfg, &wl, MemTracer::new()).run_traced();
        assert_eq!(again.to_jsonl(), tracer.to_jsonl());
        // And the JSONL encoding round-trips losslessly.
        let parsed = forhdc_trace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed, tracer.events);
    }

    #[test]
    fn sampler_utilization_stays_in_bounds() {
        use forhdc_trace::MemTracer;
        let wl = small_wl(15);
        let cfg = SystemConfig::segm().with_trace_sampling(SimDuration::from_millis(20));
        let (_, tracer) = System::new_traced(cfg, &wl, MemTracer::new()).run_traced();
        let mut samples = 0;
        for ev in &tracer.events {
            if let TraceEvent::Sample { util_pm, ra_pm, .. } = ev {
                samples += 1;
                assert!(*util_pm <= 1000, "util {util_pm} out of per-mille range");
                assert!(*ra_pm <= 1000, "ra {ra_pm} out of per-mille range");
            }
        }
        assert!(samples > 0);
    }

    #[test]
    fn bitmap_scan_cost_charged_only_for_for() {
        let wl = small_wl(8);
        let segm = System::new(SystemConfig::segm(), &wl).run();
        let for_ = System::new(SystemConfig::for_(), &wl).run();
        assert_eq!(segm.bitmap_scans, 0);
        assert!(for_.bitmap_scans > 0);
    }

    /// Two reports must agree on everything a CSV or a figure could
    /// read off them.
    fn assert_reports_identical(a: &Report, b: &Report) {
        assert_eq!(a.io_time, b.io_time);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.disk.media_ops, b.disk.media_ops);
        assert_eq!(a.disk.blocks_read, b.disk.blocks_read);
        assert_eq!(a.disk.blocks_written, b.disk.blocks_written);
        assert_eq!(a.disk.read_ahead_blocks, b.disk.read_ahead_blocks);
        assert_eq!(a.cache.block_hits, b.cache.block_hits);
        assert_eq!(a.hdc, b.hdc);
        assert_eq!(a.mean_response, b.mean_response);
        assert_eq!(a.max_response, b.max_response);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.to_string(), b.to_string());
    }

    fn faulted_cfg() -> SystemConfig {
        SystemConfig::for_()
            .with_hdc(2 * 1024 * 1024)
            .with_hdc_flush_period(SimDuration::from_millis(50))
    }

    #[test]
    fn zero_rate_fault_model_is_byte_identical_to_no_faults() {
        // A SeededFaults engine with every rate at zero must not perturb
        // the run at all: same oracle as traced == untraced.
        let wl = small_wl(9);
        for cfg in [
            SystemConfig::segm(),
            SystemConfig::for_().with_hdc(2 * 1024 * 1024),
            faulted_cfg(),
        ] {
            let base = System::new(cfg.clone(), &wl).run();
            let zero = System::builder(cfg, &wl)
                .faults(SeededFaults::new(FaultConfig::new(1234)))
                .build()
                .run();
            assert_reports_identical(&base, &zero);
        }
    }

    #[test]
    fn full_audit_is_byte_identical_to_unchecked_and_observes() {
        // Checked mode reads state and panics or does nothing: the same
        // oracle as traced == untraced and zero-rate faults == none.
        let wl = small_wl(9);
        for cfg in [
            SystemConfig::segm(),
            SystemConfig::for_().with_hdc(2 * 1024 * 1024),
            SystemConfig::segm()
                .with_hdc(1 << 20)
                .with_cooperative_hdc(),
            faulted_cfg(),
        ] {
            let base = System::new(cfg.clone(), &wl).run();
            let (checked, audit) = System::new_checked(cfg, &wl).run_audited();
            assert_reports_identical(&base, &checked);
            assert!(audit.observations() > 0, "auditor never observed");
        }
    }

    #[test]
    fn invariants_hold_under_combined_faults_in_checked_mode() {
        // The same write-heavy workload and fault mix as
        // `dirty_conservation_holds_under_combined_faults`, now with
        // every audit point live: retries, degraded completions, power
        // losses, and failed flushes must all keep the structures
        // coherent and the conservation laws exact.
        let wl = SyntheticWorkload::builder()
            .requests(2_000)
            .files(2_000)
            .file_blocks(4)
            .zipf_alpha(1.1)
            .write_fraction(0.5)
            .streams(32)
            .seed(14)
            .build();
        let cfg = FaultConfig::new(9)
            .with_media_rates(1e-3, 1e-2)
            .with_bus_rate(1e-3)
            .with_power_loss_period_ns(30_000_000);
        let (r, audit) = System::builder(
            faulted_cfg().with_recovery(RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            }),
            &wl,
        )
        .faults(SeededFaults::new(cfg))
        .auditor(FullAudit::new())
        .build()
        .run_audited();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert!(r.faults.media_read_errors + r.faults.media_write_errors > 0);
        assert!(audit.observations() > 0);
    }

    #[test]
    fn planted_violation_panics_with_the_structured_report() {
        let wl = small_wl(12);
        let sys = System::builder(SystemConfig::segm(), &wl)
            .auditor(FullAudit::with_planted_violation(5))
            .build();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sys.run())).unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains(forhdc_check::VIOLATION_PREFIX), "{msg}");
        assert!(msg.contains("planted violation"), "{msg}");
    }

    #[test]
    fn media_errors_degrade_but_never_wedge() {
        let wl = small_wl(10);
        let cfg = FaultConfig::new(7).with_media_rates(5e-3, 5e-3);
        let r = System::builder(SystemConfig::for_(), &wl)
            .faults(SeededFaults::new(cfg))
            .build()
            .run();
        // Every request still completes (possibly as an error) …
        assert_eq!(r.requests, wl.trace.len() as u64);
        // … and faults were actually exercised.
        assert!(r.faults.media_read_errors + r.faults.media_write_errors > 0);
        assert!(r.faults.retries > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let wl = small_wl(11);
        let cfg = FaultConfig::new(42)
            .with_media_rates(1e-3, 1e-3)
            .with_bus_rate(1e-3)
            .with_power_loss_period_ns(40_000_000);
        let a = System::builder(faulted_cfg(), &wl)
            .faults(SeededFaults::new(cfg.clone()))
            .build()
            .run();
        let b = System::builder(faulted_cfg(), &wl)
            .faults(SeededFaults::new(cfg))
            .build()
            .run();
        assert_reports_identical(&a, &b);
    }

    #[test]
    fn offline_window_stalls_then_resumes() {
        let wl = small_wl(12);
        let window = OfflineWindow {
            disk: 0,
            start_ns: 0,
            end_ns: 30_000_000,
        };
        let healthy = System::new(SystemConfig::segm(), &wl).run();
        let cfg = FaultConfig::new(1).with_offline(window);
        let r = System::builder(SystemConfig::segm(), &wl)
            .faults(SeededFaults::new(cfg))
            .build()
            .run();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert!(r.faults.offline_stalls > 0);
        // The stall costs time but nothing else degrades.
        assert!(r.io_time >= healthy.io_time);
        assert_eq!(r.faults.failed_requests, 0);
    }

    #[test]
    fn power_loss_loses_dirty_hdc_blocks_and_accounting_conserves() {
        let wl = SyntheticWorkload::builder()
            .requests(2_000)
            .files(2_000)
            .file_blocks(4)
            .zipf_alpha(1.1)
            .write_fraction(0.5)
            .streams(32)
            .seed(13)
            .build();
        let cfg = FaultConfig::new(3).with_power_loss_period_ns(20_000_000);
        let r = System::builder(SystemConfig::segm().with_hdc(2 * 1024 * 1024), &wl)
            .faults(SeededFaults::new(cfg))
            .build()
            .run();
        assert!(r.faults.power_losses > 0);
        assert!(r.faults.lost_dirty_blocks > 0);
        // Every clean→dirty transition is accounted for exactly once.
        assert_eq!(
            r.hdc_dirtied,
            r.hdc.flushed + r.faults.lost_dirty_blocks + r.hdc_dirty_unpins,
            "dirty-block conservation violated: {r:?}"
        );
    }

    #[test]
    fn dirty_conservation_holds_under_combined_faults() {
        let wl = SyntheticWorkload::builder()
            .requests(2_000)
            .files(2_000)
            .file_blocks(4)
            .zipf_alpha(1.1)
            .write_fraction(0.5)
            .streams(32)
            .seed(14)
            .build();
        let cfg = FaultConfig::new(9)
            .with_media_rates(1e-3, 1e-2)
            .with_bus_rate(1e-3)
            .with_power_loss_period_ns(30_000_000);
        let r = System::builder(
            faulted_cfg().with_recovery(RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            }),
            &wl,
        )
        .faults(SeededFaults::new(cfg))
        .build()
        .run();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert_eq!(
            r.hdc_dirtied,
            r.hdc.flushed + r.faults.lost_dirty_blocks + r.hdc_dirty_unpins,
            "dirty-block conservation violated: {r:?}"
        );
    }

    #[test]
    fn request_timeout_completes_requests_as_errors() {
        let wl = small_wl(15);
        // An all-day offline window plus a short timeout: requests to
        // that disk can only finish via the timeout path.
        let window = OfflineWindow {
            disk: 0,
            start_ns: 0,
            end_ns: u64::MAX,
        };
        let cfg = FaultConfig::new(2).with_offline(window);
        let r = System::builder(
            SystemConfig::segm().with_recovery(RetryPolicy {
                deadline_ns: Some(200_000_000),
                ..RetryPolicy::default()
            }),
            &wl,
        )
        .faults(SeededFaults::new(cfg))
        .build()
        .run();
        assert_eq!(r.requests, wl.trace.len() as u64);
        assert!(r.faults.timeouts > 0);
        assert_eq!(r.faults.failed_requests, r.faults.timeouts);
    }

    #[test]
    fn fault_trace_events_round_trip() {
        let wl = small_wl(16);
        let cfg = FaultConfig::new(5)
            .with_media_rates(2e-3, 2e-3)
            .with_bus_rate(1e-3);
        let (r, tracer) = System::builder(SystemConfig::for_(), &wl)
            .tracer(forhdc_trace::MemTracer::new())
            .faults(SeededFaults::new(cfg))
            .build()
            .run_traced();
        assert!(r.faults.media_read_errors + r.faults.media_write_errors > 0);
        let faults = tracer
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .count() as u64;
        let retries = tracer
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Retry { .. }))
            .count() as u64;
        assert!(faults > 0);
        assert_eq!(retries, r.faults.retries);
        // The JSONL round trip must preserve every fault event.
        let text = forhdc_trace::write_jsonl(&tracer.events);
        let parsed = forhdc_trace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, tracer.events);
    }
}
