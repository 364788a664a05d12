//! The simulator workloads: one server clone generated from the seed
//! and replayed by `System::run`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use forhdc_core::controller::ControllerDecision;
use forhdc_core::{plan_top_misses, DiskController, HdcPlan, Report, System, SystemConfig};
use forhdc_layout::build_disk_bitmaps;
use forhdc_sim::sched::{QueuedOp, Scheduler};
use forhdc_sim::{
    BusModel, DiskMechanics, LaneCalendar, PhysBlock, ReadWrite, SimTime, StripingMap,
};
use forhdc_trace::{TraceEvent, Tracer};
use forhdc_workload::{ServerWorkloadSpec, Workload};

use crate::spans::{Span, Spans, ROOT};
use crate::workloads::SimSpec;
use crate::{fastest, Outcome, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 5;
/// Timed `System::run` calls at least, however short `--seconds`.
const MIN_RUNS: usize = 3;
/// Calls per span in the layer passes.
const BATCH: usize = 4096;
/// The checked run's request count, as a fraction of the timed runs'.
const CHECKED_SHRINK: f64 = 20.0;

/// What the default seed must reproduce exactly, per workload:
/// `(io_time ns, requests, extent hits, HDC read hits)`.
const GOLDEN: [(&str, [u64; 4]); 2] = [
    ("sim-web", [458_050_125_374, 835_645, 396_472, 286_045]),
    ("sim-file", [223_445_741_452, 500_000, 28_235, 27_012]),
];

fn config(spec: &SimSpec) -> SystemConfig {
    SystemConfig::for_()
        .with_hdc(spec.hdc_bytes)
        .with_striping_unit(spec.unit_bytes)
}

fn generate(spec: &SimSpec, seed: u64) -> Workload {
    let base = match spec.kind {
        forhdc_workload::ServerKind::Web => ServerWorkloadSpec::web(),
        forhdc_workload::ServerKind::Proxy => ServerWorkloadSpec::proxy(),
        forhdc_workload::ServerKind::File => ServerWorkloadSpec::file_server(),
    };
    base.scale(spec.scale).with_seed(seed).generate().workload
}

fn striping(cfg: &SystemConfig) -> StripingMap {
    StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks())
}

fn plan(cfg: &SystemConfig, wl: &Workload) -> HdcPlan {
    if cfg.hdc_blocks() > 0 {
        plan_top_misses(&wl.trace, &striping(cfg), cfg.hdc_blocks())
    } else {
        HdcPlan::empty(cfg.array.virtual_disks())
    }
}

/// Collects every completed request's modelled response time.
struct Latencies(Vec<u64>);

impl Tracer for Latencies {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let TraceEvent::Complete { response, .. } = ev {
            self.0.push(response);
        }
    }
}

/// A traced run's report and its requests' modelled response times
/// (ns, sorted).
fn modelled_latencies(cfg: &SystemConfig, wl: &Workload) -> (Report, Vec<u64>) {
    let (report, Latencies(mut lat)) = System::new_traced(
        cfg.clone(),
        wl,
        Latencies(Vec::with_capacity(wl.trace.len())),
    )
    .run_traced();
    lat.sort_unstable();
    (report, lat)
}

/// Linear interpolation between order statistics of sorted `v`.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let x = p / 100.0 * (sorted.len() - 1) as f64;
    let (i, frac) = (x.floor() as usize, x.fract());
    let next = sorted[(i + 1).min(sorted.len() - 1)];
    sorted[i] as f64 * (1.0 - frac) + next as f64 * frac
}

/// The counts a run must reproduce exactly.
fn fingerprint(r: &Report) -> [u64; 4] {
    [
        r.io_time.as_nanos(),
        r.requests,
        r.cache.extent_hits,
        r.hdc.read_hits,
    ]
}

/// The end-to-end run: set up [`SETUPS`] times, pass one checked run,
/// take the modelled latencies from a traced run, then time
/// `System::run` repeatedly for `seconds` and keep the fastest run.
pub fn e2e(spec: &SimSpec, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let cfg = config(spec);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let wl = generate(spec, seed);
        let p = plan(&cfg, &wl);
        let sys = System::with_plan(cfg.clone(), &wl, p.clone());
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((wl, p, sys));
    }
    let (wl, p, first) = built.expect("SETUPS >= 1");
    let mut problems = Vec::new();

    // Checked mode: every audit point validates its invariants and a
    // violation panics. Auditing the full workload takes ~40x a plain
    // run, so the checked run replays the same seed's clone at 1/20
    // of the requests.
    let small = generate(
        &SimSpec {
            scale: spec.scale / CHECKED_SHRINK,
            ..spec.clone()
        },
        seed,
    );
    if catch_unwind(AssertUnwindSafe(|| {
        System::new_checked(cfg.clone(), &small).run()
    }))
    .is_err()
    {
        return Err(format!("{}: checked run violated an invariant", spec.name));
    }
    drop(small);
    let (report, lat) = modelled_latencies(&cfg, &wl);
    let want = fingerprint(&report);
    if lat.len() as u64 != want[1] {
        problems.push(format!("{} latencies for {} requests", lat.len(), want[1]));
    }

    let mut secs = Vec::new();
    let mut requests = 0u64;
    let mut failed = 0u64;
    let mut sys = Some(first);
    let start = Instant::now();
    while secs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let s = sys
            .take()
            .unwrap_or_else(|| System::with_plan(cfg.clone(), &wl, p.clone()));
        let t0 = Instant::now();
        let report = s.run();
        secs.push(t0.elapsed().as_secs_f64());
        requests += report.requests;
        if fingerprint(&report) != want {
            failed += report.requests;
            problems.push(format!(
                "run {} differs from the traced run: {:?} vs {:?}",
                secs.len(),
                fingerprint(&report),
                want
            ));
        }
    }
    if seed == DEFAULT_SEED && !smoke {
        if let Some((_, golden)) = GOLDEN.iter().find(|(n, _)| *n == spec.name) {
            if *golden != want {
                problems.push(format!(
                    "seed {seed}: (io_time ns, requests, extent hits, HDC hits) = {want:?}, \
                     golden {golden:?}"
                ));
            }
        }
    }
    let per_run = want[1] as f64;
    let run_s = fastest(&secs);
    eprintln!(
        "{}: {} requests, {} runs, fastest {:.1} ns/req, modelled io_time {:.3} s",
        spec.name,
        want[1],
        secs.len(),
        run_s * 1e9 / per_run,
        want[0] as f64 / 1e9
    );
    Ok(Outcome {
        attempted: requests,
        failed,
        metrics: vec![
            ("rps", per_run / run_s, "1/s"),
            ("p50_us", percentile(&lat, 50.0) / 1e3, "us"),
            ("p99_us", percentile(&lat, 99.0) / 1e3, "us"),
            ("setup_s", fastest(&setups), "s"),
            ("rss_mb", crate::rss_mb(), "MiB"),
            ("p999_us", percentile(&lat, 99.9) / 1e3, "us"),
            ("sim_ns_per_req", run_s * 1e9 / per_run, "ns"),
            ("io_time_s", want[0] as f64 / 1e9, "s"),
        ],
        problems,
    })
}

/// One recorded call into the media-path layers, replayed per layer.
enum SchedCall {
    Push(usize, QueuedOp),
    Pop(usize, u32),
}

/// The calls a run of the media path makes into each layer, recorded
/// by [`media_path`] and replayed by the timed passes.
struct MediaCalls {
    sched: Vec<SchedCall>,
    service: Vec<(usize, ReadWrite, PhysBlock, u32, SimTime)>,
    /// `Some((lane, time))` schedules, `None` pops.
    calendar: Vec<Option<(usize, SimTime)>>,
    bus: Vec<(SimTime, u64)>,
}

/// One disk of the [`media_path`] loop.
struct MediaDisk<'a> {
    ops: &'a [QueuedOp],
    next: usize,
    sched: Scheduler,
    mech: DiskMechanics,
    current: Option<QueuedOp>,
}

/// A small event loop over the media ops the controllers issued, in
/// arrival order: each disk keeps up to `depth` ops queued, serves them
/// in its scheduler's order, and every completion crosses the bus.
fn media_path(
    cfg: &SystemConfig,
    ops: &[Vec<QueuedOp>],
    depth: usize,
    block_bytes: u64,
) -> MediaCalls {
    let mut calls = MediaCalls {
        sched: Vec::new(),
        service: Vec::new(),
        calendar: Vec::new(),
        bus: Vec::new(),
    };
    let mut disks: Vec<MediaDisk> = ops
        .iter()
        .map(|ops| MediaDisk {
            ops,
            next: 0,
            sched: Scheduler::new(cfg.array.scheduler),
            mech: DiskMechanics::new(&cfg.array.disk),
            current: None,
        })
        .collect();
    let mut cal: LaneCalendar<usize> = LaneCalendar::with_lanes(ops.len());
    let refill_and_start = |d: usize,
                            md: &mut MediaDisk,
                            now: SimTime,
                            calls: &mut MediaCalls,
                            cal: &mut LaneCalendar<usize>| {
        while md.sched.len() < depth && md.next < md.ops.len() {
            let mut op = md.ops[md.next];
            op.queued_at = now;
            md.next += 1;
            md.sched.push(op);
            calls.sched.push(SchedCall::Push(d, op));
        }
        let head = md.mech.head_cylinder();
        if let Some(op) = md.sched.pop_next(head) {
            calls.sched.push(SchedCall::Pop(d, head));
            calls.service.push((d, op.kind, op.start, op.nblocks, now));
            let done = now + md.mech.service(op.kind, op.start, op.nblocks, now).total();
            cal.schedule_lane(d, done, d);
            calls.calendar.push(Some((d, done)));
            md.current = Some(op);
        }
    };
    for (d, md) in disks.iter_mut().enumerate() {
        refill_and_start(d, md, SimTime::ZERO, &mut calls, &mut cal);
    }
    let mut bus = BusModel::new(cfg.array.bus_rate, cfg.array.bus_overhead);
    while let Some(fired) = cal.pop() {
        calls.calendar.push(None);
        let d = fired.event;
        if let Some(op) = disks[d].current.take() {
            let bytes = op.requested as u64 * block_bytes;
            bus.reserve(fired.time, bytes);
            calls.bus.push((fired.time, bytes));
        }
        refill_and_start(d, &mut disks[d], fired.time, &mut calls, &mut cal);
    }
    calls
}

/// Times `f`, recording it as one span.
fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = spans.open(name, 0, ROOT);
    let t0 = Instant::now();
    let v = f();
    let secs = t0.elapsed().as_secs_f64();
    spans.close(id);
    (v, secs)
}

/// The traced run: set-up phases, repeated runs for the e2e ns per
/// request, then the trace fed in arrival order through each layer's
/// public calls, each layer timed on its own.
pub fn trace(spec: &SimSpec, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let cfg = config(spec);
    let origin = Instant::now();
    let mut spans = Spans::with_capacity(origin, 1 << 16);
    let (wl, generate_s) = timed(&mut spans, "workload.generate", || generate(spec, seed));
    let (p, plan_s) = timed(&mut spans, "planner.plan", || plan(&cfg, &wl));
    let (sys, new_s) = timed(&mut spans, "system.new", || {
        System::with_plan(cfg.clone(), &wl, p.clone())
    });

    let mut secs = Vec::new();
    let mut report = None;
    let mut sys = Some(sys);
    let start = Instant::now();
    while secs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds / 3.0 {
        let s = sys
            .take()
            .unwrap_or_else(|| System::with_plan(cfg.clone(), &wl, p.clone()));
        let (r, t) = timed(&mut spans, "system.run", || s.run());
        secs.push(t);
        report = Some(r);
    }
    let r = report.expect("at least one run");
    let (_, lat) = modelled_latencies(&cfg, &wl);
    let reqs = r.requests as f64;
    let sim_ns_per_req = fastest(&secs) * 1e9 / reqs;

    let st = striping(&cfg);
    let block_bytes = cfg.array.disk.block_bytes() as u64;
    let trace_reqs = wl.trace.requests();
    let mut extents = Vec::new();
    let mut split_buf = Vec::new();
    for req in trace_reqs {
        st.split_into(req.start, req.nblocks, &mut split_buf);
        extents.extend(split_buf.iter().map(|e| (*e, req.kind)));
    }
    let split_total = spans.batched(BATCH, "array.split", trace_reqs.len(), |i| {
        let req = trace_reqs[i];
        st.split_into(req.start, req.nblocks, &mut split_buf);
    });
    std::hint::black_box(&split_buf);

    // Controller probes, timed per call (less the timer's own cost) so
    // reads and writes separate.
    let overhead = {
        let t = Instant::now();
        for _ in 0..100_000 {
            std::hint::black_box(Instant::now());
        }
        t.elapsed().as_nanos() as f64 / 100_000.0
    };
    // Controllers exactly as `System` builds them (the sim workloads
    // are unmirrored: one controller per virtual disk).
    let bitmaps = build_disk_bitmaps(&wl.layout, &st, cfg.array.disk.geometry.capacity_blocks());
    let mut ctls: Vec<DiskController> = bitmaps
        .into_iter()
        .enumerate()
        .map(|(vd, bm)| {
            let mut ctl =
                DiskController::new(&cfg.array.disk, cfg.read_ahead, cfg.hdc_blocks(), Some(bm))
                    .with_replacement(cfg.block_replacement, cfg.segment_replacement);
            for &b in p.blocks_for(vd) {
                ctl.pin(b);
            }
            ctl
        })
        .collect();
    let geometry = &cfg.array.disk.geometry;
    let mut ops: Vec<Vec<QueuedOp>> = vec![Vec::new(); ctls.len()];
    let (mut read_ns, mut reads, mut write_ns, mut writes) = (0f64, 0u64, 0f64, 0u64);
    for (chunk, batch) in extents.chunks(BATCH).enumerate() {
        let start_ns = spans.now();
        for &(e, kind) in batch {
            let d = e.disk.as_usize();
            let t0 = Instant::now();
            let decision = ctls[d].on_request(kind, e.start, e.nblocks);
            if let ControllerDecision::Media { start, nblocks, .. } = decision {
                ctls[d].on_media_complete(kind, start, nblocks, e.nblocks);
            }
            let ns = t0.elapsed().as_nanos() as f64 - overhead;
            if kind.is_read() {
                read_ns += ns;
                reads += 1;
            } else {
                write_ns += ns;
                writes += 1;
            }
            if let ControllerDecision::Media { start, nblocks, .. } = decision {
                let token = ops[d].len() as u64;
                ops[d].push(QueuedOp {
                    token,
                    start,
                    nblocks,
                    requested: e.nblocks,
                    kind,
                    cylinder: geometry.cylinder_of(start),
                    queued_at: SimTime::ZERO,
                    attempt: 0,
                });
            }
        }
        spans.push(Span {
            req: chunk as u64,
            name: "controller.probe",
            parent: ROOT,
            start_ns,
            end_ns: spans.now(),
        });
    }

    // The media path, recorded once and replayed layer by layer.
    let depth = (wl.streams as usize / ctls.len()).max(1);
    let calls = media_path(&cfg, &ops, depth, block_bytes);
    let media_ops: usize = ops.iter().map(Vec::len).sum();
    let mut sched: Vec<Scheduler> = ops
        .iter()
        .map(|_| Scheduler::new(cfg.array.scheduler))
        .collect();
    let sched_total = spans.batched(BATCH, "sched.push_pop", calls.sched.len(), |i| match calls
        .sched[i]
    {
        SchedCall::Push(d, op) => sched[d].push(op),
        SchedCall::Pop(d, head) => {
            std::hint::black_box(sched[d].pop_next(head));
        }
    });
    let mut mech: Vec<DiskMechanics> = ops
        .iter()
        .map(|_| DiskMechanics::new(&cfg.array.disk))
        .collect();
    let mech_total = spans.batched(BATCH, "mechanics.service", calls.service.len(), |i| {
        let (d, kind, start, n, now) = calls.service[i];
        std::hint::black_box(mech[d].service(kind, start, n, now));
    });
    let mut cal: LaneCalendar<usize> = LaneCalendar::with_lanes(ops.len());
    let cal_total = spans.batched(
        BATCH,
        "calendar.event",
        calls.calendar.len(),
        |i| match calls.calendar[i] {
            Some((lane, t)) => cal.schedule_lane(lane, t, lane),
            None => {
                std::hint::black_box(cal.pop());
            }
        },
    );
    let mut bus = BusModel::new(cfg.array.bus_rate, cfg.array.bus_overhead);
    let bus_total = spans.batched(BATCH, "bus.reserve", calls.bus.len(), |i| {
        let (now, bytes) = calls.bus[i];
        std::hint::black_box(bus.reserve(now, bytes));
    });
    // Every extent crosses the bus once: hits and absorbed writes
    // straight from the controller, media ops after their completion.
    let transfers = extents.len() as f64;

    spans.write_jsonl(&out.join(spec.name).join("spans.jsonl"))?;
    eprintln!("{}: self time per span\n{}", spec.name, spans.table());

    let n_trace = trace_reqs.len() as f64;
    let split_ns = split_total as f64 / n_trace;
    let read_probe_ns = read_ns / reads.max(1) as f64;
    let write_probe_ns = write_ns / writes.max(1) as f64;
    let sched_ns = sched_total as f64 / media_ops.max(1) as f64;
    let mech_ns = mech_total as f64 / media_ops.max(1) as f64;
    let cal_ns = cal_total as f64 / media_ops.max(1) as f64;
    let bus_ns = bus_total as f64 / calls.bus.len().max(1) as f64;
    let per_req = |calls: f64| calls / n_trace;
    let probe_phase = (read_ns + write_ns) / n_trace;
    let media_phase = mech_ns * per_req(media_ops as f64);
    let queue_phase = (sched_ns + cal_ns) * per_req(media_ops as f64);
    let transfer_phase = bus_ns * per_req(transfers);
    let glue = sim_ns_per_req - split_ns - probe_phase - media_phase - queue_phase - transfer_phase;
    let busy: Vec<f64> = r
        .per_disk_busy
        .iter()
        .map(|b| b.as_nanos() as f64)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let bus_time = (r.bus_wait + r.bus_busy).as_nanos() as f64;
    Ok(Outcome {
        attempted: r.requests * secs.len() as u64,
        failed: 0,
        metrics: vec![
            ("split.ns_per_req", split_ns, "ns"),
            ("probe.ns_per_req", probe_phase, "ns"),
            ("media.ns_per_req", media_phase, "ns"),
            ("queue.ns_per_req", queue_phase, "ns"),
            ("transfer.ns_per_req", transfer_phase, "ns"),
            ("residual.ns_per_req", glue, "ns"),
            (
                "cache.extent_hit_ratio",
                r.cache.extent_hits as f64 / r.cache.extent_lookups.max(1) as f64,
                "ratio",
            ),
            (
                "cache.ra_useful_ratio",
                r.cache.ra_used as f64 / r.cache.ra_inserted.max(1) as f64,
                "ratio",
            ),
            (
                "disk.media_ops_per_req",
                r.disk.media_ops as f64 / reqs,
                "count",
            ),
            ("hdc.hits_per_req", r.hdc.read_hits as f64 / reqs, "count"),
            ("client.p99_us", percentile(&lat, 99.0) / 1e3, "us"),
            ("workload.generate_s", generate_s, "s"),
            ("planner.plan_s", plan_s, "s"),
            ("system.new_s", new_s, "s"),
            ("sim_ns_per_req", sim_ns_per_req, "ns"),
            ("array.split_ns", split_ns, "ns"),
            ("controller.read_probe_ns", read_probe_ns, "ns"),
            ("controller.write_probe_ns", write_probe_ns, "ns"),
            ("sched.push_pop_ns", sched_ns, "ns"),
            ("mechanics.service_ns", mech_ns, "ns"),
            ("calendar.event_ns", cal_ns, "ns"),
            ("bus.reserve_ns", bus_ns, "ns"),
            ("system.glue_ns_per_req", glue, "ns"),
            ("hdc.hit_ratio", r.hdc.hit_rate(), "ratio"),
            (
                "hdc.write_hits_per_req",
                r.hdc.write_hits as f64 / reqs,
                "count",
            ),
            (
                "for.bitmap_scans_per_req",
                r.bitmap_scans as f64 / reqs,
                "count",
            ),
            (
                "bus.wait_frac",
                r.bus_wait.as_nanos() as f64 / bus_time.max(1.0),
                "ratio",
            ),
            (
                "disk.load_imbalance",
                busy.iter().cloned().fold(0.0, f64::max) / mean_busy.max(1.0),
                "ratio",
            ),
        ],
        problems: Vec::new(),
    })
}
