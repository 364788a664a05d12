//! The perf harness: a fixed set of hot-path microbenches (caches and
//! the simulator's per-layer primitives), the file-server layout's
//! set-up passes (ns per logical block), server-clone generation (ns
//! per disk request), HDC planning, plus end-to-end `fig3`- and
//! `fig5`-point simulations and the benchmark's sim-web and sim-file
//! runs, timed with plain wall clocks and emitted as machine-readable
//! JSON (`BENCH_*.json`).
//!
//! ```text
//! perf [--fast] [--json PATH]
//! perf cmp OLD.json NEW.json [--fail-below RATIO]
//!
//!   --fast             CI smoke mode: fewer repetitions, small batches
//!   --json PATH        write the results as JSON to PATH
//!
//!   cmp OLD NEW        the one comparison of two BENCH files: one
//!                      `name<TAB>old_ns<TAB>new_ns<TAB>speedup` row
//!                      per bench present in both, no timing reruns.
//!                      With --fail-below R, exits 1 if any common
//!                      bench's speedup falls below R.
//! ```
//!
//! Arguments parse through [`forhdc_trace::Args`], as in every tool:
//! an unknown flag or a bad value exits 2 with the usage text. A new
//! mode is a positional subcommand like `cmp`.
//!
//! Each bench runs a *fixed work quantum* and reports the best-of-R
//! nanoseconds per operation, so two runs on the same machine are
//! directly comparable. The newest committed `BENCH_PR*.json` at the
//! repo root is the baseline the CI gate compares against; the older
//! ones record the trajectory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use forhdc_bench::RunOptions;
use forhdc_cache::{
    BlockCache, BlockReplacement, ControllerCache, HdcRegion, SegmentCache, SegmentReplacement,
};
use forhdc_core::{plan_top_misses, System, SystemConfig};
use forhdc_host::BufferCache;
use forhdc_layout::{build_disk_bitmaps, check_bitmap_consistency, FileId, LayoutBuilder};
use forhdc_runner::point_seed;
use forhdc_sim::sched::{QueuedOp, Scheduler};
use forhdc_sim::{
    DiskConfig, DiskMechanics, LaneCalendar, LogicalBlock, PhysBlock, ReadWrite, SchedulerKind,
    SimDuration, SimTime, StripingMap,
};
use forhdc_trace::{outln, Args};
use forhdc_workload::{ServerWorkloadSpec, SyntheticWorkload};

/// One bench result: best-of-R mean nanoseconds per operation.
#[derive(Debug, Clone)]
struct BenchResult {
    name: &'static str,
    ns_per_op: f64,
    ops: u64,
}

struct Harness {
    fast: bool,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Times `ops(n)` (which must perform `n` operations) over `reps`
    /// repetitions and records the best mean ns/op.
    fn bench<F: FnMut(u64) -> u64>(&mut self, name: &'static str, batch: u64, mut ops: F) {
        let (reps, batch) = if self.fast {
            (2, batch / 8 + 1)
        } else {
            (5, batch)
        };
        // Warm-up pass (untimed): page in code and data.
        std::hint::black_box(ops(batch.min(1_000)));
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(ops(batch));
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            best = best.min(ns);
        }
        outln!("{name:<40} {best:>12.1} ns/op  ({batch} ops)");
        self.results.push(BenchResult {
            name,
            ns_per_op: best,
            ops: batch,
        });
    }
}

fn bench_block_cache(h: &mut Harness, policy: BlockReplacement, name: &'static str) {
    h.bench(name, 200_000, |n| {
        let mut cache = BlockCache::new(1024, policy);
        for i in 0..n {
            cache.insert_run(PhysBlock::new(i * 8 % 16_384), 8, 4);
            cache.touch(PhysBlock::new(i * 8 % 16_384));
        }
        cache.resident_blocks() as u64
    });
}

fn bench_block_cache_touch_hot(h: &mut Harness) {
    // Pure touch over a resident working set: the per-I/O hit path.
    h.bench("block_cache/touch_hot", 2_000_000, |n| {
        let mut cache = BlockCache::new(1024, BlockReplacement::Mru);
        for i in 0..1024u64 {
            cache.insert_run(PhysBlock::new(i), 1, 1);
        }
        let mut hits = 0u64;
        for i in 0..n {
            hits += cache.touch(PhysBlock::new(i * 31 % 1_024)) as u64;
        }
        hits
    });
}

fn bench_block_cache_for_miss_runs(h: &mut Harness) {
    // The file-server clone's FOR miss: one demanded block and eight
    // read-ahead blocks at a scattered start, into a full cache that
    // nothing hits, so every op evicts nine blocks.
    h.bench("block_cache/for_miss_runs", 200_000, |n| {
        let mut cache = BlockCache::new(1024, BlockReplacement::Mru);
        cache.insert_run(PhysBlock::new(1 << 23), 1024, 1024);
        for i in 0..n {
            let start = i.wrapping_mul(0x9E37_79B9) % (1 << 22);
            cache.insert_run(PhysBlock::new(start), 9, 1);
        }
        cache.resident_blocks() as u64
    });
}

fn bench_buffer_cache(h: &mut Harness) {
    // Mixed hit/miss stream over a 16 K-block cache with a 24 K-block
    // footprint (two-thirds hit rate, like a warm host cache).
    h.bench("buffer_cache/access", 1_000_000, |n| {
        let mut bc = BufferCache::new(16_384);
        let mut hits = 0u64;
        for i in 0..n {
            let block = LogicalBlock::new(i * 7 % 24_576);
            hits += bc.access(block, ReadWrite::Read).is_hit() as u64;
        }
        hits
    });
}

fn bench_segment_cache(h: &mut Harness) {
    h.bench("segment_cache/insert_touch", 200_000, |n| {
        let mut cache = SegmentCache::new(27, 32, SegmentReplacement::Lru);
        for i in 0..n {
            cache.insert_run(PhysBlock::new(i * 32 % 65_536), 32, 4);
            cache.touch(PhysBlock::new(i * 32 % 65_536));
        }
        cache.resident_blocks() as u64
    });
    h.bench("segment_cache/touch_hot", 2_000_000, |n| {
        let mut cache = SegmentCache::new(27, 32, SegmentReplacement::Lru);
        for i in 0..27u64 {
            cache.insert_run(PhysBlock::new(i * 32), 32, 32);
        }
        let mut hits = 0u64;
        for i in 0..n {
            hits += cache.touch(PhysBlock::new(i * 13 % 864)) as u64;
        }
        hits
    });
}

fn bench_hdc(h: &mut Harness) {
    h.bench("hdc/write_flush_cycle", 20_000, |n| {
        let mut hdc = HdcRegion::new(512);
        for i in 0..512u64 {
            hdc.pin(PhysBlock::new(i)).unwrap();
        }
        let mut flushed = 0u64;
        for i in 0..n {
            // Dirty a small rotating subset, then flush: the periodic
            // sync pattern (most pinned blocks are clean each period).
            for j in 0..8u64 {
                hdc.write(PhysBlock::new((i * 8 + j) % 512));
            }
            flushed += hdc.flush().len() as u64;
        }
        flushed
    });
}

fn bench_hdc_read_probe(h: &mut Harness) {
    // The controller's per-block HDC check on the read path: 512
    // blocks pinned across the disk, and reads of which nine in ten
    // find nothing pinned.
    h.bench("hdc/read_probe", 2_000_000, |n| {
        let mut hdc = HdcRegion::new(512);
        for i in 0..512u64 {
            hdc.pin(PhysBlock::new(i * 8_191)).unwrap();
        }
        let mut hits = 0u64;
        for i in 0..n {
            let block = if i % 10 == 0 {
                i / 10 % 512 * 8_191
            } else {
                i * 7_919 % (1 << 22) + 1
            };
            hits += hdc.read(PhysBlock::new(block)) as u64;
        }
        hits
    });
}

fn bench_mechanics(h: &mut Harness) {
    // One 4-block read at a pseudo-random position: seek, rotation and
    // transfer of the default disk.
    let cfg = DiskConfig::default();
    h.bench("mechanics/service_4blk", 2_000_000, |n| {
        let mut mech = DiskMechanics::new(&cfg);
        let mut i = 0u64;
        let mut acc = 0u64;
        for _ in 0..n {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let block = PhysBlock::new(i % 4_000_000);
            let now = SimTime::from_nanos(i % 1_000_000);
            acc = acc.wrapping_add(
                mech.service(ReadWrite::Read, block, 4, now)
                    .total()
                    .as_nanos(),
            );
        }
        acc
    });
}

fn bench_scheduler(h: &mut Harness) {
    // One op: fill the engine's LOOK scheduler with 64 scattered ops,
    // then drain it following the head.
    h.bench("scheduler/look_push_pop_64", 50_000, |n| {
        let mut s = Scheduler::new(SchedulerKind::Look);
        let mut acc = 0u64;
        for _ in 0..n {
            for i in 0..64u64 {
                s.push(QueuedOp {
                    token: i,
                    start: PhysBlock::new(i * 997 % 100_000),
                    nblocks: 4,
                    requested: 4,
                    kind: ReadWrite::Read,
                    cylinder: (i * 997 % 10_000) as u32,
                    queued_at: SimTime::ZERO,
                    attempt: 0,
                });
            }
            let mut head = 5_000;
            while let Some(op) = s.pop_next(head) {
                head = op.cylinder;
            }
            acc += head as u64;
        }
        acc
    });
}

fn bench_striping(h: &mut Harness) {
    // A 64-block request split over 8 disks with a 32-block unit, into
    // a reused buffer as the issue path does.
    let map = StripingMap::new(8, 32);
    h.bench("striping/split_64blk", 2_000_000, |n| {
        let mut out = Vec::new();
        let mut acc = 0u64;
        for i in 0..n {
            map.split_into(LogicalBlock::new(i * 12_345 % 1_000_000), 64, &mut out);
            acc += out.len() as u64;
        }
        acc
    });
}

fn bench_calendar(h: &mut Harness) {
    // One op: 1,000 pop/push pairs on the event queue in steady state,
    // driven through its laned interface: 8 disk lanes with one
    // completion each in flight, every popped completion re-armed on
    // its lane, and one in 16 also scheduling a lane-less event (a
    // retry). The queue ignores the lanes.
    const LANES: usize = 8;
    const HEAP: usize = usize::MAX;
    h.bench("calendar/push_pop_1k", 2_000, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let mut c = LaneCalendar::with_lanes(LANES);
            for lane in 0..LANES {
                c.schedule_lane(lane, SimTime::from_nanos(lane as u64 * 100), lane);
            }
            let mut x = 1u64;
            for i in 0..1_000u64 {
                let fired = c.pop().expect("lanes stay armed");
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let delta = SimDuration::from_nanos(1_000 + (x >> 33) % 10_000);
                if fired.event != HEAP {
                    c.schedule_lane(fired.event, fired.time + delta, fired.event);
                }
                if i % 16 == 0 {
                    c.schedule(fired.time + delta + delta, HEAP);
                }
                acc = acc.wrapping_add(fired.time.as_nanos());
            }
        }
        acc
    });
}

/// Times `pass` (best of 3, or 1 with `--fast`) and records the best
/// wall time per `unit` under `name`, for `ops` units of work a pass.
fn bench_pass<T>(
    h: &mut Harness,
    name: &'static str,
    unit: &str,
    ops: u64,
    mut pass: impl FnMut() -> T,
) {
    let reps = if h.fast { 1 } else { 3 };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(pass());
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    outln!("{name:<40} {best:>12.1} ns/{unit}  ({ops} {unit}s)");
    h.results.push(BenchResult {
        name,
        ns_per_op: best,
        ops,
    });
}

/// Times full runs of `cfg` over `wl`, per request.
fn bench_system(
    h: &mut Harness,
    name: &'static str,
    wl: &forhdc_workload::Workload,
    cfg: impl Fn() -> SystemConfig,
) {
    bench_pass(h, name, "req", wl.trace.len() as u64, || {
        System::new(cfg(), wl).run().io_time
    });
}

/// Times one synthetic-workload point under FOR, built as `experiment`'s
/// plan builds its `row`: 16-KByte files, 128 streams and the
/// builder's Zipf alpha of 0.4 (fig3's point and fig5's alpha-0.4
/// row). Both modes run half the paper's request count: per-request
/// cost has a fixed setup component, so shrinking the run in fast mode
/// would make its numbers incomparable to a full-mode baseline.
fn bench_e2e(h: &mut Harness, name: &'static str, experiment: &str, row: usize) {
    let wl = SyntheticWorkload::builder()
        .requests(RunOptions::default().synthetic_requests / 2)
        .files(20_000)
        .file_blocks(4)
        .streams(128)
        .seed(point_seed(experiment, row))
        .build();
    bench_system(h, name, &wl, SystemConfig::for_);
}

/// Times the benchmark's sim workload run: the clone `spec` (seed 42)
/// under FOR with a 2-MByte HDC on a `unit`-byte striping unit, per
/// request. Only `System::run` is timed; planning and assembly stay
/// outside.
fn bench_e2e_sim(h: &mut Harness, name: &'static str, spec: ServerWorkloadSpec, unit: u32) {
    let wl = spec.with_seed(42).generate().workload;
    let cfg = SystemConfig::for_()
        .with_hdc(2 << 20)
        .with_striping_unit(unit);
    let striping = StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());
    let plan = plan_top_misses(&wl.trace, &striping, cfg.hdc_blocks());
    let requests = wl.trace.len() as u64;
    let reps = if h.fast { 1 } else { 3 };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let sys = System::with_plan(cfg.clone(), &wl, plan.clone());
        let t = Instant::now();
        std::hint::black_box(sys.run());
        best = best.min(t.elapsed().as_nanos() as f64 / requests as f64);
    }
    outln!("{name:<40} {best:>12.1} ns/req  ({requests} reqs)");
    h.results.push(BenchResult {
        name,
        ns_per_op: best,
        ops: requests,
    });
}

fn bench_layout(h: &mut Harness) {
    // The file-server clone's layout (30,000 files, ~3.9 M blocks):
    // building it from the file sizes, building the default FOR
    // array's bitmaps from it, and the checked-mode recomputation of
    // those bitmaps.
    let spec = ServerWorkloadSpec::file_server().scale(0.01);
    let layout = spec.generate().workload.layout;
    let sizes: Vec<u32> = (0..layout.file_count())
        .map(|f| layout.file_blocks(FileId::new(f)) as u32)
        .collect();
    let blocks = layout.total_blocks();
    bench_pass(h, "layout/build_file_server", "blk", blocks, || {
        LayoutBuilder::new()
            .fragmentation(spec.fragmentation)
            .seed(spec.seed)
            .build(&sizes)
    });
    let cfg = SystemConfig::for_();
    let striping = StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());
    let capacity = cfg.array.disk.geometry.capacity_blocks();
    bench_pass(h, "layout/bitmaps_file_server", "blk", blocks, || {
        build_disk_bitmaps(&layout, &striping, capacity)
    });
    let bitmaps = build_disk_bitmaps(&layout, &striping, capacity);
    bench_pass(h, "layout/check_file_server", "blk", blocks, || {
        check_bitmap_consistency(&layout, &striping, &bitmaps)
            .expect("builder output is consistent")
    });
}

fn bench_generate(h: &mut Harness) {
    // Generating the simulator benchmark's clones (Web clone at scale
    // 4, file-server clone at scale 2): sizes, layout, popularity and
    // the trace; per disk request generated.
    let clones = [
        (
            "workload/generate_web",
            ServerWorkloadSpec::web().scale(4.0),
        ),
        (
            "workload/generate_file_server",
            ServerWorkloadSpec::file_server().scale(2.0),
        ),
    ];
    for (name, spec) in clones {
        let requests = spec.generate().workload.trace.len() as u64;
        bench_pass(h, name, "req", requests, || spec.generate());
    }
}

fn bench_planner(h: &mut Harness) {
    // HDC planning as the simulator benchmark's clones run it (Web
    // clone at scale 4 on a 16-KByte unit, file-server clone at scale 2
    // on a 128-KByte unit, 2-MByte HDC): access counts, then each
    // disk's hottest blocks; per block the trace touches.
    let clones = [
        (
            "planner/top_misses_web",
            ServerWorkloadSpec::web().scale(4.0),
            16,
        ),
        (
            "planner/top_misses_file_server",
            ServerWorkloadSpec::file_server().scale(2.0),
            128,
        ),
    ];
    for (name, spec, unit_kib) in clones {
        let trace = spec.generate().workload.trace;
        let touched = trace.block_access_counts().distinct();
        let cfg = SystemConfig::for_()
            .with_hdc(2 << 20)
            .with_striping_unit(unit_kib << 10);
        let striping =
            StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());
        bench_pass(h, name, "blk", touched, || {
            plan_top_misses(&trace, &striping, cfg.hdc_blocks())
        });
    }
}

fn to_json(results: &[BenchResult], fast: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if fast { "fast" } else { "full" }
    ));
    s.push_str("  \"benches\": {");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {{\"ns_per_op\": {:.1}, \"ops\": {}}}",
            r.name, r.ns_per_op, r.ops
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Minimal extraction of `"name": {"ns_per_op": X, ...}` pairs from a
/// previous run's `benches` section (hand-rolled like the writer; no
/// serde — relies on the one-entry-per-line shape [`to_json`] emits).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut in_benches = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"benches\"") {
            in_benches = true;
            continue;
        }
        if !in_benches {
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        let Some(rest) = t.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(idx) = rest.find("\"ns_per_op\": ") else {
            continue;
        };
        let num: String = rest[idx + "\"ns_per_op\": ".len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Dispatches on the first word. `Err` is a usage error (exit 2); a
/// runtime failure prints its own diagnostic and returns exit 1.
fn run() -> Result<ExitCode, String> {
    let args = Args::from_env(&["fast", "help"]);
    if args.set("help") || args.positional().iter().any(|p| p == "-h") {
        outln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    match args.positional() {
        [] => bench_main(&args),
        [cmd, ..] if cmd == "cmp" => cmp_main(&args),
        [other, ..] => Err(format!("unknown command '{other}'")),
    }
}

/// `perf [--fast] [--json PATH]`: runs every bench.
fn bench_main(args: &Args) -> Result<ExitCode, String> {
    let fast = args.set("fast");
    let json_path = args.get("json").map(PathBuf::from);
    args.finish()?;

    let mut h = Harness {
        fast,
        results: Vec::new(),
    };
    bench_block_cache(
        &mut h,
        BlockReplacement::Mru,
        "block_cache/mru_insert_touch",
    );
    bench_block_cache(
        &mut h,
        BlockReplacement::Lru,
        "block_cache/lru_insert_touch",
    );
    bench_block_cache_touch_hot(&mut h);
    bench_block_cache_for_miss_runs(&mut h);
    bench_buffer_cache(&mut h);
    bench_segment_cache(&mut h);
    bench_hdc(&mut h);
    bench_hdc_read_probe(&mut h);
    bench_mechanics(&mut h);
    bench_scheduler(&mut h);
    bench_striping(&mut h);
    bench_calendar(&mut h);
    bench_layout(&mut h);
    bench_generate(&mut h);
    bench_planner(&mut h);
    bench_e2e(&mut h, "e2e/fig3_point_for", "fig3", 5); // row 5 = 16-KByte files
    bench_e2e(&mut h, "e2e/fig5_point_for", "fig5", 2); // row 2 = alpha 0.4
    bench_e2e_sim(
        &mut h,
        "e2e/sim_web_run",
        ServerWorkloadSpec::web().scale(4.0),
        16 << 10,
    );
    bench_e2e_sim(
        &mut h,
        "e2e/sim_file_run",
        ServerWorkloadSpec::file_server().scale(2.0),
        128 << 10,
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&h.results, fast)) {
            eprintln!("error: could not write {}: {e}", path.display());
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `perf cmp OLD NEW [--fail-below R]`: compares two BENCH files
/// without rerunning anything. Prints one tab-separated row per bench
/// present in both files — `name old_ns new_ns speedup` — so CI and
/// scripts can gate on it without ad-hoc JSON surgery.
fn cmp_main(args: &Args) -> Result<ExitCode, String> {
    // Speedups are positive, so the default floor never fails.
    let floor = args.positive("fail-below", 0.0)?;
    args.finish()?;
    let [_, old_path, new_path] = args.positional() else {
        return Err("cmp needs exactly two BENCH files".into());
    };
    let mut sides = Vec::new();
    for p in [old_path, new_path] {
        match std::fs::read_to_string(p) {
            Ok(text) => {
                let parsed = parse_baseline(&text);
                if parsed.is_empty() {
                    eprintln!("error: no benches found in {p}");
                    return Ok(ExitCode::FAILURE);
                }
                sides.push(parsed);
            }
            Err(e) => {
                eprintln!("error: could not read {p}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let (old, new) = (&sides[0], &sides[1]);
    let mut regressed = false;
    for (name, old_ns) in old {
        let Some((_, new_ns)) = new.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let speedup = old_ns / new_ns;
        outln!("{name}\t{old_ns:.1}\t{new_ns:.1}\t{speedup:.2}");
        if speedup < floor {
            regressed = true;
            eprintln!("error: {name} speedup {speedup:.2}x below the floor");
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

const USAGE: &str =
    "usage: perf [--fast] [--json PATH]\n       perf cmp OLD.json NEW.json [--fail-below RATIO]";
