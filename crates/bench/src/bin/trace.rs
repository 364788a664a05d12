//! Trace inspection: renders the JSONL traces a `repro --trace DIR`
//! run writes into human-readable diagnostics.
//!
//! ```text
//! trace <dir> [--top N]
//!
//!   dir      one experiment's trace directory (DIR/<experiment>/),
//!            holding one p<point>.jsonl file per curve point
//!   --top N  slowest requests to break down (default 5)
//! ```
//!
//! Prints three sections: the per-phase latency percentile table over
//! every point file, a per-disk utilization timeline from the point
//! with the most sampler coverage, and the N slowest requests with
//! their full span breakdowns.

use std::path::Path;
use std::process::ExitCode;

use forhdc_bench::tracefs;
use forhdc_trace::{
    outln, parse_jsonl, slowest_requests, utilization_timeline, Args, TraceEvent, TraceSummary,
};

/// Timeline width: one column per sampler bucket, capped to fit a
/// terminal next to the disk label.
const TIMELINE_COLS: usize = 24;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `Err` is a usage error (exit 2); a runtime failure prints its own
/// diagnostic and returns exit 1.
fn run() -> Result<ExitCode, String> {
    let args = Args::from_env(&["help"]);
    if args.set("help") || args.positional().iter().any(|p| p == "-h") {
        outln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let top = args.flag("top", 5usize)?;
    args.finish()?;
    let dir = match args.positional() {
        [] => return Err("no trace directory given".into()),
        [dir] => dir,
        [_, extra, ..] => return Err(format!("unexpected argument '{extra}'")),
    };
    let code = match report(Path::new(dir), top) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    Ok(code)
}

fn report(dir: &Path, top: usize) -> Result<(), String> {
    let files = tracefs::point_files(dir)?;
    if files.is_empty() {
        return Err(format!("no .jsonl trace files in {}", dir.display()));
    }
    // (file stem, events) per point, in point order.
    let mut points: Vec<(String, Vec<TraceEvent>)> = Vec::with_capacity(files.len());
    let mut merged = TraceSummary::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let events = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        merged.merge(&TraceSummary::from_events(&events));
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        points.push((stem, events));
    }
    outln!(
        "trace: {} ({} files, {} events, {} requests)\n",
        dir.display(),
        points.len(),
        merged.events,
        merged.requests
    );

    outln!("phase latency percentiles (ms)");
    outln!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase",
        "count",
        "p50",
        "p95",
        "p99",
        "max"
    );
    for p in merged.phase_percentiles() {
        outln!(
            "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            p.phase,
            p.count,
            ms(p.p50_ns),
            ms(p.p95_ns),
            ms(p.p99_ns),
            ms(p.max_ns)
        );
    }

    // The point with the most sampler events carries the richest
    // timeline; short points may have none at all.
    let Some(best) = points.iter().max_by_key(|(_, evs)| {
        evs.iter()
            .filter(|e| matches!(e, TraceEvent::Sample { .. }))
            .count()
    }) else {
        return Err(format!("no trace points in {}", dir.display()));
    };
    let timeline = utilization_timeline(&best.1, TIMELINE_COLS);
    if timeline.is_empty() {
        outln!("\nno sampler events (trace written without sampling?)");
    } else {
        // Per-disk injected-fault tallies (power losses are array-wide,
        // not chargeable to one disk, so they are excluded here).
        let mut disk_faults: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
        for ev in &best.1 {
            if let TraceEvent::Fault { disk, kind, .. } = ev {
                if *kind != forhdc_trace::FaultKind::PowerLoss {
                    *disk_faults.entry(*disk).or_insert(0) += 1;
                }
            }
        }
        outln!("\ndisk utilization timeline ({}, 0–100%)", best.0);
        for (disk, series) in timeline {
            let bars: String = series.iter().map(|&pm| bar(pm)).collect();
            let mean: u64 =
                series.iter().map(|&v| v as u64).sum::<u64>() / series.len().max(1) as u64;
            let faults = disk_faults.get(&disk).copied().unwrap_or(0);
            outln!(
                "  disk {disk:>2} |{bars}| mean {:>3}%  faults {faults:>4}",
                mean / 10
            );
        }
    }

    if top > 0 {
        // Rank across all points: slowest per point, then merged.
        let mut spans: Vec<(String, forhdc_trace::RequestSpan)> = Vec::new();
        for (stem, evs) in &points {
            for span in slowest_requests(evs, top) {
                spans.push((stem.clone(), span));
            }
        }
        spans.sort_by(|a, b| {
            b.1.response_ns
                .cmp(&a.1.response_ns)
                .then(a.0.cmp(&b.0))
                .then(a.1.req.cmp(&b.1.req))
        });
        spans.truncate(top);
        outln!("\nslowest {} requests", spans.len());
        for (stem, span) in &spans {
            outln!(
                "  {stem} req {:<6} response {:>9}  (issued at {})",
                span.req,
                ms(span.response_ns),
                ms(span.issued_ns)
            );
            for ev in &span.events {
                outln!("    {}", describe(ev));
            }
        }
    }
    Ok(())
}

/// Nanoseconds rendered as fixed-point milliseconds (3 decimals), so
/// columns align and the output is byte-stable.
fn ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, ns % 1_000_000 / 1_000)
}

/// One utilization bucket as a bar glyph (per-mille → 9 levels).
fn bar(pm: u32) -> char {
    const GLYPHS: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    GLYPHS[(pm.min(1000) as usize * (GLYPHS.len() - 1)).div_ceil(1000)]
}

/// One-line rendering of a span event for the slowest-request listing.
fn describe(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Issue {
            t,
            stream,
            start,
            nblocks,
            write,
            ..
        } => format!(
            "{} issue   stream {stream} {} block {start}+{nblocks}",
            ms(t),
            rw(write)
        ),
        TraceEvent::Probe { t, disk, result, .. } => {
            format!("{} probe   disk {disk} -> {}", ms(t), result.tag())
        }
        TraceEvent::Queue { t, disk, depth, .. } => {
            format!("{} queue   disk {disk} depth {depth}", ms(t))
        }
        TraceEvent::Media {
            t,
            disk,
            wait,
            seek,
            rotation,
            transfer,
            overhead,
            nblocks,
            read_ahead,
            write,
            ..
        } => format!(
            "{} media   disk {disk} {} {nblocks} blocks (+{read_ahead} ra) wait {} seek {} rot {} xfer {} ovh {}",
            ms(t),
            rw(write),
            ms(wait),
            ms(seek),
            ms(rotation),
            ms(transfer),
            ms(overhead)
        ),
        TraceEvent::Bus { t, wait, busy, bytes, .. } => {
            format!("{} bus     wait {} busy {} ({bytes} bytes)", ms(t), ms(wait), ms(busy))
        }
        TraceEvent::Complete { t, response, .. } => {
            format!("{} done    response {}", ms(t), ms(response))
        }
        TraceEvent::BufferLookup { t, block, write, hit } => format!(
            "{} buffer  {} block {block} {}",
            ms(t),
            rw(write),
            if hit { "hit" } else { "miss" }
        ),
        TraceEvent::Fault { t, disk, kind, .. } => {
            format!("{} fault   disk {disk} {}", ms(t), kind.tag())
        }
        TraceEvent::Retry { t, disk, attempt, delay, .. } => {
            format!(
                "{} retry   disk {disk} attempt {attempt} after {}",
                ms(t),
                ms(delay)
            )
        }
        TraceEvent::Timeout { t, .. } => format!("{} timeout request abandoned", ms(t)),
        TraceEvent::Sample { .. } => "sample".to_string(),
    }
}

fn rw(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

const USAGE: &str = "usage: trace <dir> [--top N]\n\n  dir      one experiment's trace directory (e.g. traces/fig3)\n  --top N  slowest requests to break down (default 5)";
