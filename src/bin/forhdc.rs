//! `forhdc` — run the disk-array simulator on generated or imported
//! workloads.
//!
//! ```text
//! forhdc generate <web|proxy|file|synthetic> [--scale X] [--requests N] [--out DIR]
//!     Generate a workload clone and write trace.txt + layout.txt.
//!
//! forhdc simulate --trace FILE --layout FILE [options]
//!     Replay a trace through the array and print the report.
//!       --policy segm|block|no-ra|for|track   (default segm)
//!       --hdc KB          per-disk host-guided cache (default 0)
//!       --unit KB         striping unit (default 128)
//!       --streams N       concurrent streams (default 128)
//!       --sched look|fcfs|sstf|clook          (default look)
//!       --flush-secs S    periodic flush_hdc() interval
//!
//! forhdc inspect --trace FILE
//!     Print trace statistics (footprint, write %, popularity head).
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;

use forhdc::core::{System, SystemConfig};
use forhdc::sim::{SchedulerKind, SimDuration};
use forhdc::workload::io::{read_layout, read_trace, write_layout, write_trace};
use forhdc::workload::stats::summarize;
use forhdc::workload::{ServerWorkloadSpec, SyntheticWorkload, Workload};
use forhdc_trace::{out, outln, Args};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("run `forhdc help` for usage");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::from_env(&[])?;
    match args.positional().first().map(String::as_str) {
        Some("generate") => generate(&args),
        Some("simulate") => simulate(&args),
        Some("inspect") => inspect(&args),
        Some("help") | None => {
            out!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

const USAGE: &str = "\
forhdc — FOR/HDC disk-array simulator

  forhdc generate <web|proxy|file|synthetic> [--scale X] [--requests N] [--out DIR]
  forhdc simulate --trace FILE --layout FILE [--policy P] [--hdc KB] [--unit KB]
                  [--streams N] [--sched S] [--flush-secs T]
  forhdc inspect  --trace FILE
";

fn generate(args: &Args) -> Result<(), String> {
    let kind = args
        .positional()
        .get(1)
        .ok_or("generate needs a workload kind (web|proxy|file|synthetic)")?;
    let scale: f64 = args.flag("scale", 1.0)?;
    let out = PathBuf::from(args.flag("out", String::from("."))?);
    // Only the synthetic kind reads `--requests`; `finish` rejects it
    // on any other kind.
    let requests: usize = if kind == "synthetic" {
        args.flag("requests", 10_000)?
    } else {
        0
    };
    args.finish()?;
    let workload: Workload = match kind.as_str() {
        "web" => ServerWorkloadSpec::web().scale(scale).generate().workload,
        "proxy" => ServerWorkloadSpec::proxy().scale(scale).generate().workload,
        "file" => {
            ServerWorkloadSpec::file_server()
                .scale(scale)
                .generate()
                .workload
        }
        "synthetic" => SyntheticWorkload::builder().requests(requests).build(),
        other => return Err(format!("unknown workload kind '{other}'")),
    };
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let trace_path = out.join("trace.txt");
    let layout_path = out.join("layout.txt");
    write_trace(
        &workload.trace,
        BufWriter::new(File::create(&trace_path).map_err(|e| e.to_string())?),
    )
    .map_err(|e| e.to_string())?;
    write_layout(
        &workload.layout,
        BufWriter::new(File::create(&layout_path).map_err(|e| e.to_string())?),
    )
    .map_err(|e| e.to_string())?;
    outln!("{}", summarize(&workload.trace, 4096));
    outln!(
        "wrote {} and {}",
        trace_path.display(),
        layout_path.display()
    );
    outln!("suggested streams: {}", workload.streams);
    Ok(())
}

fn simulate(args: &Args) -> Result<(), String> {
    let trace_path = args.required("trace")?;
    let layout_path = args.required("layout")?;
    let streams: u32 = args.flag("streams", 128)?;
    let mut cfg = match args.flag("policy", String::from("segm"))?.as_str() {
        "segm" => SystemConfig::segm(),
        "block" => SystemConfig::block(),
        "no-ra" => SystemConfig::no_ra(),
        "for" => SystemConfig::for_(),
        "track" => SystemConfig::partial_track(),
        other => return Err(format!("unknown policy '{other}'")),
    };
    cfg = cfg
        .with_hdc(args.flag("hdc", 0u64)? * 1024)
        .with_striping_unit(args.flag("unit", 128u32)? * 1024);
    cfg = match args.flag("sched", String::from("look"))?.as_str() {
        "look" => cfg.with_scheduler(SchedulerKind::Look),
        "fcfs" => cfg.with_scheduler(SchedulerKind::Fcfs),
        "sstf" => cfg.with_scheduler(SchedulerKind::Sstf),
        "clook" => cfg.with_scheduler(SchedulerKind::Clook),
        other => return Err(format!("unknown scheduler '{other}'")),
    };
    if let Some(secs) = args.get("flush-secs") {
        let secs: u64 = secs.parse().map_err(|e| format!("--flush-secs: {e}"))?;
        cfg = cfg.with_hdc_flush_period(SimDuration::from_secs(secs));
    }
    args.finish()?;
    let trace = read_trace(BufReader::new(
        File::open(trace_path).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    let layout = read_layout(BufReader::new(
        File::open(layout_path).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    let workload = Workload {
        name: "imported".into(),
        layout,
        trace,
        streams,
    };
    let report = System::new(cfg, &workload).run();
    outln!("{report}");
    Ok(())
}

fn inspect(args: &Args) -> Result<(), String> {
    let trace_path = args.required("trace")?;
    args.finish()?;
    let trace = read_trace(BufReader::new(
        File::open(trace_path).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    outln!("{}", summarize(&trace, 4096));
    outln!("jobs: {}", trace.job_count());
    let head = trace.popularity_curve(10);
    outln!("hottest blocks (accesses): {head:?}");
    Ok(())
}
