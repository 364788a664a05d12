//! `serve` — the live TCP serving front-end.
//!
//! ```text
//! serve mkdisk --dir DIR [--disks N] [--files N] [--file-blocks N]
//!              [--unit BLOCKS] [--seed S] [--frag Q] [--mirror 1]
//!     Create a deterministic disk-image directory (one image per
//!     array disk plus a meta.txt manifest). --mirror 1 builds a
//!     RAID1/0 array: disks pair up as identical replicas
//!     (2v, 2v+1) striped over the pairs; --disks must be even.
//!
//! serve run --dir DIR [--port P] [--threads N] [--policy P] [--hdc KB]
//!           [--stats-secs S] [--port-file F] [--report F] [--max-conns N]
//!           [--metrics-addr HOST:PORT] [--metrics-port-file F]
//!           [--faults seed=S,media=R,offline=SPEC] [--deadline-ms MS]
//!           [--retries N] [--backoff-ms MS] [--max-queue N]
//!           [--max-inflight N] [--rebuild-mbps N]
//!     Serve file reads from the images through the FOR/HDC stack.
//!       --port 0 picks an ephemeral port; --port-file writes the
//!       bound port for scripts. --metrics-addr binds a side HTTP
//!       listener answering GET /metrics with Prometheus text
//!       exposition (--metrics-port-file writes its bound port).
//!       --faults injects a deterministic fault schedule: per-block
//!       media errors at rate R (pure in (seed, disk, block)) and
//!       wall-clock per-disk offline windows (SPEC is
//!       DISK@START_MS+LEN_MS entries joined by ';'). --retries and
//!       --backoff-ms shape the bounded recovery of faulted media
//!       reads; --deadline-ms fails a request `ERR Timeout` instead of
//!       spending retries past its deadline. --max-queue sheds at a
//!       per-disk queue bound, --max-inflight at a server-wide READ
//!       bound; both answer `ERR Overload`. On a mirrored array,
//!       reads split over each replica pair, fail over to the
//!       surviving twin when a member is offline or bad, and a
//!       REBUILD frame (or clearing an offline window) streams a
//!       twin→member copy paced to --rebuild-mbps (0 = unpaced).
//!       The server runs until a client sends SHUTDOWN — or SIGTERM /
//!       SIGINT arrives — then drains, dumps the flight recorder on a
//!       signal, and prints a JSON report. A panic in any serving
//!       thread prints a structured report plus a flight-recorder
//!       dump to stderr before the thread dies.
//! ```

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use forhdc_core::ReadAheadKind;
use forhdc_fault::{parse_offline_spec, FaultConfig, RetryPolicy};
use forhdc_serve::engine::LiveOpts;
use forhdc_serve::image::{create_images, open_dir, DiskMeta};
use forhdc_serve::server::{run as run_server, termination_flag, ServerOpts};
use forhdc_serve::Engine;
use forhdc_trace::{out, outln, Args};

const USAGE: &str = "\
serve — live TCP front-end for the FOR/HDC disk-array stack

  serve mkdisk --dir DIR [--disks N] [--files N] [--file-blocks N]
               [--unit BLOCKS] [--seed S] [--frag Q] [--mirror 1]
  serve run    --dir DIR [--port P] [--threads N]
               [--policy segm|block|no-ra|for|track] [--hdc KB]
               [--stats-secs S] [--port-file F] [--report F] [--max-conns N]
               [--metrics-addr HOST:PORT] [--metrics-port-file F]
               [--faults seed=S,media=R,offline=DISK@START_MS+LEN_MS;...]
               [--deadline-ms MS] [--retries N] [--backoff-ms MS]
               [--max-queue N] [--max-inflight N] [--rebuild-mbps N]
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

fn run() -> Result<(), String> {
    let args = Args::from_env(&[])?;
    match args.positional().first().map(String::as_str) {
        Some("mkdisk") => mkdisk(&args),
        Some("run") => serve(&args),
        Some("help") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn mkdisk(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.required("dir")?);
    let meta = DiskMeta {
        block_bytes: 4096,
        disks: args.flag("disks", 4u16)?,
        unit_blocks: args.flag("unit", 32u32)?,
        files: args.flag("files", 512u32)?,
        file_blocks: args.flag("file-blocks", 8u32)?,
        seed: args.flag("seed", 42u64)?,
        fragmentation: args.flag("frag", 0.0f64)?,
        disk_blocks: 0,
        mirrored: args.flag("mirror", 0u32)? != 0,
    };
    args.finish()?;
    let meta = create_images(&dir, &meta)?;
    outln!(
        "wrote {} images of {} blocks ({} files x {} blocks{}) under {}",
        meta.disks,
        meta.disk_blocks,
        meta.files,
        meta.file_blocks,
        if meta.mirrored { ", mirrored" } else { "" },
        dir.display()
    );
    Ok(())
}

fn parse_policy(name: &str) -> Result<ReadAheadKind, String> {
    match name {
        "segm" => Ok(ReadAheadKind::BlindSegment),
        "block" => Ok(ReadAheadKind::BlindBlock),
        "no-ra" => Ok(ReadAheadKind::None),
        "for" => Ok(ReadAheadKind::For),
        "track" => Ok(ReadAheadKind::PartialTrack),
        other => Err(format!(
            "unknown policy '{other}' (want segm|block|no-ra|for|track)"
        )),
    }
}

/// Parses `--faults seed=S,media=R,offline=SPEC` (comma-joined
/// `key=value` entries, each optional).
fn parse_faults(spec: &str) -> Result<FaultConfig, String> {
    let mut cfg = FaultConfig::new(42);
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("--faults entry '{part}': want key=value"))?;
        match k {
            "seed" => cfg.seed = v.parse().map_err(|e| format!("--faults seed: {e}"))?,
            "media" => {
                let rate: f64 = v.parse().map_err(|e| format!("--faults media: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--faults media={rate}: rate outside [0, 1]"));
                }
                cfg.read_error_rate = rate;
            }
            "offline" => {
                cfg.offline = parse_offline_spec(v).map_err(|e| format!("--faults {e}"))?
            }
            other => {
                return Err(format!(
                    "--faults key '{other}' (want seed, media, offline)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// Installs SIGTERM/SIGINT handlers that flip the server's termination
/// flag. The handler body is async-signal-safe (one atomic store); the
/// supervise loop does the actual drain/dump/report. Raw `signal(2)`
/// through the C ABI keeps the repo dependency-free.
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        termination_flag().store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn serve(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.required("dir")?);
    let policy = parse_policy(&args.flag("policy", String::from("for"))?)?;
    let hdc_kb: u64 = args.flag("hdc", 0u64)?;
    let port: u16 = args.flag("port", 0u16)?;
    let opts = ServerOpts {
        accept_threads: args.flag("threads", 2usize)?.max(1),
        max_conns: args.flag("max-conns", 256usize)?.max(1),
        stats_secs: args.flag("stats-secs", 0u64)?,
        max_inflight: args.flag("max-inflight", 0usize)?,
    };
    let faults = match args.get("faults") {
        Some(spec) => Some(parse_faults(spec)?),
        None => None,
    };
    let recovery = RetryPolicy {
        max_retries: args.flag("retries", 3u32)?,
        backoff_base_ns: args.flag("backoff-ms", 2u64)?.saturating_mul(1_000_000),
        backoff_cap_ns: 200_000_000,
        deadline_ns: match args.flag("deadline-ms", 0u64)? {
            0 => None,
            ms => Some(ms.saturating_mul(1_000_000)),
        },
    };
    let live = LiveOpts {
        faults,
        recovery,
        max_queue: args.flag("max-queue", 0u32)?,
        rebuild_mbps: args.flag("rebuild-mbps", 0u64)?,
    };
    let port_file = args.get("port-file");
    let metrics_addr = args.get("metrics-addr");
    let metrics_port_file = args.get("metrics-port-file");
    let report_path = args.get("report");
    args.finish()?;
    let meta = open_dir(&dir)?;
    let hdc_blocks = (hdc_kb * 1024 / meta.block_bytes as u64) as u32;
    let engine = Engine::open_with(&dir, meta, policy, hdc_blocks, live)?;
    install_panic_hook(&engine);
    install_signal_handlers();
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(path) = port_file {
        let mut f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        writeln!(f, "{}", bound.port()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let metrics_listener = match metrics_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let maddr = l.local_addr().map_err(|e| format!("local_addr: {e}"))?;
            if let Some(path) = metrics_port_file {
                let mut f =
                    std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                writeln!(f, "{}", maddr.port()).map_err(|e| format!("write {path}: {e}"))?;
            }
            eprintln!("serve: metrics on http://{maddr}/metrics");
            Some(l)
        }
        None => None,
    };
    eprintln!(
        "serve: listening on {bound} policy={} hdc={}KB images={}",
        engine.policy().label(),
        hdc_kb,
        dir.display()
    );
    let report = run_server(engine, listener, metrics_listener, &opts)?;
    if let Some(path) = report_path {
        std::fs::write(path, &report).map_err(|e| format!("write {path}: {e}"))?;
    }
    out!("{report}");
    Ok(())
}

/// Installs a process-wide panic hook that writes a structured report
/// and a flight-recorder dump to stderr before the default hook's
/// backtrace. A panicking connection thread dies alone; a panic on the
/// main thread still exits the process non-zero afterwards.
fn install_panic_hook(engine: &Engine) {
    let metrics = std::sync::Arc::clone(engine.metrics());
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        let location = info
            .location()
            .map(|l| l.to_string())
            .unwrap_or_else(|| "<unknown>".to_string());
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        eprintln!(
            "serve: PANIC in thread '{}' at {location}: {message}",
            thread.name().unwrap_or("<unnamed>")
        );
        let dump = metrics.flight.dump_jsonl();
        eprintln!(
            "serve: flight recorder dump ({} events, reason: panic) begin",
            dump.lines().count()
        );
        eprint!("{dump}");
        eprintln!("serve: flight recorder dump end");
        default_hook(info);
    }));
}
