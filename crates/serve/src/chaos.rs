//! The fault-tolerance harness: a child `serve` crashed, restarted and
//! probed while closed-loop clients ([`crate::client`]) keep reading.
//!
//! [`chaos`] spawns `serve run` on an image directory and runs:
//!
//! 1. **Phase A (baseline):** one burst of [`REQUESTS`] over
//!    `CONNECTIONS` connections.
//! 2. **Phase B (killed):** the same burst, SIGKILLed once `KILL_AT`
//!    of its requests have settled, and restarted on the same port. The
//!    rest of the burst rides through: resets are retried, and the
//!    reconnects reach the restarted server.
//! 3. **Probes** on the cold restarted server, one per error code,
//!    injected through `FAULT` frames: a planted bad block (media), every
//!    disk offline, every disk stalled past the deadline (timeout), and
//!    every admission slot held during a stall (overload).
//! 4. **Phase M (degraded; mirrored arrays only):** replica 1 offline
//!    for a whole burst, then cleared, which rebuilds it from its twin.
//! 5. **Phase C (recovered):** the burst again on fresh connections,
//!    then a clean SHUTDOWN.
//!
//! The harness fails with `Err` when it cannot drive the server (a
//! spawn, connect or admin frame fails), when phase M or C falls below
//! `THROUGHPUT_FLOOR` of phase A's throughput, or when a rebuild
//! never completes. Everything else it measured is returned in
//! the [`ChaosReport`] for the caller to judge. Each server life keeps
//! its own clock, so a `--faults` offline window opens once in each.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use forhdc_fault::RetryPolicy;

use crate::client::{fetch_frame, run_level, scrape_metrics, Conn, LevelResult, Outcomes, Target};
use crate::protocol::{parse_error, ErrorCode, Request, ST_ERR, ST_OK};

/// Seed of phase A's schedule; phases B, C and M use `SEED + 1`, `+ 2`
/// and `+ 3`.
const SEED: u64 = 42;
/// Zipf popularity exponent of every phase.
const ALPHA: f64 = 0.4;
/// Requests per phase.
pub const REQUESTS: u64 = 300;
/// Closed-loop connections per phase.
const CONNECTIONS: u32 = 8;
/// The server's `--max-inflight`; the overload probe holds every slot.
const MAX_INFLIGHT: usize = 4;
/// The server's `--deadline-ms`; the stalls of the timeout and
/// overload probes outlast it.
const DEADLINE_MS: u64 = 600;
/// The server's `--rebuild-mbps` for phase M's rebuild.
const REBUILD_MBPS: u64 = 64;
/// When the SIGKILL lands, as the fraction of phase B's requests
/// settled by then.
const KILL_AT: f64 = 0.4;
/// The lowest phase throughput accepted, as a fraction of phase A's.
/// At 300 requests phase A lasts milliseconds while later phases pay
/// wall-clock backoff, so only a collapse is a failure.
const THROUGHPUT_FLOOR: f64 = 0.02;
/// Client-side retries: enough capped backoff (about 1.2 s in all) to
/// ride through the restart.
const RETRY: RetryPolicy = RetryPolicy {
    max_retries: 6,
    backoff_base_ns: 25_000_000,
    backoff_cap_ns: 400_000_000,
    deadline_ns: None,
};

/// The replica phase M takes offline: the twin of disk 0, so every
/// pair keeps a survivor.
const MIRROR_MEMBER: u16 = 1;

/// What differs between chaos runs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Image directory (`serve mkdisk`); plain or mirrored.
    pub dir: PathBuf,
    /// The `serve` binary.
    pub serve_bin: PathBuf,
    /// `serve run --faults` schedule, applied to both server lives.
    pub faults: Option<String>,
}

/// How the server answered one probe READ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// `OK` with the payload.
    Ok,
    /// `ERR` with this code.
    Err(ErrorCode),
    /// Any other status, or an `ERR` without a known code.
    Status(u8),
}

/// Everything a chaos run measured.
#[derive(Debug)]
pub struct ChaosReport {
    /// Phase A, the baseline burst.
    pub baseline: LevelResult,
    /// Phase B, with the SIGKILL and restart inside it.
    pub killed: LevelResult,
    /// Phase M, with replica 1 offline (mirrored arrays only).
    pub degraded: Option<LevelResult>,
    /// Phase C, after the probes.
    pub recovered: LevelResult,
    /// The answer to each probe, indexed by the [`ErrorCode::index`]
    /// of the code it provokes.
    pub probes: [Answer; 4],
    /// The restarted server's `forhdc_errors_total` after phase C, by
    /// [`ErrorCode::index`].
    pub errors_total: [u64; 4],
    /// `forhdc_failover_reads_total` of replica 1 after phase M.
    pub failovers: u64,
    /// `forhdc_rebuild_blocks_total` once replica 1's rebuild ended.
    pub rebuilt_blocks: u64,
    /// Every phase's outcomes, merged.
    pub conservation: Outcomes,
    /// The server's exit status after SHUTDOWN.
    pub shutdown: ExitStatus,
}

/// A `serve run` child process, SIGKILLed on drop unless reaped.
#[derive(Debug)]
pub struct ChildServer {
    child: Option<Child>,
    port: u16,
    /// `127.0.0.1:PORT`.
    pub addr: String,
}

impl ChildServer {
    /// Spawns `serve_bin run --dir DIR --port PORT ARGS...` and waits
    /// until it answers `PING`. The child writes its bound port to
    /// `DIR/port`, its final report to `DIR/report.json`, and appends
    /// its stderr to `DIR/serve.log`.
    pub fn spawn(
        serve_bin: &Path,
        dir: &Path,
        port: u16,
        args: &[&str],
    ) -> Result<ChildServer, String> {
        let port_file = dir.join("port");
        let log_path = dir.join("serve.log");
        let _ = std::fs::remove_file(&port_file);
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("open {}: {e}", log_path.display()))?;
        let child = Command::new(serve_bin)
            .arg("run")
            .arg("--dir")
            .arg(dir)
            .args(["--port", &port.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--report")
            .arg(dir.join("report.json"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))?;
        let mut server = ChildServer {
            child: Some(child),
            port,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if server.addr.is_empty() {
                let bound = std::fs::read_to_string(&port_file)
                    .ok()
                    .and_then(|text| text.trim().parse().ok());
                if let Some(p) = bound {
                    server.port = p;
                    server.addr = format!("127.0.0.1:{p}");
                }
            }
            if !server.addr.is_empty() && fetch_frame(&server.addr, &Request::Ping, "ping").is_ok()
            {
                return Ok(server);
            }
            let exited = server.child.as_mut().and_then(|c| c.try_wait().ok()?);
            if let Some(status) = exited {
                return Err(format!(
                    "serve exited {status} before answering PING (see {})",
                    log_path.display()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "serve not answering PING after 20 s (see {})",
                    log_path.display()
                ));
            }
            thread::sleep(Duration::from_millis(20));
        }
    }

    /// The child's process id, until it is reaped.
    pub fn id(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// SIGKILLs and reaps the child.
    fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Waits for the child to exit on its own.
    pub fn wait(&mut self) -> Result<ExitStatus, String> {
        self.child
            .take()
            .ok_or_else(|| "server already reaped".to_string())?
            .wait()
            .map_err(|e| format!("wait for serve: {e}"))
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Sends one admin frame and requires the server to accept it.
fn admin(addr: &str, req: Request) -> Result<(), String> {
    fetch_frame(addr, &req, &format!("{req:?}")).map(drop)
}

/// Sends the admin frame `make(d)` for every disk `d`.
fn on_every_disk(addr: &str, disks: u16, make: impl Fn(u16) -> Request) -> Result<(), String> {
    (0..disks).try_for_each(|d| admin(addr, make(d)))
}

/// One whole-file READ on a fresh connection.
fn probe_read(addr: &str, file: u32, nblocks: u32) -> Result<Answer, String> {
    let (st, body) = Conn::open(addr)?
        .call(&Request::Read {
            file,
            offset: 0,
            nblocks,
        })
        .map_err(|e| format!("probe read: {e}"))?;
    Ok(match st {
        ST_OK => Answer::Ok,
        ST_ERR => parse_error(&body).0.map_or(Answer::Status(st), Answer::Err),
        _ => Answer::Status(st),
    })
}

/// Fails when `phase` ran below `THROUGHPUT_FLOOR` of `baseline`.
fn above_floor(what: &str, phase: &LevelResult, baseline: &LevelResult) -> Result<(), String> {
    if phase.rps() < THROUGHPUT_FLOOR * baseline.rps() {
        return Err(format!(
            "{what} throughput {:.0} rps fell below {THROUGHPUT_FLOOR} x baseline {:.0} rps",
            phase.rps(),
            baseline.rps()
        ));
    }
    Ok(())
}

/// Runs the harness; see the [module docs](self).
pub fn chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    let (deadline, inflight, rebuild) = (
        DEADLINE_MS.to_string(),
        MAX_INFLIGHT.to_string(),
        REBUILD_MBPS.to_string(),
    );
    let mut args = vec![
        "--deadline-ms",
        &deadline,
        "--max-inflight",
        &inflight,
        "--rebuild-mbps",
        &rebuild,
    ];
    if let Some(spec) = &cfg.faults {
        args.extend(["--faults", spec]);
    }
    let mut srv = ChildServer::spawn(&cfg.serve_bin, &cfg.dir, 0, &args)?;
    let target = Target::open(&srv.addr, ALPHA)?;
    let (addr, meta) = (target.addr.as_str(), &target.meta);
    if meta.files < 4 {
        return Err("chaos needs an array of at least 4 files".into());
    }
    let burst = |seed| run_level(&target, CONNECTIONS, REQUESTS, seed, false, RETRY);

    let baseline = burst(SEED)?;

    // Phase B: the kill and the same-port restart land mid-burst.
    let kill_at = target.settled() + (REQUESTS as f64 * KILL_AT) as u64;
    let (killed, mut srv) = thread::scope(|s| {
        let b = s.spawn(|| burst(SEED + 1));
        while target.settled() < kill_at && !b.is_finished() {
            thread::sleep(Duration::from_micros(200));
        }
        srv.kill();
        if b.is_finished() {
            let early = b
                .join()
                .map_err(|_| "phase B thread panicked".to_string())??;
            return Err(format!(
                "phase B ended before the SIGKILL: {:?}",
                early.outcomes
            ));
        }
        let restarted = ChildServer::spawn(&cfg.serve_bin, &cfg.dir, srv.port, &args);
        let killed = b
            .join()
            .map_err(|_| "phase B thread panicked".to_string())?;
        Ok::<_, String>((killed?, restarted?))
    })?;

    let (disks, nblocks) = (meta.disks, meta.file_blocks);
    let mut probes = [Answer::Ok; 4];

    // Media: a persistent bad block under the coldest file. Unmirrored,
    // the server's retries exhaust against it; mirrored, the twin
    // serves the read and the sector is repaired.
    let plant_file = meta.files - 1;
    admin(
        addr,
        Request::FaultPlant {
            file: plant_file,
            offset: 0,
        },
    )?;
    probes[ErrorCode::MediaError.index()] = probe_read(addr, plant_file, nblocks)?;

    // Offline: every disk down for the read, then back.
    on_every_disk(addr, disks, |disk| Request::FaultOffline {
        disk,
        ms: 60_000,
    })?;
    probes[ErrorCode::DiskOffline.index()] = probe_read(addr, 0, nblocks)?;
    on_every_disk(addr, disks, |disk| Request::FaultOffline { disk, ms: 0 })?;
    // Clearing cancels the admin window only; a `--faults` offline
    // schedule may still be open, so wait any residual window out.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match probe_read(addr, 0, nblocks)? {
            Answer::Ok => break,
            Answer::Err(ErrorCode::DiskOffline) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(50))
            }
            other => return Err(format!("read after clearing offline answered {other:?}")),
        }
    }

    // Timeout: every disk stalled past the deadline.
    let stall = |ms| move |disk| Request::FaultStall { disk, ms };
    on_every_disk(addr, disks, stall(DEADLINE_MS * 3))?;
    probes[ErrorCode::Timeout.index()] = probe_read(addr, 1, nblocks)?;
    on_every_disk(addr, disks, stall(0))?;

    // Overload: stall the disks again and fill every admission slot
    // with reads that sit in the stall; the probe must shed at once.
    on_every_disk(addr, disks, stall(DEADLINE_MS * 2))?;
    let holders: Vec<_> = (0..MAX_INFLIGHT)
        .map(|_| {
            let addr = addr.to_string();
            thread::spawn(move || probe_read(&addr, 2, nblocks))
        })
        .collect();
    thread::sleep(Duration::from_millis(DEADLINE_MS / 3));
    probes[ErrorCode::Overload.index()] = probe_read(addr, 3, nblocks)?;
    for h in holders {
        h.join()
            .map_err(|_| "overload holder panicked".to_string())??;
    }
    on_every_disk(addr, disks, stall(0))?;

    // Phase M: one replica offline must be invisible to clients, and
    // clearing the window rebuilds it from its twin under load.
    let (mut degraded, mut failovers, mut rebuilt_blocks) = (None, 0, 0);
    if meta.mirrored {
        let member = MIRROR_MEMBER.to_string();
        let offline = |ms| Request::FaultOffline {
            disk: MIRROR_MEMBER,
            ms,
        };
        admin(addr, offline(600_000))?;
        let m = burst(SEED + 3)?;
        above_floor("degraded", &m, &baseline)?;
        failovers = scrape_metrics(addr)?
            .counter("forhdc_failover_reads_total", &[("disk", &member)])
            .unwrap_or(0);
        // Clearing the window starts the rebuild; the REBUILD frame
        // then acknowledges it (or restarts a copy already done).
        admin(addr, offline(0))?;
        admin(
            addr,
            Request::Rebuild {
                disk: MIRROR_MEMBER,
            },
        )?;
        let deadline = Instant::now() + Duration::from_secs(60);
        rebuilt_blocks = loop {
            let s = scrape_metrics(addr)?;
            let progress = s
                .value("forhdc_rebuild_progress", &[("disk", &member)])
                .unwrap_or(-1.0);
            if progress >= 100.0 {
                break s.counter("forhdc_rebuild_blocks_total", &[]).unwrap_or(0);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "rebuild of disk {member} stuck at {progress}% after 60 s"
                ));
            }
            thread::sleep(Duration::from_millis(50));
        };
        degraded = Some(m);
    }

    let recovered = burst(SEED + 2)?;
    above_floor("post-recovery", &recovered, &baseline)?;

    let scrape = scrape_metrics(addr)?;
    let errors_total = ErrorCode::ALL.map(|code| {
        scrape
            .counter("forhdc_errors_total", &[("code", code.label())])
            .unwrap_or(0)
    });
    let mut conservation = Outcomes::default();
    for phase in [&baseline, &killed, &recovered]
        .into_iter()
        .chain(degraded.as_ref())
    {
        conservation.merge(&phase.outcomes);
    }

    admin(addr, Request::Shutdown)?;
    let shutdown = srv.wait()?;
    Ok(ChaosReport {
        baseline,
        killed,
        degraded,
        recovered,
        probes,
        errors_total,
        failovers,
        rebuilt_blocks,
        conservation,
        shutdown,
    })
}
