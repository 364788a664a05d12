//! forhdc-benchmark: one benchmark for both planes of forhdc — the live
//! server and the simulator — measured from outside through their
//! public APIs. See README.md.
//!
//! ```text
//! forhdc-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
//! forhdc-benchmark run   [--seed S] [--rounds N] [--seconds T] [--out DIR] [--smoke]
//! forhdc-benchmark trace [--seed S] [--seconds T] [--out DIR] [--smoke]
//! forhdc-benchmark agree A B
//! ```
//!
//! The first form measures one workload in this process and prints one
//! `workload metric value unit` line per metric, then a one-line JSON
//! result. `run` and `trace` run each workload in a child process of
//! that form and write `DIR/results.json`.

mod agree;
mod hist;
mod json;
mod live;
mod sim;
mod spans;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub use agree::median;
use agree::{Series, Table};
use json::{quote, Json};
use workloads::{workload, Workload, E2E, NAMES, PER_LAYER};

pub const DEFAULT_SEED: u64 = 42;
/// Default timed seconds per workload run (as `BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed correctness gates.
    pub problems: Vec<String>,
}

/// The benchmark's own directory (where the image cache and default
/// outputs live).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The shortest of `secs`, for timings of the same fixed work
/// repeated: other tenants of a shared host, cold caches and frequency
/// changes only ever slow the work, so the fastest repeat is the
/// steadiest estimate of its cost.
pub fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// This process's peak resident set, MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    pos: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pos = Vec::new();
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => {
                    flags.insert(a[2..].to_string(), String::new());
                }
                f if f.starts_with("--") => {
                    let v = it.next().ok_or_else(|| format!("{f} needs a value"))?;
                    flags.insert(f[2..].to_string(), v.clone());
                }
                _ => pos.push(a.clone()),
            }
        }
        Ok(Args { pos, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
            None => Ok(default),
        }
    }

    fn set(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.set("smoke") {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let s: f64 = self.get("seconds", default)?;
        if !(s > 0.0 && s <= 600.0) {
            return Err(format!("--seconds {s} outside (0, 600]"));
        }
        Ok(s)
    }

    fn out(&self, default: &str) -> PathBuf {
        self.flags
            .get("out")
            .map_or_else(|| bench_dir().join("target").join(default), PathBuf::from)
    }
}

const USAGE: &str = "usage:
  forhdc-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
  forhdc-benchmark run   [--seed S] [--rounds N] [--seconds T] [--out DIR] [--smoke]
  forhdc-benchmark trace [--seed S] [--seconds T] [--out DIR] [--smoke]
  forhdc-benchmark agree A B
workloads: live-hot live-cold live-mirror sim-web sim-file";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => Args::parse(&argv[1..]).and_then(|a| suite(&a, false)),
        Some("trace") => Args::parse(&argv[1..]).and_then(|a| suite(&a, true)),
        Some("agree") => Args::parse(&argv[1..]).and_then(|a| cmd_agree(&a)),
        _ => Args::parse(&argv).and_then(|a| one(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("forhdc-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Measures one workload in this process. Prints every metric as a
/// `workload metric value unit` line, then the one-line JSON result
/// with the end-to-end metrics (`--trace 0`) or the per-layer ones
/// (`--trace 1`). Returns whether every correctness gate passed.
fn one(args: &Args) -> Result<bool, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let smoke = args.set("smoke");
    let w = workload(name, smoke)
        .ok_or_else(|| format!("unknown workload '{name}' (want one of {NAMES:?})"))?;
    let seed: u64 = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let traced = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    let root = bench_dir().join("target");
    let out = args.out("trace");
    let mut o = match (&w, traced) {
        (Workload::Live(s), false) => live::e2e(s, seed, seconds, &root)?,
        (Workload::Live(s), true) => live::trace(s, seed, seconds, &root, &out)?,
        (Workload::Sim(s), false) => sim::e2e(s, seed, seconds, smoke)?,
        (Workload::Sim(s), true) => sim::trace(s, seed, seconds, &out)?,
    };
    let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &E2E };
    let mut json = Vec::new();
    for &(m, unit) in wanted {
        match o.metrics.iter().find(|x| x.0 == m) {
            Some(&(_, v, u)) if u == unit && v.is_finite() => json.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(m),
                quote(u)
            )),
            other => o.problems.push(format!(
                "metric {m} [{unit}] missing or not finite: {other:?}"
            )),
        }
    }
    for &(m, v, unit) in &o.metrics {
        println!("{} {m} {v} {unit}", w.name());
    }
    for p in &o.problems {
        eprintln!("{}: FAILED: {p}", w.name());
    }
    let correct = o.problems.is_empty() && o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        json.join(", ")
    );
    Ok(correct)
}

/// `run` (untraced, `--rounds` rounds in rotated workload order) and
/// `trace` (one traced round): each workload in a fresh child process.
fn suite(args: &Args, traced: bool) -> Result<bool, String> {
    let seed: u64 = args.get("seed", DEFAULT_SEED)?;
    let rounds: usize = if traced {
        1
    } else {
        args.get("rounds", 3usize)?
    };
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let seconds = args.seconds()?;
    let out = args.out(if traced { "trace" } else { "run" });
    let smoke = args.set("smoke");
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut table: Table = NAMES.iter().map(|n| (n.to_string(), Vec::new())).collect();
    let mut all_ok = true;
    for round in 0..rounds {
        for k in 0..NAMES.len() {
            let w = NAMES[(k + round) % NAMES.len()];
            eprintln!("== round {}/{rounds}: {w}", round + 1);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd.output().map_err(|e| format!("spawning {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let correct = result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
            if !child.status.success() || !correct {
                eprintln!("{w}: run failed ({}), result: {result:?}", child.status);
                all_ok = false;
                continue;
            }
            let metrics = &mut table.iter_mut().find(|(n, _)| n == w).expect("listed").1;
            for line in stdout.lines() {
                let f: Vec<&str> = line.split_whitespace().collect();
                let [wn, name, value, unit] = f[..] else {
                    continue;
                };
                let (true, Ok(v)) = (wn == w, value.parse::<f64>()) else {
                    continue;
                };
                match metrics.iter_mut().find(|m| m.name == name) {
                    Some(m) => m.values.push(v),
                    None => metrics.push(Series {
                        name: name.to_string(),
                        unit: unit.to_string(),
                        values: vec![v],
                    }),
                }
            }
        }
    }
    for (w, metrics) in &table {
        for m in metrics {
            println!("{w} {} {} {}", m.name, median(&m.values), m.unit);
        }
    }
    let settings = [
        ("kind", quote(if traced { "trace" } else { "run" })),
        ("seed", seed.to_string()),
        ("rounds", rounds.to_string()),
        ("seconds", seconds.to_string()),
        ("smoke", smoke.to_string()),
        ("connections", live::connections().to_string()),
    ];
    agree::write(&out.join("results.json"), &settings, &table)?;
    eprintln!("wrote {}", out.join("results.json").display());
    Ok(all_ok)
}

fn cmd_agree(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.pos[..] else {
        return Err("agree needs two results (directories or results.json files)".into());
    };
    let spec = bench_dir().join("..").join("BENCHMARK.json");
    agree::agree(Path::new(a), Path::new(b), &spec)
}
