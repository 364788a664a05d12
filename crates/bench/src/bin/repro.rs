//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! repro <experiment|all> [--jobs N] [--scale X] [--requests N] [--out DIR] [--trace DIR] [--check] [--timings]
//! repro fuzz [--iters N] [--seed S] [--out DIR]
//! repro replay FILE
//! repro --list
//!
//!   experiment   one of: table1 fig1 fig2 ... fig12 table2 fig-faults
//!                ablation-{sched,segrepl,blkrepl,segsize,coalesce,periodic,...}
//!   --jobs N     worker threads for sweep experiments (default 1);
//!                output is byte-identical for every N
//!   --scale X    server-clone request scale (default 1.0)
//!   --requests N synthetic request count (default 10000)
//!   --out DIR    CSV output directory (default results/)
//!   --trace DIR  write request-lifecycle traces to DIR/<id>/p<point>.jsonl
//!                (deterministic for every --jobs N)
//!   --check      run every point under the invariant auditor
//!                (reports stay byte-identical)
//!   --timings    print a per-experiment timing table after the run
//!   --list       print the experiment ids, one per line
//!
//!   fuzz         randomized invariant fuzzing: each iteration draws a
//!                config + workload, cross-checks checked/traced/faulted
//!                runs, shrinks the first failure, and writes a
//!                reproducer JSON under <out>/repros/
//!   replay FILE  re-run a reproducer; exits 0 iff it still fails
//! ```
//!
//! Arguments parse through [`forhdc_trace::Args`]: an unknown flag or
//! a bad value exits 2 with the usage text, a runtime failure exits 1.
//!
//! Every experiment runs as independent jobs on a worker pool and
//! reassembles in deterministic point order, so `--jobs 8` produces the
//! same bytes as a serial run. Each run writes `<out>/manifest.json`
//! with per-experiment timings and job counts.
//!
//! A job that panics does not bring the run down: the failure is
//! recorded in the manifest, sibling jobs complete, no table or CSV is
//! emitted for the broken experiment, and the process exits non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

use forhdc_bench::{experiments, RunOptions};
use forhdc_runner::{PhaseTimings, RunManifest, Runner};
use forhdc_trace::{outln, Args};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage_text());
            ExitCode::from(2)
        }
    }
}

/// Dispatches on the first word. `Err` is a usage error (exit 2); a
/// runtime failure prints its own diagnostic and returns exit 1.
fn run() -> Result<ExitCode, String> {
    let args = Args::from_env(&["check", "timings", "list", "help"]);
    if args.set("help") || args.positional().iter().any(|p| p == "-h") {
        outln!("{}", usage_text());
        return Ok(ExitCode::SUCCESS);
    }
    match args.positional().first().map(String::as_str) {
        Some("fuzz") => fuzz_main(&args),
        Some("replay") => replay_main(&args),
        _ => experiments_main(&args),
    }
}

/// `repro <experiment|all> ...` and `repro --list`.
fn experiments_main(args: &Args) -> Result<ExitCode, String> {
    let defaults = RunOptions::default();
    let opts = RunOptions {
        scale: args.positive("scale", defaults.scale)?,
        synthetic_requests: args.positive("requests", defaults.synthetic_requests)?,
        check: args.set("check"),
        // Leaked once per process so RunOptions stays Copy.
        trace_dir: args
            .get("trace")
            .map(|d| &*Box::leak(d.to_string().into_boxed_str())),
        ..defaults
    };
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));
    let jobs = args.positive("jobs", 1usize)?;
    let timings = args.set("timings");
    let list = args.set("list");
    args.finish()?;
    if list {
        for id in experiments::ALL {
            outln!("{id}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let targets = args.positional();
    if targets.is_empty() {
        return Err("no experiment given".into());
    }
    let ids: Vec<&str> = if targets.iter().any(|t| t == "all") {
        experiments::ALL.to_vec()
    } else {
        let mut ids = Vec::new();
        for t in targets {
            if experiments::ALL.contains(&t.as_str()) || experiments::HIDDEN.contains(&t.as_str()) {
                ids.push(t.as_str());
            } else {
                return Err(format!("unknown experiment '{t}'"));
            }
        }
        ids
    };

    // Fail fast on an unwritable destination: one clean diagnostic
    // beats a full run that cannot land its outputs.
    if let Err(e) = forhdc_bench::tracefs::ensure_writable_dir(&out_dir) {
        eprintln!("error: output directory: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Some(root) = opts.trace_dir {
        if let Err(e) = forhdc_bench::tracefs::ensure_writable_dir(std::path::Path::new(root)) {
            eprintln!("error: trace directory: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }

    let runner = Runner::new(jobs);
    let mut manifest = RunManifest::new(jobs);
    let mut io_failed = false;
    for id in ids {
        let started = std::time::Instant::now();
        let plan = experiments::plan(id, opts);
        let plan_wall = started.elapsed();
        let sim_started = std::time::Instant::now();
        let (table, stats) = plan.run_with(&runner);
        if !stats.failures.is_empty() {
            eprintln!(
                "error: {id}: {} job(s) failed; no table written (details in {})",
                stats.failures.len(),
                out_dir.join("manifest.json").display()
            );
            io_failed = true;
        }
        manifest.record(&stats);
        let sim_wall = sim_started.elapsed();
        let emit_started = std::time::Instant::now();
        if let Some(table) = &table {
            outln!("{table}");
        }
        outln!(
            "({} finished in {:.1}s)\n",
            id,
            started.elapsed().as_secs_f64()
        );
        if let Some(root) = opts.trace_dir {
            let dir = std::path::Path::new(root).join(id);
            if dir.is_dir() {
                match forhdc_bench::tracefs::summarize_dir(&dir) {
                    Ok(summary) => {
                        manifest.attach_trace(id, summary);
                    }
                    Err(e) => {
                        eprintln!("error: summarizing trace {}: {e}", dir.display());
                        io_failed = true;
                    }
                }
            }
        }
        if let Some(table) = &table {
            if let Err(e) = table.write_csv(&out_dir) {
                eprintln!(
                    "error: could not write {}/{}.csv: {e}",
                    out_dir.display(),
                    id
                );
                io_failed = true;
            }
        }
        manifest.attach_phases(
            id,
            PhaseTimings {
                plan: plan_wall,
                sim: sim_wall,
                emit: emit_started.elapsed(),
            },
        );
    }
    if timings {
        outln!("{}", manifest.timings_table());
    }
    let manifest_path = out_dir.join("manifest.json");
    if let Err(e) = manifest.write(&manifest_path) {
        eprintln!("error: could not write {}: {e}", manifest_path.display());
        io_failed = true;
    }
    Ok(if io_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `repro fuzz [--iters N] [--seed S] [--out DIR]`: randomized
/// invariant fuzzing; exits non-zero iff a failure was found (after
/// shrinking it and writing a reproducer under `<out>/repros/`).
fn fuzz_main(args: &Args) -> Result<ExitCode, String> {
    let iters = args.positive("iters", 200u64)?;
    let seed = args.flag("seed", 1u64)?;
    let repro_dir = PathBuf::from(args.get("out").unwrap_or("results")).join("repros");
    args.finish()?;
    if let Some(extra) = args.positional().get(1) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let code = match forhdc_bench::fuzz::fuzz(iters, seed, &repro_dir) {
        Ok(outcome) => match outcome.failure {
            None => {
                outln!("fuzz: {iters} iteration(s) clean (seed {seed})");
                ExitCode::SUCCESS
            }
            Some((_, err, path)) => {
                eprintln!(
                    "fuzz: failure at iteration {} (seed {seed}):\n{err}\n\n\
                     shrunk reproducer written to {}\nre-run it with: repro replay {}",
                    outcome.clean,
                    path.display(),
                    path.display()
                );
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    Ok(code)
}

/// `repro replay FILE`: re-runs a reproducer. Exit 0 = the case still
/// fails (it reproduced); 1 = it now passes; 2 = unreadable file.
fn replay_main(args: &Args) -> Result<ExitCode, String> {
    args.finish()?;
    let [_, file] = args.positional() else {
        return Err("replay needs exactly one reproducer file".into());
    };
    let code = match forhdc_bench::fuzz::replay(std::path::Path::new(file)) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Ok(Err(err)) => {
            outln!("reproduced:\n{err}");
            ExitCode::SUCCESS
        }
        Ok(Ok(())) => {
            eprintln!("did not reproduce: the case now passes");
            ExitCode::FAILURE
        }
    };
    Ok(code)
}

fn usage_text() -> String {
    format!(
        "usage: repro <experiment|all> [--jobs N] [--scale X] [--requests N] [--out DIR] [--trace DIR] [--check] [--timings]\n       repro fuzz [--iters N] [--seed S] [--out DIR]\n       repro replay FILE\n       repro --list\n\nexperiments: {}",
        experiments::ALL.join(" ")
    )
}
