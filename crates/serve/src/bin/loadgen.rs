//! `loadgen` — closed-loop load generator for `serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--levels 1,2,4,8] [--requests N] [--seed S]
//!         [--alpha A] [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
//!         [--verify] [--scrape] [--shutdown] [--json FILE]
//!         [--dump-flight FILE]
//! ```
//!
//! Fetches the array metadata over the wire (`META`), then sweeps the
//! given concurrency levels with the closed-loop client of
//! [`forhdc_serve::client`]: at each level the request budget is split
//! across that many connections, each reading whole Zipf-drawn files
//! back to back. A fixed `--seed` reproduces the identical request
//! sequence, and the printed schedule digest makes that checkable from
//! the outside. One table row per level: throughput, per-outcome
//! counts, and p50/p95/p99/p99.9 latency from the shared power-of-two
//! histogram. Every issued request ends in exactly one outcome, and
//! the JSON report re-checks `issued == ok + errors` as a conservation
//! total. `--retries` arms client-side retries for the transient
//! outcomes (offline, overload, reset, draining).
//!
//! `--scrape` additionally fetches the server's `METRICS` exposition
//! before and after each level and takes the per-level delta of the
//! server-side READ latency histogram — same power-of-two bucket
//! geometry, so the distributions merge losslessly with the client's
//! own — adding `srv_p50ms`/`srv_p99ms` columns and a merged
//! server-side summary to the JSON report. `--dump-flight FILE` saves
//! the server's flight-recorder JSONL (a `DUMP` frame) after the
//! sweep.

use std::process::ExitCode;

use forhdc_fault::RetryPolicy;
use forhdc_metrics::histogram_delta;
use forhdc_serve::client::{
    fetch_frame, run_level, scrape_metrics, LevelResult, Outcomes, Target, EO_LABELS, EO_MEDIA,
    EO_OFFLINE, EO_OVERLOAD, EO_RESET, EO_TIMEOUT,
};
use forhdc_serve::protocol::Request;
use forhdc_trace::{out, outln, Args, PowerHistogram, Quantiles};

const USAGE: &str = "\
loadgen — closed-loop load generator for serve

  loadgen --addr HOST:PORT [--levels 1,2,4,8] [--requests N] [--seed S]
          [--alpha A] [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
          [--verify] [--scrape] [--shutdown] [--json FILE]
          [--dump-flight FILE]
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
    let args = Args::from_env(&["verify", "shutdown", "scrape"])?;
    match args.positional().first() {
        None => sweep(&args),
        Some(chaos) if chaos == "chaos" => Err(
            "unexpected argument 'chaos': the chaos harness is forhdc_serve::chaos, run by \
             `cargo test -p forhdc-serve --test e2e chaos`"
                .into(),
        ),
        Some(other) => Err(format!("unexpected argument '{other}'")),
    }
}

fn sweep(args: &Args) -> Result<(), String> {
    let addr = args.required("addr")?.to_string();
    let levels = parse_levels(&args.flag("levels", String::from("1,2,4,8"))?)?;
    let requests: u64 = args.flag("requests", 2000u64)?;
    let seed: u64 = args.flag("seed", 42u64)?;
    let alpha: f64 = args.flag("alpha", 0.4f64)?;
    let verify = args.set("verify");
    let scrape = args.set("scrape");
    let shutdown = args.set("shutdown");
    let json_path = args.get("json");
    let flight_path = args.get("dump-flight");
    // `--retries 0` (the default) keeps every failure a final outcome.
    let policy = RetryPolicy {
        max_retries: args.flag("retries", 0u32)?,
        backoff_base_ns: args.flag("backoff-ms", 25u64)?.saturating_mul(1_000_000),
        backoff_cap_ns: args
            .flag("backoff-cap-ms", 400u64)?
            .saturating_mul(1_000_000),
        deadline_ns: None,
    };
    args.finish()?;

    let target = Target::open(&addr, alpha)?;
    let meta = &target.meta;
    outln!(
        "loadgen: {} files x {} blocks, alpha={alpha}, seed={seed}, {} requests/level",
        meta.files,
        meta.file_blocks,
        requests
    );
    out!(
        "{:>5} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "conc",
        "requests",
        "ok",
        "media",
        "offl",
        "tmo",
        "shed",
        "rst",
        "secs",
        "rps",
        "p50ms",
        "p95ms",
        "p99ms",
        "p99.9ms",
        "maxms",
        "meanms"
    );
    if scrape {
        out!(" {:>9} {:>9}", "srv_p50ms", "srv_p99ms");
    }
    outln!();
    let mut results = Vec::new();
    let mut digest_all = 0u64;
    let mut totals = Outcomes::default();
    let mut server_merged = PowerHistogram::new();
    for &conc in &levels {
        let before = if scrape {
            Some(scrape_server_read_hist(&addr)?)
        } else {
            None
        };
        let mut r = run_level(&target, conc, requests, seed, verify, policy)?;
        if let Some(before) = &before {
            let after = scrape_server_read_hist(&addr)?;
            let delta = histogram_delta(&after, before);
            server_merged.merge(&delta);
            r.server = Some(delta.quantiles());
        }
        digest_all ^= r.digest;
        totals.merge(&r.outcomes);
        out!(
            "{:>5} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8.2} {:>9.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.conc,
            r.requests,
            r.outcomes.ok,
            r.outcomes.errs[EO_MEDIA],
            r.outcomes.errs[EO_OFFLINE],
            r.outcomes.errs[EO_TIMEOUT],
            r.outcomes.errs[EO_OVERLOAD],
            r.outcomes.errs[EO_RESET],
            r.secs,
            r.rps(),
            ms(r.latency.p50_ns),
            ms(r.latency.p95_ns),
            ms(r.latency.p99_ns),
            ms(r.latency.p999_ns),
            ms(r.latency.max_ns),
            ms(r.latency.mean_ns),
        );
        if let Some(srv) = &r.server {
            out!(" {:>9.2} {:>9.2}", ms(srv.p50_ns), ms(srv.p99_ns));
        }
        outln!();
        results.push(r);
    }
    outln!("schedule digest: 0x{digest_all:016x}");
    outln!(
        "conservation: issued={} ok={} errors={} balanced={}",
        totals.issued(),
        totals.ok,
        totals.errors(),
        totals.issued() == totals.ok + totals.errors(),
    );

    if let Some(path) = json_path {
        let server = scrape.then(|| server_merged.quantiles());
        let json = results_json(&results, digest_all, &totals, server.as_ref());
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = flight_path {
        let dump = fetch_frame(&addr, &Request::Dump, "dump")?;
        std::fs::write(path, &dump).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "loadgen: wrote {} bytes of flight-recorder JSONL to {path}",
            dump.len()
        );
    }
    if shutdown {
        fetch_frame(&addr, &Request::Shutdown, "shutdown")?;
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn parse_levels(spec: &str) -> Result<Vec<u32>, String> {
    let mut levels = Vec::new();
    for part in spec.split(',') {
        let n: u32 = part
            .trim()
            .parse()
            .map_err(|e| format!("--levels '{part}': {e}"))?;
        if n == 0 {
            return Err("--levels entries must be >= 1".into());
        }
        levels.push(n);
    }
    if levels.is_empty() {
        return Err("--levels must name at least one concurrency level".into());
    }
    Ok(levels)
}

/// Scrapes the server's `METRICS` exposition and reconstructs the
/// cumulative server-side READ latency histogram.
fn scrape_server_read_hist(addr: &str) -> Result<PowerHistogram, String> {
    let scrape = scrape_metrics(addr)?;
    scrape
        .histogram("forhdc_op_latency_ns", &[("op", "read")])?
        .ok_or_else(|| "server metrics lack forhdc_op_latency_ns{op=\"read\"}".to_string())
}

/// The error buckets as a JSON object, in [`EO_LABELS`] order.
fn errors_json(o: &Outcomes) -> String {
    let fields: Vec<String> = EO_LABELS
        .iter()
        .zip(o.errs)
        .map(|(label, n)| format!("\"{label}\": {n}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn level_json(r: &LevelResult) -> String {
    let server_part = match &r.server {
        Some(q) => format!(", \"server_latency\": {}", q.to_json()),
        None => String::new(),
    };
    format!(
        "{{\"conc\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \"retries\": {}, \
         \"secs\": {:.3}, \"rps\": {:.1}, \"latency\": {}{}}}",
        r.conc,
        r.requests,
        r.outcomes.ok,
        errors_json(&r.outcomes),
        r.outcomes.retries,
        r.secs,
        r.rps(),
        r.latency.to_json(),
        server_part,
    )
}

fn results_json(
    results: &[LevelResult],
    digest: u64,
    totals: &Outcomes,
    server: Option<&Quantiles>,
) -> String {
    let mut s = String::from("{\n  \"levels\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            level_json(r),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    if let Some(q) = server {
        s.push_str(&format!("  \"server\": {},\n", q.to_json()));
    }
    s.push_str(&format!(
        "  \"conservation\": {{\"issued\": {}, \"ok\": {}, \"errors\": {}, \"retries\": {}, \
         \"balanced\": {}}},\n",
        totals.issued(),
        totals.ok,
        totals.errors(),
        totals.retries,
        totals.issued() == totals.ok + totals.errors(),
    ));
    s.push_str(&format!("  \"digest\": \"0x{digest:016x}\"\n}}\n"));
    s
}
