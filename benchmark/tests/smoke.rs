//! Smoke test: a tiny `run` and `trace` of every workload must print
//! every metric `BENCHMARK.json` names, with its unit; `agree` must
//! accept a run against itself and reject an `rps` drop 10 points
//! beyond the `rps` bound and a run that lacks A's workloads.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_forhdc-benchmark"))
        .args(args)
        .output()
        .expect("spawn forhdc-benchmark")
}

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// `(name, unit)` of every metric in one of the spec's lists.
fn metrics(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("metric list")
        .arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_printed(stdout: &str, workloads: &[String], wanted: &[(String, String)]) {
    for w in workloads {
        for (m, unit) in wanted {
            let found = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() == 4
                    && f[0] == w
                    && f[1] == m
                    && f[3] == unit
                    && f[2].parse::<f64>().is_ok()
            });
            assert!(found, "no `{w} {m} <value> {unit}` line in:\n{stdout}");
        }
    }
}

#[test]
fn smoke_run_trace_and_agree() {
    let spec = Json::parse(&std::fs::read_to_string(spec_path()).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json");
    let workloads: Vec<String> = spec
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name").to_string())
        .collect();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&tmp);
    let (a, b, t) = (tmp.join("a"), tmp.join("b"), tmp.join("trace"));
    let s = |p: &Path| p.to_str().expect("utf-8 path").to_string();

    let run = bench(&["run", "--smoke", "--rounds", "1", "--out", &s(&a)]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_printed(&stdout, &workloads, &metrics(&spec, "end_to_end"));

    let trace = bench(&["trace", "--smoke", "--out", &s(&t)]);
    let stdout = String::from_utf8_lossy(&trace.stdout);
    assert!(
        trace.status.success(),
        "trace failed:\n{}",
        String::from_utf8_lossy(&trace.stderr)
    );
    assert_printed(&stdout, &workloads, &metrics(&spec, "per_layer"));
    for w in &workloads {
        assert!(t.join(w).join("spans.jsonl").is_file(), "no spans for {w}");
    }

    let same = bench(&["agree", &s(&a), &s(&a)]);
    assert!(
        same.status.success(),
        "agree rejected a run against itself:\n{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // B: A with every workload's rps lower by the bound + 10 points.
    let bound = spec
        .get("end_to_end")
        .expect("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some("rps"))
        .and_then(|m| m.get("bound").and_then(Json::num))
        .expect("an rps bound");
    let factor = 1.0 - (bound + 0.1);
    let text = std::fs::read_to_string(a.join("results.json")).expect("read results");
    let slower: Vec<String> = text
        .lines()
        .map(|l| match l.trim_start().strip_prefix("\"rps\": ") {
            Some(obj) => {
                let v = Json::parse(obj.trim_end_matches(',')).expect("rps object");
                let x = |k| v.get(k).and_then(Json::num).expect("stat") * factor;
                let comma = if l.ends_with(',') { "," } else { "" };
                format!(
                    "\"rps\": {{\"unit\": \"1/s\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}{comma}",
                    x("median"),
                    x("q1"),
                    x("q3"),
                    x("median")
                )
            }
            None => l.to_string(),
        })
        .collect();
    std::fs::create_dir_all(&b).expect("mkdir");
    std::fs::write(b.join("results.json"), slower.join("\n")).expect("write results");
    let drop = bench(&["agree", &s(&a), &s(&b)]);
    let out = String::from_utf8_lossy(&drop.stdout);
    assert_eq!(
        drop.status.code(),
        Some(1),
        "agree accepted an rps drop past the bound:\n{out}"
    );
    assert!(out.contains("BREACH"), "{out}");

    // B: no workload at all, as when every run of B failed.
    let conns = Json::parse(&text)
        .expect("results")
        .get("connections")
        .and_then(Json::num)
        .expect("connections");
    let none = tmp.join("none");
    std::fs::create_dir_all(&none).expect("mkdir");
    std::fs::write(
        none.join("results.json"),
        format!("{{\"connections\": {conns}, \"workloads\": {{}}}}"),
    )
    .expect("write results");
    let missing = bench(&["agree", &s(&a), &s(&none)]);
    assert_eq!(
        missing.status.code(),
        Some(1),
        "agree accepted a B without A's workloads:\n{}",
        String::from_utf8_lossy(&missing.stdout)
    );
}
