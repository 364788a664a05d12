//! `results.json`: per-workload, per-metric series of values across
//! rounds with their median and quartiles, and `agree`, which compares
//! two of them under the bounds `BENCHMARK.json` fixes.

use std::path::Path;

use crate::json::{quote, Json};

/// One metric's values across rounds.
pub struct Series {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

/// Per workload, in run order, its metrics in report order.
pub type Table = Vec<(String, Vec<Series>)>;

/// Median as Python's `statistics.median`.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Writes `table` with the run's settings as `results.json`.
pub fn write(path: &Path, settings: &[(&str, String)], table: &Table) -> Result<(), String> {
    let mut s = String::from("{\n");
    for (k, v) in settings {
        s.push_str(&format!("  {}: {v},\n", quote(k)));
    }
    s.push_str("  \"workloads\": {");
    for (wi, (w, metrics)) in table.iter().enumerate() {
        s.push_str(if wi == 0 { "\n" } else { ",\n" });
        s.push_str(&format!("    {}: {{", quote(w)));
        for (mi, m) in metrics.iter().enumerate() {
            let (q1, q3) = quartiles(&m.values);
            let values: Vec<String> = m.values.iter().map(|&v| num(v)).collect();
            s.push_str(if mi == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "      {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                quote(&m.name),
                quote(&m.unit),
                num(median(&m.values)),
                num(q1),
                num(q3),
                values.join(", ")
            ));
        }
        s.push_str("\n    }");
    }
    s.push_str("\n  }\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, s).map_err(|e| format!("write {}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A results directory's `results.json`, or the file itself.
fn results_path(p: &Path) -> std::path::PathBuf {
    if p.is_dir() {
        p.join("results.json")
    } else {
        p.to_path_buf()
    }
}

/// One side's summary of a metric: `(median, q1, q3)`.
type Stat = (f64, f64, f64);

/// The verdict on one (workload, metric) pair. A pair is
/// - a breach when B's median is worse than A's by more than `bound`
///   (a share of A's median) and either both sides are steady or even
///   B's better quartile is that much worse;
/// - unresolved when a side's quartile spread exceeds `bound` and the
///   pair is no breach;
/// - ok otherwise.
fn verdict(a: Stat, b: Stat, bound: f64, lower: bool) -> &'static str {
    let (med_a, med_b) = (a.0, b.0);
    // How much worse than A's median `x` is, as a share of it.
    let worse = |x: f64| {
        let change = (x - med_a) / med_a.abs();
        if lower {
            change
        } else {
            -change
        }
    };
    let spread = |(med, q1, q3): Stat| (q3 - q1) / med.abs();
    let best_b = if lower { b.1 } else { b.2 };
    let noisy = spread(a).max(spread(b)) > bound;
    if !worse(med_b).is_finite() || !worse(best_b).is_finite() {
        "BREACH (not comparable)"
    } else if worse(med_b) > bound && (!noisy || worse(best_b) > bound) {
        "BREACH"
    } else if noisy {
        "unresolved"
    } else {
        "ok"
    }
}

/// Compares run B against run A under the end-to-end bounds of `spec`:
/// prints a [`verdict`] for each bounded metric of each workload in A.
/// A pair missing from B is a breach. Returns whether there was no
/// breach.
pub fn agree(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(&results_path(a))?, load(&results_path(b))?);
    let spec = load(spec)?;
    let conns = |r: &Json| r.get("connections").and_then(Json::num);
    if conns(&ra) != conns(&rb) {
        return Err(format!(
            "refusing to compare: {} ran {:?} client connections, {} ran {:?}",
            a.display(),
            conns(&ra),
            b.display(),
            conns(&rb)
        ));
    }
    let bounds: Vec<(&str, f64, bool)> = spec
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.str()?,
                m.get("bound")?.num()?,
                m.get("better")?.str()? == "lower",
            ))
        })
        .collect();
    let empty = Default::default();
    let wa = ra.get("workloads").and_then(Json::obj).unwrap_or(&empty);
    let wb = rb.get("workloads").and_then(Json::obj).unwrap_or(&empty);
    println!(
        "{:<12} {:<10} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound"
    );
    let mut ok = true;
    let mut compared = 0;
    for (w, ma) in wa {
        for &(name, bound, lower) in &bounds {
            let Some(sa) = ma.get(name) else { continue };
            compared += 1;
            let Some(sb) = wb.get(w).and_then(|mb| mb.get(name)) else {
                ok = false;
                println!("{w:<12} {name:<10} missing from B  BREACH");
                continue;
            };
            let stat = |s: &Json, k: &str| s.get(k).and_then(Json::num).unwrap_or(f64::NAN);
            let stat3 = |s: &Json| (stat(s, "median"), stat(s, "q1"), stat(s, "q3"));
            let (a3, b3) = (stat3(sa), stat3(sb));
            let verdict = verdict(a3, b3, bound, lower);
            ok &= !verdict.starts_with("BREACH");
            println!(
                "{:<12} {:<10} {:>12.4} {:>25} {:>12.4} {:>25} {:>7.1}% {:>5.0}%  {verdict}",
                w,
                name,
                a3.0,
                format!("[{:.4}, {:.4}]", a3.1, a3.2),
                b3.0,
                format!("[{:.4}, {:.4}]", b3.1, b3.2),
                100.0 * (b3.0 - a3.0) / a3.0.abs(),
                100.0 * bound
            );
        }
    }
    if compared == 0 {
        return Err("A holds no bounded (workload, metric) pair".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(n=4) reference values.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let v = [3.0, 1.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(quartiles(&v), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn verdicts() {
        let a = (100.0, 95.0, 105.0);
        // Steady sides: the median decides.
        assert_eq!(verdict(a, (90.0, 88.0, 92.0), 0.25, false), "ok");
        assert_eq!(verdict(a, (70.0, 68.0, 72.0), 0.25, false), "BREACH");
        assert_eq!(verdict(a, (130.0, 128.0, 132.0), 0.25, true), "BREACH");
        // A wide spread leaves a borderline drop unresolved...
        assert_eq!(verdict(a, (70.0, 50.0, 90.0), 0.25, false), "unresolved");
        assert_eq!(
            verdict((100.0, 70.0, 110.0), (95.0, 94.0, 96.0), 0.25, false),
            "unresolved"
        );
        // ...but not a drop even B's better quartile shows.
        assert_eq!(verdict(a, (50.0, 30.0, 70.0), 0.25, false), "BREACH");
        assert_eq!(verdict(a, (200.0, 140.0, 260.0), 0.25, true), "BREACH");
        assert_eq!(
            verdict(a, (f64::NAN, 1.0, 2.0), 0.25, true),
            "BREACH (not comparable)"
        );
    }
}
