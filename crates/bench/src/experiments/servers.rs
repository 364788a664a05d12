//! Figure 2, Figures 7–12 and Table 2: the real-workload-clone
//! evaluation (§6.3).
//!
//! The striping and HDC sweeps are [`PlannedExperiment`]s: one job per
//! (grid point, configuration) pair sharing a single lazily generated
//! server-clone workload. Table 2 keeps one coarse job per server —
//! its best-unit argmin makes the per-unit runs data-dependent, so
//! splitting them would triple the simulation count for no latency win.

use forhdc_analytic::zipf_cumulative;
use forhdc_core::{System, SystemConfig};
use forhdc_runner::{JobOutput, JobSpec, SimJob};
use forhdc_workload::{ServerKind, ServerWorkloadSpec, Workload};

use crate::plan::{run_system, shared, sim_job, PlannedExperiment, SharedWorkload};
use crate::table::{f1, f3, Table};
use crate::RunOptions;

/// The striping-unit grid of Figures 7/9/11 (KBytes).
pub const UNIT_GRID_KB: &[u32] = &[4, 16, 32, 64, 96, 128, 192, 256];

/// The HDC-size grid of Figures 8/10/12 (KBytes per disk).
pub const HDC_GRID_KB: &[u32] = &[0, 512, 1024, 1536, 2048, 2560, 3072];

const HDC: u64 = 2 * 1024 * 1024;

/// The striping unit each server's HDC sweep uses, per the paper's
/// figure captions (web 16 KB, proxy 64 KB, file 128 KB).
pub fn paper_unit_kb(kind: ServerKind) -> u32 {
    match kind {
        ServerKind::Web => 16,
        ServerKind::Proxy => 64,
        ServerKind::File => 128,
    }
}

fn spec(kind: ServerKind, opts: RunOptions) -> ServerWorkloadSpec {
    let s = match kind {
        ServerKind::Web => ServerWorkloadSpec::web(),
        ServerKind::Proxy => ServerWorkloadSpec::proxy(),
        ServerKind::File => ServerWorkloadSpec::file_server(),
    };
    s.scale(opts.scale)
}

fn workload(kind: ServerKind, opts: RunOptions) -> Workload {
    spec(kind, opts).generate().workload
}

fn shared_workload(kind: ServerKind, opts: RunOptions) -> SharedWorkload {
    shared(move || workload(kind, opts))
}

/// The log-spaced ranks Figure 2 samples.
const FIG2_RANKS: [usize; 13] = [
    1, 2, 5, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
];

/// Figure 2: access counts of the most-accessed disk blocks for the
/// three workload clones, next to the Zipf(0.43) reference the paper
/// plots. Sampled at log-spaced ranks. One job per server clone; each
/// emits its curve samples plus the curve total (the web total scales
/// the Zipf reference in the assembly).
pub fn plan_fig2(opts: RunOptions) -> PlannedExperiment {
    let jobs = [ServerKind::Web, ServerKind::Proxy, ServerKind::File]
        .into_iter()
        .enumerate()
        .map(|(point, kind)| {
            let spec = JobSpec::new("fig2", point, format!("{kind}"));
            SimJob::new(spec, move || {
                let curve = workload(kind, opts).trace.popularity_curve(300_000);
                let mut o = JobOutput::new()
                    .metric("total", curve.iter().map(|&c| c as u64).sum::<u64>() as f64);
                for rank in FIG2_RANKS {
                    o = o.metric(
                        format!("r{rank}"),
                        curve.get(rank - 1).copied().unwrap_or(0) as f64,
                    );
                }
                o
            })
        })
        .collect();
    PlannedExperiment {
        id: "fig2",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig2",
                "Distribution of disk block accesses (top blocks, log-sampled ranks)",
                &["rank", "web", "proxy", "file", "zipf_0.43_model"],
            );
            // Zipf reference scaled to the web curve's total over
            // 300 K blocks.
            let web_total = out[0].get("total");
            let n_ref = 300_000u64;
            for rank in FIG2_RANKS {
                let sample = |o: &JobOutput| (o.get(&format!("r{rank}")) as u64).to_string();
                let z = (zipf_cumulative(rank as u64, n_ref, 0.43)
                    - zipf_cumulative(rank as u64 - 1, n_ref, 0.43))
                    * web_total;
                t.push_row(vec![
                    rank.to_string(),
                    sample(&out[0]),
                    sample(&out[1]),
                    sample(&out[2]),
                    f1(z),
                ]);
            }
            t.note("paper: hottest blocks reach ~88/78/90 accesses (web/proxy/file); the curves track a Zipf with alpha ~0.43");
            t
        }),
    }
}

/// Figures 7 / 9 / 11: absolute I/O time versus the striping-unit
/// size, HDC caches = 2 MB where enabled.
pub fn plan_striping_sweep(
    kind: ServerKind,
    id: &'static str,
    opts: RunOptions,
) -> PlannedExperiment {
    const CONFIGS: [&str; 4] = ["segm", "segm_hdc", "for", "for_hdc"];
    let wl = shared_workload(kind, opts);
    let mut jobs = Vec::new();
    for &unit_kb in UNIT_GRID_KB {
        for name in CONFIGS {
            let cfg = move || {
                let base = match name {
                    "segm" => SystemConfig::segm(),
                    "segm_hdc" => SystemConfig::segm().with_hdc(HDC),
                    "for" => SystemConfig::for_(),
                    _ => SystemConfig::for_().with_hdc(HDC),
                };
                base.with_striping_unit(unit_kb * 1024)
            };
            let job_spec = JobSpec::new(id, jobs.len(), format!("unit={unit_kb}KB {name}"));
            jobs.push(sim_job(job_spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id,
        jobs,
        assemble: Box::new(move |out| {
            let mut t = Table::new(
                id,
                format!("{kind} server — I/O time (s) vs striping unit (HDC 2 MB)"),
                &["unit_kb", "segm", "segm_hdc", "for", "for_hdc", "hdc_hit_%"],
            );
            for (row, &unit_kb) in UNIT_GRID_KB.iter().enumerate() {
                let o = &out[row * 4..(row + 1) * 4];
                t.push_row(vec![
                    unit_kb.to_string(),
                    f1(o[0].get("io_ns") / 1e9),
                    f1(o[1].get("io_ns") / 1e9),
                    f1(o[2].get("io_ns") / 1e9),
                    f1(o[3].get("io_ns") / 1e9),
                    f1(100.0 * o[3].get("hdc_hit_rate")),
                ]);
            }
            match kind {
                ServerKind::Web => {
                    t.note("paper: best unit 16–32 KB; FOR cuts I/O time 27–34%; FOR+HDC up to 47%")
                }
                ServerKind::Proxy => {
                    t.note("paper: best unit 32–64 KB; FOR cuts 15–17%; FOR+HDC up to 33%")
                }
                ServerKind::File => {
                    t.note("paper: best unit 128 KB; FOR cuts up to 12%; FOR+HDC up to 21%")
                }
            }
            t.note("known divergence: our clones lack the real traces' unit-scale burst concentration, so the large-unit load-imbalance penalty is weaker and the best unit lands at 128–256 KB (see EXPERIMENTS.md)");
            t
        }),
    }
}

/// Figures 8 / 10 / 12: absolute I/O time and HDC hit rate versus the
/// per-disk HDC memory, at the paper's per-server striping unit.
pub fn plan_hdc_sweep(kind: ServerKind, id: &'static str, opts: RunOptions) -> PlannedExperiment {
    let wl = shared_workload(kind, opts);
    let unit = paper_unit_kb(kind) * 1024;
    let mut jobs = Vec::new();
    for &hdc_kb in HDC_GRID_KB {
        for name in ["segm_hdc", "for_hdc"] {
            let cfg = move || {
                let base = if name == "segm_hdc" {
                    SystemConfig::segm()
                } else {
                    SystemConfig::for_()
                };
                base.with_hdc(hdc_kb as u64 * 1024).with_striping_unit(unit)
            };
            let job_spec = JobSpec::new(id, jobs.len(), format!("hdc={hdc_kb}KB {name}"));
            jobs.push(sim_job(job_spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id,
        jobs,
        assemble: Box::new(move |out| {
            let mut t = Table::new(
                id,
                format!(
                    "{kind} server — I/O time (s) vs HDC memory ({} KB striping unit)",
                    paper_unit_kb(kind)
                ),
                &["hdc_kb", "segm_hdc", "for_hdc", "segm_hit_%", "for_hit_%"],
            );
            for (row, &hdc_kb) in HDC_GRID_KB.iter().enumerate() {
                let o = &out[row * 2..(row + 1) * 2];
                t.push_row(vec![
                    hdc_kb.to_string(),
                    f1(o[0].get("io_ns") / 1e9),
                    f1(o[1].get("io_ns") / 1e9),
                    f1(100.0 * o[0].get("hdc_hit_rate")),
                    f1(100.0 * o[1].get("hdc_hit_rate")),
                ]);
            }
            t.note("paper shape: gains grow with HDC size to a knee (~2.5 MB), then the shrinking read-ahead cache bites; web hit rate reaches ~13% at 3 MB, file only ~4%");
            t.note("the FOR bitmap occupies ~546 KB of controller memory, so FOR+HDC cannot reach the full 3 MB grid point with an intact read-ahead cache (paper Fig. 8: the FOR+HDC curve 'does not touch the right side of the graph')");
            t
        }),
    }
}

/// Table 2: disk-throughput improvements at each server's best
/// striping unit. One coarse job per server: the best-unit argmin
/// makes the inner runs data-dependent.
pub fn plan_table2(opts: RunOptions) -> PlannedExperiment {
    const KINDS: [ServerKind; 3] = [ServerKind::Web, ServerKind::Proxy, ServerKind::File];
    let mut jobs = Vec::new();
    for kind in KINDS {
        let job_spec = JobSpec::new("table2", jobs.len(), format!("{kind} best-unit"));
        jobs.push(SimJob::new(job_spec, move || {
            let wl = workload(kind, opts);
            let run = |cfg: SystemConfig| run_system(System::builder(cfg, &wl), opts.check).0;
            // Best unit by the Segm baseline, as the paper selects it.
            let (best_unit_kb, segm) = UNIT_GRID_KB
                .iter()
                .map(|&u| (u, run(SystemConfig::segm().with_striping_unit(u * 1024))))
                .min_by_key(|(_, r)| r.io_time)
                .expect("non-empty grid");
            let unit = best_unit_kb * 1024;
            let for_ = run(SystemConfig::for_().with_striping_unit(unit));
            let segm_hdc = run(SystemConfig::segm().with_hdc(HDC).with_striping_unit(unit));
            let for_hdc = run(SystemConfig::for_().with_hdc(HDC).with_striping_unit(unit));
            JobOutput::new()
                .metric("best_unit_kb", best_unit_kb as f64)
                .metric("for_improvement", for_.improvement_over(&segm))
                .metric("segm_hdc_improvement", segm_hdc.improvement_over(&segm))
                .metric("for_hdc_improvement", for_hdc.improvement_over(&segm))
        }));
    }
    PlannedExperiment {
        id: "table2",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "table2",
                "Disk throughput improvements at the best striping unit",
                &["server", "best_unit_kb", "for_%", "segm_hdc_%", "for_hdc_%"],
            );
            for (kind, o) in KINDS.iter().zip(out) {
                t.push_row(vec![
                    kind.to_string(),
                    (o.get("best_unit_kb") as u32).to_string(),
                    f3(100.0 * o.get("for_improvement")),
                    f3(100.0 * o.get("segm_hdc_improvement")),
                    f3(100.0 * o.get("for_hdc_improvement")),
                ]);
            }
            t.note("paper Table 2: web 34/24/47%, proxy 17/18/33%, file 12/10/21% (FOR / Segm+HDC / FOR+HDC)");
            t
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOptions {
        RunOptions {
            scale: 0.02,
            synthetic_requests: 500,
            ..RunOptions::default()
        }
    }

    #[test]
    fn fig2_curves_are_non_increasing() {
        let t = plan_fig2(quick()).run_serial();
        for col in 1..4 {
            let vals: Vec<u64> = t.rows.iter().map(|r| r[col].parse().unwrap()).collect();
            for w in vals.windows(2) {
                assert!(w[1] <= w[0], "popularity curve must be sorted: {vals:?}");
            }
        }
    }

    #[test]
    fn fig2_parallel_matches_serial_byte_for_byte() {
        let serial = plan_fig2(quick()).run_serial();
        let runner = forhdc_runner::Runner::new(3).quiet(true);
        let (parallel, stats) = plan_fig2(quick()).run_with(&runner);
        assert!(stats.failures.is_empty());
        assert_eq!(serial.to_csv(), parallel.expect("table").to_csv());
    }

    #[test]
    fn striping_sweep_for_wins_everywhere() {
        let t = plan_striping_sweep(ServerKind::Web, "fig7", quick()).run_serial();
        for row in &t.rows {
            let segm: f64 = row[1].parse().unwrap();
            let for_: f64 = row[3].parse().unwrap();
            assert!(
                for_ <= segm * 1.02,
                "FOR {for_} vs Segm {segm} at {}",
                row[0]
            );
        }
    }

    #[test]
    fn table2_reports_positive_combined_gains() {
        let t = plan_table2(quick()).run_serial();
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let combined: f64 = row[4].parse().unwrap();
            assert!(combined > 0.0, "{} FOR+HDC {combined}%", row[0]);
        }
    }

    #[test]
    fn hdc_sweep_has_full_grid() {
        let t = plan_hdc_sweep(ServerKind::File, "fig12", quick()).run_serial();
        assert_eq!(t.rows.len(), HDC_GRID_KB.len());
        // Hit rate grows with HDC memory.
        let hits: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(hits.last().unwrap() >= hits.first().unwrap());
    }
}
