//! Table 1 and Figure 1: parameter inventory and the fragmentation /
//! sequential-read model.
//!
//! All three artifacts are [`PlannedExperiment`]s: jobs emit the raw
//! quantities (exact in `f64` at simulation scale, so the result cache
//! round-trips them bit-exactly) and all formatting happens in the
//! assembly, keeping parallel and serial output byte-identical.

use forhdc_analytic::expected_sequential_run;
use forhdc_layout::{frag::measure_runs, LayoutBuilder};
use forhdc_runner::{JobOutput, JobSpec, SimJob};
use forhdc_sim::ArrayConfig;

use crate::plan::{run_system, PlannedExperiment};
use crate::table::{f1, f3, Table};

/// Table 1: the simulation parameters and their defaults. One job
/// reads the raw quantities off [`ArrayConfig`]; the assembly formats
/// them.
pub fn plan_table1() -> PlannedExperiment {
    let spec = JobSpec::new("table1", 0, "parameters".to_string());
    let job = SimJob::new(spec, || {
        let a = ArrayConfig::default();
        JobOutput::new()
            .metric("disks", a.disks as f64)
            .metric("capacity_bytes", a.disk.geometry.capacity_bytes() as f64)
            .metric(
                "avg_seek_ms",
                a.disk.seek.average_seek_ms(a.disk.geometry.cylinders()),
            )
            .metric("media_rate", a.disk.media_rate as f64)
            .metric("bus_rate", a.bus_rate as f64)
            .metric("cache_bytes", a.disk.cache_bytes as f64)
            .metric("block_bytes", a.disk.block_bytes() as f64)
            .metric("segment_bytes", a.disk.segment_bytes as f64)
            .metric("segments", a.disk.segments as f64)
            .metric("bitmap_bytes", a.disk.bitmap_bytes() as f64)
            .metric("unit_bytes", a.striping_unit_bytes as f64)
    });
    PlannedExperiment {
        id: "table1",
        jobs: vec![job],
        assemble: Box::new(|out| {
            let o = &out[0];
            let mut t = Table::new(
                "table1",
                "Main parameters and their default values",
                &["parameter", "default"],
            );
            let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
            row("number of disks", (o.get("disks") as u64).to_string());
            row(
                "disk size",
                format!("{:.1} GB", o.get("capacity_bytes") / 1e9),
            );
            row(
                "average disk seek time",
                format!("{:.2} ms", o.get("avg_seek_ms")),
            );
            row("average rotational latency", "2.0 ms (15000 rpm)".into());
            row(
                "raw disk transfer rate",
                format!("{} MB/s", o.get("media_rate") as u64 / 1_000_000),
            );
            row(
                "disk controller interface",
                format!(
                    "Ultra160 ({} MB/s shared)",
                    o.get("bus_rate") as u64 / 1_000_000
                ),
            );
            row(
                "disk controller cache size",
                format!("{} MB", o.get("cache_bytes") as u64 / (1 << 20)),
            );
            row(
                "disk block size",
                format!("{} KB", o.get("block_bytes") as u64 / 1024),
            );
            row(
                "segment size / count",
                format!(
                    "{} KB x {}",
                    o.get("segment_bytes") as u64 / 1024,
                    o.get("segments") as u64
                ),
            );
            row(
                "disk-resident bitmap",
                format!("{} KB", o.get("bitmap_bytes") as u64 / 1024),
            );
            row(
                "striping unit (synthetic default)",
                format!("{} KB", o.get("unit_bytes") as u64 / 1024),
            );
            t.note("paper Table 1: 8 disks, 18 GB, 3.4 ms, 2.0 ms, 54 MB/s, Ultra160, 4 MB, 4 KB, 128/256/512 KB x 27/13/6, 546 KB bitmap");
            t
        }),
    }
}

/// Table 1 on the serial path.
pub fn table1() -> Table {
    plan_table1().run_serial()
}

/// The fragmentation grid of Figure 1 (percent).
const FIG1_PCTS: [u32; 14] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20];

/// The file sizes of Figure 1 (blocks).
const FIG1_SIZES: [u32; 5] = [32, 16, 8, 4, 2];

/// Figure 1: average sequential read as a function of the
/// fragmentation degree, for 2–32-block files. Empirical (measured on
/// a generated layout) and analytic (`f / (1 + (f−1)q)`) side by
/// side. One job per fragmentation degree.
pub fn plan_fig1() -> PlannedExperiment {
    let jobs = FIG1_PCTS
        .iter()
        .enumerate()
        .map(|(point, &pct)| {
            let spec = JobSpec::new("fig1", point, format!("frag={pct}%"))
                .param("pct", pct)
                .param("files", 4000);
            SimJob::new(spec, move || {
                let q = pct as f64 / 100.0;
                let mut o = JobOutput::new();
                for s in FIG1_SIZES {
                    let map = LayoutBuilder::new()
                        .fragmentation(q)
                        .seed(0xF16_0001 + s as u64)
                        .build(&vec![s; 4000]);
                    o = o
                        .metric(format!("emp{s}"), measure_runs(&map).mean_run_blocks)
                        .metric(format!("model{s}"), expected_sequential_run(s, q));
                }
                o
            })
        })
        .collect();
    PlannedExperiment {
        id: "fig1",
        jobs,
        assemble: Box::new(|out| {
            let mut headers = vec!["frag_%".to_string()];
            for s in FIG1_SIZES {
                headers.push(format!("{s}blk"));
                headers.push(format!("{s}blk_model"));
            }
            let mut t = Table::new(
                "fig1",
                "Average sequential read (blocks) vs fragmentation degree",
                &headers.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for (row, &pct) in FIG1_PCTS.iter().enumerate() {
                let o = &out[row];
                let mut cells = vec![pct.to_string()];
                for s in FIG1_SIZES {
                    cells.push(f1(o.get(&format!("emp{s}"))));
                    cells.push(f1(o.get(&format!("model{s}"))));
                }
                t.push_row(cells);
            }
            t.note("paper: 5% fragmentation cuts 32-block files to ~12 and 8-block files to ~6 sequential blocks");
            t
        }),
    }
}

/// Figure 1 on the serial path.
pub fn fig1() -> Table {
    plan_fig1().run_serial()
}

/// The file sizes of the model cross-check (blocks).
const MODEL_CHECK_SIZES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Cross-validation: the analytic Figure 3 prediction (built purely
/// from the paper's closed forms) against the simulator's
/// measurement. One job per file size, each running the Segm baseline
/// and the FOR system.
pub fn plan_model_check(opts: crate::RunOptions) -> PlannedExperiment {
    use forhdc_analytic::{predict_fig3, utilization::ServiceParams};
    use forhdc_core::{System, SystemConfig};
    use forhdc_workload::SyntheticWorkload;

    let jobs = MODEL_CHECK_SIZES
        .iter()
        .enumerate()
        .map(|(point, &file_blocks)| {
            let spec = JobSpec::new("model-check", point, format!("file={file_blocks}blk"))
                .param("file_blocks", file_blocks)
                .param("requests", opts.synthetic_requests);
            SimJob::new(spec, move || {
                let params = ServiceParams::ultrastar_36z15();
                let pred = predict_fig3(file_blocks, 0.87, 32, &params).for_normalized();
                let wl = SyntheticWorkload::builder()
                    .requests(opts.synthetic_requests)
                    .files(20_000)
                    .file_blocks(file_blocks)
                    .streams(128)
                    .zipf_alpha(0.0) // the closed form has no reuse term
                    .seed(42)
                    .build();
                let run = |cfg| run_system(System::builder(cfg, &wl), opts.check).0;
                let segm = run(SystemConfig::segm());
                let for_ = run(SystemConfig::for_());
                JobOutput::new()
                    .metric("pred", pred)
                    .metric("sim", for_.normalized_io_time(&segm))
            })
        })
        .collect();
    PlannedExperiment {
        id: "model-check",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "model-check",
                "Figure 3: analytic prediction vs simulation (FOR normalized I/O time)",
                &["file_kb", "predicted", "simulated", "abs_err"],
            );
            for (row, &file_blocks) in MODEL_CHECK_SIZES.iter().enumerate() {
                let (pred, sim) = (out[row].get("pred"), out[row].get("sim"));
                t.push_row(vec![
                    (file_blocks * 4).to_string(),
                    f3(pred),
                    f3(sim),
                    f3((pred - sim).abs()),
                ]);
            }
            t.note("the first-order model ignores queueing, LOOK seek shortening and cache reuse; agreement within ~0.1 normalized units closes the loop between the paper's analysis and the simulator");
            t
        }),
    }
}

/// The model cross-check on the serial path.
pub fn model_check(opts: crate::RunOptions) -> Table {
    plan_model_check(opts).run_serial()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let t = table1();
        let find = |k: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == k)
                .unwrap_or_else(|| panic!("missing row {k}"))[1]
                .clone()
        };
        assert_eq!(find("number of disks"), "8");
        assert!(find("disk size").starts_with("18."));
        assert_eq!(find("disk controller cache size"), "4 MB");
        assert_eq!(find("segment size / count"), "128 KB x 27");
        // Average seek within 10% of the nominal 3.4 ms.
        let seek: f64 = find("average disk seek time")
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((seek - 3.4).abs() < 0.35, "avg seek {seek}");
    }

    #[test]
    fn fig1_empirical_tracks_model() {
        let t = fig1();
        // Row at 5% fragmentation: empirical within 10% of the model.
        let row = t.rows.iter().find(|r| r[0] == "5").unwrap();
        for i in (1..row.len()).step_by(2) {
            let emp: f64 = row[i].parse().unwrap();
            let model: f64 = row[i + 1].parse().unwrap();
            assert!((emp - model).abs() / model < 0.10, "{emp} vs {model}");
        }
    }

    #[test]
    fn fig1_monotone_in_fragmentation() {
        let t = fig1();
        let col1: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in col1.windows(2) {
            assert!(w[1] <= w[0] + 0.5, "sequential read should shrink: {w:?}");
        }
    }

    #[test]
    fn ported_micro_plans_match_serial_byte_for_byte() {
        let runner = forhdc_runner::Runner::new(4).quiet(true);
        let opts = crate::RunOptions {
            synthetic_requests: 400,
            ..crate::RunOptions::default()
        };
        for plan in [plan_table1(), plan_fig1(), plan_model_check(opts)] {
            let serial = plan.run_serial();
            let (parallel, stats) = plan.run_with(&runner);
            assert!(stats.failures.is_empty(), "{}", plan.id);
            assert_eq!(
                serial.to_csv(),
                parallel.expect("table").to_csv(),
                "{}",
                plan.id
            );
        }
    }
}
