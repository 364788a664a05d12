//! Figures 3–6: the controlled synthetic evaluation (§6.2).
//!
//! Each figure is a [`PlannedExperiment`]: one job per (sweep point,
//! configuration) pair, the row's workload generated at most once and
//! shared between that row's jobs. Workload seeds derive from
//! [`point_seed`] so they are stable under experiment reordering and
//! identical on the serial and parallel paths.

use forhdc_core::SystemConfig;
use forhdc_runner::{point_seed, JobSpec};
use forhdc_workload::SyntheticWorkload;

use crate::plan::{shared, sim_job, NamedConfig, PlannedExperiment};
use crate::table::{f3, Table};
use crate::RunOptions;

const FILES: usize = 20_000;
const HDC: u64 = 2 * 1024 * 1024;

/// Figure 3: normalized I/O time as a function of the average file
/// size, 128 simultaneous streams. Series: Segm (the 1.0 baseline),
/// Block, No-RA, FOR.
pub fn plan_fig3(opts: RunOptions) -> PlannedExperiment {
    const FILE_BLOCKS: [u32; 8] = [1, 2, 4, 8, 12, 16, 24, 32];
    const CONFIGS: [NamedConfig; 4] = [
        ("segm", SystemConfig::segm),
        ("block", SystemConfig::block),
        ("no_ra", SystemConfig::no_ra),
        ("for", SystemConfig::for_),
    ];
    let mut jobs = Vec::new();
    for (row, &file_blocks) in FILE_BLOCKS.iter().enumerate() {
        let seed = point_seed("fig3", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(FILES)
                .file_blocks(file_blocks)
                .streams(128)
                .seed(seed)
                .build()
        });
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new(
                "fig3",
                jobs.len(),
                format!("file={}KB {name}", file_blocks * 4),
            );
            jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id: "fig3",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig3",
                "Normalized I/O time vs average file size (128 streams)",
                &["file_kb", "segm", "block", "no_ra", "for"],
            );
            for (row, &file_blocks) in FILE_BLOCKS.iter().enumerate() {
                let o = &out[row * 4..(row + 1) * 4];
                let segm = o[0].get("io_ns");
                t.push_row(vec![
                    (file_blocks * 4).to_string(),
                    f3(1.0),
                    f3(o[1].get("io_ns") / segm),
                    f3(o[2].get("io_ns") / segm),
                    f3(o[3].get("io_ns") / segm),
                ]);
            }
            t.note("paper shape: FOR <= all; ~40% gain at 16 KB; No-RA beats blind below ~48 KB, loses badly above");
            t
        }),
    }
}

/// Figure 4: normalized I/O time as a function of the number of
/// simultaneous streams, 16-KByte files. Series: Segm, Block, FOR.
pub fn plan_fig4(opts: RunOptions) -> PlannedExperiment {
    const STREAMS: [u32; 7] = [64, 128, 256, 384, 512, 768, 1024];
    const CONFIGS: [NamedConfig; 3] = [
        ("segm", SystemConfig::segm),
        ("block", SystemConfig::block),
        ("for", SystemConfig::for_),
    ];
    let mut jobs = Vec::new();
    for (row, &streams) in STREAMS.iter().enumerate() {
        let seed = point_seed("fig4", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(FILES)
                .file_blocks(4)
                .streams(streams)
                .seed(seed)
                .build()
        });
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new("fig4", jobs.len(), format!("streams={streams} {name}"));
            jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id: "fig4",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig4",
                "Normalized I/O time vs simultaneous streams (16-KB files)",
                &["streams", "segm", "block", "for"],
            );
            for (row, &streams) in STREAMS.iter().enumerate() {
                let o = &out[row * 3..(row + 1) * 3];
                let segm = o[0].get("io_ns");
                t.push_row(vec![
                    streams.to_string(),
                    f3(1.0),
                    f3(o[1].get("io_ns") / segm),
                    f3(o[2].get("io_ns") / segm),
                ]);
            }
            t.note("paper shape: FOR gains grow with streams (39% at 64 -> 59% at 1024); Block ~= Segm until ~256, ~3% better at 1024");
            t
        }),
    }
}

/// Figure 5: normalized I/O time and HDC hit rate as a function of the
/// Zipf coefficient. HDC caches = 2 MB. Series: Segm, Segm+HDC, FOR,
/// FOR+HDC (+ hit rate column).
pub fn plan_fig5(opts: RunOptions) -> PlannedExperiment {
    const TENTHS: [u32; 6] = [0, 2, 4, 6, 8, 10];
    const CONFIGS: [NamedConfig; 4] = [
        ("segm", SystemConfig::segm),
        ("segm_hdc", || SystemConfig::segm().with_hdc(HDC)),
        ("for", SystemConfig::for_),
        ("for_hdc", || SystemConfig::for_().with_hdc(HDC)),
    ];
    let mut jobs = Vec::new();
    for (row, &tenth) in TENTHS.iter().enumerate() {
        let alpha = tenth as f64 / 10.0;
        let seed = point_seed("fig5", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(FILES)
                .file_blocks(4)
                .streams(128)
                .zipf_alpha(alpha)
                .seed(seed)
                .build()
        });
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new("fig5", jobs.len(), format!("alpha={alpha:.1} {name}"));
            jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id: "fig5",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig5",
                "Normalized I/O time vs access-frequency distribution (HDC 2 MB)",
                &["alpha", "segm", "segm_hdc", "for", "for_hdc", "hdc_hit_%"],
            );
            for (row, &tenth) in TENTHS.iter().enumerate() {
                let alpha = tenth as f64 / 10.0;
                let o = &out[row * 4..(row + 1) * 4];
                let segm = o[0].get("io_ns");
                t.push_row(vec![
                    format!("{alpha:.1}"),
                    f3(1.0),
                    f3(o[1].get("io_ns") / segm),
                    f3(o[2].get("io_ns") / segm),
                    f3(o[3].get("io_ns") / segm),
                    format!("{:.1}", 100.0 * o[3].get("hdc_hit_rate")),
                ]);
            }
            t.note("paper shape: HDC gains ~10% flat for alpha <= 0.6, rising to ~28% at alpha = 1; hit rate rises with alpha (56% at 1.0)");
            t
        }),
    }
}

/// Figure 6: normalized I/O time as a function of the percentage of
/// writes. HDC caches = 2 MB, Zipf α = 0.4.
pub fn plan_fig6(opts: RunOptions) -> PlannedExperiment {
    const WRITE_PCT: [u32; 7] = [0, 10, 20, 30, 40, 50, 60];
    const CONFIGS: [NamedConfig; 4] = [
        ("segm", SystemConfig::segm),
        ("segm_hdc", || SystemConfig::segm().with_hdc(HDC)),
        ("for", SystemConfig::for_),
        ("for_hdc", || SystemConfig::for_().with_hdc(HDC)),
    ];
    let mut jobs = Vec::new();
    for (row, &pct) in WRITE_PCT.iter().enumerate() {
        let seed = point_seed("fig6", row);
        let wl = shared(move || {
            SyntheticWorkload::builder()
                .requests(opts.synthetic_requests)
                .files(FILES)
                .file_blocks(4)
                .streams(128)
                .write_fraction(pct as f64 / 100.0)
                .seed(seed)
                .build()
        });
        for (name, cfg) in CONFIGS {
            let spec = JobSpec::new("fig6", jobs.len(), format!("writes={pct}% {name}"));
            jobs.push(sim_job(spec, &wl, opts.mode(), cfg));
        }
    }
    PlannedExperiment {
        id: "fig6",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "fig6",
                "Normalized I/O time vs write percentage (HDC 2 MB, alpha 0.4)",
                &["write_%", "segm", "segm_hdc", "for", "for_hdc"],
            );
            for (row, &pct) in WRITE_PCT.iter().enumerate() {
                let o = &out[row * 4..(row + 1) * 4];
                let segm = o[0].get("io_ns");
                t.push_row(vec![
                    pct.to_string(),
                    f3(1.0),
                    f3(o[1].get("io_ns") / segm),
                    f3(o[2].get("io_ns") / segm),
                    f3(o[3].get("io_ns") / segm),
                ]);
            }
            t.note("paper shape: FOR gains decay with writes (39% -> 19% at 60%); HDC gains roughly constant");
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
            synthetic_requests: 600,
            ..RunOptions::default()
        }
    }

    fn col(t: &Table, name: &str) -> Vec<f64> {
        let i = t.headers.iter().position(|h| h == name).expect("column");
        t.rows.iter().map(|r| r[i].parse().unwrap()).collect()
    }

    #[test]
    fn fig3_for_always_at_least_as_good() {
        let t = plan_fig3(quick()).run_serial();
        for (f, s) in col(&t, "for").iter().zip(col(&t, "segm")) {
            assert!(*f <= s * 1.05, "FOR {f} vs Segm {s}");
        }
    }

    #[test]
    fn fig4_for_beats_segm_everywhere() {
        let t = plan_fig4(quick()).run_serial();
        for f in col(&t, "for") {
            assert!(f < 1.0, "FOR normalized {f}");
        }
    }

    #[test]
    fn fig5_hit_rate_rises_with_alpha() {
        // Enough requests that the accessed footprint exceeds the HDC
        // capacity (otherwise every block is pinned and hits saturate).
        let t = plan_fig5(RunOptions {
            scale: 0.02,
            synthetic_requests: 4_000,
            ..RunOptions::default()
        })
        .run_serial();
        let hits = col(&t, "hdc_hit_%");
        assert!(
            *hits.last().unwrap() > hits.first().unwrap() + 5.0,
            "{hits:?}"
        );
    }

    #[test]
    fn fig6_for_gain_decays_with_writes() {
        let t = plan_fig6(quick()).run_serial();
        let fors = col(&t, "for");
        assert!(
            fors.last().unwrap() > fors.first().unwrap(),
            "FOR gain should shrink with writes: {fors:?}"
        );
    }
}
