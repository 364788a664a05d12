//! One module per group of paper artifacts.

pub mod ablations;
pub mod faults;
pub mod micro;
pub mod mirror;
pub mod servers;
pub mod synthetic;

use forhdc_workload::ServerKind;

use crate::plan::PlannedExperiment;
use crate::RunOptions;

/// Every experiment the harness knows, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table2",
    "ablation-sched",
    "ablation-segrepl",
    "ablation-blkrepl",
    "ablation-segsize",
    "ablation-coalesce",
    "ablation-periodic",
    "ablation-flush",
    "ablation-victim",
    "ablation-mirror",
    "ablation-zones",
    "ablation-coop",
    "model-check",
    "fig-faults",
    "fig-mirror",
];

/// Diagnostics runnable by explicit id but never part of `all`: they
/// exist to exercise the harness's failure path end to end
/// (`selftest-panic` proves a crashing job leaves a manifest failure
/// record and a non-zero exit while sibling jobs complete;
/// `selftest-violation` proves a planted invariant violation is
/// detected, shrunk to a reproducer under `results/repros/`, and
/// recorded the same way).
pub const HIDDEN: &[&str] = &["selftest-panic", "selftest-violation"];

/// The job-graph decomposition of `id`: its independent jobs and the
/// assembly of their outputs into the table.
///
/// # Panics
///
/// Panics on an id in neither [`ALL`] nor [`HIDDEN`] (the CLI
/// validates first).
pub fn plan(id: &str, opts: RunOptions) -> PlannedExperiment {
    match id {
        "table1" => micro::plan_table1(),
        "fig1" => micro::plan_fig1(),
        "fig2" => servers::plan_fig2(opts),
        "fig3" => synthetic::plan_fig3(opts),
        "fig4" => synthetic::plan_fig4(opts),
        "fig5" => synthetic::plan_fig5(opts),
        "fig6" => synthetic::plan_fig6(opts),
        "fig7" => servers::plan_striping_sweep(ServerKind::Web, "fig7", opts),
        "fig9" => servers::plan_striping_sweep(ServerKind::Proxy, "fig9", opts),
        "fig11" => servers::plan_striping_sweep(ServerKind::File, "fig11", opts),
        "fig8" => servers::plan_hdc_sweep(ServerKind::Web, "fig8", opts),
        "fig10" => servers::plan_hdc_sweep(ServerKind::Proxy, "fig10", opts),
        "fig12" => servers::plan_hdc_sweep(ServerKind::File, "fig12", opts),
        "table2" => servers::plan_table2(opts),
        "ablation-sched" => ablations::plan_scheduler(opts),
        "ablation-segrepl" => ablations::plan_segment_replacement(opts),
        "ablation-blkrepl" => ablations::plan_block_replacement(opts),
        "ablation-segsize" => ablations::plan_segment_size(opts),
        "ablation-coalesce" => ablations::plan_coalescing(opts),
        "ablation-periodic" => ablations::plan_periodic_planner(opts),
        "ablation-flush" => ablations::plan_flush_period(opts),
        "ablation-mirror" => ablations::plan_mirroring(opts),
        "ablation-zones" => ablations::plan_zoned(opts),
        "ablation-coop" => ablations::plan_cooperative(opts),
        "ablation-victim" => ablations::plan_victim(opts),
        "model-check" => micro::plan_model_check(opts),
        "fig-faults" => faults::plan_faults(opts),
        "fig-mirror" => mirror::plan_mirror(opts),
        "selftest-panic" => faults::plan_selftest_panic(),
        "selftest-violation" => {
            crate::fuzz::plan_selftest_violation(std::path::PathBuf::from("results/repros"))
        }
        _ => panic!("unknown experiment: {id}"),
    }
}
