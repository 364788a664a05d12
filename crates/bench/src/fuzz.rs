//! Randomized invariant fuzzing (`repro fuzz` / `repro replay`).
//!
//! Each iteration draws a random system configuration and synthetic
//! workload from a seeded generator and runs four short simulations:
//!
//! 1. the unchecked baseline,
//! 2. the same run under [`FullAudit`] (every invariant checked at
//!    every audit point; the report must stay byte-identical),
//! 3. the same run traced (traced reports must equal untraced ones),
//! 4. a faulted run under [`FullAudit`] + [`SeededFaults`] (the
//!    degraded-mode paths must also keep every invariant).
//!
//! Any panic (an invariant violation) or cross-check mismatch fails
//! the iteration. The failing case is then *shrunk* by deterministic
//! halving of its request, stream, and file counts — each halving is
//! kept only if the smaller case still fails — and written as a
//! self-contained reproducer JSON under `results/repros/` that
//! `repro replay FILE` re-runs deterministically.
//!
//! The hidden `selftest-violation` experiment drives this machinery
//! end to end on purpose: its middle job runs a case with a *planted*
//! audit violation, shrinks it, writes the reproducer, and panics —
//! proving that an invariant violation becomes a manifest failure
//! record, a non-zero exit, and a replayable artifact.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use forhdc_core::{FaultConfig, FullAudit, RetryPolicy, SeededFaults, System, SystemConfig};
use forhdc_runner::{JobOutput, JobSpec, SimJob};
use forhdc_sim::SimDuration;
use forhdc_trace::MemTracer;
use forhdc_workload::{SyntheticWorkload, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::PlannedExperiment;
use crate::table::Table;

/// The cache organizations a fuzz case may draw (index into this
/// table is the `config` field of the reproducer JSON).
const CONFIG_NAMES: [&str; 4] = ["segm", "block", "no_ra", "for"];

/// One self-contained fuzz case: everything needed to rebuild the
/// workload, the system configuration, and the fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Workload generator seed.
    pub seed: u64,
    /// Synthetic request count.
    pub requests: usize,
    /// File population size.
    pub files: usize,
    /// Mean file length in blocks.
    pub file_blocks: u32,
    /// Concurrent stream count.
    pub streams: u32,
    /// Fraction of write requests.
    pub write_fraction: f64,
    /// Zipf skew of the file popularity distribution.
    pub zipf_alpha: f64,
    /// Cache organization, as an index into `segm`, `block`, `no_ra`,
    /// `for`.
    pub config: usize,
    /// HDC region size in KiB (0 = no HDC).
    pub hdc_kib: u64,
    /// HDC flush cadence in ms (only meaningful with `hdc_kib > 0`).
    pub flush_period_ms: u64,
    /// Fault schedule seed for the faulted run.
    pub fault_seed: u64,
    /// Per-block media error probability (reads and writes).
    pub media_rate: f64,
    /// Per-transfer bus error probability.
    pub bus_rate: f64,
    /// Controller power-loss period in ms (0 = none).
    pub power_loss_ms: u64,
    /// Selftest hook: panic at exactly this audit observation
    /// (0 = never; see [`FullAudit::with_planted_violation`]).
    pub planted_violation: u64,
}

impl FuzzCase {
    /// Draws iteration `iter` of a fuzz run seeded with `seed`.
    pub fn draw(seed: u64, iter: u64) -> FuzzCase {
        let mut rng = StdRng::seed_from_u64(seed ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let config = rng.gen_range(0..CONFIG_NAMES.len());
        let hdc_kib = *pick(&mut rng, &[0, 0, 256, 1024, 2048]);
        FuzzCase {
            seed: rng.gen_range(1..1u64 << 32),
            requests: rng.gen_range(200..=1200),
            files: rng.gen_range(200..=4000),
            file_blocks: rng.gen_range(1..=8),
            streams: rng.gen_range(2..=64),
            write_fraction: *pick(&mut rng, &[0.0, 0.1, 0.3, 0.5, 0.9]),
            zipf_alpha: *pick(&mut rng, &[0.0, 0.4, 0.8, 1.1]),
            config,
            hdc_kib,
            flush_period_ms: if hdc_kib > 0 {
                *pick(&mut rng, &[20, 50, 100])
            } else {
                0
            },
            fault_seed: rng.gen_range(1..1u64 << 32),
            media_rate: *pick(&mut rng, &[0.0, 1e-4, 1e-3, 1e-2]),
            bus_rate: *pick(&mut rng, &[0.0, 1e-4, 1e-3]),
            power_loss_ms: *pick(&mut rng, &[0, 0, 30, 100]),
            planted_violation: 0,
        }
    }

    /// The fixed case behind the hidden `selftest-violation`
    /// experiment: a small clean run whose auditor is primed to fire
    /// at its fifth observation.
    pub fn planted() -> FuzzCase {
        FuzzCase {
            seed: 7,
            requests: 400,
            files: 1000,
            file_blocks: 4,
            streams: 16,
            write_fraction: 0.3,
            zipf_alpha: 0.4,
            config: 0,
            hdc_kib: 0,
            flush_period_ms: 0,
            fault_seed: 7,
            media_rate: 0.0,
            bus_rate: 0.0,
            power_loss_ms: 0,
            planted_violation: 5,
        }
    }

    fn workload(&self) -> Workload {
        SyntheticWorkload::builder()
            .requests(self.requests)
            .files(self.files)
            .file_blocks(self.file_blocks)
            .streams(self.streams)
            .write_fraction(self.write_fraction)
            .zipf_alpha(self.zipf_alpha)
            .seed(self.seed)
            .build()
    }

    fn system_config(&self) -> SystemConfig {
        let mut cfg = match self.config {
            0 => SystemConfig::segm(),
            1 => SystemConfig::block(),
            2 => SystemConfig::no_ra(),
            _ => SystemConfig::for_(),
        };
        if self.hdc_kib > 0 {
            cfg = cfg.with_hdc(self.hdc_kib * 1024);
            if self.flush_period_ms > 0 {
                cfg = cfg.with_hdc_flush_period(SimDuration::from_millis(self.flush_period_ms));
            }
        }
        cfg
    }

    fn fault_config(&self) -> FaultConfig {
        let mut cfg = FaultConfig::new(self.fault_seed)
            .with_media_rates(self.media_rate, self.media_rate)
            .with_bus_rate(self.bus_rate);
        if self.power_loss_ms > 0 {
            cfg = cfg.with_power_loss_period_ns(self.power_loss_ms * 1_000_000);
        }
        cfg
    }

    fn auditor(&self) -> FullAudit {
        if self.planted_violation > 0 {
            FullAudit::with_planted_violation(self.planted_violation)
        } else {
            FullAudit::new()
        }
    }

    /// Serializes the case as one flat JSON object (keys in struct
    /// order; `f64` values in shortest round-trip form).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"requests\": {},\n  \"files\": {},\n  \
             \"file_blocks\": {},\n  \"streams\": {},\n  \"write_fraction\": {:?},\n  \
             \"zipf_alpha\": {:?},\n  \"config\": {},\n  \"hdc_kib\": {},\n  \
             \"flush_period_ms\": {},\n  \"fault_seed\": {},\n  \"media_rate\": {:?},\n  \
             \"bus_rate\": {:?},\n  \"power_loss_ms\": {},\n  \"planted_violation\": {}\n}}",
            self.seed,
            self.requests,
            self.files,
            self.file_blocks,
            self.streams,
            self.write_fraction,
            self.zipf_alpha,
            self.config,
            self.hdc_kib,
            self.flush_period_ms,
            self.fault_seed,
            self.media_rate,
            self.bus_rate,
            self.power_loss_ms,
            self.planted_violation,
        )
    }

    /// Parses a reproducer written by [`FuzzCase::to_json`]. Unknown
    /// keys are ignored; missing or malformed known keys are errors.
    pub fn from_json(text: &str) -> Result<FuzzCase, String> {
        Ok(FuzzCase {
            seed: field(text, "seed")?,
            requests: field(text, "requests")?,
            files: field(text, "files")?,
            file_blocks: field(text, "file_blocks")?,
            streams: field(text, "streams")?,
            write_fraction: field(text, "write_fraction")?,
            zipf_alpha: field(text, "zipf_alpha")?,
            config: field(text, "config")?,
            hdc_kib: field(text, "hdc_kib")?,
            flush_period_ms: field(text, "flush_period_ms")?,
            fault_seed: field(text, "fault_seed")?,
            media_rate: field(text, "media_rate")?,
            bus_rate: field(text, "bus_rate")?,
            power_loss_ms: field(text, "power_loss_ms")?,
            planted_violation: field(text, "planted_violation")?,
        })
    }
}

fn pick<'a, T>(rng: &mut StdRng, choices: &'a [T]) -> &'a T {
    &choices[rng.gen_range(0..choices.len())]
}

/// Extracts `"key": value` from a flat JSON object.
fn field<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    let tag = format!("\"{key}\"");
    let at = text
        .find(&tag)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    let rest = &text[at + tag.len()..];
    let rest = rest
        .strip_prefix(char::is_whitespace)
        .unwrap_or(rest)
        .strip_prefix(':')
        .ok_or_else(|| format!("field '{key}' has no value"))?;
    let end = rest
        .find([',', '}', '\n'])
        .ok_or_else(|| format!("field '{key}' is unterminated"))?;
    rest[..end].trim().parse().map_err(|_| {
        format!(
            "field '{key}' has a malformed value: {}",
            rest[..end].trim()
        )
    })
}

/// Runs one case end to end. `Err` carries either a cross-check
/// mismatch description or the panic message of an invariant
/// violation (the [`forhdc_core::VIOLATION_PREFIX`] report).
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    let case = case.clone();
    match panic::catch_unwind(AssertUnwindSafe(move || run_case_inner(&case))) {
        Ok(r) => r,
        Err(payload) => Err(panic_text(payload)),
    }
}

fn run_case_inner(case: &FuzzCase) -> Result<(), String> {
    let wl = case.workload();
    // 1. Unchecked baseline.
    let base = System::new(case.system_config(), &wl).run();
    // 2. Checked run: every invariant audited; report byte-identical.
    let (checked, auditor) = System::builder(case.system_config(), &wl)
        .auditor(case.auditor())
        .build()
        .run_audited();
    if auditor.observations() == 0 {
        return Err("checked run made no audit observations".into());
    }
    if format!("{base:?}") != format!("{checked:?}") {
        return Err("checked report differs from unchecked report".into());
    }
    // 3. Traced run: tracing must not perturb the simulation.
    let (traced, _) = System::new_traced(case.system_config(), &wl, MemTracer::new()).run_traced();
    if format!("{base:?}") != format!("{traced:?}") {
        return Err("traced report differs from untraced report".into());
    }
    // 4. Faulted checked run: degraded-mode paths keep the invariants
    // too. A request timeout keeps pathological schedules from
    // wedging the iteration.
    let cfg = case.system_config().with_recovery(RetryPolicy {
        deadline_ns: Some(10_000_000_000),
        ..RetryPolicy::default()
    });
    let faults = SeededFaults::new(case.fault_config());
    let (faulted, _) = System::builder(cfg, &wl)
        .faults(faults)
        .auditor(case.auditor())
        .build()
        .run_audited();
    if faulted.requests == 0 {
        return Err("faulted run completed no requests".into());
    }
    Ok(())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic halving shrinker: repeatedly halves the request,
/// stream, and file counts, keeping each halving only while the case
/// still fails. The result is the smallest case this ladder reaches,
/// not a global minimum — but it is reached deterministically.
pub fn shrink(mut case: FuzzCase) -> FuzzCase {
    loop {
        let mut shrunk = false;
        for dim in 0..3u8 {
            let mut candidate = case.clone();
            match dim {
                0 if candidate.requests >= 16 => candidate.requests /= 2,
                1 if candidate.streams >= 2 => candidate.streams /= 2,
                2 if candidate.files >= 32 => candidate.files /= 2,
                _ => continue,
            }
            if run_case(&candidate).is_err() {
                case = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return case;
        }
    }
}

/// Writes a reproducer for `case` under `dir`, named after the fuzz
/// seed and iteration that found it. Returns the path written.
pub fn write_repro(dir: &Path, case: &FuzzCase, seed: u64, iter: u64) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("case-{seed}-{iter}.json"));
    std::fs::write(&path, case.to_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The outcome of a fuzz run: how many iterations ran clean, and the
/// first failure (shrunk, with its reproducer path) if any.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Iterations that completed without a failure.
    pub clean: u64,
    /// First failure: the shrunk case, its error, its reproducer.
    pub failure: Option<(FuzzCase, String, PathBuf)>,
}

/// Runs `iters` fuzz iterations from `seed`, stopping at (and
/// shrinking) the first failure. Reproducers land under `repro_dir`.
pub fn fuzz(iters: u64, seed: u64, repro_dir: &Path) -> Result<FuzzOutcome, String> {
    for iter in 0..iters {
        let case = FuzzCase::draw(seed, iter);
        if let Err(err) = run_case(&case) {
            let shrunk = shrink(case);
            let path = write_repro(repro_dir, &shrunk, seed, iter)?;
            return Ok(FuzzOutcome {
                clean: iter,
                failure: Some((shrunk, err, path)),
            });
        }
    }
    Ok(FuzzOutcome {
        clean: iters,
        failure: None,
    })
}

/// Replays a reproducer file. `Ok(Err(_))` means the case still fails
/// (it reproduced); `Ok(Ok(()))` means it now passes; the outer `Err`
/// is a file or parse problem.
pub fn replay(path: &Path) -> Result<Result<(), String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let case = FuzzCase::from_json(&text)?;
    Ok(run_case(&case))
}

/// The hidden deliberate-violation selftest (never part of `repro
/// all`): three jobs, the middle one running [`FuzzCase::planted`]
/// through the full fuzz pipeline — detect, shrink, write the
/// reproducer under `results/repros/` — before panicking with the
/// structured violation report so the crash-safe runner records a
/// manifest failure and the process exits non-zero.
pub fn plan_selftest_violation(repro_dir: PathBuf) -> PlannedExperiment {
    let jobs = (0..3)
        .map(|i| {
            let dir = repro_dir.clone();
            let spec = JobSpec::new("selftest-violation", i, format!("v{i}"));
            SimJob::new(spec, move || {
                if i == 1 {
                    let case = FuzzCase::planted();
                    let err = match run_case(&case) {
                        Err(e) => e,
                        Ok(()) => panic!("selftest: the planted violation did not fire"),
                    };
                    let shrunk = shrink(case);
                    let path = write_repro(&dir, &shrunk, 0, 0)
                        .unwrap_or_else(|e| panic!("selftest: {e}"));
                    panic!(
                        "selftest: planted violation reproduced (reproducer at {}): {err}",
                        path.display()
                    );
                }
                JobOutput::new().metric("ok", 1.0)
            })
        })
        .collect();
    PlannedExperiment {
        id: "selftest-violation",
        jobs,
        assemble: Box::new(|out| {
            let mut t = Table::new(
                "selftest-violation",
                "Auditor violation selftest (job 1 plants a violation by design)",
                &["point", "status"],
            );
            for (i, o) in out.iter().enumerate() {
                let status = if o.try_get("ok").is_some() {
                    "ok"
                } else {
                    "failed"
                };
                t.push_row(vec![i.to_string(), status.to_string()]);
            }
            t
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_core::VIOLATION_PREFIX;
    use forhdc_runner::Runner;

    #[test]
    fn json_roundtrip_is_lossless() {
        for iter in 0..20 {
            let case = FuzzCase::draw(42, iter);
            assert_eq!(FuzzCase::from_json(&case.to_json()).unwrap(), case);
        }
        let planted = FuzzCase::planted();
        assert_eq!(FuzzCase::from_json(&planted.to_json()).unwrap(), planted);
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        assert!(FuzzCase::from_json("{}").unwrap_err().contains("seed"));
        let broken = FuzzCase::planted().to_json().replace("400", "four");
        assert!(FuzzCase::from_json(&broken)
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn a_short_fuzz_run_finds_nothing() {
        let dir = std::env::temp_dir().join("forhdc-fuzz-clean");
        let outcome = fuzz(5, 1, &dir).unwrap();
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert_eq!(outcome.clean, 5);
    }

    #[test]
    fn a_planted_violation_fails_shrinks_and_replays() {
        let case = FuzzCase::planted();
        let err = run_case(&case).unwrap_err();
        assert!(err.contains(VIOLATION_PREFIX), "{err}");
        let shrunk = shrink(case.clone());
        assert!(shrunk.requests <= case.requests);
        assert!(
            run_case(&shrunk).unwrap_err().contains(VIOLATION_PREFIX),
            "shrunk case must still fail"
        );
        // Round-trip through the reproducer file.
        let dir = std::env::temp_dir().join("forhdc-fuzz-planted");
        let path = write_repro(&dir, &shrunk, 9, 9).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.unwrap_err().contains(VIOLATION_PREFIX));
    }

    #[test]
    fn selftest_violation_records_the_failure_and_writes_a_reproducer() {
        let dir = std::env::temp_dir().join("forhdc-fuzz-selftest");
        let plan = plan_selftest_violation(dir.clone());
        let runner = Runner::new(2).quiet(true);
        let (table, stats) = plan.run_with(&runner);
        assert!(table.is_none(), "a failed experiment assembles no table");
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].point, 1);
        assert!(stats.failures[0].error.contains("planted violation"));
        let repro = dir.join("case-0-0.json");
        assert!(
            repro.is_file(),
            "reproducer must land at {}",
            repro.display()
        );
        assert!(
            replay(&repro).unwrap().is_err(),
            "reproducer must re-trigger"
        );
    }
}
