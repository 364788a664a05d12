//! # forhdc-fault
//!
//! Deterministic, seeded fault schedules for the simulated disk array.
//!
//! The simulator is generic over a [`FaultModel`], mirroring the
//! tracer facade: the default [`NoFaults`] answers `enabled() ==
//! false` as a compile-time constant, so every fault probe in the hot
//! path monomorphizes away and an unfaulted run is byte-identical to
//! one built before this crate existed (test-enforced, like
//! traced==untraced).
//!
//! [`SeededFaults`] implements four fault kinds:
//!
//! - **Media errors** — persistent per-block bad sectors. Whether a
//!   block is bad is a pure function of `(seed, disk, block, r/w)`
//!   via a splitmix64-style finalizer, so the answer does not depend
//!   on visit order: the same schedule yields the same fault sequence
//!   no matter how the runner parallelizes points.
//! - **Bus errors** — transient per-transfer faults drawn from a
//!   seeded RNG stream; a retry of the same transfer rolls again.
//! - **Offline windows** — per-disk intervals of simulated time in
//!   which the disk accepts no media operations; queued work resumes
//!   when the window closes.
//! - **Power loss** — periodic controller power-loss events that
//!   discard volatile cache contents; dirty HDC blocks that were not
//!   yet flushed become *lost writes*.
//!
//! The engine only *decides* faults. [`RetryPolicy`] bounds the
//! recovery of both planes; `forhdc-core` applies it (with degraded
//! read-ahead) and tallies the outcome into a [`FaultStats`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A closed-open interval of simulated time during which one disk is
/// offline (accepts no new media operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineWindow {
    /// Physical disk id.
    pub disk: u16,
    /// Window start, in simulated nanoseconds (inclusive).
    pub start_ns: u64,
    /// Window end, in simulated nanoseconds (exclusive).
    pub end_ns: u64,
}

/// The full description of a seeded fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Probability that any given block is a persistent read-bad
    /// sector.
    pub read_error_rate: f64,
    /// Probability that any given block is a persistent write-bad
    /// sector.
    pub write_error_rate: f64,
    /// Probability that one bus transfer fails transiently.
    pub bus_error_rate: f64,
    /// Scheduled whole-disk offline windows.
    pub offline: Vec<OfflineWindow>,
    /// Controller power-loss period in simulated nanoseconds; `None`
    /// disables power-loss events.
    pub power_loss_period_ns: Option<u64>,
}

impl FaultConfig {
    /// A schedule with every fault disabled, rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_rate: 0.0,
            write_error_rate: 0.0,
            bus_error_rate: 0.0,
            offline: Vec::new(),
            power_loss_period_ns: None,
        }
    }

    /// Sets the persistent media bad-sector probabilities.
    pub fn with_media_rates(mut self, read: f64, write: f64) -> Self {
        self.read_error_rate = read;
        self.write_error_rate = write;
        self
    }

    /// Sets the transient bus-error probability.
    pub fn with_bus_rate(mut self, rate: f64) -> Self {
        self.bus_error_rate = rate;
        self
    }

    /// Adds a whole-disk offline window.
    pub fn with_offline(mut self, window: OfflineWindow) -> Self {
        self.offline.push(window);
        self
    }

    /// Enables periodic controller power loss every `period_ns`.
    pub fn with_power_loss_period_ns(mut self, period_ns: u64) -> Self {
        self.power_loss_period_ns = Some(period_ns);
        self
    }
}

/// The fault-decision interface the simulator is generic over.
///
/// Every method has a "nothing happens" default so [`NoFaults`] is an
/// empty impl; `enabled()` gates every call site, letting the default
/// monomorphize to straight-line fault-free code.
pub trait FaultModel {
    /// Whether this model can ever inject a fault. Call sites guard on
    /// this so the `NoFaults` instantiation compiles the fault paths
    /// out entirely.
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    /// Whether `block` on `disk` is a persistent bad sector for the
    /// given direction. Must be a pure function of its arguments (and
    /// the seed) — order-independence is what keeps parallel runs
    /// deterministic.
    #[inline(always)]
    fn media_error(&self, _disk: u16, _block: u64, _write: bool) -> bool {
        false
    }

    /// Rolls one transient bus-transfer fault. Stateful: consecutive
    /// calls advance a seeded stream, so a retry rolls fresh.
    #[inline(always)]
    fn bus_error(&mut self) -> bool {
        false
    }

    /// If `disk` is offline at `now_ns`, the simulated time at which
    /// it comes back online.
    #[inline(always)]
    fn offline_until(&self, _disk: u16, _now_ns: u64) -> Option<u64> {
        None
    }

    /// Controller power-loss period, if the schedule has one.
    #[inline(always)]
    fn power_loss_period_ns(&self) -> Option<u64> {
        None
    }
}

/// The zero-overhead default: no faults, ever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultModel for NoFaults {}

/// A deterministic fault engine driven by a [`FaultConfig`].
#[derive(Debug, Clone)]
pub struct SeededFaults {
    cfg: FaultConfig,
    bus: StdRng,
}

impl SeededFaults {
    /// Builds the engine; the bus stream is derived from the config
    /// seed.
    pub fn new(cfg: FaultConfig) -> Self {
        let bus = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xB5);
        SeededFaults { cfg, bus }
    }

    /// The schedule this engine runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }
}

/// Splitmix64-style finalizer: maps `(seed, disk, block, salt)` to a
/// uniform f64 in `[0, 1)` using the same 53-bit mantissa mapping as
/// the workspace RNG. Stateless, so bad sectors are a property of the
/// schedule, not of the visit order.
fn hash_u01(seed: u64, disk: u16, block: u64, salt: u64) -> f64 {
    let mut x = seed
        ^ (disk as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
        ^ block.wrapping_mul(0xD1B54A32D192ED03)
        ^ salt;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const READ_SALT: u64 = 0x52;
const WRITE_SALT: u64 = 0x57;

impl FaultModel for SeededFaults {
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }

    fn media_error(&self, disk: u16, block: u64, write: bool) -> bool {
        let (rate, salt) = if write {
            (self.cfg.write_error_rate, WRITE_SALT)
        } else {
            (self.cfg.read_error_rate, READ_SALT)
        };
        // `x < 0.0` is false for every x in [0, 1), so a zero rate
        // never faults without a special case.
        hash_u01(self.cfg.seed, disk, block, salt) < rate
    }

    fn bus_error(&mut self) -> bool {
        // Skip the draw entirely at rate zero so a zero-rate schedule
        // is behaviorally indistinguishable from `NoFaults`.
        self.cfg.bus_error_rate > 0.0 && self.bus.gen_bool(self.cfg.bus_error_rate)
    }

    fn offline_until(&self, disk: u16, now_ns: u64) -> Option<u64> {
        self.cfg
            .offline
            .iter()
            .filter(|w| w.disk == disk && w.start_ns <= now_ns && now_ns < w.end_ns)
            .map(|w| w.end_ns)
            .max()
    }

    fn power_loss_period_ns(&self) -> Option<u64> {
        self.cfg.power_loss_period_ns
    }
}

/// The recovery policy of both planes: bounded retries with
/// exponential backoff under a cap, and an optional per-request
/// deadline, in nanoseconds of the plane's clock (simulated or wall).
/// The simulator waits the jitter-free [`RetryPolicy::backoff_ns`];
/// the live server and `loadgen` wait [`RetryPolicy::next_backoff_ns`],
/// which adds jitter pure in `(seed, request, attempt)` (the
/// media-error splitmix finalizer) and lets the deadline preempt the
/// remaining retries. Both schedules replay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per operation after the initial attempt fails.
    pub max_retries: u32,
    /// Backoff before the first retry; each further retry doubles it.
    pub backoff_base_ns: u64,
    /// Upper bound on any single backoff, jitter included.
    pub backoff_cap_ns: u64,
    /// Per-request deadline (`None` = no deadline). A request older
    /// than this completes with a timeout error.
    pub deadline_ns: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ns: 1_000_000,  // 1 ms
            backoff_cap_ns: 200_000_000, // 200 ms
            deadline_ns: None,
        }
    }
}

impl RetryPolicy {
    /// Jitter-free backoff before retry `retry` (0-based): `base <<
    /// retry`, clamped at the cap (and the shift at 20, so it cannot
    /// overflow).
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        self.backoff_base_ns
            .saturating_mul(1u64 << retry.min(20))
            .min(self.backoff_cap_ns)
    }

    /// Backoff before retry `attempt` (1-based) with up to +50 %
    /// deterministic jitter, capped. Pure in `(seed, req, attempt)`.
    fn jittered_ns(&self, seed: u64, req: u64, attempt: u32) -> u64 {
        let exp = self.backoff_ns(attempt.saturating_sub(1));
        let jitter = hash_u01(seed, attempt as u16, req, JITTER_SALT);
        let jittered = exp.saturating_add((exp as f64 * 0.5 * jitter) as u64);
        jittered.min(self.backoff_cap_ns)
    }

    /// Whether a request `elapsed_ns` old has crossed the deadline.
    pub fn expired(&self, elapsed_ns: u64) -> bool {
        self.deadline_ns.is_some_and(|d| elapsed_ns >= d)
    }

    /// The jittered backoff to wait before retry `attempt` (1-based),
    /// or `None` when recovery should stop: retries exhausted, the
    /// deadline already passed, or waiting out the backoff would cross
    /// the deadline (the deadline preempts remaining retries).
    pub fn next_backoff_ns(
        &self,
        seed: u64,
        req: u64,
        attempt: u32,
        elapsed_ns: u64,
    ) -> Option<u64> {
        if attempt > self.max_retries || self.expired(elapsed_ns) {
            return None;
        }
        let backoff = self.jittered_ns(seed, req, attempt);
        match self.deadline_ns {
            Some(d) if elapsed_ns.saturating_add(backoff) >= d => None,
            _ => Some(backoff),
        }
    }
}

const JITTER_SALT: u64 = 0x4A;

/// Parses a wall-clock offline-window spec for the live server:
/// `DISK@START_MS+LEN_MS` entries joined by `;`, e.g.
/// `0@500+300;1@0+100` (disk 0 offline from t=500ms for 300ms, disk 1
/// from startup for 100ms). Times are relative to server start;
/// returned windows are in nanoseconds, compatible with
/// [`FaultModel::offline_until`].
pub fn parse_offline_spec(spec: &str) -> Result<Vec<OfflineWindow>, String> {
    let mut windows = Vec::new();
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (disk, rest) = part
            .split_once('@')
            .ok_or_else(|| format!("offline entry '{part}': want DISK@START_MS+LEN_MS"))?;
        let (start, len) = rest
            .split_once('+')
            .ok_or_else(|| format!("offline entry '{part}': want DISK@START_MS+LEN_MS"))?;
        let disk: u16 = disk
            .parse()
            .map_err(|e| format!("offline entry '{part}': disk: {e}"))?;
        let start_ms: u64 = start
            .parse()
            .map_err(|e| format!("offline entry '{part}': start: {e}"))?;
        let len_ms: u64 = len
            .parse()
            .map_err(|e| format!("offline entry '{part}': length: {e}"))?;
        if len_ms == 0 {
            return Err(format!("offline entry '{part}': zero-length window"));
        }
        windows.push(OfflineWindow {
            disk,
            start_ns: start_ms * 1_000_000,
            end_ns: (start_ms + len_ms) * 1_000_000,
        });
    }
    Ok(windows)
}

/// Degraded-mode tallies: what the recovery policy observed and did.
/// Merged across disks/points like the cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Media read operations that hit a bad sector.
    pub media_read_errors: u64,
    /// Media write operations that hit a bad sector.
    pub media_write_errors: u64,
    /// Transient bus-transfer faults observed.
    pub bus_errors: u64,
    /// Retries issued (media + bus).
    pub retries: u64,
    /// Read-ahead extensions aborted because the speculative suffix
    /// crossed a bad sector (the demand prefix still completed).
    pub ra_aborts: u64,
    /// Host requests completed with an error after retry exhaustion
    /// or timeout.
    pub failed_requests: u64,
    /// Requests that exceeded the configured per-request timeout.
    pub timeouts: u64,
    /// Controller power-loss events delivered.
    pub power_losses: u64,
    /// Dirty HDC blocks lost to power loss or failed flushes — writes
    /// the host believed durable-in-controller that never reached the
    /// media.
    pub lost_dirty_blocks: u64,
    /// HDC flush write-backs that failed on the media (blocks were
    /// re-marked dirty for a later flush where possible).
    pub flush_failures: u64,
    /// Media operations delayed because the target disk was offline.
    pub offline_stalls: u64,
    /// Mirrored reads steered away from the policy's pick because that
    /// member was inside an offline window (degraded-mode routing).
    pub failover_reads: u64,
    /// Blocks copied onto a rebuilding mirror member from its twin.
    pub rebuilt_blocks: u64,
}

impl FaultStats {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.media_read_errors += other.media_read_errors;
        self.media_write_errors += other.media_write_errors;
        self.bus_errors += other.bus_errors;
        self.retries += other.retries;
        self.ra_aborts += other.ra_aborts;
        self.failed_requests += other.failed_requests;
        self.timeouts += other.timeouts;
        self.power_losses += other.power_losses;
        self.lost_dirty_blocks += other.lost_dirty_blocks;
        self.flush_failures += other.flush_failures;
        self.offline_stalls += other.offline_stalls;
        self.failover_reads += other.failover_reads;
        self.rebuilt_blocks += other.rebuilt_blocks;
    }

    /// Whether every counter is zero (the report omits the degraded
    /// section for a clean run).
    pub fn is_trivial(&self) -> bool {
        *self == FaultStats::default()
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "media errors {}r/{}w, bus errors {}, retries {}, ra aborts {}, \
             failed requests {}, timeouts {}, power losses {}, lost dirty {}, \
             flush failures {}, offline stalls {}, failover reads {}, \
             rebuilt blocks {}",
            self.media_read_errors,
            self.media_write_errors,
            self.bus_errors,
            self.retries,
            self.ra_aborts,
            self.failed_requests,
            self.timeouts,
            self.power_losses,
            self.lost_dirty_blocks,
            self.flush_failures,
            self.offline_stalls,
            self.failover_reads,
            self.rebuilt_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_inert() {
        let mut f = NoFaults;
        assert!(!f.enabled());
        assert!(!f.media_error(0, 0, false));
        assert!(!f.bus_error());
        assert_eq!(f.offline_until(0, 0), None);
        assert_eq!(f.power_loss_period_ns(), None);
    }

    #[test]
    fn media_errors_are_pure_and_order_independent() {
        let f = SeededFaults::new(FaultConfig::new(42).with_media_rates(0.01, 0.01));
        let forward: Vec<bool> = (0..10_000).map(|b| f.media_error(3, b, false)).collect();
        let backward: Vec<bool> = (0..10_000)
            .rev()
            .map(|b| f.media_error(3, b, false))
            .collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // Another engine with the same seed agrees block for block.
        let g = SeededFaults::new(FaultConfig::new(42).with_media_rates(0.01, 0.01));
        assert!((0..10_000).all(|b| f.media_error(3, b, false) == g.media_error(3, b, false)));
    }

    #[test]
    fn media_rate_extremes() {
        let zero = SeededFaults::new(FaultConfig::new(7));
        assert!((0..5_000).all(|b| !zero.media_error(0, b, false)));
        assert!((0..5_000).all(|b| !zero.media_error(0, b, true)));
        let one = SeededFaults::new(FaultConfig::new(7).with_media_rates(1.0, 1.0));
        assert!((0..5_000).all(|b| one.media_error(0, b, false)));
    }

    #[test]
    fn media_rate_hits_roughly_the_target() {
        let f = SeededFaults::new(FaultConfig::new(9).with_media_rates(0.01, 0.0));
        let hits = (0..100_000).filter(|&b| f.media_error(0, b, false)).count();
        assert!((500..2_000).contains(&hits), "hits = {hits}");
        // Write direction uses an independent stream; rate 0 ⇒ none.
        assert!((0..100_000).all(|b| !f.media_error(0, b, true)));
    }

    #[test]
    fn read_and_write_bad_sectors_are_independent() {
        let f = SeededFaults::new(FaultConfig::new(11).with_media_rates(0.05, 0.05));
        let both = (0..50_000)
            .filter(|&b| f.media_error(0, b, false) && f.media_error(0, b, true))
            .count();
        let reads = (0..50_000).filter(|&b| f.media_error(0, b, false)).count();
        // If the streams were identical, both == reads.
        assert!(both < reads / 2, "both = {both}, reads = {reads}");
    }

    #[test]
    fn bus_stream_is_seed_deterministic() {
        let cfg = FaultConfig::new(5).with_bus_rate(0.3);
        let mut a = SeededFaults::new(cfg.clone());
        let mut b = SeededFaults::new(cfg);
        let sa: Vec<bool> = (0..1000).map(|_| a.bus_error()).collect();
        let sb: Vec<bool> = (0..1000).map(|_| b.bus_error()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&x| x));
        assert!(sa.iter().any(|&x| !x));
    }

    #[test]
    fn zero_bus_rate_never_draws() {
        let mut f = SeededFaults::new(FaultConfig::new(5));
        assert!((0..100).all(|_| !f.bus_error()));
    }

    #[test]
    fn offline_windows_gate_by_disk_and_time() {
        let f = SeededFaults::new(FaultConfig::new(1).with_offline(OfflineWindow {
            disk: 2,
            start_ns: 100,
            end_ns: 200,
        }));
        assert_eq!(f.offline_until(2, 99), None);
        assert_eq!(f.offline_until(2, 100), Some(200));
        assert_eq!(f.offline_until(2, 199), Some(200));
        assert_eq!(f.offline_until(2, 200), None);
        assert_eq!(f.offline_until(1, 150), None);
    }

    #[test]
    fn overlapping_windows_report_the_latest_end() {
        let f = SeededFaults::new(
            FaultConfig::new(1)
                .with_offline(OfflineWindow {
                    disk: 0,
                    start_ns: 0,
                    end_ns: 50,
                })
                .with_offline(OfflineWindow {
                    disk: 0,
                    start_ns: 10,
                    end_ns: 90,
                }),
        );
        assert_eq!(f.offline_until(0, 20), Some(90));
    }

    #[test]
    fn wall_backoff_is_deterministic_in_the_seed() {
        let p = RetryPolicy::default();
        for attempt in 1..=5 {
            for req in [0u64, 7, 1 << 40] {
                assert_eq!(
                    p.jittered_ns(42, req, attempt),
                    p.jittered_ns(42, req, attempt)
                );
            }
        }
        // A different seed jitters differently somewhere in the grid.
        assert!((1..=5).any(|a| p.jittered_ns(1, 9, a) != p.jittered_ns(2, 9, a)));
        // Jitter stays within [exp, 1.5*exp] before the cap.
        let exp = p.backoff_base_ns;
        let b = p.jittered_ns(3, 3, 1);
        assert!(b >= exp && b <= exp + exp / 2, "b = {b}");
    }

    #[test]
    fn wall_backoff_grows_and_respects_the_cap() {
        let p = RetryPolicy {
            max_retries: 40,
            backoff_base_ns: 1_000,
            backoff_cap_ns: 50_000,
            deadline_ns: None,
        };
        let series: Vec<u64> = (1..=12).map(|a| p.jittered_ns(5, 0, a)).collect();
        // Exponential until the cap, then pinned at the cap.
        assert!(series.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*series.last().unwrap(), 50_000);
        assert!(series[0] < 2_000);
        // Huge attempt numbers cannot overflow the shift.
        assert_eq!(p.jittered_ns(5, 0, 1_000_000), 50_000);
    }

    #[test]
    fn jitter_free_backoff_doubles_from_the_base_then_clamps_at_the_cap() {
        let p = RetryPolicy::default();
        // The simulator's schedule: retry n waits 1 ms << n.
        for retry in 0..=7 {
            assert_eq!(p.backoff_ns(retry), 1_000_000 << retry, "retry {retry}");
        }
        // 1 ms << 8 = 256 ms passes the 200 ms cap.
        for retry in [8, 9, 20, 21, u32::MAX] {
            assert_eq!(p.backoff_ns(retry), p.backoff_cap_ns, "retry {retry}");
        }
    }

    #[test]
    fn wall_deadline_preempts_remaining_retries() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_base_ns: 1_000_000,
            backoff_cap_ns: 100_000_000,
            deadline_ns: Some(5_000_000),
        };
        // Fresh request: retries proceed.
        assert!(p.next_backoff_ns(1, 0, 1, 0).is_some());
        // Past the deadline: no retry even though 9 remain.
        assert!(p.next_backoff_ns(1, 0, 2, 5_000_000).is_none());
        assert!(p.expired(5_000_000));
        // Waiting out the backoff would cross the deadline: preempted.
        assert!(p.next_backoff_ns(1, 0, 3, 4_500_000).is_none());
        assert!(!p.expired(4_500_000));
        // Retries exhausted ends recovery too.
        let q = RetryPolicy {
            max_retries: 2,
            deadline_ns: None,
            ..p
        };
        assert!(q.next_backoff_ns(1, 0, 2, 0).is_some());
        assert!(q.next_backoff_ns(1, 0, 3, 0).is_none());
    }

    #[test]
    fn offline_spec_parses_and_rejects() {
        let ws = parse_offline_spec("0@500+300;1@0+100").unwrap();
        assert_eq!(
            ws,
            vec![
                OfflineWindow {
                    disk: 0,
                    start_ns: 500_000_000,
                    end_ns: 800_000_000,
                },
                OfflineWindow {
                    disk: 1,
                    start_ns: 0,
                    end_ns: 100_000_000,
                },
            ]
        );
        assert!(parse_offline_spec("").unwrap().is_empty());
        for bad in ["1@5", "x@1+2", "1@x+2", "1@2+x", "1@2+0", "nope"] {
            assert!(parse_offline_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = FaultStats {
            media_read_errors: 1,
            retries: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            media_read_errors: 3,
            lost_dirty_blocks: 5,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.media_read_errors, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.lost_dirty_blocks, 5);
        assert!(!a.is_trivial());
        assert!(FaultStats::default().is_trivial());
        let s = a.to_string();
        assert!(s.contains("media errors 4r/0w"));
        assert!(s.contains("lost dirty 5"));
    }
}
