//! Live fault state for the serving engine: the wall-clock analogue
//! of the simulator's `SeededFaults` (DESIGN.md §6.4), plus the
//! admin-injected faults the `FAULT` protocol frame plants at runtime.
//!
//! Three fault sources compose, all answered against the server's
//! monotonic clock (`ServeMetrics::now_ns`, nanoseconds since start):
//!
//! - **Seeded media errors** — `--faults media=R` reuses the exact
//!   `forhdc_fault::SeededFaults` purity law: whether a block is bad
//!   is a pure function of `(seed, disk, block)`, never of visit
//!   order, so a schedule replays identically across runs and any
//!   client holding the seed can predict the bad set.
//! - **Scheduled offline windows** — `--faults offline=SPEC` windows,
//!   wall-clock twins of the simulator's sim-time windows.
//! - **Admin faults** — planted bad blocks, offline windows, and
//!   media stalls injected into the *running* server by `FAULT`
//!   frames (the chaos harness's scalpel: each probe produces exactly
//!   one failure mode, deterministically).
//!
//! The recovery decisions (retry, back off, give up, time out) live in
//! [`forhdc_fault::RetryPolicy`]; this module only answers "is this
//! operation faulted right now?".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use forhdc_fault::{FaultConfig, FaultModel, RetryPolicy, SeededFaults};

/// Everything the engine consults on the media path. One per engine;
/// inert (three relaxed loads, no locks) when nothing is configured
/// or planted.
#[derive(Debug)]
pub struct LiveFaults {
    seeded: Option<SeededFaults>,
    policy: RetryPolicy,
    seed: u64,
    /// Planted `(disk, block)` bad sectors; consulted only while
    /// `has_planted` is set.
    planted: Mutex<Vec<(u16, u64)>>,
    has_planted: AtomicBool,
    /// Per-disk admin offline deadline (ns since start; 0 = none).
    admin_offline_ns: Vec<AtomicU64>,
    /// Per-disk media stall deadline (ns since start; 0 = none).
    stall_ns: Vec<AtomicU64>,
}

impl LiveFaults {
    /// Builds the state for a `disks`-disk array. `config` carries the
    /// seeded schedule (media rate + offline windows); `None` starts
    /// fault-free (admin frames can still plant faults later).
    pub fn new(disks: u16, config: Option<FaultConfig>, policy: RetryPolicy) -> LiveFaults {
        let seed = config.as_ref().map(|c| c.seed).unwrap_or(0);
        LiveFaults {
            seeded: config.map(SeededFaults::new),
            policy,
            seed,
            planted: Mutex::new(Vec::new()),
            has_planted: AtomicBool::new(false),
            admin_offline_ns: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            stall_ns: (0..disks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The recovery policy the engine retries under.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The schedule seed (jitter derivation).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any media-error source is live (cheap gate for the
    /// per-block scan on the media path).
    pub fn media_armed(&self) -> bool {
        self.seeded.is_some() || self.has_planted.load(Ordering::Relaxed)
    }

    /// Whether `block` on `disk` is a bad sector (seeded or planted).
    pub fn media_error(&self, disk: u16, block: u64) -> bool {
        if let Some(s) = &self.seeded {
            if s.media_error(disk, block, false) {
                return true;
            }
        }
        self.planted(disk, block)
    }

    /// Whether `(disk, block)` was admin-planted specifically. Unlike
    /// seeded schedule errors (bad sectors the cache legitimately
    /// masks), a planted block is bad *by decree from now on* — the
    /// engine fails it even on the cache-hit path so probes stay
    /// deterministic against a warm cache. Inert (one relaxed load)
    /// until the first plant.
    pub fn planted(&self, disk: u16, block: u64) -> bool {
        self.has_planted.load(Ordering::Relaxed)
            && self
                .planted
                .lock()
                .expect("planted lock poisoned")
                .contains(&(disk, block))
    }

    /// Plants a persistent bad block (admin `FAULT` frame).
    pub fn plant(&self, disk: u16, block: u64) {
        let mut p = self.planted.lock().expect("planted lock poisoned");
        if !p.contains(&(disk, block)) {
            p.push((disk, block));
        }
        self.has_planted.store(true, Ordering::Relaxed);
    }

    /// Removes planted bad blocks on `disk` inside `blocks` — the
    /// sector-remap model: a mirrored engine that reconstructed the
    /// range from the twin (failover repair or a rebuild stream) has
    /// mapped the decree-bad sectors to healthy spares. Returns how
    /// many entries were repaired. Seeded schedule errors are a pure
    /// function of `(seed, disk, block)` and stay, by the purity law.
    pub fn unplant_range(&self, disk: u16, blocks: std::ops::Range<u64>) -> u64 {
        if !self.has_planted.load(Ordering::Relaxed) {
            return 0;
        }
        let mut p = self.planted.lock().expect("planted lock poisoned");
        let before = p.len();
        p.retain(|&(d, b)| d != disk || !blocks.contains(&b));
        if p.is_empty() {
            self.has_planted.store(false, Ordering::Relaxed);
        }
        (before - p.len()) as u64
    }

    /// If `disk` is offline at `now_ns` (scheduled window or admin
    /// frame), the instant it comes back.
    pub fn offline_until(&self, disk: u16, now_ns: u64) -> Option<u64> {
        let scheduled = self
            .seeded
            .as_ref()
            .and_then(|s| s.offline_until(disk, now_ns));
        open_until(&self.admin_offline_ns, disk, now_ns).max(scheduled)
    }

    /// Admin: takes `disk` offline until `until_ns` (0 clears).
    pub fn set_offline(&self, disk: u16, until_ns: u64) {
        set_until(&self.admin_offline_ns, disk, until_ns);
    }

    /// If `disk`'s media path is stalled at `now_ns`, the instant the
    /// stall ends.
    pub fn stalled_until(&self, disk: u16, now_ns: u64) -> Option<u64> {
        open_until(&self.stall_ns, disk, now_ns)
    }

    /// Admin: stalls `disk`'s media path until `until_ns` (0 clears).
    pub fn set_stall(&self, disk: u16, until_ns: u64) {
        set_until(&self.stall_ns, disk, until_ns);
    }
}

/// The end of `disk`'s admin window if it is still open at `now_ns`.
fn open_until(windows: &[AtomicU64], disk: u16, now_ns: u64) -> Option<u64> {
    let until = windows.get(disk as usize)?.load(Ordering::Relaxed);
    (until > now_ns).then_some(until)
}

/// Sets `disk`'s admin window to end at `until_ns` (0 = none).
fn set_until(windows: &[AtomicU64], disk: u16, until_ns: u64) {
    if let Some(w) = windows.get(disk as usize) {
        w.store(until_ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_fault::OfflineWindow;

    #[test]
    fn inert_without_config() {
        let f = LiveFaults::new(2, None, RetryPolicy::default());
        assert!(!f.media_armed());
        assert!(!f.media_error(0, 0));
        assert_eq!(f.offline_until(0, 0), None);
        assert_eq!(f.stalled_until(1, 0), None);
    }

    #[test]
    fn planting_arms_and_persists() {
        let f = LiveFaults::new(2, None, RetryPolicy::default());
        f.plant(1, 77);
        f.plant(1, 77); // idempotent
        assert!(f.media_armed());
        assert!(f.media_error(1, 77));
        assert!(!f.media_error(1, 78));
        assert!(!f.media_error(0, 77));
    }

    #[test]
    fn unplanting_repairs_only_the_range_on_the_disk() {
        let f = LiveFaults::new(2, None, RetryPolicy::default());
        f.plant(0, 5);
        f.plant(0, 9);
        f.plant(1, 5);
        assert_eq!(f.unplant_range(0, 0..8), 1);
        assert!(!f.media_error(0, 5));
        assert!(f.media_error(0, 9));
        assert!(f.media_error(1, 5));
        assert_eq!(f.unplant_range(0, 0..8), 0);
        assert_eq!(f.unplant_range(0, 8..10), 1);
        assert_eq!(f.unplant_range(1, 0..10), 1);
        assert!(!f.media_armed());
    }

    #[test]
    fn seeded_blocks_match_the_pure_function() {
        let cfg = FaultConfig::new(13).with_media_rates(0.05, 0.0);
        let f = LiveFaults::new(1, Some(cfg.clone()), RetryPolicy::default());
        let oracle = SeededFaults::new(cfg);
        assert!(f.media_armed());
        assert!((0..2000).all(|b| f.media_error(0, b) == oracle.media_error(0, b, false)));
    }

    #[test]
    fn offline_merges_admin_and_scheduled() {
        let cfg = FaultConfig::new(1).with_offline(OfflineWindow {
            disk: 0,
            start_ns: 100,
            end_ns: 200,
        });
        let f = LiveFaults::new(2, Some(cfg), RetryPolicy::default());
        assert_eq!(f.offline_until(0, 150), Some(200));
        assert_eq!(f.offline_until(0, 250), None);
        f.set_offline(0, 500);
        assert_eq!(f.offline_until(0, 150), Some(500));
        assert_eq!(f.offline_until(0, 499), Some(500));
        f.set_offline(0, 0);
        assert_eq!(f.offline_until(0, 250), None);
        // Out-of-range disks never fault.
        assert_eq!(f.offline_until(9, 0), None);
    }

    #[test]
    fn stalls_expire() {
        let f = LiveFaults::new(1, None, RetryPolicy::default());
        f.set_stall(0, 1000);
        assert_eq!(f.stalled_until(0, 999), Some(1000));
        assert_eq!(f.stalled_until(0, 1000), None);
    }
}
