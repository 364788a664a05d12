//! Property-based invariants of the host models, including a
//! differential check of the list-based [`BufferCache`] against the
//! original `BTreeSet<(stamp, block)>` LRU bookkeeping.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use forhdc_host::coalesce::{coalesce_window, TimedAccess};
use forhdc_host::{BufferCache, SequentialPrefetcher, StreamDriver};
use forhdc_layout::FileId;
use forhdc_sim::{LogicalBlock, ReadWrite, SimDuration, SimTime};
use forhdc_workload::{Trace, TraceRequest};

/// The pre-optimization [`BufferCache`] recency bookkeeping, kept as an
/// executable specification: a monotonic stamp per resident block and a
/// `BTreeSet<(stamp, block)>` whose minimum is the LRU victim.
#[derive(Debug, Default)]
struct RefBufferCache {
    map: HashMap<u64, u64>, // block -> stamp
    order: BTreeSet<(u64, u64)>,
    capacity: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefBufferCache {
    fn new(capacity: u64) -> Self {
        RefBufferCache {
            capacity,
            ..RefBufferCache::default()
        }
    }

    fn promote(&mut self, block: u64) {
        let stamp = self.map[&block];
        self.order.remove(&(stamp, block));
        self.clock += 1;
        self.order.insert((self.clock, block));
        self.map.insert(block, self.clock);
    }

    fn insert_new(&mut self, block: u64) {
        if self.map.len() as u64 >= self.capacity {
            let &(stamp, victim) = self.order.first().expect("full cache has a victim");
            self.order.remove(&(stamp, victim));
            self.map.remove(&victim);
        }
        self.clock += 1;
        self.order.insert((self.clock, block));
        self.map.insert(block, self.clock);
    }

    /// Returns `true` on a hit (mirrors `BufferAccess::is_hit`).
    fn access(&mut self, block: u64) -> bool {
        if self.map.contains_key(&block) {
            self.promote(block);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.insert_new(block);
        false
    }

    fn install(&mut self, block: u64) {
        if self.map.contains_key(&block) {
            self.promote(block);
        } else {
            self.insert_new(block);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Window coalescing conserves blocks and preserves order.
    #[test]
    fn coalescing_conserves_blocks(
        gaps in prop::collection::vec(0u64..5_000, 1..120),
        blocks in prop::collection::vec(0u64..300, 1..120),
    ) {
        let n = gaps.len().min(blocks.len());
        let mut at = 0u64;
        let log: Vec<TimedAccess> = (0..n)
            .map(|i| {
                at += gaps[i];
                TimedAccess {
                    at: SimTime::ZERO + SimDuration::from_micros(at),
                    block: LogicalBlock::new(blocks[i]),
                    kind: ReadWrite::Read,
                }
            })
            .collect();
        let trace = coalesce_window(&log, SimDuration::from_millis(2));
        prop_assert_eq!(trace.total_blocks(), n as u64);
        prop_assert!(trace.len() <= n);
        // Flattening the trace reproduces the block sequence.
        let flat: Vec<u64> = trace
            .requests()
            .iter()
            .flat_map(|r| (0..r.nblocks as u64).map(move |i| r.start.index() + i))
            .collect();
        prop_assert_eq!(flat, blocks[..n].to_vec());
    }

    /// The buffer cache never exceeds capacity and hits+misses equals
    /// accesses.
    #[test]
    fn buffer_cache_accounting(
        capacity in 1u64..64,
        accesses in prop::collection::vec(0u64..200, 1..400),
    ) {
        let mut c = BufferCache::new(capacity);
        for &b in &accesses {
            c.access(LogicalBlock::new(b), ReadWrite::Read);
            prop_assert!(c.len() <= capacity);
        }
        prop_assert_eq!(c.hits() + c.misses(), accesses.len() as u64);
    }

    /// The prefetch window never exceeds the maximum and only grows on
    /// strictly sequential accesses.
    #[test]
    fn prefetch_window_bounded(
        max in 1u32..64,
        offsets in prop::collection::vec(0u64..100, 1..200),
    ) {
        let mut p = SequentialPrefetcher::new(max);
        let mut prev: Option<(u64, u32)> = None;
        for &o in &offsets {
            let w = p.on_access(FileId::new(0), o);
            prop_assert!(w <= max);
            if let Some((po, pw)) = prev {
                if o != po + 1 {
                    prop_assert!(w <= 1, "non-sequential access must collapse: {w}");
                } else {
                    prop_assert!(w >= pw.min(max), "sequential access must not shrink");
                }
            }
            prev = Some((o, w));
        }
    }

    /// The list-based buffer cache is observably identical to the
    /// original stamp-set LRU: same hit/miss per access, same resident
    /// set, same hit and miss totals.
    #[test]
    fn buffer_cache_matches_btreeset_reference(
        capacity in 1u64..48,
        ops in prop::collection::vec((0u64..160, any::<bool>()), 1..400),
    ) {
        let mut real = BufferCache::new(capacity);
        let mut spec = RefBufferCache::new(capacity);
        for (step, &(block, install)) in ops.iter().enumerate() {
            let b = LogicalBlock::new(block);
            if install {
                real.install(b);
                spec.install(block);
            } else {
                let hit = real.access(b, ReadWrite::Read).is_hit();
                prop_assert_eq!(
                    hit,
                    spec.access(block),
                    "access({}) diverged at step {}", block, step
                );
            }
            prop_assert_eq!(real.len(), spec.map.len() as u64);
        }
        prop_assert_eq!(real.hits(), spec.hits);
        prop_assert_eq!(real.misses(), spec.misses);
        for block in 0u64..160 {
            prop_assert_eq!(
                real.contains(LogicalBlock::new(block)),
                spec.map.contains_key(&block),
                "resident set diverged at block {}", block
            );
        }
    }

    /// Structural coherence under checked mode: the deep validator the
    /// auditor runs (DESIGN.md §6.5) holds after every access/install
    /// of an arbitrary workout.
    #[test]
    fn buffer_cache_stays_coherent_under_arbitrary_ops(
        capacity in 1u64..48,
        ops in prop::collection::vec((0u64..160, any::<bool>()), 1..400),
    ) {
        let mut c = BufferCache::new(capacity);
        for (step, &(block, install)) in ops.iter().enumerate() {
            let b = LogicalBlock::new(block);
            if install {
                c.install(b);
            } else {
                c.access(b, ReadWrite::Read);
            }
            if let Err(e) = c.check_coherence() {
                prop_assert!(false, "buffer cache, step {}: {}", step, e);
            }
        }
    }

    /// The stream driver issues every request exactly once, regardless
    /// of completion order.
    #[test]
    fn stream_driver_exactly_once(
        job_lens in prop::collection::vec(1u32..5, 1..60),
        streams in 1u32..32,
        pick in prop::collection::vec(any::<prop::sample::Index>(), 0..400),
    ) {
        let total: u32 = job_lens.iter().sum();
        let reqs: Vec<TraceRequest> = (0..total)
            .map(|i| TraceRequest {
                start: LogicalBlock::new(i as u64),
                nblocks: 1,
                kind: ReadWrite::Read,
            })
            .collect();
        let trace = Trace::with_jobs(reqs, job_lens);
        let mut d = StreamDriver::new(&trace, streams);
        let mut seen: Vec<u64> = Vec::new();
        let mut active: Vec<forhdc_sim::StreamId> = d
            .start()
            .into_iter()
            .map(|(s, r)| {
                seen.push(r.start.index());
                s
            })
            .collect();
        let mut pi = 0;
        while !active.is_empty() {
            // Complete a pseudo-random active stream.
            let idx = pick
                .get(pi)
                .map(|p| p.index(active.len()))
                .unwrap_or(active.len() - 1);
            pi += 1;
            let s = active.swap_remove(idx);
            if let Some((s2, r)) = d.complete(s) {
                seen.push(r.start.index());
                active.push(s2);
            }
        }
        seen.sort_unstable();
        let expected: Vec<u64> = (0..total as u64).collect();
        prop_assert_eq!(seen, expected);
        prop_assert!(d.is_done());
    }
}
