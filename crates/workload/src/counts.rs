//! Exact per-block access counts in one byte per block.
//!
//! Figure 2 and the HDC planner need, for every logical block up to a
//! trace's footprint, how often the trace touched it. Almost every
//! block is touched fewer than 255 times, so [`BlockCounts`] keeps one
//! `u8` per block and moves only the excess of the rare hotter blocks
//! into a small side map. Counts stay exact.

use std::collections::HashMap;

use crate::trace::TraceRequest;

/// Exact access counts per logical block, one byte per block up to the
/// highest block counted.
///
/// A block counted 255 times or more keeps 255 in its byte and the
/// rest in a side map, so [`BlockCounts::get`] is exact for any count.
///
/// # Example
///
/// ```
/// use forhdc_sim::{LogicalBlock, ReadWrite};
/// use forhdc_workload::{BlockCounts, TraceRequest};
///
/// let mut counts = BlockCounts::with_footprint(4);
/// let r = TraceRequest { start: LogicalBlock::new(1), nblocks: 2, kind: ReadWrite::Read };
/// for _ in 0..300 {
///     counts.add(&r);
/// }
/// assert_eq!(counts.get(1), 300);
/// assert_eq!(counts.get(0), 0);
/// assert_eq!(counts.iter().collect::<Vec<_>>(), vec![(1, 300), (2, 300)]);
/// assert_eq!((counts.distinct(), counts.max()), (2, 300));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockCounts {
    /// Count per block, saturated at `u8::MAX`.
    low: Vec<u8>,
    /// Accesses beyond `u8::MAX`, for the blocks whose byte saturated.
    excess: HashMap<u64, u32>,
}

impl BlockCounts {
    /// Empty counts with room for blocks `0..footprint`, so counting a
    /// trace whose footprint is known never reallocates.
    pub fn with_footprint(footprint: u64) -> Self {
        BlockCounts {
            low: vec![0; footprint as usize],
            excess: HashMap::new(),
        }
    }

    /// Counts one access to every block of `r`, growing the table if
    /// `r` ends past it.
    pub fn add(&mut self, r: &TraceRequest) {
        let start = r.start.index() as usize;
        let end = start + r.nblocks as usize;
        if end > self.low.len() {
            self.low.resize(end, 0);
        }
        for (block, c) in (start as u64..).zip(&mut self.low[start..end]) {
            match c.checked_add(1) {
                Some(n) => *c = n,
                None => *self.excess.entry(block).or_insert(0) += 1,
            }
        }
    }

    /// Accesses to `block` (0 past the counted range).
    pub fn get(&self, block: u64) -> u32 {
        match self.low.get(block as usize) {
            Some(&c) => self.count(block, c),
            None => 0,
        }
    }

    /// The blocks counted at least once with their counts, in block
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        (0u64..)
            .zip(&self.low)
            .filter(|&(_, &c)| c != 0)
            .map(|(block, &c)| (block, self.count(block, c)))
    }

    /// Number of blocks counted at least once.
    pub fn distinct(&self) -> u64 {
        self.low.iter().filter(|&&c| c != 0).count() as u64
    }

    /// The highest count of any block (0 when nothing was counted).
    pub fn max(&self) -> u32 {
        let low = self.low.iter().copied().max().unwrap_or(0) as u32;
        low + self.excess.values().copied().max().unwrap_or(0)
    }

    /// One past the highest block the table covers: the footprint it
    /// was sized for, or the end of the furthest request added.
    pub(crate) fn footprint(&self) -> u64 {
        self.low.len() as u64
    }

    fn count(&self, block: u64, low: u8) -> u32 {
        if low == u8::MAX {
            u8::MAX as u32 + self.excess.get(&block).copied().unwrap_or(0)
        } else {
            low as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_sim::{LogicalBlock, ReadWrite};
    use proptest::prelude::*;

    fn req(start: u64, n: u32) -> TraceRequest {
        TraceRequest {
            start: LogicalBlock::new(start),
            nblocks: n,
            kind: ReadWrite::Read,
        }
    }

    /// The dense `u32` count `BlockCounts` replaced, kept as the
    /// executable specification.
    fn dense(reqs: &[TraceRequest]) -> Vec<u32> {
        let footprint = reqs
            .iter()
            .map(|r| r.start.index() + r.nblocks as u64)
            .max()
            .unwrap_or(0);
        let mut counts = vec![0u32; footprint as usize];
        for r in reqs {
            for i in 0..r.nblocks as u64 {
                counts[(r.start.index() + i) as usize] += 1;
            }
        }
        counts
    }

    fn counted(reqs: &[TraceRequest]) -> BlockCounts {
        let mut c = BlockCounts::default();
        for r in reqs {
            c.add(r);
        }
        c
    }

    #[test]
    fn saturation_moves_the_excess_aside() {
        let mut c = BlockCounts::with_footprint(3);
        for _ in 0..255 {
            c.add(&req(1, 1));
        }
        assert_eq!((c.get(1), c.excess.len()), (255, 0));
        c.add(&req(0, 2));
        assert_eq!((c.get(0), c.get(1), c.excess.get(&1)), (1, 256, Some(&1)));
        assert_eq!((c.distinct(), c.max(), c.footprint()), (2, 256, 3));
    }

    #[test]
    fn empty_counts() {
        let c = BlockCounts::default();
        assert_eq!(
            (c.distinct(), c.max(), c.footprint(), c.get(7)),
            (0, 0, 0, 0)
        );
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn add_grows_past_the_sized_footprint() {
        let mut c = BlockCounts::with_footprint(2);
        c.add(&req(3, 2));
        assert_eq!(c.footprint(), 5);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(3, 1), (4, 1)]);
    }

    proptest! {
        /// Most blocks see a handful of accesses; a few hot extents are
        /// repeated hundreds of times, past the byte's saturation.
        #[test]
        fn matches_the_dense_count(
            reqs in prop::collection::vec((0u64..200, 1u32..6), 0..80),
            hot in prop::collection::vec((0u64..200, 1u32..4, 200usize..600), 0..4),
        ) {
            let mut all: Vec<TraceRequest> = reqs.iter().map(|&(s, n)| req(s, n)).collect();
            for &(s, n, times) in &hot {
                all.extend(std::iter::repeat_n(req(s, n), times));
            }
            let want = dense(&all);
            let got = counted(&all);
            prop_assert_eq!(got.footprint(), want.len() as u64);
            for (b, &w) in want.iter().enumerate() {
                prop_assert_eq!(got.get(b as u64), w);
            }
            let nonzero: Vec<(u64, u32)> = (0u64..)
                .zip(want.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect();
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), nonzero.clone());
            prop_assert_eq!(got.distinct(), nonzero.len() as u64);
            prop_assert_eq!(got.max(), want.iter().copied().max().unwrap_or(0));
        }
    }
}
