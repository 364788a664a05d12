//! The FOR continuation bitmap (section 4 of the paper).
//!
//! One bit per physical disk block; bit `p` is set iff block `p` is the
//! logical continuation *within a file* of the physically preceding
//! block `p − 1` on the same disk. The read-ahead decision is then a
//! run of 1-bits: "from the location of the block that missed in the
//! cache, we only need to count the number of bits until a 0 bit is
//! found."
//!
//! With striping, two physically adjacent blocks on one disk are
//! logically adjacent only inside a striping unit; across unit
//! boundaries the next physical block holds the file data one full
//! stripe later. The bitmap builder therefore sets the bit whenever the
//! two blocks belong to the same file *and* the later block holds a
//! later file offset — the precise condition for the read-ahead data to
//! be useful to the stream.

use forhdc_sim::{LogicalBlock, PhysBlock, StripingMap};

use crate::filemap::{Extent, FileId, FileMap};

/// A per-disk continuation bitmap.
///
/// # Example
///
/// ```
/// use forhdc_layout::ForBitmap;
/// use forhdc_sim::PhysBlock;
///
/// let mut bm = ForBitmap::new(16);
/// for i in 1..8 {
///     bm.set(PhysBlock::new(i), true);
/// }
/// // A miss at block 0 may read ahead 7 more blocks (1..8 continue it).
/// assert_eq!(bm.run_ahead(PhysBlock::new(0), 32), 7);
/// // Capped by the read-ahead limit.
/// assert_eq!(bm.run_ahead(PhysBlock::new(0), 4), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ForBitmap {
    /// Grown on demand as bits are set; words past `words.len()` read
    /// as zero. A server's workload footprint is typically a small
    /// prefix of the disk, so materializing (and zeroing) the full
    /// ~550 KB per-disk table up front would be almost entirely wasted.
    words: Vec<u64>,
    nblocks: u64,
}

impl ForBitmap {
    /// Creates an all-zero bitmap covering `nblocks` physical blocks.
    /// No storage is allocated until a bit is set.
    pub fn new(nblocks: u64) -> Self {
        ForBitmap {
            words: Vec::new(),
            nblocks,
        }
    }

    /// Number of blocks covered.
    pub fn len(&self) -> u64 {
        self.nblocks
    }

    /// Whether the bitmap covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.nblocks == 0
    }

    /// Size of the bitmap in bytes (the controller-memory overhead the
    /// paper prices at 0.003 %).
    pub fn size_bytes(&self) -> u64 {
        self.nblocks.div_ceil(8)
    }

    /// Sets or clears the continuation bit of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set(&mut self, block: PhysBlock, continued: bool) {
        let i = block.index();
        assert!(
            i < self.nblocks,
            "block {block} beyond bitmap ({})",
            self.nblocks
        );
        let widx = (i / 64) as usize;
        let bit = 1u64 << (i % 64);
        if continued {
            if widx >= self.words.len() {
                self.words.resize(widx + 1, 0);
            }
            self.words[widx] |= bit;
        } else if let Some(word) = self.words.get_mut(widx) {
            *word &= !bit;
        }
    }

    /// The continuation bit of `block`; blocks out of range read as 0
    /// (no continuation past the end of the disk).
    pub fn get(&self, block: PhysBlock) -> bool {
        let i = block.index();
        if i >= self.nblocks {
            return false;
        }
        match self.words.get((i / 64) as usize) {
            Some(w) => w & (1u64 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Number of set bits (for stats and tests).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// FOR's read-ahead decision: how many blocks after `last` (the
    /// last block of the demanded run) continue the same file, capped
    /// at `max` blocks. Counts consecutive 1-bits starting at
    /// `last + 1`, a word at a time.
    pub fn run_ahead(&self, last: PhysBlock, max: u32) -> u32 {
        let mut i = last.index() + 1;
        if i >= self.nblocks || max == 0 {
            return 0;
        }
        // Bits past `nblocks` in the last word are never set, so capping
        // at the bitmap end keeps the scan in bounds.
        let limit = (self.nblocks - i).min(max as u64) as u32;
        let mut n = 0u32;
        while n < limit {
            let shift = (i % 64) as u32;
            let avail = 64 - shift;
            // Consecutive 1-bits from bit `i` to the end of its word.
            let word = self.words.get((i / 64) as usize).copied().unwrap_or(0);
            let run = (!(word >> shift)).trailing_zeros();
            let take = run.min(limit - n);
            n += take;
            i += take as u64;
            if run < avail {
                break; // a 0-bit inside the word ends the run
            }
        }
        n
    }

    /// Sets bits `from..to` a word at a time, without range checking
    /// (builder-internal; callers guarantee `to <= nblocks`).
    fn set_run(&mut self, from: u64, to: u64) {
        if from >= to {
            return;
        }
        debug_assert!(to <= self.nblocks);
        let (first, last) = ((from / 64) as usize, ((to - 1) / 64) as usize);
        if last >= self.words.len() {
            self.words.resize(last + 1, 0);
        }
        let head = !0u64 << (from % 64);
        let tail = !0u64 >> (63 - (to - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(!0);
            self.words[last] |= tail;
        }
    }
}

/// Builds the per-disk FOR bitmaps for a striped layout: one bitmap per
/// disk, each `disk_blocks` long.
///
/// Bit `p` on disk `d` is set iff the logical blocks mapped to physical
/// blocks `p − 1` and `p` of disk `d` belong to the same file with
/// increasing file offsets.
///
/// # Example
///
/// ```
/// use forhdc_layout::{build_disk_bitmaps, LayoutBuilder};
/// use forhdc_sim::StripingMap;
///
/// let map = LayoutBuilder::new().build(&[64; 10]);
/// let striping = StripingMap::new(4, 8);
/// let bitmaps = build_disk_bitmaps(&map, &striping, 1 << 16);
/// assert_eq!(bitmaps.len(), 4);
/// ```
pub fn build_disk_bitmaps(
    map: &FileMap,
    striping: &StripingMap,
    disk_blocks: u64,
) -> Vec<ForBitmap> {
    let mut bitmaps: Vec<ForBitmap> = (0..striping.disks())
        .map(|_| ForBitmap::new(disk_blocks))
        .collect();
    // Sweep the extents one striping-unit piece at a time. Inside a
    // piece, logically adjacent blocks of one extent are physically
    // adjacent on one disk, so every bit after the piece's first is set
    // as one run. Pieces reach each disk in physical order, so the first
    // bit's predecessor (physical block `p − 1` on the same disk) is
    // either the last block of the previous piece on that disk or
    // unallocated; `tail[d]` remembers that block's physical end, file
    // and file offset.
    let mut tail: Vec<Option<(u64, FileId, u64)>> = vec![None; bitmaps.len()];
    for p in map.unit_pieces(striping) {
        let (disk, phys) = (p.disk.as_usize(), p.phys.index());
        if phys >= disk_blocks {
            continue;
        }
        let first =
            tail[disk].is_some_and(|(end, f, o)| end == phys && f == p.file && o < p.file_offset);
        let from = if first { phys } else { phys + 1 };
        bitmaps[disk].set_run(from, (phys + p.len).min(disk_blocks));
        tail[disk] = Some((phys + p.len, p.file, p.file_offset + p.len - 1));
    }
    bitmaps
}

/// Checked-mode validation (DESIGN.md §6.5): recomputes the expected
/// continuation bit of every allocated logical block from the filemap
/// and compares it against the bits actually held in `bitmaps`. Bits
/// covering unallocated physical space are expected clear. Returns the
/// first mismatch as an `Err` naming the disk and physical block.
pub fn check_bitmap_consistency(
    map: &FileMap,
    striping: &StripingMap,
    bitmaps: &[ForBitmap],
) -> Result<(), String> {
    if bitmaps.len() != striping.disks() as usize {
        return Err(format!(
            "{} bitmaps cover a {}-disk striping map",
            bitmaps.len(),
            striping.disks()
        ));
    }
    // Walk the blocks in logical order, taking each block's owner from
    // the extents in start order. A block's physical predecessor lies
    // at most `(disks − 1)·unit + 1` logical blocks back, so the owners
    // of the last `mask + 1` blocks are kept in a ring.
    let stride = (striping.disks() as u64 - 1) * striping.unit_blocks() as u64 + 1;
    let mask = (stride + 1).next_power_of_two() - 1;
    // Owners as `(file + 1, offset)`, 0 for unallocated blocks.
    let mut recent: Vec<(u64, u64)> = vec![(0, 0); mask as usize + 1];
    // The extents in start order, copied out once so that the walk
    // reads them sequentially rather than through the start index.
    let placed: Vec<(FileId, Extent)> = map.extents_by_start().map(|(f, e)| (f, *e)).collect();
    let mut l = 0u64;
    for (file, e) in placed {
        let (start, end, first_offset) = (e.start.index(), e.end().index(), e.file_offset as u64);
        let key = file.index() as u64 + 1;
        while l < end {
            let owner = if l >= start {
                (key, first_offset + (l - start))
            } else {
                (0, 0)
            };
            recent[(l & mask) as usize] = owner;
            let logical = LogicalBlock::new(l);
            let (disk, phys) = striping.locate(logical);
            let bm = &bitmaps[disk.as_usize()];
            l += 1;
            if phys.index() >= bm.len() {
                continue;
            }
            let expected = phys.index() > 0 && {
                let prev_logical = striping.logical_of(disk, PhysBlock::new(phys.index() - 1));
                let prev = recent[(prev_logical.index() & mask) as usize];
                owner.0 != 0 && owner.0 == prev.0 && owner.1 > prev.1
            };
            if bm.get(phys) != expected {
                return Err(format!(
                    "disk {} phys block {phys}: bitmap says {}, filemap says {expected} \
                     (logical block {logical})",
                    disk.as_usize(),
                    bm.get(phys),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::LayoutBuilder;

    #[test]
    fn bitmap_set_get_roundtrip() {
        let mut bm = ForBitmap::new(200);
        for i in (0..200).step_by(3) {
            bm.set(PhysBlock::new(i), true);
        }
        for i in 0..200 {
            assert_eq!(bm.get(PhysBlock::new(i)), i % 3 == 0);
        }
        assert_eq!(bm.count_ones(), 67);
        bm.set(PhysBlock::new(0), false);
        assert!(!bm.get(PhysBlock::new(0)));
    }

    #[test]
    fn out_of_range_reads_zero() {
        let bm = ForBitmap::new(10);
        assert!(!bm.get(PhysBlock::new(10)));
        assert!(!bm.get(PhysBlock::new(1_000_000)));
    }

    #[test]
    fn run_ahead_stops_at_zero_bit() {
        let mut bm = ForBitmap::new(64);
        // Continuations at 5,6,7 only.
        for i in 5..8 {
            bm.set(PhysBlock::new(i), true);
        }
        assert_eq!(bm.run_ahead(PhysBlock::new(4), 32), 3);
        assert_eq!(bm.run_ahead(PhysBlock::new(5), 32), 2);
        assert_eq!(bm.run_ahead(PhysBlock::new(8), 32), 0);
        assert_eq!(bm.run_ahead(PhysBlock::new(60), 32), 0); // hits the end
    }

    #[test]
    fn size_matches_one_bit_per_block() {
        // An 18 GB disk of 4-KByte blocks: ~4.4M blocks = ~549 KB.
        let bm = ForBitmap::new(4_396_000);
        let kb = bm.size_bytes() / 1024;
        assert!((530..560).contains(&kb), "bitmap {kb} KB");
    }

    #[test]
    fn single_disk_bitmap_matches_filemap_continuations() {
        let map = LayoutBuilder::new()
            .fragmentation(0.15)
            .seed(5)
            .build(&[16; 200]);
        let striping = StripingMap::new(1, 32);
        let bm = &build_disk_bitmaps(&map, &striping, map.total_blocks())[0];
        for l in 1..map.total_blocks() {
            assert_eq!(
                bm.get(PhysBlock::new(l)),
                map.is_continuation(LogicalBlock::new(l)),
                "mismatch at block {l}"
            );
        }
    }

    #[test]
    fn striping_unit_boundary_breaks_small_files() {
        // 4 disks, 8-block units, 8-block files laid contiguously: each
        // file exactly fills one unit, so no continuation bit survives —
        // adjacent physical blocks on one disk straddle unit boundaries
        // and belong to different files.
        let map = LayoutBuilder::new().build(&[8; 40]);
        let striping = StripingMap::new(4, 8);
        let bms = build_disk_bitmaps(&map, &striping, 128);
        // Bits within each unit (offsets 1..8 of a unit) are set when the
        // same file owns them; at unit boundaries (phys offset % 8 == 0)
        // the owning files differ (file i vs file i+4).
        for bm in &bms {
            for p in 0..80u64 {
                let expect = p % 8 != 0 && p < 80;
                if bm.get(PhysBlock::new(p)) != expect && p < 72 {
                    panic!("unexpected bit at phys {p}: {}", bm.get(PhysBlock::new(p)));
                }
            }
        }
    }

    #[test]
    fn large_file_spanning_stripe_keeps_forward_continuation() {
        // One 64-block file over 2 disks with 8-block units: physical
        // blocks of disk 0 hold offsets 0..8, 16..24, 32..40, 48..56 —
        // all increasing, same file, so every bit (except phys 0) is set.
        let map = LayoutBuilder::new().build(&[64]);
        let striping = StripingMap::new(2, 8);
        let bms = build_disk_bitmaps(&map, &striping, 64);
        for (d, bm) in bms.iter().enumerate() {
            for p in 1..32u64 {
                assert!(bm.get(PhysBlock::new(p)), "disk {d} phys {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond bitmap")]
    fn set_out_of_range_panics() {
        ForBitmap::new(4).set(PhysBlock::new(4), true);
    }

    #[test]
    fn consistency_check_accepts_builder_output_and_catches_a_flip() {
        let map = LayoutBuilder::new()
            .fragmentation(0.1)
            .seed(7)
            .build(&[12; 120]);
        let striping = StripingMap::new(4, 8);
        let mut bms = build_disk_bitmaps(&map, &striping, 1 << 12);
        check_bitmap_consistency(&map, &striping, &bms).unwrap();
        // One flipped bit anywhere in the allocated space is caught.
        let (disk, phys) = striping.locate(LogicalBlock::new(9));
        let cur = bms[disk.as_usize()].get(phys);
        bms[disk.as_usize()].set(phys, !cur);
        let err = check_bitmap_consistency(&map, &striping, &bms).unwrap_err();
        assert!(err.contains("bitmap says"), "{err}");
        // A disk-count mismatch is caught before any bit is compared.
        assert!(check_bitmap_consistency(&map, &striping, &bms[..2]).is_err());
    }
}
