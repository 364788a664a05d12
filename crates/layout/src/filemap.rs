//! Ownership map from logical blocks to files.

use std::fmt;

use forhdc_sim::{DiskId, LogicalBlock, PhysBlock, StripingMap};

/// Identifier of a file in the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(u32);

impl FileId {
    /// Creates a file id from its raw index.
    pub const fn new(raw: u32) -> Self {
        FileId(raw)
    }

    /// Returns the raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the raw index widened to `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// A physically contiguous run of one file's blocks, in 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical block of the run.
    pub start: LogicalBlock,
    /// Length in blocks.
    pub len: u32,
    /// Offset (in blocks) of the run within its file. Files are sized
    /// in `u32` blocks, so the offset fits; widen it to `u64` before
    /// adding to it.
    pub file_offset: u32,
}

impl Extent {
    /// One-past-the-end logical block.
    pub fn end(&self) -> LogicalBlock {
        self.start.offset(self.len as u64)
    }
}

/// Which file, and which offset within it, owns a logical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOwner {
    /// The owning file.
    pub file: FileId,
    /// The block's offset within the file, in blocks.
    pub offset: u64,
}

/// A striping-unit piece of an extent: blocks that are contiguous both
/// logically and physically, on one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPiece {
    /// The owning file.
    pub file: FileId,
    /// File offset of the piece's first block.
    pub file_offset: u64,
    /// The disk holding the piece.
    pub disk: DiskId,
    /// Physical block of the piece's first block on `disk`.
    pub phys: PhysBlock,
    /// Length in blocks, at most one striping unit.
    pub len: u64,
}

/// The host file system's placement of files in the logical block space.
///
/// Built by [`crate::LayoutBuilder`]; queried by the FOR bitmap builder
/// and by the workload generators (to turn "read file F" into logical
/// block requests).
///
/// The map holds extents only, so its size is O(files + extents) and
/// independent of how many blocks the files cover: one flat extent
/// array grouped by file (per-file start offsets index it), the owning
/// file of each extent, and the extents' order by start block, which
/// ownership lookups binary-search and layout sweeps walk.
///
/// # Example
///
/// ```
/// use forhdc_layout::LayoutBuilder;
/// use forhdc_sim::LogicalBlock;
///
/// // Two files of 4 blocks each, no fragmentation: laid back-to-back.
/// let map = LayoutBuilder::new().build(&[4, 4]);
/// let owner = map.owner(LogicalBlock::new(5)).unwrap();
/// assert_eq!(owner.file.index(), 1);
/// assert_eq!(owner.offset, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FileMap {
    /// Every extent, grouped by file, each file's in file-offset order.
    extents: Vec<Extent>,
    /// File `f` owns `extents[file_start[f]..file_start[f + 1]]`.
    file_start: Vec<u32>,
    /// The owning file of each extent (parallel to `extents`).
    extent_file: Vec<u32>,
    /// Indices into `extents`, in increasing start-block order.
    by_start: Vec<u32>,
    total_blocks: u64,
}

impl FileMap {
    /// Assembles a map from per-file extent lists (in any order within
    /// a file).
    ///
    /// # Panics
    ///
    /// Panics if extents overlap, a file's extents do not cover offsets
    /// `0..size` exactly, or an extent has zero length.
    pub fn from_extents(files: Vec<Vec<Extent>>) -> Self {
        let count: usize = files.iter().map(Vec::len).sum();
        let mut extents = Vec::with_capacity(count);
        let mut extent_file = Vec::with_capacity(count);
        let mut file_start = Vec::with_capacity(files.len() + 1);
        for (fi, mut file) in files.into_iter().enumerate() {
            let id = FileId::new(fi as u32);
            file.sort_by_key(|e| e.file_offset);
            file_start.push(extents.len() as u32);
            let mut covered = 0u64;
            for e in file {
                assert!(e.len > 0, "zero-length extent in {id}");
                assert_eq!(
                    e.file_offset as u64, covered,
                    "extent gap in {id}: expected offset {covered}"
                );
                covered += e.len as u64;
                extents.push(e);
                extent_file.push(id.index());
            }
        }
        file_start.push(extents.len() as u32);
        let mut by_start: Vec<u32> = (0..count as u32).collect();
        by_start.sort_unstable_by_key(|&i| extents[i as usize].start);
        for pair in by_start.windows(2) {
            let next = extents[pair[1] as usize].start;
            assert!(
                extents[pair[0] as usize].end() <= next,
                "overlapping extents at {next}"
            );
        }
        FileMap::from_placement(extents, file_start, extent_file, by_start)
    }

    /// Assembles a map from parts that already satisfy its invariants:
    /// `by_start` must list the non-overlapping `extents` in start
    /// order.
    pub(crate) fn from_placement(
        extents: Vec<Extent>,
        file_start: Vec<u32>,
        extent_file: Vec<u32>,
        by_start: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(extents.len(), extent_file.len());
        debug_assert_eq!(extents.len(), by_start.len());
        debug_assert!(by_start
            .windows(2)
            .all(|p| extents[p[0] as usize].end() <= extents[p[1] as usize].start));
        let total_blocks = by_start
            .last()
            .map_or(0, |&i| extents[i as usize].end().index());
        FileMap {
            extents,
            file_start,
            extent_file,
            by_start,
            total_blocks,
        }
    }

    /// Appends one file per entry of `sizes`, each laid contiguously
    /// right after the current footprint (the write frontier). Sizes of
    /// zero add empty files.
    pub fn append_files(&mut self, sizes: &[u32]) {
        let added = sizes.iter().filter(|&&s| s > 0).count();
        self.extents.reserve_exact(added);
        self.extent_file.reserve_exact(added);
        self.by_start.reserve_exact(added);
        self.file_start.reserve_exact(sizes.len());
        for &len in sizes {
            if len > 0 {
                let slot = self.extents.len() as u32;
                self.extents.push(Extent {
                    start: LogicalBlock::new(self.total_blocks),
                    len,
                    file_offset: 0,
                });
                self.extent_file.push(self.file_count());
                self.by_start.push(slot);
                self.total_blocks += len as u64;
            }
            self.file_start.push(self.extents.len() as u32);
        }
    }

    /// Releases the vectors' spare capacity in place.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.extents.shrink_to_fit();
        self.file_start.shrink_to_fit();
        self.extent_file.shrink_to_fit();
        self.by_start.shrink_to_fit();
    }

    /// Number of files.
    pub fn file_count(&self) -> u32 {
        (self.file_start.len() - 1) as u32
    }

    /// Size of a file in blocks.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn file_blocks(&self, file: FileId) -> u64 {
        self.extents(file)
            .last()
            .map_or(0, |e| e.file_offset as u64 + e.len as u64)
    }

    /// The file's extents in file-offset order.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn extents(&self, file: FileId) -> &[Extent] {
        let f = file.as_usize();
        &self.extents[self.file_start[f] as usize..self.file_start[f + 1] as usize]
    }

    /// Every extent with its owning file, in increasing start-block
    /// order: the physical sweep order of the layout.
    pub fn extents_by_start(&self) -> impl ExactSizeIterator<Item = (FileId, &Extent)> + '_ {
        self.by_start.iter().map(|&i| {
            let i = i as usize;
            (FileId::new(self.extent_file[i]), &self.extents[i])
        })
    }

    /// The extents in start order, cut at striping-unit boundaries.
    /// Each disk's pieces come in increasing physical order, as logical
    /// order maps to physical order on any one disk.
    pub fn unit_pieces(&self, striping: &StripingMap) -> impl Iterator<Item = UnitPiece> + '_ {
        let striping = *striping;
        let unit = striping.unit_blocks() as u64;
        self.extents_by_start().flat_map(move |(file, e)| {
            let (start, end) = (e.start.index(), e.end().index());
            // Only an extent's first piece can start inside a unit.
            let (mut l, mut room) = (start, unit - start % unit);
            std::iter::from_fn(move || {
                (l < end).then(|| {
                    let len = room.min(end - l);
                    let (disk, phys) = striping.locate(LogicalBlock::new(l));
                    let piece = UnitPiece {
                        file,
                        file_offset: e.file_offset as u64 + (l - start),
                        disk,
                        phys,
                        len,
                    };
                    (l, room) = (l + len, unit);
                    piece
                })
            })
        })
    }

    /// The logical block holding offset `offset` of `file`, or `None`
    /// past the end of the file.
    pub fn block_at(&self, file: FileId, offset: u64) -> Option<LogicalBlock> {
        if file.as_usize() >= self.file_count() as usize {
            return None;
        }
        let exts = self.extents(file);
        let e = exts[..exts.partition_point(|e| e.file_offset as u64 <= offset)].last()?;
        let within = offset - e.file_offset as u64;
        (within < e.len as u64).then(|| e.start.offset(within))
    }

    /// Ownership of a logical block, or `None` for unallocated space:
    /// a binary search over the extents in start order.
    pub fn owner(&self, block: LogicalBlock) -> Option<BlockOwner> {
        let n = self
            .by_start
            .partition_point(|&i| self.extents[i as usize].start <= block);
        let slot = *self.by_start[..n].last()? as usize;
        let e = &self.extents[slot];
        (block < e.end()).then(|| BlockOwner {
            file: FileId::new(self.extent_file[slot]),
            offset: e.file_offset as u64 + (block.index() - e.start.index()),
        })
    }

    /// One-past-the-last allocated logical block (the footprint).
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Heap bytes the map holds: O(files + extents), whatever the
    /// number of blocks the files cover.
    pub fn heap_bytes(&self) -> u64 {
        (self.extents.capacity() * std::mem::size_of::<Extent>()
            + (self.file_start.capacity() + self.extent_file.capacity() + self.by_start.capacity())
                * std::mem::size_of::<u32>()) as u64
    }

    /// Whether `block` continues, within a file, the logically
    /// preceding block — the FOR bitmap predicate for a single-disk
    /// (unstriped) layout: same file, strictly later file offset (so a
    /// whole-file sequential reader will still want the data).
    pub fn is_continuation(&self, block: LogicalBlock) -> bool {
        if block.index() == 0 {
            return false;
        }
        let (Some(cur), Some(prev)) = (
            self.owner(block),
            self.owner(LogicalBlock::new(block.index() - 1)),
        ) else {
            return false;
        };
        cur.file == prev.file && cur.offset > prev.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(start: u64, len: u32, file_offset: u32) -> Extent {
        Extent {
            start: LogicalBlock::new(start),
            len,
            file_offset,
        }
    }

    #[test]
    fn contiguous_two_files() {
        let map = FileMap::from_extents(vec![vec![ext(0, 4, 0)], vec![ext(4, 2, 0)]]);
        assert_eq!(map.file_count(), 2);
        assert_eq!(map.file_blocks(FileId::new(0)), 4);
        assert_eq!(map.total_blocks(), 6);
        assert_eq!(
            map.owner(LogicalBlock::new(3)),
            Some(BlockOwner {
                file: FileId::new(0),
                offset: 3
            })
        );
        assert_eq!(
            map.owner(LogicalBlock::new(4)),
            Some(BlockOwner {
                file: FileId::new(1),
                offset: 0
            })
        );
        assert_eq!(map.owner(LogicalBlock::new(6)), None);
    }

    #[test]
    fn fragmented_file_continuation_bits() {
        // File 0: blocks 0..2 then 6..8; file 1: blocks 2..6.
        let map = FileMap::from_extents(vec![vec![ext(0, 2, 0), ext(6, 2, 2)], vec![ext(2, 4, 0)]]);
        assert!(!map.is_continuation(LogicalBlock::new(0)));
        assert!(map.is_continuation(LogicalBlock::new(1)));
        assert!(!map.is_continuation(LogicalBlock::new(2))); // file boundary
        assert!(map.is_continuation(LogicalBlock::new(3)));
        assert!(!map.is_continuation(LogicalBlock::new(6))); // jump in file 0
        assert!(map.is_continuation(LogicalBlock::new(7)));
    }

    #[test]
    fn block_at_walks_extents() {
        let map = FileMap::from_extents(vec![vec![ext(0, 2, 0), ext(6, 2, 2)]]);
        assert_eq!(map.block_at(FileId::new(0), 0), Some(LogicalBlock::new(0)));
        assert_eq!(map.block_at(FileId::new(0), 1), Some(LogicalBlock::new(1)));
        assert_eq!(map.block_at(FileId::new(0), 2), Some(LogicalBlock::new(6)));
        assert_eq!(map.block_at(FileId::new(0), 3), Some(LogicalBlock::new(7)));
        assert_eq!(map.block_at(FileId::new(0), 4), None);
        assert_eq!(map.block_at(FileId::new(9), 0), None);
    }

    #[test]
    fn block_at_binary_searches_a_200_extent_file() {
        // File 0 has 200 extents of 1..=3 blocks, interleaved with
        // one-block extents of file 1 so no two of its runs abut.
        let (mut file0, mut file1) = (Vec::new(), Vec::new());
        let (mut start, mut offset) = (0u64, 0u32);
        for i in 0..200u32 {
            let len = 1 + i % 3;
            file0.push(ext(start, len, offset));
            file1.push(ext(start + len as u64, 1, i));
            start += len as u64 + 1;
            offset += len;
        }
        let map = FileMap::from_extents(vec![file0.clone(), file1]);
        assert_eq!(map.extents(FileId::new(0)).len(), 200);
        assert_eq!(map.file_blocks(FileId::new(0)), offset as u64);
        for e in &file0 {
            for i in 0..e.len as u64 {
                assert_eq!(
                    map.block_at(FileId::new(0), e.file_offset as u64 + i),
                    Some(e.start.offset(i))
                );
            }
        }
        assert_eq!(map.block_at(FileId::new(0), offset as u64), None);
        assert_eq!(
            map.block_at(FileId::new(1), 199),
            Some(LogicalBlock::new(start - 1))
        );
    }

    #[test]
    fn appended_files_extend_the_footprint() {
        let mut map = FileMap::from_extents(vec![vec![ext(0, 2, 0), ext(6, 2, 2)]]);
        map.append_files(&[3, 0, 1]);
        assert_eq!(map.file_count(), 4);
        assert_eq!(map.extents(FileId::new(1)), &[ext(8, 3, 0)]);
        assert!(map.extents(FileId::new(2)).is_empty());
        assert_eq!(map.extents(FileId::new(3)), &[ext(11, 1, 0)]);
        assert_eq!(map.total_blocks(), 12);
        assert_eq!(
            map.owner(LogicalBlock::new(9)),
            Some(BlockOwner {
                file: FileId::new(1),
                offset: 1
            })
        );
        assert_eq!(map.owner(LogicalBlock::new(4)), None);
        let starts: Vec<u64> = map
            .extents_by_start()
            .map(|(_, e)| e.start.index())
            .collect();
        assert_eq!(starts, [0, 6, 8, 11]);
    }

    #[test]
    fn heap_bytes_grow_with_extents_not_blocks() {
        let small = FileMap::from_extents(vec![vec![ext(0, 1, 0)]]);
        let large = FileMap::from_extents(vec![vec![ext(0, 1 << 30, 0)]]);
        assert_eq!(small.heap_bytes(), large.heap_bytes());
        assert!(small.heap_bytes() <= 40 + 8, "{}", small.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_extent_panics() {
        let _ = FileMap::from_extents(vec![vec![ext(0, 0, 0)]]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_panics() {
        let _ = FileMap::from_extents(vec![vec![ext(0, 4, 0)], vec![ext(3, 2, 0)]]);
    }

    #[test]
    #[should_panic(expected = "extent gap")]
    fn offset_gap_panics() {
        let _ = FileMap::from_extents(vec![vec![ext(0, 2, 0), ext(4, 2, 3)]]);
    }

    #[test]
    fn empty_map() {
        let map = FileMap::from_extents(vec![]);
        assert_eq!(map.file_count(), 0);
        assert_eq!(map.total_blocks(), 0);
        assert!(!map.is_continuation(LogicalBlock::new(0)));
    }
}
