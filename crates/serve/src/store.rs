//! The page store: the bytes of the controller-resident blocks a disk
//! has served as hits.
//!
//! The engine fills a page on its block's first hit and never on a
//! miss, so the store is a subset of what the controller holds; pages
//! the controller has since evicted are pruned in bulk once the store
//! outgrows the resident set.
//!
//! A slab: a map from block to frame index over an arena of
//! block-sized frames, plus a free list. Pruned frames go back on the
//! free list and inserts reuse them before the arena grows, so a store
//! churning at a steady resident size allocates nothing. The arena
//! grows lazily in fixed chunks of frames, so growth never moves the
//! frames already handed out and an empty store owns no memory.

use forhdc_cache::fx::FxHashMap;

/// Frames per arena chunk (1 MiB of 4-KByte blocks).
const CHUNK_FRAMES: usize = 256;

/// One disk's resident block bytes (see the module docs).
#[derive(Debug)]
pub(crate) struct PageStore {
    block_bytes: usize,
    index: FxHashMap<u64, u32>,
    chunks: Vec<Box<[u8]>>,
    /// Frames handed out so far; every frame below this is either
    /// indexed or on the free list.
    frames: u32,
    free: Vec<u32>,
}

impl PageStore {
    /// An empty store of `block_bytes`-byte frames; allocates nothing.
    pub(crate) fn new(block_bytes: u32) -> Self {
        PageStore {
            block_bytes: block_bytes as usize,
            index: FxHashMap::default(),
            chunks: Vec::new(),
            frames: 0,
            free: Vec::new(),
        }
    }

    /// Blocks resident.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The bytes of `block`, if resident.
    pub(crate) fn get(&self, block: u64) -> Option<&[u8]> {
        self.index.get(&block).map(|&f| self.frame(f))
    }

    /// Stores `bytes` (one block) as `block`'s page, overwriting a
    /// resident copy in place.
    pub(crate) fn insert(&mut self, block: u64, bytes: &[u8]) {
        let f = self.slot(block);
        self.frame_mut(f).copy_from_slice(bytes);
    }

    /// Keeps only the blocks `keep` accepts; the others' frames return
    /// to the free list.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let free = &mut self.free;
        self.index.retain(|&block, &mut f| {
            let kept = keep(block);
            if !kept {
                free.push(f);
            }
            kept
        });
    }

    /// `block`'s frame: its resident one, else a free one, indexed.
    fn slot(&mut self, block: u64) -> u32 {
        if let Some(&f) = self.index.get(&block) {
            return f;
        }
        let f = self.alloc();
        self.index.insert(block, f);
        f
    }

    /// A free frame: a recycled one, else the next of the arena
    /// (growing it by one chunk when it is full).
    fn alloc(&mut self) -> u32 {
        if let Some(f) = self.free.pop() {
            return f;
        }
        let f = self.frames;
        if f as usize == self.chunks.len() * CHUNK_FRAMES {
            self.chunks
                .push(vec![0u8; CHUNK_FRAMES * self.block_bytes].into_boxed_slice());
        }
        self.frames += 1;
        f
    }

    fn frame(&self, f: u32) -> &[u8] {
        let (chunk, at) = (f as usize / CHUNK_FRAMES, f as usize % CHUNK_FRAMES);
        &self.chunks[chunk][at * self.block_bytes..(at + 1) * self.block_bytes]
    }

    fn frame_mut(&mut self, f: u32) -> &mut [u8] {
        let (chunk, at) = (f as usize / CHUNK_FRAMES, f as usize % CHUNK_FRAMES);
        &mut self.chunks[chunk][at * self.block_bytes..(at + 1) * self.block_bytes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: u32 = 64;

    fn page(tag: u64) -> Vec<u8> {
        (0..BS as u64).map(|i| (tag * 31 + i) as u8).collect()
    }

    #[test]
    fn new_store_owns_nothing() {
        let s = PageStore::new(BS);
        assert_eq!(s.len(), 0);
        assert_eq!(s.frames, 0);
        assert!(s.chunks.is_empty());
        assert_eq!(s.get(0), None);
    }

    #[test]
    fn get_after_insert() {
        let mut s = PageStore::new(BS);
        for b in 0..600u64 {
            s.insert(b * 7, &page(b));
        }
        assert_eq!(s.len(), 600);
        for b in 0..600u64 {
            assert_eq!(s.get(b * 7), Some(&page(b)[..]), "block {}", b * 7);
        }
        assert_eq!(s.get(1), None);
        // 600 frames span three chunks, grown one at a time.
        assert_eq!(s.chunks.len(), 3);
    }

    #[test]
    fn overwrite_is_in_place() {
        let mut s = PageStore::new(BS);
        s.insert(5, &page(1));
        s.insert(5, &page(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.frames, 1, "an overwrite must not take a new frame");
        assert_eq!(s.get(5), Some(&page(2)[..]));
    }

    #[test]
    fn retain_frees_frames_and_inserts_reuse_them() {
        let mut s = PageStore::new(BS);
        for b in 0..10u64 {
            s.insert(b, &page(b));
        }
        s.retain(|b| b % 2 == 0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.free.len(), 5);
        for b in (0..10u64).step_by(2) {
            assert_eq!(s.get(b), Some(&page(b)[..]));
        }
        for b in 100..105u64 {
            s.insert(b, &page(b));
        }
        assert_eq!(s.frames, 10, "inserts must reuse the freed frames");
        assert!(s.free.is_empty());
        for b in (0..10u64).step_by(2).chain(100..105) {
            assert_eq!(s.get(b), Some(&page(b)[..]), "block {b}");
        }
    }

    #[test]
    fn churn_at_a_steady_size_never_grows_the_arena() {
        let mut s = PageStore::new(BS);
        let resident = 300u64;
        let mut next = 0u64;
        for _ in 0..resident {
            s.insert(next, &page(next));
            next += 1;
        }
        let (frames, chunks) = (s.frames, s.chunks.len());
        for _ in 0..50 {
            // Evict the oldest third, then refill to the same size.
            let cut = next - resident + resident / 3;
            s.retain(|b| b >= cut);
            while (s.len() as u64) < resident {
                s.insert(next, &page(next));
                next += 1;
            }
            assert_eq!((s.frames, s.chunks.len()), (frames, chunks));
        }
        for b in next - resident..next {
            assert_eq!(s.get(b), Some(&page(b)[..]), "block {b}");
        }
    }
}
