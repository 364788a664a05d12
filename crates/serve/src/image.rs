//! The file-backed virtual disk array: creation (`mkdisk`), metadata,
//! and the deterministic block contents clients can verify.
//!
//! A disk directory holds one image file per physical disk
//! (`disk000.img`, `disk001.img`, …) plus a `meta.txt` manifest. The
//! file layout is a pure function of the manifest (the same
//! [`LayoutBuilder`] construction the simulator uses), so `serve`,
//! `loadgen`, and `mkdisk` all reconstruct an identical
//! [`FileMap`]/striping view from the manifest alone — no layout
//! tables are stored. Every data block's bytes are likewise a pure
//! function of `(file, file offset)`, which lets `loadgen --verify`
//! check payloads end to end without touching the images.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use forhdc_layout::{FileMap, LayoutBuilder};
use forhdc_sim::{mirror, LogicalBlock, StripingMap};

/// Blocks of zero padding appended past each disk's last allocated
/// block, so a read-ahead run launched from the final file block never
/// reaches past the image (one full segment covers the largest run).
pub const IMAGE_PAD_BLOCKS: u64 = 32;

/// The manifest describing a disk-image directory. Everything the
/// server and the load generator need to agree on lives here.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskMeta {
    /// Block size in bytes (4096, matching the simulator).
    pub block_bytes: u32,
    /// Number of physical disks (image files).
    pub disks: u16,
    /// Striping unit in blocks.
    pub unit_blocks: u32,
    /// Number of files in the layout.
    pub files: u32,
    /// Size of every file, in blocks.
    pub file_blocks: u32,
    /// Layout / popularity seed.
    pub seed: u64,
    /// Per-boundary fragmentation probability of the layout.
    pub fragmentation: f64,
    /// Per-disk image size in blocks (allocated space + padding).
    pub disk_blocks: u64,
    /// RAID1/0 mirroring: adjacent image pairs (`2v`, `2v+1`) hold
    /// identical data and back virtual disk `v`. Absent from
    /// pre-mirror manifests, which parse as unmirrored.
    pub mirrored: bool,
}

impl DiskMeta {
    /// Serializes the manifest as `meta.txt` content. The `mirror` key
    /// is only emitted when set, so unmirrored manifests stay
    /// byte-identical to pre-mirror ones.
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "forhdc-disk-meta v1\n\
             block_bytes {}\n\
             disks {}\n\
             unit_blocks {}\n\
             files {}\n\
             file_blocks {}\n\
             seed {}\n\
             fragmentation {}\n\
             disk_blocks {}\n",
            self.block_bytes,
            self.disks,
            self.unit_blocks,
            self.files,
            self.file_blocks,
            self.seed,
            self.fragmentation,
            self.disk_blocks
        );
        if self.mirrored {
            text.push_str("mirror 1\n");
        }
        text
    }

    /// Parses `meta.txt` content, validating the header and every
    /// field.
    pub fn from_text(text: &str) -> Result<DiskMeta, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("forhdc-disk-meta v1") => {}
            other => return Err(format!("not a forhdc disk manifest (first line {other:?})")),
        }
        let mut fields = std::collections::HashMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed manifest line '{line}'"))?;
            fields.insert(key.to_string(), value.to_string());
        }
        fn get<T: std::str::FromStr>(
            fields: &std::collections::HashMap<String, String>,
            key: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            fields
                .get(key)
                .ok_or_else(|| format!("manifest is missing '{key}'"))?
                .parse()
                .map_err(|e| format!("manifest field '{key}': {e}"))
        }
        let meta = DiskMeta {
            block_bytes: get(&fields, "block_bytes")?,
            disks: get(&fields, "disks")?,
            unit_blocks: get(&fields, "unit_blocks")?,
            files: get(&fields, "files")?,
            file_blocks: get(&fields, "file_blocks")?,
            seed: get(&fields, "seed")?,
            fragmentation: get(&fields, "fragmentation")?,
            disk_blocks: get(&fields, "disk_blocks")?,
            mirrored: match fields.get("mirror").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("manifest field 'mirror': bad value '{other}'")),
            },
        };
        if meta.block_bytes == 0
            || meta.disks == 0
            || meta.unit_blocks == 0
            || meta.files == 0
            || meta.file_blocks == 0
        {
            return Err("manifest has a zero-sized dimension".into());
        }
        if meta.mirrored && !meta.disks.is_multiple_of(2) {
            return Err(format!(
                "mirroring needs disk pairs, got {} disks",
                meta.disks
            ));
        }
        if !(0.0..=1.0).contains(&meta.fragmentation) {
            return Err(format!(
                "manifest fragmentation {} outside [0, 1]",
                meta.fragmentation
            ));
        }
        Ok(meta)
    }

    /// Rebuilds the (deterministic) file layout the manifest describes.
    pub fn layout(&self) -> FileMap {
        let sizes = vec![self.file_blocks; self.files as usize];
        LayoutBuilder::new()
            .fragmentation(self.fragmentation)
            .align_blocks(self.unit_blocks)
            .seed(self.seed)
            .build(&sizes)
    }

    /// Virtual disks the striping addresses: mirrored pairs count once.
    pub fn virtual_disks(&self) -> u16 {
        mirror::virtual_disks(self.disks, self.mirrored)
    }

    /// The physical members backing virtual disk `vd` (one, or the
    /// mirror pair).
    pub fn members(&self, vd: u16) -> std::ops::Range<u16> {
        mirror::members(vd, self.mirrored)
    }

    /// The striping map over the manifest's array (virtual disks).
    pub fn striping(&self) -> StripingMap {
        StripingMap::new(self.virtual_disks(), self.unit_blocks)
    }

    /// Path of disk `d`'s image file under `dir`.
    pub fn image_path(dir: &Path, d: u16) -> PathBuf {
        dir.join(format!("disk{d:03}.img"))
    }
}

/// The popularity permutation: rank `r` (0 = hottest) maps to file
/// `rank_to_file(...)[r]`. A pure function of `(files, seed)`, shared
/// by the load generator (to aim its Zipf sampler) and the server's
/// HDC bootstrap (to pin the hottest files) — the live-system analogue
/// of the paper's host-side trace knowledge.
pub fn rank_to_file(files: u32, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..files).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    perm.shuffle(&mut rng);
    perm
}

/// Deterministic contents of one data block: a xorshift64* stream
/// seeded from `(file, file offset)`. Any party holding the manifest
/// can regenerate and verify any block.
pub fn block_payload(file: u32, file_offset: u64, block_bytes: u32) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64
        ^ ((file as u64) << 40)
        ^ file_offset.wrapping_mul(0x2545_F491_4F6C_DD1D);
    if state == 0 {
        state = 1;
    }
    let mut out = Vec::with_capacity(block_bytes as usize);
    while out.len() < block_bytes as usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let bytes = word.to_le_bytes();
        let take = (block_bytes as usize - out.len()).min(8);
        out.extend_from_slice(&bytes[..take]);
    }
    out
}

/// Computes the per-disk image size for a layout: the largest physical
/// block any disk uses, plus [`IMAGE_PAD_BLOCKS`] of padding (every
/// image gets the same size, so the manifest stays one number).
pub fn disk_blocks_for(map: &FileMap, striping: &StripingMap) -> u64 {
    let mut max_phys = 0u64;
    for l in 0..map.total_blocks() {
        let (_, phys) = striping.locate(LogicalBlock::new(l));
        max_phys = max_phys.max(phys.index() + 1);
    }
    max_phys + IMAGE_PAD_BLOCKS
}

/// Creates a disk-image directory: `meta.txt` plus one image per disk,
/// each block filled with its deterministic payload (unallocated and
/// padding blocks are zero). Returns the finished manifest.
pub fn create_images(dir: &Path, meta: &DiskMeta) -> Result<DiskMeta, String> {
    let map = meta.layout();
    let striping = meta.striping();
    let mut meta = meta.clone();
    meta.disk_blocks = disk_blocks_for(&map, &striping);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let zero = vec![0u8; meta.block_bytes as usize];
    for d in 0..meta.disks {
        // Under mirroring both members of a pair carry the same
        // virtual disk's blocks, so their images come out identical.
        let vd = mirror::virtual_disk(d, meta.mirrored);
        let path = DiskMeta::image_path(dir, d);
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = BufWriter::new(file);
        let mut write = |block: &[u8]| {
            w.write_all(block)
                .map_err(|e| format!("write {}: {e}", path.display()))
        };
        // The extents' pieces on this disk come in physical order; the
        // gaps between them are unallocated (zero) blocks.
        let mut next = 0u64;
        for p in map.unit_pieces(&striping).filter(|p| p.disk.index() == vd) {
            for _ in next..p.phys.index() {
                write(&zero)?;
            }
            for k in 0..p.len {
                write(&block_payload(
                    p.file.index(),
                    p.file_offset + k,
                    meta.block_bytes,
                ))?;
            }
            next = p.phys.index() + p.len;
        }
        for _ in next..meta.disk_blocks {
            write(&zero)?;
        }
        w.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    std::fs::write(dir.join("meta.txt"), meta.to_text())
        .map_err(|e| format!("write {}: {e}", dir.join("meta.txt").display()))?;
    Ok(meta)
}

/// Loads and validates a disk-image directory: the manifest must
/// parse and every image must exist with exactly the manifest's size.
pub fn open_dir(dir: &Path) -> Result<DiskMeta, String> {
    let meta_path = dir.join("meta.txt");
    let mut text = String::new();
    File::open(&meta_path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("open {}: {e}", meta_path.display()))?;
    let meta = DiskMeta::from_text(&text).map_err(|e| format!("{}: {e}", meta_path.display()))?;
    let want = meta.disk_blocks * meta.block_bytes as u64;
    for d in 0..meta.disks {
        let path = DiskMeta::image_path(dir, d);
        let len = std::fs::metadata(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?
            .len();
        if len != want {
            return Err(format!(
                "{}: image is {len} bytes, manifest says {want} — corrupt disk directory",
                path.display()
            ));
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_meta() -> DiskMeta {
        DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 32,
            file_blocks: 4,
            seed: 9,
            fragmentation: 0.0,
            disk_blocks: 0, // filled by create_images
            mirrored: false,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("forhdc_image_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn meta_text_roundtrip() {
        let mut m = small_meta();
        m.disk_blocks = 100;
        assert_eq!(DiskMeta::from_text(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(DiskMeta::from_text("not a manifest").is_err());
        assert!(DiskMeta::from_text("forhdc-disk-meta v1\nblock_bytes x\n").is_err());
        assert!(DiskMeta::from_text("forhdc-disk-meta v1\nblock_bytes 4096\n").is_err());
    }

    #[test]
    fn mirrored_meta_roundtrips_and_old_manifests_parse_unmirrored() {
        let mut m = small_meta();
        m.mirrored = true;
        m.disk_blocks = 64;
        let text = m.to_text();
        assert!(text.contains("mirror 1"));
        assert_eq!(DiskMeta::from_text(&text).unwrap(), m);
        // A pre-mirror manifest (no `mirror` key) parses as unmirrored,
        // and an unmirrored manifest never emits the key.
        m.mirrored = false;
        assert!(!m.to_text().contains("mirror"));
        assert_eq!(DiskMeta::from_text(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn mirrored_meta_rejects_odd_disks() {
        let mut m = small_meta();
        m.mirrored = true;
        m.disks = 3;
        let err = DiskMeta::from_text(&m.to_text()).unwrap_err();
        assert!(err.contains("pairs"), "{err}");
    }

    #[test]
    fn mirrored_images_are_identical_pairs() {
        let dir = tmpdir("mirror");
        let mut m = small_meta();
        m.mirrored = true;
        m.disks = 4;
        let meta = create_images(&dir, &m).unwrap();
        assert_eq!(open_dir(&dir).unwrap(), meta);
        for vd in 0..meta.virtual_disks() {
            let pair: Vec<Vec<u8>> = meta
                .members(vd)
                .map(|m| std::fs::read(DiskMeta::image_path(&dir, m)).unwrap())
                .collect();
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(a, b, "pair {vd} differs");
            assert!(a.iter().any(|&x| x != 0), "pair {vd} all zero");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        let a = block_payload(1, 2, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, block_payload(1, 2, 4096));
        assert_ne!(a, block_payload(1, 3, 4096));
        assert_ne!(a, block_payload(2, 2, 4096));
    }

    #[test]
    fn rank_permutation_is_seeded() {
        let p = rank_to_file(100, 5);
        assert_eq!(p, rank_to_file(100, 5));
        assert_ne!(p, rank_to_file(100, 6));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn create_open_roundtrip_and_contents() {
        let dir = tmpdir("roundtrip");
        let meta = create_images(&dir, &small_meta()).unwrap();
        assert_eq!(open_dir(&dir).unwrap(), meta);

        // Spot-check: block 1 of file 3 is where the layout says, with
        // the deterministic payload.
        let map = meta.layout();
        let striping = meta.striping();
        let logical = map.block_at(forhdc_layout::FileId::new(3), 1).unwrap();
        let (disk, phys) = striping.locate(logical);
        let img = File::open(DiskMeta::image_path(&dir, disk.index())).unwrap();
        let mut got = vec![0u8; meta.block_bytes as usize];
        std::os::unix::fs::FileExt::read_exact_at(
            &img,
            &mut got,
            phys.index() * meta.block_bytes as u64,
        )
        .unwrap();
        assert_eq!(got, block_payload(3, 1, meta.block_bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn images_match_a_per_block_owner_walk() {
        let fragmented = DiskMeta {
            disks: 3,
            file_blocks: 6,
            fragmentation: 0.3,
            ..small_meta()
        };
        let mirrored = DiskMeta {
            disks: 4,
            mirrored: true,
            ..fragmented.clone()
        };
        for (tag, meta) in [("walk", fragmented), ("walk_mirror", mirrored)] {
            let dir = tmpdir(tag);
            let meta = create_images(&dir, &meta).unwrap();
            let (map, striping) = (meta.layout(), meta.striping());
            for d in 0..meta.disks {
                let vd = mirror::virtual_disk(d, meta.mirrored);
                let mut want = Vec::new();
                for p in 0..meta.disk_blocks {
                    let logical = striping
                        .logical_of(forhdc_sim::DiskId::new(vd), forhdc_sim::PhysBlock::new(p));
                    want.extend(match map.owner(logical) {
                        Some(o) => block_payload(o.file.index(), o.offset, meta.block_bytes),
                        None => vec![0u8; meta.block_bytes as usize],
                    });
                }
                let got = std::fs::read(DiskMeta::image_path(&dir, d)).unwrap();
                assert!(got == want, "{tag}: disk {d} image differs");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn truncated_image_is_rejected() {
        let dir = tmpdir("truncated");
        let meta = create_images(&dir, &small_meta()).unwrap();
        let img = DiskMeta::image_path(&dir, 0);
        let f = std::fs::OpenOptions::new().write(true).open(&img).unwrap();
        f.set_len(meta.block_bytes as u64).unwrap();
        let err = open_dir(&dir).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
