//! The extent-only `FileMap` and the extent sweeps built on it against
//! a naive per-block owner table: random layouts across fragmentation,
//! alignment, spacing, zero-size files, frontier appends and a text
//! round trip, checked block by block. Plus pinned fingerprints of the
//! layouts and bitmaps the generators produce, so a representation
//! change cannot silently move a committed result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forhdc_layout::{build_disk_bitmaps, check_bitmap_consistency, FileId, FileMap, LayoutBuilder};
use forhdc_sim::{DiskId, LogicalBlock, PhysBlock, StripingMap};
use forhdc_workload::io::{read_layout, write_layout};
use forhdc_workload::ServerWorkloadSpec;

/// `(file, offset)` of every logical block up to the footprint.
type Naive = Vec<Option<(u32, u64)>>;

/// The per-block table, filled from each file's extents; panics on
/// any block claimed twice.
fn naive_owners(map: &FileMap) -> Naive {
    let mut owner: Naive = vec![None; map.total_blocks() as usize];
    for f in 0..map.file_count() {
        for e in map.extents(FileId::new(f)) {
            for i in 0..e.len as u64 {
                let slot = &mut owner[(e.start.index() + i) as usize];
                assert!(
                    slot.is_none(),
                    "block {} claimed twice",
                    e.start.index() + i
                );
                *slot = Some((f, e.file_offset as u64 + i));
            }
        }
    }
    owner
}

fn naive_at(naive: &Naive, block: u64) -> Option<(u32, u64)> {
    naive.get(block as usize).copied().flatten()
}

/// The FOR predicate: same file, strictly later offset.
fn continues(cur: Option<(u32, u64)>, prev: Option<(u32, u64)>) -> bool {
    matches!((cur, prev), (Some(c), Some(p)) if c.0 == p.0 && c.1 > p.1)
}

/// Every `FileMap` query against the naive table.
fn check_queries(map: &FileMap, naive: &Naive) {
    let total = map.total_blocks();
    assert_eq!(
        total,
        naive
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |b| b as u64 + 1),
        "footprint"
    );
    let mut inverse: Vec<Vec<u64>> = vec![Vec::new(); map.file_count() as usize];
    for b in 0..=total {
        let got = map
            .owner(LogicalBlock::new(b))
            .map(|o| (o.file.index(), o.offset));
        assert_eq!(got, naive_at(naive, b), "owner of block {b}");
        let prev = b.checked_sub(1).and_then(|p| naive_at(naive, p));
        assert_eq!(
            map.is_continuation(LogicalBlock::new(b)),
            continues(naive_at(naive, b), prev),
            "continuation at block {b}"
        );
        if let Some((f, off)) = naive_at(naive, b) {
            let blocks = &mut inverse[f as usize];
            if blocks.len() <= off as usize {
                blocks.resize(off as usize + 1, u64::MAX);
            }
            blocks[off as usize] = b;
        }
    }
    for (f, blocks) in inverse.iter().enumerate() {
        let file = FileId::new(f as u32);
        assert!(!blocks.contains(&u64::MAX), "{file} has a hole");
        assert_eq!(map.file_blocks(file), blocks.len() as u64, "{file} size");
        for (off, &b) in blocks.iter().enumerate() {
            assert_eq!(map.block_at(file, off as u64), Some(LogicalBlock::new(b)));
        }
        assert_eq!(map.block_at(file, blocks.len() as u64), None);
        let exts = map.extents(file);
        assert!(
            exts.windows(2)
                .all(|p| p[0].file_offset + p[0].len == p[1].file_offset),
            "{file} extents out of file-offset order"
        );
    }
    assert_eq!(map.block_at(FileId::new(map.file_count()), 0), None);
    // The start-order sweep lists every extent once, under its file.
    let swept: Vec<_> = map.extents_by_start().collect();
    assert!(swept.windows(2).all(|p| p[0].1.end() <= p[1].1.start));
    let per_file: usize = (0..map.file_count())
        .map(|f| map.extents(FileId::new(f)).len())
        .sum();
    assert_eq!(swept.len(), per_file);
    for (file, e) in swept {
        assert!(map.extents(file).contains(e), "{file} does not hold {e:?}");
    }
}

/// Bitmaps bit for bit against the naive predicate, then the checker
/// accepts them and rejects one flipped bit.
fn check_bitmaps(map: &FileMap, naive: &Naive, striping: &StripingMap, disk_blocks: u64) {
    let bitmaps = build_disk_bitmaps(map, striping, disk_blocks);
    for (d, bm) in bitmaps.iter().enumerate() {
        let disk = DiskId::new(d as u16);
        let owner_at =
            |p: u64| naive_at(naive, striping.logical_of(disk, PhysBlock::new(p)).index());
        let mut expected_ones = 0;
        for p in 0..disk_blocks {
            let expected = p > 0 && continues(owner_at(p), owner_at(p - 1));
            expected_ones += expected as u64;
            assert_eq!(
                bm.get(PhysBlock::new(p)),
                expected,
                "disk {d} phys {p} ({} disks, unit {}, {disk_blocks} blocks)",
                striping.disks(),
                striping.unit_blocks()
            );
        }
        assert_eq!(bm.count_ones(), expected_ones, "disk {d}: stray bits");
    }
    check_bitmap_consistency(map, striping, &bitmaps).unwrap();
    let mut flipped = bitmaps;
    let target = (0..map.total_blocks())
        .rev()
        .map(|l| striping.locate(LogicalBlock::new(l)))
        .find(|&(_, p)| p.index() < disk_blocks);
    if let Some((disk, phys)) = target {
        let bm = &mut flipped[disk.as_usize()];
        let bit = bm.get(phys);
        bm.set(phys, !bit);
        let err = check_bitmap_consistency(map, striping, &flipped).unwrap_err();
        assert!(err.contains("bitmap says"), "{err}");
    }
}

/// The unit pieces cover every allocated block once, each under its
/// owner, within one unit, and in physical order on each disk.
fn check_pieces(map: &FileMap, naive: &Naive, striping: &StripingMap) {
    let mut next_phys = vec![0u64; striping.disks() as usize];
    let mut covered = 0u64;
    for p in map.unit_pieces(striping) {
        let unit = striping.unit_blocks() as u64;
        assert!(p.len > 0 && p.phys.index() % unit + p.len <= unit, "{p:?}");
        let next = &mut next_phys[p.disk.as_usize()];
        assert!(p.phys.index() >= *next, "{p:?} out of physical order");
        *next = p.phys.index() + p.len;
        for k in 0..p.len {
            let logical = striping.logical_of(p.disk, PhysBlock::new(p.phys.index() + k));
            let owner = naive_at(naive, logical.index());
            assert_eq!(owner, Some((p.file.index(), p.file_offset + k)), "{p:?}");
        }
        covered += p.len;
    }
    assert_eq!(covered, naive.iter().flatten().count() as u64);
}

fn check_all(map: &FileMap) {
    let naive = naive_owners(map);
    check_queries(map, &naive);
    for disks in [1u16, 2, 3, 8] {
        for unit in [1u32, 4, 32] {
            let striping = StripingMap::new(disks, unit);
            let max_phys = (0..map.total_blocks())
                .map(|l| striping.locate(LogicalBlock::new(l)).1.index() + 1)
                .max()
                .unwrap_or(0);
            check_pieces(map, &naive, &striping);
            // Ample room past the footprint, then a disk that clips it.
            check_bitmaps(map, &naive, &striping, max_phys + 70);
            check_bitmaps(map, &naive, &striping, max_phys / 2 + 1);
        }
    }
}

fn text(map: &FileMap) -> Vec<u8> {
    let mut out = Vec::new();
    write_layout(map, &mut out).unwrap();
    out
}

#[test]
fn extent_map_matches_a_per_block_table() {
    let mut rng = StdRng::seed_from_u64(0x1A_F0);
    for q in [0.0, 0.03, 0.5] {
        for align in [1u32, 8, 32] {
            for spacing in [0u64, 5] {
                let files = rng.gen_range(1..40);
                // Zero-size files mixed in, and some longer than 32
                // blocks so alignment has runs it must not move.
                let sizes: Vec<u32> = (0..files)
                    .map(|_| match rng.gen_range(0..6) {
                        0 => 0,
                        1 => rng.gen_range(33..90),
                        _ => rng.gen_range(1..12),
                    })
                    .collect();
                let mut map = LayoutBuilder::new()
                    .fragmentation(q)
                    .align_blocks(align)
                    .spacing_blocks(spacing)
                    .seed(rng.gen())
                    .build(&sizes);
                check_all(&map);
                // Frontier appends land contiguously past the footprint.
                let end = map.total_blocks();
                map.append_files(&[3, 0, 5]);
                let n = map.file_count();
                assert_eq!(n as usize, sizes.len() + 3);
                assert_eq!(
                    map.block_at(FileId::new(n - 3), 0),
                    Some(LogicalBlock::new(end))
                );
                assert_eq!(map.file_blocks(FileId::new(n - 2)), 0);
                assert_eq!(map.total_blocks(), end + 8);
                check_all(&map);
                // The text format round-trips to the same map.
                let back = read_layout(&text(&map)[..]).unwrap();
                assert_eq!(text(&back), text(&map));
                assert_eq!(back.file_count(), map.file_count());
                assert!(back.extents_by_start().eq(map.extents_by_start()));
                check_queries(&back, &naive_owners(&map));
            }
        }
    }
}

#[test]
fn from_extents_sorts_each_file_by_offset() {
    // File 0's extents arrive out of file-offset order.
    let text = "#forhdc-layout v1\n0 10 2 2\n1 0 4 0\n0 4 2 0\n";
    let map = read_layout(text.as_bytes()).unwrap();
    let offsets: Vec<u32> = map
        .extents(FileId::new(0))
        .iter()
        .map(|e| e.file_offset)
        .collect();
    assert_eq!(offsets, [0, 2]);
    check_all(&map);
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of every set bit, as `(disk, phys)`.
fn bitmap_hash(map: &FileMap, striping: &StripingMap, disk_blocks: u64) -> u64 {
    let mut h = FNV_BASIS;
    for (d, bm) in build_disk_bitmaps(map, striping, disk_blocks)
        .iter()
        .enumerate()
    {
        for p in (0..disk_blocks).filter(|&p| bm.get(PhysBlock::new(p))) {
            h = fnv(&(d as u64).to_le_bytes(), h);
            h = fnv(&p.to_le_bytes(), h);
        }
    }
    h
}

#[test]
fn generated_layouts_and_bitmaps_are_pinned() {
    let sizes: Vec<u32> = (0..500u32).map(|i| i * 7 % 37).collect();
    let map = LayoutBuilder::new()
        .fragmentation(0.05)
        .align_blocks(8)
        .spacing_blocks(3)
        .seed(42)
        .build(&sizes);
    assert_eq!(fnv(&text(&map), FNV_BASIS), 0x7e37_e761_64b4_b4be);
    assert_eq!(
        bitmap_hash(&map, &StripingMap::new(3, 4), 4096),
        0x3474_001a_4282_bc1d
    );

    let file = ServerWorkloadSpec::file_server()
        .scale(0.01)
        .generate()
        .workload
        .layout;
    assert_eq!(
        (file.total_blocks(), file.file_count()),
        (3_908_264, 30_000)
    );
    assert_eq!(fnv(&text(&file), FNV_BASIS), 0x0992_6e42_38dc_a716);
    assert_eq!(
        bitmap_hash(&file, &StripingMap::new(8, 16), 400_000),
        0xb1c1_a874_401a_4ebe
    );

    // The proxy clone appends its write frontier to the built layout.
    let proxy = ServerWorkloadSpec::proxy()
        .scale(0.01)
        .generate()
        .workload
        .layout;
    assert_eq!(
        (proxy.total_blocks(), proxy.file_count()),
        (1_271_348, 440_322)
    );
    assert_eq!(fnv(&text(&proxy), FNV_BASIS), 0xae9e_2107_f8ec_3309);
    assert_eq!(
        bitmap_hash(&proxy, &StripingMap::new(8, 16), 1 << 20),
        0x438c_ac6a_1f0a_41f3
    );
}
