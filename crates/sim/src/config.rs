//! Typed configuration mirroring Table 1 of the paper.
//!
//! | Parameter | Default |
//! |---|---|
//! | Number of disks | 8 |
//! | Disk size | 18 GBytes |
//! | Average disk seek time | 3.4 msecs |
//! | Average rotational latency | 2.0 msecs (15 000 rpm) |
//! | Raw disk transfer rate | 54 MB/sec |
//! | Disk controller interface | Ultra160 (160 MB/s shared bus) |
//! | Disk controller cache size | 4 MBytes |
//! | Disk block size | 4 KBytes |
//! | Segment size | 128, 256, or 512 KBytes |
//! | Number of segments | 27, 13, or 6 |
//! | Disk-resident bitmap | 546 KBytes (1 bit / 4-KByte block) |

use crate::geometry::DiskGeometry;
use crate::seek::SeekModel;
use crate::time::SimDuration;

/// Which per-disk request scheduler to use.
///
/// The paper's controllers use LOOK; the others exist for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Elevator without going to the edge (the paper's default).
    #[default]
    Look,
    /// First-come first-served.
    Fcfs,
    /// Shortest seek time first.
    Sstf,
    /// Circular LOOK (one direction only, then jump back).
    Clook,
}

/// How mirrored reads are split across the two members of a pair.
///
/// The default reproduces the original closest-copy dispatch ("accessing
/// the closest copy", §2.2): a member that already caches the extent
/// wins, else the less-loaded one. The alternatives are the classic
/// read-splitting policies of the mirrored-array literature (Thomasian),
/// swept by `fig-mirror` and applied by [`crate::MirrorRouter`]. Only
/// consulted when `ArrayConfig::mirrored` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadSplit {
    /// A member whose cache covers the extent, the primary first; else
    /// the twin if its queue is shorter; else the primary.
    #[default]
    ClosestCopy,
    /// The primary first, then strict alternation per virtual disk.
    RoundRobin,
    /// The member with the shorter queue (ties go to the primary).
    ShortestQueue,
    /// All reads to the primary; the twin only absorbs writes (and
    /// failovers).
    PrimaryOnly,
}

impl ReadSplit {
    /// Stable CLI/CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            ReadSplit::ClosestCopy => "closest",
            ReadSplit::RoundRobin => "rr",
            ReadSplit::ShortestQueue => "sq",
            ReadSplit::PrimaryOnly => "primary",
        }
    }
}

/// Configuration of a single disk drive and its controller resources.
///
/// Defaults model the IBM Ultrastar 36Z15 of Table 1.
///
/// # Example
///
/// ```
/// use forhdc_sim::DiskConfig;
///
/// let cfg = DiskConfig::default();
/// assert_eq!(cfg.cache_blocks(), 1024);       // 4 MB of 4-KByte blocks
/// assert_eq!(cfg.segment_blocks(), 32);       // 128-KByte segments
/// assert_eq!(cfg.segments, 27);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Platter geometry.
    pub geometry: DiskGeometry,
    /// Seek-time model.
    pub seek: SeekModel,
    /// Spindle speed, revolutions per minute.
    pub rpm: u32,
    /// Raw media transfer rate in bytes per second (Table 1: 54 MB/s).
    pub media_rate: u64,
    /// Controller cache memory in bytes (Table 1: 4 MBytes).
    pub cache_bytes: u64,
    /// Segment size in bytes for the segment-based organization
    /// (Table 1: 128 KBytes default).
    pub segment_bytes: u32,
    /// Number of segments for the segment-based organization
    /// (Table 1: 27 at 128-KByte segments).
    pub segments: u32,
    /// Fixed controller processing overhead charged per media operation
    /// (command decode, cache management).
    pub controller_overhead: SimDuration,
    /// Extra controller time per block of FOR bitmap consulted — the
    /// "cost of the new proposed functionality" the paper simulates.
    pub bitmap_scan_per_block: SimDuration,
    /// Optional zoned-recording profile: a per-cylinder scale on the
    /// media rate (`None` = the paper's uniform average rate).
    pub zone_profile: Option<crate::zones::ZoneProfile>,
}

impl DiskConfig {
    /// Block size in bytes (from the geometry).
    pub fn block_bytes(&self) -> u32 {
        self.geometry.block_bytes()
    }

    /// Controller cache capacity in blocks.
    pub fn cache_blocks(&self) -> u32 {
        (self.cache_bytes / self.block_bytes() as u64) as u32
    }

    /// Segment size in blocks.
    pub fn segment_blocks(&self) -> u32 {
        self.segment_bytes / self.block_bytes()
    }

    /// Sets the segment size, also updating the segment count to the
    /// Table 1 pairing (128 KB → 27, 256 KB → 13, 512 KB → 6; other
    /// sizes get `cache_bytes / segment_bytes` capped segments).
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero or not a multiple of the block
    /// size.
    pub fn with_segment_bytes(mut self, segment_bytes: u32) -> Self {
        assert!(segment_bytes > 0 && segment_bytes.is_multiple_of(self.block_bytes()));
        self.segment_bytes = segment_bytes;
        self.segments = match segment_bytes {
            131_072 => 27,
            262_144 => 13,
            524_288 => 6,
            other => (self.cache_bytes / other as u64).max(1) as u32,
        };
        self
    }

    /// Enables the Ultrastar-like 9-zone recording profile.
    pub fn with_zoned_recording(mut self) -> Self {
        self.zone_profile = Some(crate::zones::ZoneProfile::ultrastar_like(
            self.geometry.cylinders(),
        ));
        self
    }

    /// Size in bytes of the on-disk FOR continuation bitmap (1 bit per
    /// block). Table 1 lists 546 KBytes for the 18-GByte drive.
    pub fn bitmap_bytes(&self) -> u64 {
        self.geometry.capacity_blocks().div_ceil(8)
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            geometry: DiskGeometry::ultrastar_36z15(),
            seek: SeekModel::ultrastar_36z15(),
            rpm: 15_000,
            media_rate: 54_000_000,
            cache_bytes: 4 * 1024 * 1024,
            segment_bytes: 128 * 1024,
            segments: 27,
            controller_overhead: SimDuration::from_micros(20),
            bitmap_scan_per_block: SimDuration::from_nanos(50),
            zone_profile: None,
        }
    }
}

/// Configuration of the whole array: disks, striping, bus, scheduling.
///
/// # Example
///
/// ```
/// use forhdc_sim::ArrayConfig;
///
/// let cfg = ArrayConfig::default();
/// assert_eq!(cfg.disks, 8);
/// assert_eq!(cfg.striping_unit_blocks(), 32); // 128-KByte unit
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Number of disks (Table 1: 8).
    pub disks: u16,
    /// Per-disk configuration.
    pub disk: DiskConfig,
    /// Striping unit in bytes (Table 1 synthetic default: 128 KBytes).
    pub striping_unit_bytes: u32,
    /// Per-disk request scheduler.
    pub scheduler: SchedulerKind,
    /// Shared host bus bandwidth in bytes per second (Ultra160: 160 MB/s).
    pub bus_rate: u64,
    /// Fixed bus/command overhead per transfer.
    pub bus_overhead: SimDuration,
    /// RAID-1 mirroring (RAID-10): adjacent disk pairs hold identical
    /// data; the logical space stripes over the pairs. Reads may be
    /// served by either member ("accessing the closest copy"); writes
    /// go to both. Requires an even disk count.
    pub mirrored: bool,
    /// Read-splitting policy for mirrored pairs (ignored unless
    /// `mirrored`).
    pub read_split: ReadSplit,
}

impl ArrayConfig {
    /// Striping unit in blocks.
    pub fn striping_unit_blocks(&self) -> u32 {
        self.striping_unit_bytes / self.disk.block_bytes()
    }

    /// Sets the striping unit (bytes), builder style.
    ///
    /// # Panics
    ///
    /// Panics if the unit is zero or not a multiple of the block size.
    pub fn with_striping_unit_bytes(mut self, unit: u32) -> Self {
        assert!(unit > 0 && unit.is_multiple_of(self.disk.block_bytes()));
        self.striping_unit_bytes = unit;
        self
    }

    /// Number of independently addressable (virtual) disks: the disk
    /// count, halved under mirroring.
    ///
    /// # Panics
    ///
    /// Panics if mirroring is enabled with an odd disk count.
    pub fn virtual_disks(&self) -> u16 {
        if self.mirrored {
            assert!(
                self.disks.is_multiple_of(2) && self.disks >= 2,
                "mirroring needs disk pairs"
            );
        }
        crate::mirror::virtual_disks(self.disks, self.mirrored)
    }

    /// Total logical capacity of the array in blocks (halved under
    /// mirroring: every block is stored twice).
    pub fn capacity_blocks(&self) -> u64 {
        self.virtual_disks() as u64 * self.disk.geometry.capacity_blocks()
    }
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            disks: 8,
            disk: DiskConfig::default(),
            striping_unit_bytes: 128 * 1024,
            scheduler: SchedulerKind::Look,
            bus_rate: 160_000_000,
            bus_overhead: SimDuration::from_micros(20),
            mirrored: false,
            read_split: ReadSplit::ClosestCopy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let a = ArrayConfig::default();
        assert_eq!(a.disks, 8);
        assert_eq!(a.disk.block_bytes(), 4096);
        assert_eq!(a.disk.cache_bytes, 4 * 1024 * 1024);
        assert_eq!(a.disk.media_rate, 54_000_000);
        assert_eq!(a.disk.segments, 27);
        assert_eq!(a.striping_unit_bytes, 128 * 1024);
        assert!(a.disk.geometry.capacity_bytes() >= 18_000_000_000);
    }

    #[test]
    fn bitmap_size_matches_table1() {
        let d = DiskConfig::default();
        // Table 1: 546 KBytes. 18 GB / 4 KB / 8 bits = ~549 KB; allow slack
        // for geometry rounding.
        let kb = d.bitmap_bytes() as f64 / 1024.0;
        assert!((530.0..560.0).contains(&kb), "bitmap {kb} KB");
    }

    #[test]
    fn segment_size_pairing() {
        let d = DiskConfig::default();
        assert_eq!(d.clone().with_segment_bytes(256 * 1024).segments, 13);
        assert_eq!(d.clone().with_segment_bytes(512 * 1024).segments, 6);
        assert_eq!(d.clone().with_segment_bytes(64 * 1024).segments, 64);
        assert_eq!(d.with_segment_bytes(128 * 1024).segments, 27);
    }

    #[test]
    fn striping_builder() {
        let a = ArrayConfig::default().with_striping_unit_bytes(16 * 1024);
        assert_eq!(a.striping_unit_blocks(), 4);
    }

    #[test]
    fn mirroring_halves_addressable_space() {
        let mut a = ArrayConfig::default();
        assert_eq!(a.virtual_disks(), 8);
        let full = a.capacity_blocks();
        a.mirrored = true;
        assert_eq!(a.virtual_disks(), 4);
        assert_eq!(a.capacity_blocks(), full / 2);
    }

    #[test]
    #[should_panic(expected = "disk pairs")]
    fn odd_mirroring_panics() {
        let a = ArrayConfig {
            disks: 7,
            mirrored: true,
            ..ArrayConfig::default()
        };
        let _ = a.virtual_disks();
    }

    #[test]
    #[should_panic]
    fn bad_striping_unit_panics() {
        let _ = ArrayConfig::default().with_striping_unit_bytes(1000);
    }
}
