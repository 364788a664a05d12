//! Mechanical service-time computation.
//!
//! Implements the paper's service model
//! `T(r) = seek_time + rot_latency + (r × S) / xfer_rate`
//! with the seek time from the piecewise model, the rotational latency
//! from the tracked angular position, and the media transfer at the raw
//! rate. The head's cylinder position persists between operations so
//! that LOOK scheduling and seek distances are meaningful.

use crate::config::DiskConfig;
use crate::geometry::DiskGeometry;
use crate::request::{PhysBlock, ReadWrite};
use crate::rotation::RotationModel;
use crate::seek::SeekModel;
use crate::time::{SimDuration, SimTime};

/// Breakdown of one media operation's positioning and transfer time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceTiming {
    /// Head movement to the target cylinder.
    pub seek: SimDuration,
    /// Wait for the target sector to rotate under the head.
    pub rotation: SimDuration,
    /// Media transfer of all blocks (including any read-ahead).
    pub transfer: SimDuration,
    /// Fixed controller processing overhead.
    pub overhead: SimDuration,
}

impl ServiceTiming {
    /// Total service time: seek + rotation + transfer + overhead.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotation + self.transfer + self.overhead
    }
}

/// The moving parts of one disk: geometry, seek and rotation models, and
/// the persistent head position.
///
/// # Example
///
/// ```
/// use forhdc_sim::{DiskConfig, DiskMechanics, SimTime};
/// use forhdc_sim::request::{PhysBlock, ReadWrite};
///
/// let mut mech = DiskMechanics::new(&DiskConfig::default());
/// let t1 = mech.service(ReadWrite::Read, PhysBlock::new(0), 32, SimTime::ZERO);
/// // Reading 32 blocks (128 KB) at 54 MB/s takes ~2.43 ms of transfer.
/// assert!((t1.transfer.as_millis_f64() - 2.43).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct DiskMechanics {
    geometry: DiskGeometry,
    seek: SeekModel,
    rotation: RotationModel,
    media_rate: u64,
    zone_profile: Option<crate::zones::ZoneProfile>,
    overhead: SimDuration,
    head_cylinder: u32,
    /// `rotation.target_ns(angle_of(sector))` tabulated per sector, so
    /// the per-op service computation does no floating-point math. The
    /// table is built with the exact expression `latency_to` evaluates,
    /// making the two paths bit-identical.
    rot_target_ns: Vec<u64>,
}

impl DiskMechanics {
    /// Creates mechanics from a disk configuration, head parked at
    /// cylinder 0.
    pub fn new(cfg: &DiskConfig) -> Self {
        let rotation = RotationModel::new(cfg.rpm);
        let spt = cfg.geometry.sectors_per_track();
        let rot_target_ns = (0..spt)
            .map(|s| rotation.target_ns(s as f64 / spt as f64))
            .collect();
        DiskMechanics {
            geometry: cfg.geometry,
            seek: cfg.seek,
            rotation,
            media_rate: cfg.media_rate,
            zone_profile: cfg.zone_profile.clone(),
            overhead: cfg.controller_overhead,
            head_cylinder: 0,
            rot_target_ns,
        }
    }

    /// The cylinder the head currently rests on.
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// The geometry this mechanism is built on.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The rotation model (for average-latency queries).
    pub fn rotation(&self) -> &RotationModel {
        &self.rotation
    }

    /// Computes the timing of a media operation starting at simulated
    /// instant `now`, reading or writing `nblocks` blocks beginning at
    /// `start`, and moves the head accordingly.
    ///
    /// Reads and writes are mechanically symmetric in this model; the
    /// distinction is kept for stats and for extensions (e.g. write
    /// settle time).
    ///
    /// # Panics
    ///
    /// Panics if `nblocks` is zero or the extent runs past the end of
    /// the disk.
    pub fn service(
        &mut self,
        kind: ReadWrite,
        start: PhysBlock,
        nblocks: u32,
        now: SimTime,
    ) -> ServiceTiming {
        let _ = kind;
        assert!(nblocks > 0, "media operation of zero blocks");
        let last = start.offset(nblocks as u64 - 1);
        assert!(
            last.index() < self.geometry.capacity_blocks(),
            "operation past end of disk: {last}"
        );
        let target = self.geometry.address(start);
        let distance = self.head_cylinder.abs_diff(target.cylinder);
        let seek = self.seek.seek_time(distance);
        let rotation = self
            .rotation
            .latency_to_ns(self.rot_target_ns[target.sector as usize], now + seek);
        // Zoned recording: outer cylinders transfer faster.
        let rate = match &self.zone_profile {
            Some(z) => (self.media_rate as f64 * z.scale_at(target.cylinder)) as u64,
            None => self.media_rate,
        };
        let transfer =
            SimDuration::for_transfer(nblocks as u64 * self.geometry.block_bytes() as u64, rate);
        // The head ends on the extent's last cylinder — almost always
        // the one it started on, so the second address computation is
        // branched away rather than divided for.
        let bpc = self.geometry.blocks_per_cylinder() as u64;
        let past_start_cyl = last.index() - target.cylinder as u64 * bpc;
        self.head_cylinder = if past_start_cyl < bpc {
            target.cylinder
        } else {
            target.cylinder + (past_start_cyl / bpc) as u32
        };
        debug_assert_eq!(self.head_cylinder, self.geometry.cylinder_of(last));
        ServiceTiming {
            seek,
            rotation,
            transfer,
            overhead: self.overhead,
        }
    }

    /// The closed-form expected service time of a random `nblocks`
    /// operation: average seek + half a revolution + transfer. This is
    /// the `T(r)` the paper uses in its utilization arguments.
    pub fn expected_random_service(&self, nblocks: u32) -> SimDuration {
        let avg_seek =
            SimDuration::from_millis_f64(self.seek.average_seek_ms(self.geometry.cylinders()));
        let avg_rot = self.rotation.average_latency();
        let transfer = SimDuration::for_transfer(
            nblocks as u64 * self.geometry.block_bytes() as u64,
            self.media_rate,
        );
        avg_seek + avg_rot + transfer + self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mech() -> DiskMechanics {
        DiskMechanics::new(&DiskConfig::default())
    }

    #[test]
    fn zero_seek_when_head_on_cylinder() {
        let mut m = mech();
        // First access from cylinder 0 to block 0: no seek.
        let t = m.service(ReadWrite::Read, PhysBlock::new(0), 1, SimTime::ZERO);
        assert_eq!(t.seek, SimDuration::ZERO);
    }

    #[test]
    fn head_moves_to_last_block() {
        let mut m = mech();
        let bpc = m.geometry().blocks_per_cylinder() as u64;
        m.service(ReadWrite::Read, PhysBlock::new(bpc * 10), 1, SimTime::ZERO);
        assert_eq!(m.head_cylinder(), 10);
        // A long read crossing into cylinder 11 leaves the head there.
        let n = m.geometry().blocks_per_cylinder();
        m.service(
            ReadWrite::Read,
            PhysBlock::new(bpc * 10),
            n + 1,
            SimTime::ZERO,
        );
        assert_eq!(m.head_cylinder(), 11);
    }

    #[test]
    fn transfer_scales_with_blocks() {
        let t1 = mech().service(ReadWrite::Read, PhysBlock::new(0), 1, SimTime::ZERO);
        let t32 = mech().service(ReadWrite::Read, PhysBlock::new(0), 32, SimTime::ZERO);
        let ratio = t32.transfer.as_nanos() as f64 / t1.transfer.as_nanos() as f64;
        assert!((ratio - 32.0).abs() < 0.01);
    }

    #[test]
    fn rotation_bounded_by_period() {
        let mut m = mech();
        for i in 0..50u64 {
            let now = SimTime::from_nanos(i * 777_777);
            let t = m.service(ReadWrite::Read, PhysBlock::new(i * 12_345), 4, now);
            assert!(t.rotation < m.rotation().period());
        }
    }

    #[test]
    fn expected_service_matches_paper_magnitudes() {
        // T(32 blocks) ≈ 3.4 (seek) + 2.0 (rot) + 2.43 (xfer 128 KB) ms.
        let m = mech();
        let t = m.expected_random_service(32).as_millis_f64();
        assert!((t - 7.85).abs() < 0.5, "T(32) = {t} ms");
        // T(4 blocks) ≈ 3.4 + 2.0 + 0.30 ms: the 29%-utilization-reduction
        // comparison of section 4.
        let t4 = m.expected_random_service(4).as_millis_f64();
        assert!((t4 - 5.73).abs() < 0.5, "T(4) = {t4} ms");
        let reduction = 1.0 - t4 / t;
        assert!(
            (reduction - 0.29).abs() < 0.06,
            "FOR utilization reduction {reduction}"
        );
    }

    #[test]
    fn zoned_recording_speeds_outer_tracks() {
        let mut cfg = DiskConfig::default();
        cfg = cfg.with_zoned_recording();
        let mut m = DiskMechanics::new(&cfg);
        let bpc = m.geometry().blocks_per_cylinder() as u64;
        let cyls = m.geometry().cylinders() as u64;
        let outer = m.service(ReadWrite::Read, PhysBlock::new(0), 32, SimTime::ZERO);
        let inner = m.service(
            ReadWrite::Read,
            PhysBlock::new((cyls - 1) * bpc),
            32,
            SimTime::ZERO,
        );
        assert!(
            outer.transfer < inner.transfer,
            "outer {} should beat inner {}",
            outer.transfer,
            inner.transfer
        );
        // ~1.22 / 0.78 ratio.
        let ratio = inner.transfer.as_nanos() as f64 / outer.transfer.as_nanos() as f64;
        assert!((ratio - 1.22 / 0.78).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn zero_block_op_panics() {
        mech().service(ReadWrite::Read, PhysBlock::new(0), 0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "past end of disk")]
    fn overrun_panics() {
        let mut m = mech();
        let cap = m.geometry().capacity_blocks();
        m.service(ReadWrite::Read, PhysBlock::new(cap - 1), 2, SimTime::ZERO);
    }
}
