//! # forhdc-sim
//!
//! A deterministic discrete-event simulator of an array of SCSI disks,
//! modeled after the testbed of *Improving Disk Throughput in
//! Data-Intensive Servers* (Carrera & Bianchini, HPCA 2004): an
//! Ultra160 SCSI card driving eight IBM Ultrastar 36Z15-class drives.
//!
//! The crate provides the *mechanical* substrate that the paper's
//! controller-cache techniques (FOR and HDC, in `forhdc-core`) sit on:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`],
//!   [`SimDuration`]) with deterministic ordering.
//! * [`engine`] — the event queue: one binary heap keyed by packed
//!   `(time, sequence)` ([`EventQueue`]).
//! * [`calendar`] — the same queue under its laned name, the lane a
//!   no-op ([`LaneCalendar`]).
//! * [`geometry`] — physical-block → (cylinder, surface, sector) mapping
//!   ([`DiskGeometry`]).
//! * [`seek`] — the paper's piecewise seek-time model
//!   `α + β·√n` / `γ + δ·n` ([`SeekModel`]).
//! * [`rotation`] — angular-position rotation model at 15 000 rpm
//!   ([`RotationModel`]).
//! * [`mechanics`] — full positioning + media-transfer service times
//!   ([`DiskMechanics`]).
//! * [`sched`] — per-disk request queues: LOOK (the paper's default),
//!   plus FCFS / SSTF / C-LOOK for ablations ([`sched::Scheduler`]).
//! * [`bus`] — the shared Ultra160 bus as a serializing resource
//!   ([`BusModel`]).
//! * [`mod@array`] — round-robin striping across the array
//!   ([`StripingMap`]).
//! * [`config`] — Table 1 of the paper as typed defaults
//!   ([`DiskConfig`], [`ArrayConfig`]).
//! * [`mirror`] — RAID1/0 pairing and the read router both planes
//!   share ([`MirrorRouter`]).
//!
//! # Example
//!
//! Compute the service time of a random 16-KByte read on the default
//! (Ultrastar 36Z15-like) drive:
//!
//! ```
//! use forhdc_sim::{DiskConfig, DiskMechanics, SimTime, SimDuration};
//! use forhdc_sim::request::{PhysBlock, ReadWrite};
//!
//! let cfg = DiskConfig::default();
//! let mut mech = DiskMechanics::new(&cfg);
//! let timing = mech.service(ReadWrite::Read, PhysBlock::new(1_000_000), 4, SimTime::ZERO);
//! assert!(timing.total() > SimDuration::ZERO);
//! ```

pub mod array;
pub mod bus;
pub mod calendar;
pub mod config;
pub mod engine;
pub mod geometry;
pub mod mechanics;
pub mod mirror;
pub mod request;
pub mod rotation;
pub mod sched;
pub mod seek;
pub mod stats;
pub mod time;
pub mod zones;

pub use array::StripingMap;
pub use bus::BusModel;
pub use calendar::LaneCalendar;
pub use config::{ArrayConfig, DiskConfig, ReadSplit, SchedulerKind};
pub use engine::EventQueue;
pub use geometry::{BlockAddress, DiskGeometry};
pub use mechanics::{DiskMechanics, ServiceTiming};
pub use mirror::MirrorRouter;
pub use request::{DiskId, LogicalBlock, PhysBlock, ReadWrite, RequestId, StreamId};
pub use rotation::RotationModel;
pub use seek::SeekModel;
pub use stats::DiskStats;
pub use time::{SimDuration, SimTime};
pub use zones::ZoneProfile;
