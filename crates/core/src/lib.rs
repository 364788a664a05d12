//! # forhdc-core
//!
//! The paper's contribution: **File-Oriented Read-ahead (FOR)** and
//! **Host-guided Device Caching (HDC)**, assembled with the simulator
//! substrate into a runnable full system.
//!
//! * [`policy`] — the four read-ahead disciplines compared in §6:
//!   conventional blind read-ahead over a segment cache (`Segm`), blind
//!   read-ahead over a block cache (`Block`), read-ahead disabled
//!   (`No-RA`), and FOR.
//! * [`controller`] — one disk's controller: the read-ahead cache, the
//!   optional HDC region, and the read-ahead decision (consulting the
//!   FOR continuation bitmap).
//! * [`planner`] — the host side of HDC: profile per-block miss counts
//!   and pin the top-K blocks of each disk, optionally per period.
//! * [`victim`] — §5's other example use of HDC: an array-wide victim
//!   cache for the host buffer cache, driven by a dynamic
//!   `pin_blk()`/`unpin_blk()` command stream.
//! * [`system`] — the closed-loop, event-driven simulation of the whole
//!   array serving a workload; produces a [`Report`].
//!
//! # Example
//!
//! ```
//! use forhdc_core::{System, SystemConfig};
//! use forhdc_workload::SyntheticWorkload;
//!
//! let wl = SyntheticWorkload::builder()
//!     .requests(300).files(2_000).file_blocks(4).seed(1).build();
//! let segm = System::new(SystemConfig::segm(), &wl).run();
//! let for_ = System::new(SystemConfig::for_(), &wl).run();
//! assert!(for_.io_time <= segm.io_time);
//! ```

pub mod controller;
pub mod latency;
pub mod planner;
pub mod policy;
pub mod report;
pub mod system;
pub mod victim;

pub use controller::DiskController;
pub use forhdc_check::{Auditor, FinalDigest, FullAudit, NoChecks, VIOLATION_PREFIX};
pub use forhdc_fault::{
    FaultConfig, FaultModel, FaultStats, NoFaults, OfflineWindow, RetryPolicy, SeededFaults,
};
pub use latency::LatencyHistogram;
pub use planner::{plan_cooperative, plan_periodic, plan_top_misses, CoopPlan, HdcPlan};
pub use policy::ReadAheadKind;
pub use report::Report;
pub use system::{RebuildConfig, System, SystemBuilder, SystemConfig};
pub use victim::{build_victim_workload, HdcCommand, VictimConfig, VictimWorkload};
