//! # forhdc-workload
//!
//! Workload generation for the paper's evaluation:
//!
//! * [`ZipfSampler`] — the Bradford/Zipf popularity distribution the
//!   paper draws request targets from (`p_i ∝ 1/i^α`, α = 0 uniform).
//! * [`SyntheticWorkload`] — the controlled synthetic traces of §6.2:
//!   10 000 whole-file reads of a fixed file size, Zipf-distributed over
//!   the file population, with tunable write fraction, coalescing
//!   probability and fragmentation.
//! * [`ServerWorkload`] — statistically calibrated clones of the
//!   paper's three real traces (Rutgers Web server, AT&T Hummingbird
//!   proxy, HP file server). The originals are proprietary; the clones
//!   match every statistic the paper reports (see `DESIGN.md` §3).
//! * [`Trace`] — the disk-level access log fed to the simulator, plus
//!   popularity statistics (Figure 2).
//! * [`BlockCounts`] — exact per-block access counts in one byte per
//!   block, the input to Figure 2 and the HDC planner.
//! * [`io`] — plain-text trace/layout serialization, so real logs can
//!   be converted and replayed.

pub mod counts;
pub mod io;
pub mod server;
pub mod stats;
pub mod synth;
pub mod trace;
pub mod util;
pub mod zipf;

pub use counts::BlockCounts;
pub use server::{ServerKind, ServerWorkload, ServerWorkloadSpec};
pub use synth::{SyntheticWorkload, SyntheticWorkloadBuilder};
pub use trace::{Trace, TraceBuilder, TraceRequest, Workload};
pub use zipf::ZipfSampler;
