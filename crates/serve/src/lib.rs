//! forhdc-serve — a live TCP serving front-end for the FOR/HDC stack.
//!
//! The simulator (crates/sim, crates/core) evaluates File-Oriented
//! Read-ahead and Host-guided Device Caching against modeled disks.
//! This crate puts the *same controller stack* in front of real
//! file-backed disk images and serves file reads over TCP, so the
//! policies can be exercised by live concurrent clients:
//!
//! - [`image`] — deterministic disk-image directories (`serve mkdisk`):
//!   one image file per array disk, laid out by the reproduction's own
//!   [`forhdc_layout::LayoutBuilder`], every block's payload a pure
//!   function of `(file, offset)` so any client can verify any byte.
//! - [`protocol`] — the tiny length-prefixed request/response framing.
//! - [`engine`] — per-disk [`forhdc_core::DiskController`]s in front
//!   of the image files: one decision path plans each READ as image
//!   segments, and a transfer moves them — `sendfile` into the socket
//!   on the server, `pread` into a buffer in [`Engine::read`].
//! - [`metrics`] — the live telemetry surface: the Prometheus-style
//!   family set every layer records into, the crash flight recorder,
//!   and the wall-clock origin (see `forhdc-metrics` and DESIGN.md
//!   §6.8).
//! - [`server`] — thread-per-connection TCP runtime with a small
//!   accept pool, periodic stats, a side HTTP metrics listener, and
//!   drain-clean shutdown.
//! - [`report`] — hand-rolled JSON reporting shared by the final
//!   report, `OP_STATS`, and the periodic stderr lines.
//!
//! - [`client`] — the closed-loop client: a deterministic, seeded Zipf
//!   request schedule over N connections with per-outcome accounting,
//!   swept across concurrency levels by the `loadgen` binary.
//! - [`chaos`] — the fault-tolerance harness: a child `serve` killed,
//!   restarted and probed under that client, returning a typed report.

pub mod chaos;
pub mod client;
pub mod engine;
pub mod faults;
pub mod image;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod server;
mod zerocopy;

pub use engine::{DiskSnapshot, Engine, EngineSnapshot, LiveOpts, Plan, ReadError, Segment};
pub use faults::LiveFaults;
pub use image::{block_payload, create_images, open_dir, rank_to_file, DiskMeta};
pub use metrics::{OpKind, ServeMetrics};
pub use protocol::{ErrorCode, Request, MAX_READ_BLOCKS};
pub use report::{server_report, stats_line, ServeTotals};
pub use server::{run, ServerOpts};
