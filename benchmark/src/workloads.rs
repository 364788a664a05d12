//! The five workloads and the metric sets every workload reports.
//!
//! Sizes come in two variants: the full ones the benchmark measures and
//! tiny `--smoke` ones that exercise every code path in about a second.

use forhdc_workload::ServerKind;

/// End-to-end metrics `(name, unit)`, reported by every workload.
/// (p99 is reported too, but on this class of shared host it moves
/// too much between runs to carry a bound; it is the per-layer
/// `client.p99_us`.)
pub const E2E: [(&str, &str); 4] = [
    ("rps", "1/s"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload's
/// traced run. The six `*.ns_per_req` phases are one schema for both
/// planes (see README.md) and add up to the workload's per-request
/// time: the client round trip (live) or the event loop's wall time
/// per simulated request (sim).
pub const PER_LAYER: [(&str, &str); 11] = [
    ("split.ns_per_req", "ns"),
    ("probe.ns_per_req", "ns"),
    ("media.ns_per_req", "ns"),
    ("queue.ns_per_req", "ns"),
    ("transfer.ns_per_req", "ns"),
    ("residual.ns_per_req", "ns"),
    ("cache.extent_hit_ratio", "ratio"),
    ("cache.ra_useful_ratio", "ratio"),
    ("disk.media_ops_per_req", "count"),
    ("hdc.hits_per_req", "count"),
    ("client.p99_us", "us"),
];

pub const NAMES: [&str; 5] = [
    "live-hot",
    "live-cold",
    "live-mirror",
    "sim-web",
    "sim-file",
];

/// A live-server workload: a disk-image array served over loopback TCP
/// and read whole-file by a closed loop of clients.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub name: &'static str,
    /// Physical image files (mirrored arrays pair them).
    pub disks: u16,
    pub files: u32,
    pub file_blocks: u32,
    pub unit_blocks: u32,
    pub mirrored: bool,
    /// HDC region per disk, KiB (0 = off).
    pub hdc_kib: u32,
    /// Warm-up before the timed window, seconds.
    pub warmup_s: f64,
    /// Requests the traced run replays through fresh engines.
    pub replay: usize,
}

/// A simulator workload: one server clone replayed by `System::run`.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub name: &'static str,
    pub kind: ServerKind,
    pub scale: f64,
    pub unit_bytes: u32,
    pub hdc_bytes: u64,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Live(LiveSpec),
    Sim(SimSpec),
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Live(s) => s.name,
            Workload::Sim(s) => s.name,
        }
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let live = |name, files: u32, file_blocks, mirrored, hdc_kib| {
        Workload::Live(LiveSpec {
            name,
            disks: 4,
            files,
            file_blocks,
            unit_blocks: 32,
            mirrored,
            hdc_kib,
            warmup_s: if smoke { 0.2 } else { 2.0 },
            replay: if smoke { 2_000 } else { 40_000 },
        })
    };
    let sim = |name, kind, scale: f64, unit_kib: u32| {
        Workload::Sim(SimSpec {
            name,
            kind,
            scale: if smoke { scale / 200.0 } else { scale },
            unit_bytes: unit_kib * 1024,
            hdc_bytes: 2 * 1024 * 1024,
        })
    };
    Some(match name {
        // 16 MiB: fits the 4 x 4 MiB controller caches.
        "live-hot" => live("live-hot", if smoke { 64 } else { 512 }, 8, false, 0),
        // 512 MiB: 32x the controller caches; 1 MiB HDC per disk.
        "live-cold" => live(
            "live-cold",
            if smoke { 1024 } else { 16_384 },
            8,
            false,
            1024,
        ),
        // 2 RAID1/0 pairs; 256-KiB files span two 128-KiB striping units.
        "live-mirror" => live("live-mirror", if smoke { 64 } else { 1024 }, 64, true, 0),
        "sim-web" => sim("sim-web", ServerKind::Web, 4.0, 16),
        "sim-file" => sim("sim-file", ServerKind::File, 2.0, 128),
        _ => return None,
    })
}
