//! Statistically calibrated clones of the paper's three real server
//! workloads.
//!
//! The original traces (Rutgers Web, AT&T Hummingbird proxy, HP file
//! server) are proprietary; the clones reproduce every statistic §6.3
//! reports:
//!
//! | | Web | Proxy | File |
//! |---|---|---|---|
//! | server requests | 1.7 M | 750 K | 9.5 M |
//! | distinct files | ~70 K | 440 K | ~30 K |
//! | footprint | 1.7 GB | 4.9 GB | 16 GB |
//! | mean requested size | 21.5 KB | 8.3 KB | 3.1 KB (partial) |
//! | disk-level writes | 2 % | 19 % | 20 % |
//! | concurrent streams | 16 | 128 | 128 |
//! | disk-level popularity | Zipf α ≈ 0.43 (Figure 2) | | |
//!
//! The traces fed to the simulator are *disk-level* logs (below the
//! buffer cache), exactly like the paper's instrumented-kernel logs, so
//! the clone generates them directly at a scaled-down request count
//! (`scale`) — the paper replays its logs at maximum speed, so I/O time
//! scales linearly with log length and the comparison *shape* is
//! preserved.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use forhdc_layout::{FileId, LayoutBuilder};
use forhdc_sim::ReadWrite;

use crate::synth::{access_requests, emit_file_access, request_capacity};
use crate::trace::{TraceBuilder, TraceRequest, Workload};
use crate::util::sample_file_blocks;
use crate::zipf::ZipfSampler;

/// Which of the paper's three servers a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// PRESS Web server replaying the Rutgers trace.
    Web,
    /// Web proxy replaying the AT&T Hummingbird trace.
    Proxy,
    /// File server replaying the HP Labs trace.
    File,
}

impl ServerKind {
    /// Short lowercase label (`web`, `proxy`, `file`).
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Web => "web",
            ServerKind::Proxy => "proxy",
            ServerKind::File => "file",
        }
    }
}

impl std::fmt::Display for ServerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Calibration parameters of one server clone.
#[derive(Debug, Clone)]
pub struct ServerWorkloadSpec {
    /// Which server this models.
    pub kind: ServerKind,
    /// Disk-level requests to generate (already scaled for simulation
    /// runtime; see [`ServerWorkloadSpec::scale`]).
    pub requests: usize,
    /// Distinct files in the footprint.
    pub files: usize,
    /// Mean file size in 4-KByte blocks (log-normal).
    pub mean_file_blocks: f64,
    /// Log-space standard deviation of the file-size distribution.
    pub sigma: f64,
    /// File-size cap in blocks.
    pub max_file_blocks: u32,
    /// Disk-level popularity skew (Figure 2 fits α ≈ 0.43).
    pub zipf_alpha: f64,
    /// Fraction of disk accesses that are writes.
    pub write_fraction: f64,
    /// Request-coalescing probability (the paper measured 87 %).
    pub coalesce_prob: f64,
    /// Concurrent I/O streams.
    pub streams: u32,
    /// `true` when accesses read whole files (Web, proxy); `false` when
    /// requests touch a fraction of the file (file server, mean
    /// 3.1 KBytes).
    pub whole_file: bool,
    /// Mean partial-access size in blocks (only when `!whole_file`).
    pub mean_access_blocks: f64,
    /// Layout fragmentation probability.
    pub fragmentation: f64,
    /// Session continuation probability: each access continues its
    /// stream's current *session* (a burst of accesses confined to a
    /// small spatial region, e.g. one client fetching a page's files or
    /// a directory scan) with this probability, and starts a fresh
    /// session at a Zipf-drawn base otherwise. Real server traces have
    /// this burst locality, and it is what makes large striping units
    /// lose load balance (§6.3: "larger striping units lead to disk
    /// load unbalances"): a session confined to one striping unit
    /// serializes on one disk.
    pub locality: f64,
    /// Spatial extent of a session, in layout-order files.
    pub locality_window: u32,
    /// Popularity clustering: Zipf ranks are assigned to files in
    /// spatially contiguous groups of this many files, so hot files sit
    /// next to each other on disk (popular site sections / directories
    /// are allocated together). 1 disables clustering.
    pub hot_cluster_files: u32,
    /// Non-stationary popularity: probability that a fresh session
    /// starts inside the current *epoch hot set* (the handful of
    /// popular regions "of the hour"). Real disk logs have this
    /// structure — the same blocks re-miss the buffer cache while they
    /// are hot (the premise of HDC's top-miss planning), yet the
    /// full-trace histogram stays flat. A hot set confined to a few
    /// striping units is the sustained source of large-unit load
    /// imbalance. 0 disables epochs.
    pub hot_fraction: f64,
    /// Number of files in each epoch's hot set.
    pub hot_set_files: u32,
    /// Requests per epoch (hot set re-drawn at epoch boundaries).
    pub epoch_requests: u32,
    /// Frontier writes (proxy): writes create *new* objects allocated
    /// sequentially at the end of the used space (a proxy fills its
    /// cache with newly fetched URLs), instead of updating existing
    /// files. At large striping units the frontier unit lives on one
    /// disk, so write bursts serialize there — a real source of the
    /// §6.3 large-unit load imbalance.
    pub frontier_writes: bool,
    /// Fraction of reads that target recently written objects (a
    /// proxy's hottest content is what it just fetched). Only
    /// meaningful with `frontier_writes`.
    pub recent_read_fraction: f64,
    /// How many of the most recently written objects count as
    /// "recent".
    pub recent_window: u32,
    /// RNG seed.
    pub seed: u64,
}

impl ServerWorkloadSpec {
    /// The Web-server clone (Rutgers trace / PRESS, §6.3).
    pub fn web() -> Self {
        ServerWorkloadSpec {
            kind: ServerKind::Web,
            requests: 120_000,
            files: 70_000,
            mean_file_blocks: 6.0, // 1.7 GB / 70 K files ≈ 24 KB; requested mean 21.5 KB
            sigma: 1.3,
            max_file_blocks: 2_048,
            zipf_alpha: 0.60,
            write_fraction: 0.02,
            coalesce_prob: 0.87,
            streams: 16,
            whole_file: true,
            mean_access_blocks: 0.0,
            fragmentation: 0.02,
            locality: 0.35,
            locality_window: 8,
            hot_cluster_files: 4,
            hot_fraction: 0.15,
            hot_set_files: 2_000,
            epoch_requests: 20_000,
            frontier_writes: false,
            recent_read_fraction: 0.0,
            recent_window: 0,
            seed: 0x3EB,
        }
    }

    /// The proxy-server clone (AT&T Hummingbird trace, §6.3).
    pub fn proxy() -> Self {
        ServerWorkloadSpec {
            kind: ServerKind::Proxy,
            requests: 150_000,
            files: 440_000,
            mean_file_blocks: 2.7, // 4.9 GB / 440 K files; requested mean 8.3 KB
            sigma: 1.2,
            max_file_blocks: 1_024,
            zipf_alpha: 0.65,
            write_fraction: 0.19,
            coalesce_prob: 0.87,
            streams: 128,
            whole_file: true,
            mean_access_blocks: 0.0,
            fragmentation: 0.03,
            locality: 0.3,
            locality_window: 6,
            hot_cluster_files: 4,
            hot_fraction: 0.10,
            hot_set_files: 3_000,
            epoch_requests: 25_000,
            frontier_writes: true,
            recent_read_fraction: 0.25,
            recent_window: 400,
            seed: 0x9047,
        }
    }

    /// The file-server clone (HP Labs trace, §6.3). Requests touch
    /// fractions of files (mean 3.1 KBytes), not whole files.
    pub fn file_server() -> Self {
        ServerWorkloadSpec {
            kind: ServerKind::File,
            requests: 250_000,
            files: 30_000,
            mean_file_blocks: 133.0, // 16 GB / 30 K files
            sigma: 1.4,
            max_file_blocks: 16_384,
            zipf_alpha: 0.43,
            write_fraction: 0.20,
            coalesce_prob: 0.87,
            streams: 128,
            whole_file: false,
            mean_access_blocks: 1.0, // 3.1 KB < one 4-KB block
            fragmentation: 0.03,
            locality: 0.2,
            locality_window: 4,
            hot_cluster_files: 1,
            hot_fraction: 0.08,
            hot_set_files: 1_000,
            epoch_requests: 30_000,
            frontier_writes: false,
            recent_read_fraction: 0.0,
            recent_window: 0,
            seed: 0xF17E,
        }
    }

    /// Scales the request count (e.g. `0.1` for a quick run). Minimum
    /// one request.
    ///
    /// Only the request count scales. The file population, and so the
    /// layout and its footprint, stay full size, so a clone at scale
    /// 0.05 still lays out every file (only the proxy's write frontier
    /// shrinks with the request count).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "scale must be positive");
        self.requests = ((self.requests as f64 * factor).round() as usize).max(1);
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the layout and disk-level trace.
    ///
    /// Every large buffer is allocated once, at its final size: the
    /// layout's vectors hold the frontier from the start, and the
    /// request buffer is reserved from the layout's expected requests
    /// per access, so neither grows by doubling (and copying) midway.
    pub fn generate(&self) -> ServerWorkload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5E4E_1253);
        let mut draw_sizes = |n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    sample_file_blocks(
                        &mut rng,
                        self.mean_file_blocks,
                        self.sigma,
                        self.max_file_blocks,
                    )
                })
                .collect()
        };
        // File sizes: log-normal around the calibrated mean.
        let sizes = draw_sizes(self.files);
        // Frontier area: pre-plan the objects future writes will
        // allocate, laid out sequentially past the existing space.
        let expected_writes = if self.frontier_writes {
            (self.requests as f64 * self.write_fraction * 1.10).ceil() as usize + 8
        } else {
            0
        };
        let frontier = draw_sizes(expected_writes);
        let layout = LayoutBuilder::new()
            .fragmentation(self.fragmentation)
            .seed(self.seed)
            .build_with_frontier(&sizes, &frontier);
        let zipf = ZipfSampler::new(self.files, self.zipf_alpha);
        // Spatial order: files sorted by their first block's position,
        // so "nearby in this order" means "physically adjacent".
        let mut spatial: Vec<u32> = Vec::with_capacity(self.files);
        spatial
            .extend((0..self.files as u32).filter(|&f| !layout.extents(FileId::new(f)).is_empty()));
        spatial.sort_by_key(|&f| layout.extents(FileId::new(f))[0].start);
        let mut pos_of = vec![0u32; self.files];
        for (pos, &f) in spatial.iter().enumerate() {
            pos_of[f as usize] = pos as u32;
        }
        // Popularity ↔ position correlation: consecutive Zipf ranks map
        // to spatially contiguous clusters of files, in shuffled
        // cluster order.
        let cluster = self.hot_cluster_files.max(1) as usize;
        let mut cluster_ids: Vec<usize> = (0..spatial.len().div_ceil(cluster)).collect();
        cluster_ids.shuffle(&mut rng);
        let mut rank_to_file: Vec<u32> = Vec::with_capacity(spatial.len());
        for c in cluster_ids {
            let end = ((c + 1) * cluster).min(spatial.len());
            rank_to_file.extend_from_slice(&spatial[c * cluster..end]);
        }

        let per_access = if self.whole_file {
            // A session starts at a Zipf draw or a uniform one (hot
            // sets, frontier objects): the larger mean bounds the mix.
            let cost = |f: u32| access_requests(&layout, FileId::new(f), self.coalesce_prob);
            let zipf_mean: f64 = (0..rank_to_file.len())
                .map(|r| zipf.probability(r) * cost(rank_to_file[r]))
                .sum();
            let all = layout.file_count();
            let uniform_mean = (0..all).map(cost).sum::<f64>() / all.max(1) as f64;
            zipf_mean.max(uniform_mean)
        } else {
            // A partial access is one request per block at most, and
            // exactly one when the mean access is one block.
            self.mean_access_blocks.max(1.0)
        };
        let mut trace = TraceBuilder::with_capacity(request_capacity(self.requests, per_access));
        // One active session per stream, interleaved at random — the
        // in-flight window of the replay then covers ~`streams`
        // concurrent spatial regions, as in a real server. A session
        // *scans* distinct physically adjacent files (a client fetching
        // a page's resources, a directory walk): re-reads of the same
        // file within a burst would be absorbed by the buffer cache and
        // never reach the disk, so sessions visit each file once.
        let w = self.locality_window.max(1);
        // (base position in spatial order, remaining offsets to visit
        // in shuffled order — distinct files, non-sequential arrival).
        // A slot with nothing left starts a fresh session, refilling
        // its buffer in place.
        let mut sessions: Vec<(u32, Vec<u32>)> = (0..self.streams.max(1))
            .map(|_| (0, Vec::with_capacity(w as usize - 1)))
            .collect();
        // Epoch hot set: spatial positions of the currently hot files.
        let epoch = self.epoch_requests.max(1) as usize;
        let hot_clusters = (self.hot_set_files.max(1)).div_ceil(w) as usize;
        let hot_per_cluster = self.hot_set_files.min(w * hot_clusters as u32) / hot_clusters as u32;
        let mut hot_positions: Vec<u32> =
            Vec::with_capacity(hot_clusters * hot_per_cluster as usize);
        let mut frontier_next = 0usize;
        for i in 0..self.requests {
            if self.hot_fraction > 0.0 && i % epoch == 0 {
                hot_positions.clear();
                for _ in 0..hot_clusters {
                    // Uniform bases: hot sets churn, so the full-trace
                    // histogram stays as flat as Figure 2's.
                    let base = rng.gen_range(0..spatial.len() as u32);
                    for k in 0..hot_per_cluster {
                        hot_positions.push((base + k) % spatial.len() as u32);
                    }
                }
            }
            // Frontier writes allocate the next future object; recent
            // reads target the most recently written ones.
            if self.frontier_writes
                && rng.gen_bool(self.write_fraction.min(1.0))
                && (self.files + frontier_next) < layout.file_count() as usize
            {
                let f = FileId::new((self.files + frontier_next) as u32);
                frontier_next += 1;
                emit_file_access(
                    &layout,
                    f,
                    ReadWrite::Write,
                    self.coalesce_prob,
                    &mut rng,
                    &mut trace,
                );
                trace.end_job();
                continue;
            }
            if self.frontier_writes
                && frontier_next > 0
                && self.recent_read_fraction > 0.0
                && rng.gen_bool(self.recent_read_fraction)
            {
                let window = (self.recent_window.max(1) as usize).min(frontier_next);
                let pick = frontier_next - 1 - rng.gen_range(0..window);
                let f = FileId::new((self.files + pick) as u32);
                emit_file_access(
                    &layout,
                    f,
                    ReadWrite::Read,
                    self.coalesce_prob,
                    &mut rng,
                    &mut trace,
                );
                trace.end_job();
                continue;
            }
            let slot = rng.gen_range(0..sessions.len());
            let (base, remaining) = &mut sessions[slot];
            let continued =
                if !remaining.is_empty() && self.locality > 0.0 && rng.gen_bool(self.locality) {
                    let off = remaining.pop().expect("checked non-empty");
                    let pos = (*base as u64 + off as u64) % spatial.len() as u64;
                    Some(FileId::new(spatial[pos as usize]))
                } else {
                    None
                };
            let file = match continued {
                Some(f) => f,
                None => {
                    // Fresh session: inside the epoch hot set with
                    // probability `hot_fraction`, else a Zipf draw.
                    let pos = if !hot_positions.is_empty()
                        && self.hot_fraction > 0.0
                        && rng.gen_bool(self.hot_fraction)
                    {
                        hot_positions[rng.gen_range(0..hot_positions.len())]
                    } else {
                        pos_of[rank_to_file[zipf.sample(&mut rng)] as usize]
                    };
                    remaining.clear();
                    remaining.extend(1..w);
                    remaining.shuffle(&mut rng);
                    *base = pos;
                    FileId::new(spatial[pos as usize])
                }
            };
            let kind = if !self.frontier_writes
                && self.write_fraction > 0.0
                && rng.gen_bool(self.write_fraction)
            {
                ReadWrite::Write
            } else {
                ReadWrite::Read
            };
            if self.whole_file {
                emit_file_access(
                    &layout,
                    file,
                    kind,
                    self.coalesce_prob,
                    &mut rng,
                    &mut trace,
                );
            } else {
                self.emit_partial_access(&layout, file, kind, &mut rng, &mut trace);
            }
            trace.end_job();
        }
        ServerWorkload {
            workload: Workload {
                name: format!("{}-server", self.kind),
                layout,
                trace: trace.build(),
                streams: self.streams,
            },
            spec: self.clone(),
        }
    }

    /// Emits one partial-file access: a short run at a random offset.
    fn emit_partial_access<R: Rng + ?Sized>(
        &self,
        layout: &forhdc_layout::FileMap,
        file: FileId,
        kind: ReadWrite,
        rng: &mut R,
        out: &mut TraceBuilder,
    ) {
        let fsize = layout.file_blocks(file);
        if fsize == 0 {
            return;
        }
        // Geometric-ish access length with the calibrated mean.
        let p = 1.0 / self.mean_access_blocks.max(1.0);
        let mut len = 1u64;
        while len < fsize && rng.gen_bool(1.0 - p) {
            len += 1;
        }
        let offset = rng.gen_range(0..=(fsize - len));
        // Walk the file's extents: the access may straddle extent
        // boundaries, in which case it splits (no logical contiguity).
        let mut emitted = 0u64;
        while emitted < len {
            let Some(start_block) = layout.block_at(file, offset + emitted) else {
                break;
            };
            // Extend while logically contiguous.
            let mut run = 1u64;
            while emitted + run < len {
                match layout.block_at(file, offset + emitted + run) {
                    Some(b) if b == start_block.offset(run) => run += 1,
                    _ => break,
                }
            }
            out.push(TraceRequest {
                start: start_block,
                nblocks: run as u32,
                kind,
            });
            emitted += run;
        }
    }
}

/// A generated server clone: the spec used and the simulator input.
#[derive(Debug, Clone)]
pub struct ServerWorkload {
    /// The calibration parameters.
    pub spec: ServerWorkloadSpec,
    /// The simulator input (layout + trace + streams).
    pub workload: Workload,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: ServerKind) -> ServerWorkload {
        match kind {
            ServerKind::Web => ServerWorkloadSpec::web(),
            ServerKind::Proxy => ServerWorkloadSpec::proxy(),
            ServerKind::File => ServerWorkloadSpec::file_server(),
        }
        .scale(0.02)
        .generate()
    }

    #[test]
    fn web_clone_statistics() {
        let s = quick(ServerKind::Web);
        let wf = s.workload.trace.write_fraction();
        assert!((wf - 0.02).abs() < 0.01, "write fraction {wf}");
        assert_eq!(s.workload.streams, 16);
        // Footprint near 1.7 GB: 70 K files × ~6 blocks × 4 KB.
        let gb = s.workload.layout.total_blocks() as f64 * 4096.0 / 1e9;
        assert!((1.2..2.4).contains(&gb), "web footprint {gb} GB");
    }

    #[test]
    fn proxy_clone_statistics() {
        let s = quick(ServerKind::Proxy);
        let wf = s.workload.trace.write_fraction();
        assert!((wf - 0.19).abs() < 0.03, "write fraction {wf}");
        assert_eq!(s.workload.streams, 128);
        let gb = s.workload.layout.total_blocks() as f64 * 4096.0 / 1e9;
        assert!((3.5..6.5).contains(&gb), "proxy footprint {gb} GB");
    }

    #[test]
    fn file_clone_statistics() {
        let s = quick(ServerKind::File);
        let wf = s.workload.trace.write_fraction();
        assert!((wf - 0.20).abs() < 0.03, "write fraction {wf}");
        // Partial accesses: mean request size close to one block.
        let mean = s.workload.trace.mean_request_blocks();
        assert!(mean < 2.0, "file-server mean request {mean} blocks");
        let gb = s.workload.layout.total_blocks() as f64 * 4096.0 / 1e9;
        assert!((10.0..24.0).contains(&gb), "file footprint {gb} GB");
    }

    #[test]
    fn file_server_layout_costs_per_extent_not_per_block() {
        let layout = quick(ServerKind::File).workload.layout;
        let files = layout.file_count() as u64;
        let extents = layout.extents_by_start().len() as u64;
        let bytes = layout.heap_bytes();
        assert!(
            bytes <= 40 * extents + 8 * files,
            "{bytes} B for {extents} extents of {files} files ({} blocks)",
            layout.total_blocks()
        );
    }

    #[test]
    fn scale_changes_request_count_only() {
        let full = ServerWorkloadSpec::web();
        let tenth = ServerWorkloadSpec::web().scale(0.1);
        assert_eq!(tenth.requests, full.requests / 10);
        assert_eq!(tenth.files, full.files);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ServerWorkloadSpec::web().scale(0.01).generate();
        let b = ServerWorkloadSpec::web().scale(0.01).generate();
        assert_eq!(a.workload.trace.requests(), b.workload.trace.requests());
    }

    #[test]
    fn partial_access_never_exceeds_file() {
        let s = quick(ServerKind::File);
        for r in s.workload.trace.requests() {
            let owner = s
                .workload
                .layout
                .owner(r.start)
                .expect("request into a file");
            let fsize = s.workload.layout.file_blocks(owner.file);
            assert!(owner.offset + (r.nblocks as u64) <= fsize + r.nblocks as u64);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = ServerWorkloadSpec::web().scale(0.0);
    }
}
