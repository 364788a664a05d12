//! The controlled synthetic workloads of section 6.2.
//!
//! Each trace contains a fixed number of requests (the paper uses
//! 10 000); every request reads (or writes) one complete file of a
//! fixed size, with the target file drawn from a Bradford/Zipf
//! distribution (default α = 0.4). Host-side request coalescing is
//! modeled per block boundary: consecutive blocks of one file access
//! are merged into a single disk request with the coalescing
//! probability (87 %, the average the paper measured on its real
//! workloads).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use forhdc_layout::{FileId, FileMap, LayoutBuilder};
use forhdc_sim::ReadWrite;

use crate::trace::{TraceBuilder, TraceRequest, Workload};
use crate::zipf::ZipfSampler;

/// Entry point for building synthetic workloads.
///
/// # Example
///
/// ```
/// use forhdc_workload::SyntheticWorkload;
///
/// let wl = SyntheticWorkload::builder()
///     .requests(1_000)
///     .file_blocks(4)       // 16-KByte files
///     .files(5_000)
///     .zipf_alpha(0.4)
///     .write_fraction(0.1)
///     .seed(7)
///     .build();
/// assert_eq!(wl.trace.requests().len() >= 1_000, true); // splits may add requests
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SyntheticWorkload;

impl SyntheticWorkload {
    /// Starts a builder with the paper's defaults: 10 000 requests,
    /// 16-KByte files, Zipf α = 0.4, no writes, 87 % coalescing, no
    /// fragmentation, 128 streams.
    pub fn builder() -> SyntheticWorkloadBuilder {
        SyntheticWorkloadBuilder::default()
    }
}

/// Builder for the synthetic traces (see [`SyntheticWorkload`]).
#[derive(Debug, Clone)]
pub struct SyntheticWorkloadBuilder {
    requests: usize,
    file_blocks: u32,
    files: usize,
    zipf_alpha: f64,
    write_fraction: f64,
    coalesce_prob: f64,
    fragmentation: f64,
    align_blocks: u32,
    streams: u32,
    seed: u64,
}

impl Default for SyntheticWorkloadBuilder {
    fn default() -> Self {
        SyntheticWorkloadBuilder {
            requests: 10_000,
            file_blocks: 4,
            files: 20_000,
            zipf_alpha: 0.4,
            write_fraction: 0.0,
            coalesce_prob: 0.87,
            fragmentation: 0.0,
            align_blocks: 32,
            streams: 128,
            seed: 0,
        }
    }
}

impl SyntheticWorkloadBuilder {
    /// Number of whole-file accesses in the trace (paper: 10 000).
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// File size in 4-KByte blocks (all files identical, as in §6.2).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn file_blocks(mut self, blocks: u32) -> Self {
        assert!(blocks > 0, "files must have at least one block");
        self.file_blocks = blocks;
        self
    }

    /// Size of the file population.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn files(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one file");
        self.files = n;
        self
    }

    /// Bradford/Zipf coefficient for target selection (0 = uniform).
    pub fn zipf_alpha(mut self, alpha: f64) -> Self {
        self.zipf_alpha = alpha;
        self
    }

    /// Fraction of accesses that are writes, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn write_fraction(mut self, w: f64) -> Self {
        assert!((0.0..=1.0).contains(&w));
        self.write_fraction = w;
        self
    }

    /// Probability that two consecutive blocks of one file access are
    /// coalesced into the same disk request.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn coalesce_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.coalesce_prob = p;
        self
    }

    /// Per-boundary layout fragmentation probability (see
    /// [`forhdc_layout::LayoutBuilder::fragmentation`]).
    pub fn fragmentation(mut self, q: f64) -> Self {
        self.fragmentation = q;
        self
    }

    /// Layout alignment in blocks. The paper pairs the synthetic
    /// striping unit with the largest sequential access so small files
    /// never straddle units; the default (32 blocks = the 128-KByte
    /// default unit) reproduces that. Set to 1 to disable.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn align_blocks(mut self, align: u32) -> Self {
        assert!(align > 0, "alignment must be positive");
        self.align_blocks = align;
        self
    }

    /// Concurrent I/O streams replaying the trace.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn streams(mut self, s: u32) -> Self {
        assert!(s > 0, "need at least one stream");
        self.streams = s;
        self
    }

    /// Deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the layout and trace.
    pub fn build(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_5EED);
        let sizes = vec![self.file_blocks; self.files];
        let layout = LayoutBuilder::new()
            .fragmentation(self.fragmentation)
            .align_blocks(self.align_blocks)
            .seed(self.seed)
            .build(&sizes);
        // Decorrelate popularity rank from disk position: popular files
        // should not be physically adjacent, or blind read-ahead would
        // accidentally prefetch other hot files.
        let mut rank_to_file: Vec<u32> = (0..self.files as u32).collect();
        rank_to_file.shuffle(&mut rng);
        let zipf = ZipfSampler::new(self.files, self.zipf_alpha);
        let per_access = (0..self.files)
            .map(|r| {
                zipf.probability(r)
                    * access_requests(&layout, FileId::new(rank_to_file[r]), self.coalesce_prob)
            })
            .sum();

        let mut trace = TraceBuilder::with_capacity(request_capacity(self.requests, per_access));
        for _ in 0..self.requests {
            let file = FileId::new(rank_to_file[zipf.sample(&mut rng)]);
            let kind = if self.write_fraction > 0.0 && rng.gen_bool(self.write_fraction) {
                ReadWrite::Write
            } else {
                ReadWrite::Read
            };
            emit_file_access(
                &layout,
                file,
                kind,
                self.coalesce_prob,
                &mut rng,
                &mut trace,
            );
            trace.end_job();
        }
        Workload {
            name: format!(
                "synthetic(f={}blk, a={}, w={:.0}%)",
                self.file_blocks,
                self.zipf_alpha,
                self.write_fraction * 100.0
            ),
            layout,
            trace: trace.build(),
            streams: self.streams,
        }
    }
}

/// Expected disk requests of one whole-file access to `file` (see
/// [`emit_file_access`]): one per extent, plus a split at each of the
/// extent's internal block boundaries with probability
/// `1 − coalesce_prob`.
pub(crate) fn access_requests(layout: &FileMap, file: FileId, coalesce_prob: f64) -> f64 {
    let extents = layout.extents(file).len() as f64;
    let blocks = layout.file_blocks(file) as f64;
    extents + (blocks - extents) * (1.0 - coalesce_prob.min(1.0))
}

/// Capacity for the disk requests of `accesses` accesses that emit
/// `per_access ≥ 1` requests each on average. Every access emits at
/// least one request; the mean's excess over that is where a
/// heavy-tailed size mix makes the count vary, so the excess gets a
/// half again as margin, and the buffer does not double (and copy)
/// near its end. An access that emits exactly one request gets no
/// margin at all. [`Trace`] releases unused capacity in place.
pub(crate) fn request_capacity(accesses: usize, per_access: f64) -> usize {
    let excess = (per_access - 1.0).max(0.0) * 1.5;
    accesses + (accesses as f64 * excess).ceil() as usize
}

/// Appends the disk requests of one whole-file access: the file's
/// blocks in offset order, split at extent boundaries (non-contiguous
/// logical space cannot coalesce) and, within an extent, at each block
/// boundary with probability `1 − coalesce_prob`.
pub(crate) fn emit_file_access<R: Rng + ?Sized>(
    layout: &FileMap,
    file: FileId,
    kind: ReadWrite,
    coalesce_prob: f64,
    rng: &mut R,
    out: &mut TraceBuilder,
) {
    for extent in layout.extents(file) {
        let mut run_start = extent.start;
        let mut run_len = 1u32;
        for i in 1..extent.len {
            if coalesce_prob >= 1.0 || rng.gen_bool(coalesce_prob) {
                run_len += 1;
            } else {
                out.push(TraceRequest {
                    start: run_start,
                    nblocks: run_len,
                    kind,
                });
                run_start = extent.start.offset(i as u64);
                run_len = 1;
            }
        }
        out.push(TraceRequest {
            start: run_start,
            nblocks: run_len,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_synthetic() {
        let b = SyntheticWorkloadBuilder::default();
        assert_eq!(b.requests, 10_000);
        assert_eq!(b.file_blocks, 4);
        assert!((b.zipf_alpha - 0.4).abs() < 1e-12);
        assert!((b.coalesce_prob - 0.87).abs() < 1e-12);
    }

    #[test]
    fn perfect_coalescing_gives_one_request_per_file() {
        let wl = SyntheticWorkload::builder()
            .requests(500)
            .file_blocks(8)
            .files(1_000)
            .coalesce_prob(1.0)
            .seed(3)
            .build();
        assert_eq!(wl.trace.len(), 500);
        assert!(wl.trace.requests().iter().all(|r| r.nblocks == 8));
    }

    #[test]
    fn zero_coalescing_gives_block_requests() {
        let wl = SyntheticWorkload::builder()
            .requests(100)
            .file_blocks(4)
            .files(1_000)
            .coalesce_prob(0.0)
            .seed(3)
            .build();
        assert_eq!(wl.trace.len(), 400);
        assert!(wl.trace.requests().iter().all(|r| r.nblocks == 1));
    }

    #[test]
    fn blocks_conserved_under_partial_coalescing() {
        let wl = SyntheticWorkload::builder()
            .requests(1_000)
            .file_blocks(6)
            .files(2_000)
            .coalesce_prob(0.87)
            .seed(5)
            .build();
        assert_eq!(wl.trace.total_blocks(), 6_000);
        assert!(wl.trace.len() >= 1_000);
    }

    #[test]
    fn write_fraction_respected() {
        let wl = SyntheticWorkload::builder()
            .requests(5_000)
            .files(2_000)
            .write_fraction(0.3)
            .coalesce_prob(1.0)
            .seed(7)
            .build();
        let w = wl.trace.write_fraction();
        assert!((w - 0.3).abs() < 0.03, "write fraction {w}");
    }

    #[test]
    fn zipf_concentrates_accesses() {
        let wl = |alpha: f64| {
            SyntheticWorkload::builder()
                .requests(20_000)
                .files(5_000)
                .zipf_alpha(alpha)
                .coalesce_prob(1.0)
                .seed(11)
                .build()
        };
        let top_uniform = wl(0.0).trace.popularity_curve(1)[0];
        let top_skewed = wl(1.0).trace.popularity_curve(1)[0];
        assert!(
            top_skewed > 4 * top_uniform,
            "alpha=1 top {top_skewed} vs uniform top {top_uniform}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |seed| {
            SyntheticWorkload::builder()
                .requests(200)
                .files(500)
                .seed(seed)
                .build()
        };
        assert_eq!(build(9).trace.requests(), build(9).trace.requests());
        assert_ne!(build(9).trace.requests(), build(10).trace.requests());
    }

    #[test]
    fn fragmented_access_splits_at_extent_boundaries() {
        let wl = SyntheticWorkload::builder()
            .requests(300)
            .file_blocks(16)
            .files(500)
            .fragmentation(0.3)
            .coalesce_prob(1.0)
            .seed(13)
            .build();
        // With heavy fragmentation even perfect coalescing cannot merge
        // across extent gaps, so there are more requests than accesses.
        assert!(wl.trace.len() > 300);
        assert_eq!(wl.trace.total_blocks(), 300 * 16);
    }
}
