//! The full host cache hierarchy as a trace pipeline.
//!
//! §6.3: "We consider the entire cache hierarchy in our simulations" —
//! the paper's disk logs are what escapes the application and buffer
//! caches of a real kernel. This module reproduces that derivation for
//! generated file-level request streams:
//!
//! ```text
//! file accesses → sequential prefetch → buffer cache → 2-ms coalescing → disk trace
//! ```

use forhdc_layout::{FileId, FileMap};
use forhdc_sim::{ReadWrite, SimDuration, SimTime};
use forhdc_trace::{NullTracer, TraceEvent, Tracer};
use forhdc_workload::Trace;

use crate::buffer_cache::BufferCache;
use crate::coalesce::{coalesce_window, TimedAccess};
use crate::prefetch::SequentialPrefetcher;

/// One application-level file access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAccess {
    /// Issue time.
    pub at: SimTime,
    /// Target file.
    pub file: FileId,
    /// First block offset within the file.
    pub offset: u64,
    /// Blocks touched.
    pub nblocks: u32,
    /// Read or write.
    pub kind: ReadWrite,
}

/// Output of [`derive_disk_trace`]: the disk-level trace plus the
/// hierarchy statistics the paper reports.
#[derive(Debug)]
pub struct DerivedTrace {
    /// The coalesced disk-level trace.
    pub trace: Trace,
    /// Buffer-cache hit rate over demand accesses.
    pub buffer_hit_rate: f64,
    /// Raw (pre-coalescing) disk block accesses.
    pub raw_disk_accesses: usize,
    /// The measured coalescing probability.
    pub coalescing_probability: f64,
}

/// Configuration of the host pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Buffer-cache capacity in blocks (the paper's server has 512 MB
    /// of RAM; a 4-KByte-block cache of ~100 K blocks approximates the
    /// page cache share).
    pub buffer_blocks: u64,
    /// Maximum prefetch window in blocks (Linux: 16 = 64 KB).
    pub max_prefetch_blocks: u32,
    /// Coalescing window (the paper: 2 msecs).
    pub coalesce_window: SimDuration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            buffer_blocks: 100_000,
            max_prefetch_blocks: 16,
            coalesce_window: SimDuration::from_millis(2),
        }
    }
}

/// Runs file-level accesses through prefetch + buffer cache +
/// coalescing and returns the resulting disk-level trace.
///
/// Demand blocks that miss the buffer cache become disk accesses;
/// prefetched blocks that are absent become disk accesses too (charged
/// at the same instant, so they coalesce with the demand miss when
/// contiguous). Accesses must be time-ordered.
///
/// # Example
///
/// ```
/// use forhdc_host::pipeline::{derive_disk_trace, FileAccess, PipelineConfig};
/// use forhdc_layout::{FileId, LayoutBuilder};
/// use forhdc_sim::{ReadWrite, SimTime};
///
/// let layout = LayoutBuilder::new().build(&[8; 10]);
/// let accesses = vec![FileAccess {
///     at: SimTime::ZERO,
///     file: FileId::new(3),
///     offset: 0,
///     nblocks: 8,
///     kind: ReadWrite::Read,
/// }];
/// let out = derive_disk_trace(&accesses, &layout, PipelineConfig::default());
/// assert_eq!(out.trace.total_blocks(), 8); // cold cache: all 8 hit the disk
/// ```
pub fn derive_disk_trace(
    accesses: &[FileAccess],
    layout: &FileMap,
    cfg: PipelineConfig,
) -> DerivedTrace {
    derive_disk_trace_traced(accesses, layout, cfg, &mut NullTracer)
}

/// [`derive_disk_trace`] with a tracer attached: every buffer-cache
/// demand lookup emits a [`TraceEvent::BufferLookup`], stamped with the
/// access's simulated time.
pub fn derive_disk_trace_traced<T: Tracer>(
    accesses: &[FileAccess],
    layout: &FileMap,
    cfg: PipelineConfig,
    tracer: &mut T,
) -> DerivedTrace {
    let mut cache = BufferCache::new(cfg.buffer_blocks);
    let mut prefetcher = SequentialPrefetcher::new(cfg.max_prefetch_blocks);
    let mut disk: Vec<TimedAccess> = Vec::new();
    let mut demand_total = 0u64;
    let mut demand_hits = 0u64;
    // Nanosecond micro-offsets keep emitted accesses strictly ordered
    // within one file access.
    for acc in accesses {
        let mut tick = 0u64;
        let mut emit = |at: SimTime, block, kind, tick: &mut u64| {
            disk.push(TimedAccess {
                at: at + SimDuration::from_nanos(*tick),
                block,
                kind,
            });
            *tick += 1;
        };
        // Demand blocks.
        for i in 0..acc.nblocks as u64 {
            let Some(block) = layout.block_at(acc.file, acc.offset + i) else {
                continue; // access past EOF: ignored, like a short read
            };
            demand_total += 1;
            let hit = cache.access(block, acc.kind).is_hit();
            if tracer.enabled() {
                tracer.emit(TraceEvent::BufferLookup {
                    t: acc.at.as_nanos(),
                    block: block.index(),
                    write: acc.kind.is_write(),
                    hit,
                });
            }
            if hit {
                demand_hits += 1;
            } else {
                emit(acc.at, block, acc.kind, &mut tick);
            }
        }
        // Prefetch window after the access (reads only).
        if acc.kind.is_read() {
            let window = prefetcher.on_access(acc.file, acc.offset + acc.nblocks as u64 - 1);
            for i in 0..window as u64 {
                let off = acc.offset + acc.nblocks as u64 + i;
                let Some(block) = layout.block_at(acc.file, off) else {
                    break;
                };
                if !cache.contains(block) {
                    emit(acc.at, block, ReadWrite::Read, &mut tick);
                    cache.install(block);
                }
            }
        }
    }
    let raw = disk.len();
    let trace = coalesce_window(&disk, cfg.coalesce_window);
    let coalescing_probability = crate::coalesce::coalescing_probability(raw, &trace);
    DerivedTrace {
        trace,
        buffer_hit_rate: if demand_total == 0 {
            0.0
        } else {
            demand_hits as f64 / demand_total as f64
        },
        raw_disk_accesses: raw,
        coalescing_probability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_layout::LayoutBuilder;

    fn read(at_us: u64, file: u32, offset: u64, n: u32) -> FileAccess {
        FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(at_us),
            file: FileId::new(file),
            offset,
            nblocks: n,
            kind: ReadWrite::Read,
        }
    }

    #[test]
    fn cold_read_coalesces_into_one_request() {
        let layout = LayoutBuilder::new().build(&[8; 4]);
        let out = derive_disk_trace(&[read(0, 1, 0, 8)], &layout, PipelineConfig::default());
        assert_eq!(out.trace.len(), 1);
        assert_eq!({ out.trace.requests()[0].nblocks }, 8);
        assert_eq!(out.buffer_hit_rate, 0.0);
    }

    #[test]
    fn warm_read_produces_no_disk_traffic() {
        let layout = LayoutBuilder::new().build(&[8; 4]);
        let accesses = vec![read(0, 1, 0, 8), read(10_000, 1, 0, 8)];
        let out = derive_disk_trace(&accesses, &layout, PipelineConfig::default());
        assert_eq!(out.trace.total_blocks(), 8); // only the cold pass
        assert!((out.buffer_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetch_absorbs_future_demand() {
        let layout = LayoutBuilder::new().build(&[32; 2]);
        // Sequential 1-block reads: prefetch should fetch ahead so later
        // demand blocks hit the buffer cache.
        let accesses: Vec<FileAccess> = (0..32).map(|i| read(i * 1_000, 0, i, 1)).collect();
        let out = derive_disk_trace(&accesses, &layout, PipelineConfig::default());
        assert!(
            out.buffer_hit_rate > 0.5,
            "prefetch should absorb demand: hit rate {}",
            out.buffer_hit_rate
        );
        // Every block still reaches the disk exactly once.
        assert_eq!(out.trace.total_blocks(), 32);
    }

    #[test]
    fn tiny_buffer_cache_thrashes() {
        let layout = LayoutBuilder::new().build(&[4; 100]);
        let cfg = PipelineConfig {
            buffer_blocks: 4,
            ..PipelineConfig::default()
        };
        // Cycle over 50 files twice: nothing survives a 4-block cache.
        let accesses: Vec<FileAccess> = (0..100u64)
            .map(|i| read(i * 1_000, (i % 50) as u32, 0, 4))
            .collect();
        let out = derive_disk_trace(&accesses, &layout, cfg);
        assert!(
            out.buffer_hit_rate < 0.05,
            "hit rate {}",
            out.buffer_hit_rate
        );
        assert!(out.trace.total_blocks() >= 390);
    }

    #[test]
    fn writes_are_not_prefetched() {
        let layout = LayoutBuilder::new().build(&[16; 2]);
        let acc = FileAccess {
            at: SimTime::ZERO,
            file: FileId::new(0),
            offset: 0,
            nblocks: 2,
            kind: ReadWrite::Write,
        };
        let out = derive_disk_trace(&[acc], &layout, PipelineConfig::default());
        assert_eq!(out.trace.total_blocks(), 2); // no read-ahead traffic
    }

    #[test]
    fn traced_derivation_logs_every_demand_lookup() {
        use forhdc_trace::MemTracer;
        let layout = LayoutBuilder::new().build(&[8; 4]);
        let accesses = vec![read(0, 1, 0, 8), read(10_000, 1, 0, 8)];
        let plain = derive_disk_trace(&accesses, &layout, PipelineConfig::default());
        let mut tracer = MemTracer::new();
        let traced =
            derive_disk_trace_traced(&accesses, &layout, PipelineConfig::default(), &mut tracer);
        // The tracer observes without perturbing the derivation.
        assert_eq!(traced.trace.requests(), plain.trace.requests());
        assert_eq!(traced.buffer_hit_rate, plain.buffer_hit_rate);
        let lookups: Vec<bool> = tracer
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BufferLookup { hit, .. } => Some(*hit),
                _ => None,
            })
            .collect();
        assert_eq!(lookups.len(), 16); // one per demand block
        assert!(lookups[..8].iter().all(|&h| !h), "cold pass must miss");
        assert!(lookups[8..].iter().all(|&h| h), "warm pass must hit");
    }

    #[test]
    fn empty_input() {
        let layout = LayoutBuilder::new().build(&[4; 2]);
        let out = derive_disk_trace(&[], &layout, PipelineConfig::default());
        assert!(out.trace.is_empty());
        assert_eq!(out.buffer_hit_rate, 0.0);
        assert_eq!(out.coalescing_probability, 0.0);
    }
}
