//! HDC as an array-wide victim cache (§5's first example use).
//!
//! "For example, the host file system can use part of the disk
//! controller caches as an array-wide victim cache for its buffer
//! cache with this type of caching control."
//!
//! The host pins each *clean* block it evicts from the buffer cache
//! into the owning disk's HDC region (`pin_blk()`); a later
//! buffer-cache miss on that block is then a controller-cache hit
//! instead of a media operation, and the host unpins it on promotion.
//! Dirty evictions are written back (they must reach the media anyway).
//!
//! [`build_victim_workload`] derives, from an application-level access
//! stream, both the disk-level trace *and* the interleaved
//! pin/unpin command stream; [`crate::System`] applies the commands at
//! the matching points of the replay ([`crate::SystemBuilder::hdc_commands`]).

use std::collections::{BTreeSet, HashMap, VecDeque};

use forhdc_host::pipeline::FileAccess;
use forhdc_layout::FileMap;
use forhdc_sim::{LogicalBlock, ReadWrite, StripingMap};
use forhdc_workload::{Trace, TraceRequest, Workload};

/// A host→controller HDC command, in logical (array) space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HdcCommand {
    /// `pin_blk()`: move the block into the controller's HDC region.
    Pin(LogicalBlock),
    /// `unpin_blk()`: release it.
    Unpin(LogicalBlock),
}

/// Bookkeeping from the victim-policy derivation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VictimBuildStats {
    /// Buffer-cache evictions seen.
    pub evictions: u64,
    /// Clean evictions pinned into HDC.
    pub pins: u64,
    /// Unpins (promotions + capacity management).
    pub unpins: u64,
    /// Dirty evictions emitted as write-back requests.
    pub writebacks: u64,
    /// Buffer-cache hit rate of the derivation.
    pub buffer_hit_rate: f64,
}

/// The derived replay: trace + command stream + stats.
#[derive(Debug)]
pub struct VictimWorkload {
    /// The disk-level workload to replay.
    pub workload: Workload,
    /// Commands to apply before issuing the request with the given
    /// issue index ([`crate::SystemBuilder::hdc_commands`]).
    pub commands: HashMap<u64, Vec<HdcCommand>>,
    /// Derivation statistics.
    pub stats: VictimBuildStats,
}

/// Parameters of the victim derivation.
#[derive(Debug, Clone, Copy)]
pub struct VictimConfig {
    /// Host buffer cache capacity, blocks.
    pub buffer_blocks: u64,
    /// Per-disk HDC capacity, blocks (the host keeps its own count and
    /// unpins oldest-first before overflowing a region).
    pub hdc_blocks_per_disk: u32,
    /// The array's striping map (to find each block's disk).
    pub striping: StripingMap,
    /// Streams for the replay.
    pub streams: u32,
}

/// A small LRU with dirty bits and eviction visibility (the host
/// buffer cache of the victim derivation).
#[derive(Debug, Default)]
struct TrackingLru {
    map: HashMap<LogicalBlock, (u64, bool)>,
    order: BTreeSet<(u64, LogicalBlock)>,
    clock: u64,
}

impl TrackingLru {
    fn touch_or_insert(
        &mut self,
        block: LogicalBlock,
        dirty: bool,
    ) -> (bool, Option<(LogicalBlock, bool)>) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some((old, d)) = self.map.get_mut(&block) {
            let old_stamp = *old;
            *old = stamp;
            *d = *d || dirty;
            self.order.remove(&(old_stamp, block));
            self.order.insert((stamp, block));
            return (true, None);
        }
        self.map.insert(block, (stamp, dirty));
        self.order.insert((stamp, block));
        (false, None)
    }

    fn evict_lru(&mut self) -> Option<(LogicalBlock, bool)> {
        let &(stamp, block) = self.order.iter().next()?;
        self.order.remove(&(stamp, block));
        let (_, dirty) = self.map.remove(&block).expect("in order set");
        Some((block, dirty))
    }

    fn len(&self) -> u64 {
        self.map.len() as u64
    }
}

/// Derives the victim-cache replay from an application access stream.
///
/// Every demand block goes through the tracked buffer cache; misses
/// become read requests, dirty evictions become write-back requests,
/// clean evictions become `Pin` commands (bounded per disk, oldest
/// pins released first), and promotions of pinned blocks emit `Unpin`.
///
/// # Panics
///
/// Panics if `buffer_blocks` is zero or `streams` is zero.
pub fn build_victim_workload(
    accesses: &[FileAccess],
    layout: &FileMap,
    cfg: VictimConfig,
) -> VictimWorkload {
    assert!(cfg.buffer_blocks > 0, "buffer cache must have capacity");
    assert!(cfg.streams > 0, "need at least one stream");
    let mut cache = TrackingLru::default();
    let mut stats = VictimBuildStats::default();
    let mut requests: Vec<TraceRequest> = Vec::new();
    let mut job_lens: Vec<u32> = Vec::new();
    let mut commands: HashMap<u64, Vec<HdcCommand>> = HashMap::new();
    // Host-side view of what is pinned where.
    let mut pinned: HashMap<LogicalBlock, ()> = HashMap::new();
    let mut pinned_fifo: Vec<VecDeque<LogicalBlock>> =
        vec![VecDeque::new(); cfg.striping.disks() as usize];
    let mut pending_cmds: Vec<HdcCommand> = Vec::new();
    let mut pending_after: Vec<HdcCommand> = Vec::new();
    let mut demand = 0u64;
    let mut hits = 0u64;

    for acc in accesses {
        let mut miss_run: Option<(LogicalBlock, u32)> = None;
        let mut job_requests = 0u32;
        // `pending_before` applies before the next request issues
        // (eviction pins); `pending_after` applies after it (promotion
        // unpins — the promoted block must still be pinned when its
        // read arrives).
        let flush_run = |run: &mut Option<(LogicalBlock, u32)>,
                         requests: &mut Vec<TraceRequest>,
                         job_requests: &mut u32,
                         commands: &mut HashMap<u64, Vec<HdcCommand>>,
                         pending_before: &mut Vec<HdcCommand>,
                         pending_after: &mut Vec<HdcCommand>,
                         kind: ReadWrite| {
            if let Some((start, n)) = run.take() {
                if !pending_before.is_empty() {
                    commands
                        .entry(requests.len() as u64)
                        .or_default()
                        .append(pending_before);
                }
                requests.push(TraceRequest {
                    start,
                    nblocks: n,
                    kind,
                });
                if !pending_after.is_empty() {
                    commands
                        .entry(requests.len() as u64)
                        .or_default()
                        .append(pending_after);
                }
                *job_requests += 1;
            }
        };
        for i in 0..acc.nblocks as u64 {
            let Some(block) = layout.block_at(acc.file, acc.offset + i) else {
                continue;
            };
            demand += 1;
            let dirty = acc.kind.is_write();
            let (hit, _) = cache.touch_or_insert(block, dirty);
            if hit {
                hits += 1;
                flush_run(
                    &mut miss_run,
                    &mut requests,
                    &mut job_requests,
                    &mut commands,
                    &mut pending_cmds,
                    &mut pending_after,
                    acc.kind,
                );
            } else {
                // Miss: extend or start the run of blocks to fetch.
                match miss_run {
                    Some((start, n)) if block == start.offset(n as u64) => {
                        miss_run = Some((start, n + 1));
                    }
                    _ => {
                        flush_run(
                            &mut miss_run,
                            &mut requests,
                            &mut job_requests,
                            &mut commands,
                            &mut pending_cmds,
                            &mut pending_after,
                            acc.kind,
                        );
                        miss_run = Some((block, 1));
                    }
                }
                // Promotion: a pinned block is being read back into the
                // buffer cache; release its victim slot afterwards.
                if pinned.remove(&block).is_some() {
                    let (disk, _) = cfg.striping.locate(block);
                    pinned_fifo[disk.as_usize()].retain(|&b| b != block);
                    pending_after.push(HdcCommand::Unpin(block));
                    stats.unpins += 1;
                }
            }
            // Capacity eviction from the host cache.
            while cache.len() > cfg.buffer_blocks {
                let Some((victim, victim_dirty)) = cache.evict_lru() else {
                    break;
                };
                stats.evictions += 1;
                if victim_dirty {
                    // Dirty data must reach the media: a write-back
                    // request of its own job.
                    if !pending_cmds.is_empty() {
                        commands
                            .entry(requests.len() as u64)
                            .or_default()
                            .append(&mut pending_cmds);
                    }
                    requests.push(TraceRequest {
                        start: victim,
                        nblocks: 1,
                        kind: ReadWrite::Write,
                    });
                    job_lens.push(1);
                    stats.writebacks += 1;
                } else if cfg.hdc_blocks_per_disk > 0 && !pinned.contains_key(&victim) {
                    // Clean eviction: pin into the victim cache,
                    // releasing the oldest pin if the region is full.
                    let (disk, _) = cfg.striping.locate(victim);
                    let fifo = &mut pinned_fifo[disk.as_usize()];
                    if fifo.len() as u32 >= cfg.hdc_blocks_per_disk {
                        if let Some(old) = fifo.pop_front() {
                            pinned.remove(&old);
                            pending_cmds.push(HdcCommand::Unpin(old));
                            stats.unpins += 1;
                        }
                    }
                    fifo.push_back(victim);
                    pinned.insert(victim, ());
                    pending_cmds.push(HdcCommand::Pin(victim));
                    stats.pins += 1;
                }
            }
        }
        flush_run(
            &mut miss_run,
            &mut requests,
            &mut job_requests,
            &mut commands,
            &mut pending_cmds,
            &mut pending_after,
            acc.kind,
        );
        if job_requests > 0 {
            job_lens.push(job_requests);
        }
    }
    stats.buffer_hit_rate = if demand == 0 {
        0.0
    } else {
        hits as f64 / demand as f64
    };
    VictimWorkload {
        workload: Workload {
            name: "victim-cache".into(),
            layout: layout.clone(),
            trace: Trace::with_jobs(requests, job_lens),
            streams: cfg.streams,
        },
        commands,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_layout::{FileId, LayoutBuilder};
    use forhdc_sim::{SimDuration, SimTime};

    fn read(seq: u64, file: u32, offset: u64, n: u32) -> FileAccess {
        FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(seq * 100),
            file: FileId::new(file),
            offset,
            nblocks: n,
            kind: ReadWrite::Read,
        }
    }

    fn write(seq: u64, file: u32, offset: u64, n: u32) -> FileAccess {
        FileAccess {
            kind: ReadWrite::Write,
            ..read(seq, file, offset, n)
        }
    }

    fn cfg(buffer: u64, hdc: u32) -> VictimConfig {
        VictimConfig {
            buffer_blocks: buffer,
            hdc_blocks_per_disk: hdc,
            striping: StripingMap::new(4, 8),
            streams: 8,
        }
    }

    #[test]
    fn clean_evictions_become_pins() {
        let layout = LayoutBuilder::new().build(&[4; 10]);
        // Cache of 4 blocks: reading 3 files evicts the first.
        let accesses = vec![read(0, 0, 0, 4), read(1, 1, 0, 4), read(2, 2, 0, 4)];
        let out = build_victim_workload(&accesses, &layout, cfg(4, 64));
        assert!(out.stats.evictions >= 8);
        assert_eq!(out.stats.pins, out.stats.evictions); // all clean
        assert_eq!(out.stats.writebacks, 0);
        let total_cmds: usize = out.commands.values().map(Vec::len).sum();
        assert_eq!(total_cmds as u64, out.stats.pins + out.stats.unpins);
    }

    #[test]
    fn dirty_evictions_become_writebacks() {
        let layout = LayoutBuilder::new().build(&[4; 10]);
        let accesses = vec![write(0, 0, 0, 4), read(1, 1, 0, 4), read(2, 2, 0, 4)];
        let out = build_victim_workload(&accesses, &layout, cfg(4, 64));
        assert!(out.stats.writebacks >= 4, "{:?}", out.stats);
        let writes = out
            .workload
            .trace
            .requests()
            .iter()
            .filter(|r| r.kind.is_write())
            .count();
        assert!(writes >= 4);
    }

    #[test]
    fn promotion_unpins() {
        let layout = LayoutBuilder::new().build(&[4; 10]);
        // Read file 0, evict it (files 1,2), read file 0 again: its
        // blocks were pinned, the re-read promotes and unpins them.
        let accesses = vec![
            read(0, 0, 0, 4),
            read(1, 1, 0, 4),
            read(2, 2, 0, 4),
            read(3, 0, 0, 4),
        ];
        let out = build_victim_workload(&accesses, &layout, cfg(4, 64));
        assert!(out.stats.unpins >= 4, "{:?}", out.stats);
    }

    #[test]
    fn pin_budget_respected_per_disk() {
        let layout = LayoutBuilder::new().build(&[1; 400]);
        let accesses: Vec<FileAccess> = (0..400).map(|i| read(i, i as u32, 0, 1)).collect();
        let out = build_victim_workload(&accesses, &layout, cfg(8, 4));
        // Net pinned per disk never exceeds 4: pins - unpins <= 4 disks * 4.
        assert!(out.stats.pins - out.stats.unpins <= 16, "{:?}", out.stats);
    }

    #[test]
    fn hits_produce_no_requests() {
        let layout = LayoutBuilder::new().build(&[4; 4]);
        let accesses = vec![read(0, 0, 0, 4), read(1, 0, 0, 4)];
        let out = build_victim_workload(&accesses, &layout, cfg(64, 16));
        assert_eq!(out.workload.trace.total_blocks(), 4); // second read all hits
        assert!((out.stats.buffer_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stream() {
        let layout = LayoutBuilder::new().build(&[4; 2]);
        let out = build_victim_workload(&[], &layout, cfg(8, 8));
        assert!(out.workload.trace.is_empty());
        assert_eq!(out.stats, VictimBuildStats::default());
    }
}
