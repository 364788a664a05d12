//! HDC as an array-wide victim cache — §5's other example use, end to
//! end: an application stream drives a host buffer cache whose clean
//! evictions are pinned into the controller caches, and whose misses on
//! pinned blocks become controller hits instead of media operations.
//!
//! ```text
//! cargo run --release --example victim_cache
//! ```

use forhdc::core::{build_victim_workload, HdcPlan, System, SystemConfig, VictimConfig};
use forhdc::host::pipeline::FileAccess;
use forhdc::layout::{FileId, LayoutBuilder};
use forhdc::sim::{ReadWrite, SimDuration, SimTime, StripingMap};
use forhdc::workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // An application whose working set overflows the host cache: the
    // regime where a victim level earns its keep.
    let files = 30_000usize;
    let layout = LayoutBuilder::new().seed(21).build(&vec![4u32; files]);
    let zipf = ZipfSampler::new(files, 0.75);
    let mut rng = StdRng::seed_from_u64(22);
    let accesses: Vec<FileAccess> = (0..60_000u64)
        .map(|i| FileAccess {
            at: SimTime::ZERO + SimDuration::from_micros(i * 100),
            file: FileId::new(zipf.sample(&mut rng) as u32),
            offset: 0,
            nblocks: 4,
            kind: ReadWrite::Read,
        })
        .collect();

    const HDC: u64 = 2 * 1024 * 1024;
    let vw = build_victim_workload(
        &accesses,
        &layout,
        VictimConfig {
            buffer_blocks: 8_192, // a 32-MB host cache vs a 470-MB working set
            hdc_blocks_per_disk: (HDC / 4096) as u32,
            striping: StripingMap::new(8, 32),
            streams: 64,
        },
    );
    println!(
        "derivation: buffer hit {:.1}%, {} disk requests, {} pins / {} unpins issued\n",
        100.0 * vw.stats.buffer_hit_rate,
        vw.workload.trace.len(),
        vw.stats.pins,
        vw.stats.unpins,
    );

    let none = System::new(SystemConfig::segm(), &vw.workload).run();
    println!(
        "no HDC            : {}   ({:.2} MB/s)",
        none.io_time,
        none.throughput_mbps()
    );

    let top = System::new(SystemConfig::segm().with_hdc(HDC), &vw.workload).run();
    println!(
        "top-miss pinning  : {}   (hit {:4.1}%)  — needs an offline miss profile",
        top.io_time,
        100.0 * top.hdc_hit_rate()
    );

    let vic = System::builder(SystemConfig::segm().with_hdc(HDC), &vw.workload)
        .plan(HdcPlan::empty(8))
        .hdc_commands(vw.commands)
        .build()
        .run();
    println!(
        "victim cache      : {}   (hit {:4.1}%)  — fully online, no profiling",
        vic.io_time,
        100.0 * vic.hdc_hit_rate()
    );

    println!(
        "\nthe victim cache recovers {:.0}% of the oracle's improvement without any\n\
         offline knowledge — and every pin crosses the shared bus, which is the\n\
         cost the paper's static pinning avoids.",
        100.0 * (none.io_time.as_nanos() - vic.io_time.as_nanos()) as f64
            / (none.io_time.as_nanos() - top.io_time.as_nanos()) as f64
    );
}
