//! Pins the generated traces: an FNV-1a digest of every request and
//! every job boundary of each server clone and of the synthetic
//! workload. A change to how a trace is stored must leave every digest
//! as it is; a change to what the generators emit must update them on
//! purpose.

use forhdc_workload::{ServerWorkloadSpec, SyntheticWorkload, Trace};

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Digest of each request (start, length, kind) with a job boundary
/// word after the last request of each job.
fn digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    let mut seen = 0usize;
    for job in trace.jobs() {
        for r in job {
            h.eat(r.start.index());
            h.eat({ r.nblocks } as u64);
            h.eat(r.kind.is_write() as u64);
        }
        seen += job.len();
        h.eat(u64::MAX);
    }
    assert_eq!(seen, trace.len(), "the jobs cover the requests");
    h.0
}

#[test]
fn server_clones_are_pinned() {
    // (clone, scale, seed, requests, jobs, digest)
    let pins: [(&str, f64, u64, usize, usize, u64); 6] = [
        ("web", 0.02, 1, 4187, 2400, 17927737177463792430),
        ("web", 0.05, 7, 10542, 6000, 4430734998592353683),
        ("proxy", 0.02, 1, 3770, 3000, 11302946102533492219),
        ("proxy", 0.05, 7, 9580, 7500, 3744793993357745338),
        ("file", 0.02, 1, 5000, 5000, 2152282467769479096),
        ("file", 0.05, 7, 12500, 12500, 13072692751619215130),
    ];
    let mut got = Vec::new();
    for &(kind, scale, seed, ..) in &pins {
        let base = match kind {
            "web" => ServerWorkloadSpec::web(),
            "proxy" => ServerWorkloadSpec::proxy(),
            _ => ServerWorkloadSpec::file_server(),
        };
        let t = base.scale(scale).with_seed(seed).generate().workload.trace;
        got.push((kind, scale, seed, t.len(), t.job_count(), digest(&t)));
    }
    assert_eq!(got, pins);
}

#[test]
fn synthetic_workloads_are_pinned() {
    // (file blocks, write fraction, coalescing, seed, requests, jobs, digest)
    let pins: [(u32, f64, f64, u64, usize, usize, u64); 3] = [
        (4, 0.0, 0.87, 3, 2797, 2000, 6235985379706470186),
        (16, 0.2, 0.5, 11, 16921, 2000, 3734435164354224697),
        (1, 0.5, 1.0, 5, 2000, 2000, 4088480256747551161),
    ];
    let mut got = Vec::new();
    for &(blocks, writes, coalesce, seed, ..) in &pins {
        let t = SyntheticWorkload::builder()
            .requests(2_000)
            .files(5_000)
            .file_blocks(blocks)
            .write_fraction(writes)
            .coalesce_prob(coalesce)
            .seed(seed)
            .build()
            .trace;
        got.push((
            blocks,
            writes,
            coalesce,
            seed,
            t.len(),
            t.job_count(),
            digest(&t),
        ));
    }
    assert_eq!(got, pins);
}
