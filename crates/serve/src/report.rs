//! JSON reporting for the serving front-end.
//!
//! The server prints one JSON document when it exits (and serves the
//! same shape over `OP_STATS` while running). JSON is hand-rolled —
//! the repo carries no serialization dependency — from flat key/value
//! pieces, matching the style of the simulator's report writers.

use forhdc_trace::Quantiles;

use crate::engine::{Engine, EngineSnapshot};
use crate::metrics::ERROR_OTHER;
use crate::protocol::ErrorCode;

/// Running totals the connection handlers maintain; the report
/// combines them with an engine snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTotals {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered with `ST_OK`.
    pub requests: u64,
    /// Requests refused (any non-OK response).
    pub errors: u64,
    /// Connections turned away at the connection limit.
    pub rejected: u64,
    /// Operations being served at snapshot time.
    pub inflight: u64,
    /// Requests shed by admission control (inflight or queue limit).
    pub shed: u64,
    /// Media-read retries issued by the recovery policy.
    pub retries: u64,
    /// Non-OK responses by failure code: the four [`ErrorCode`]s in
    /// [`ErrorCode::ALL`] order, then unstructured (`other`).
    pub errors_by_code: [u64; 5],
}

impl ServeTotals {
    /// Renders the `"errors_by_code"` JSON object.
    fn errors_by_code_json(&self) -> String {
        let mut s = String::from("{");
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {}, ",
                code.label(),
                self.errors_by_code[i]
            ));
        }
        s.push_str(&format!("\"{ERROR_OTHER}\": {}}}", self.errors_by_code[4]));
        s
    }
}

/// Renders the full server report.
///
/// Top-level keys: `"serve"` (configuration), `"totals"`,
/// `"e2e_latency"` (request wall-clock quantiles), `"media"`
/// (merged media-service quantiles + cache totals), `"per_disk"`.
pub fn server_report(
    engine: &Engine,
    snap: &EngineSnapshot,
    totals: &ServeTotals,
    e2e: &Quantiles,
    elapsed_secs: f64,
) -> String {
    let meta = engine.meta();
    let mut s = String::with_capacity(2048);
    s.push_str("{\n  \"serve\": {");
    s.push_str(&format!(
        "\"policy\": \"{}\", \"hdc_blocks\": {}, \"disks\": {}, \"files\": {}, \
         \"file_blocks\": {}, \"block_bytes\": {}, \"unit_blocks\": {}, \"seed\": {}, \
         \"mirrored\": {}",
        engine.policy().label(),
        engine.hdc_blocks(),
        meta.disks,
        meta.files,
        meta.file_blocks,
        meta.block_bytes,
        meta.unit_blocks,
        meta.seed,
        meta.mirrored,
    ));
    s.push_str("},\n  \"totals\": {");
    s.push_str(&format!(
        "\"connections\": {}, \"requests\": {}, \"errors\": {}, \"rejected\": {}, \
         \"inflight\": {}, \"shed\": {}, \"retries\": {}, \"errors_by_code\": {}, \
         \"elapsed_secs\": {:.3}, \"uptime_secs\": {:.3}, \"rps\": {:.1}",
        totals.connections,
        totals.requests,
        totals.errors,
        totals.rejected,
        totals.inflight,
        totals.shed,
        totals.retries,
        totals.errors_by_code_json(),
        elapsed_secs,
        elapsed_secs,
        if elapsed_secs > 0.0 {
            totals.requests as f64 / elapsed_secs
        } else {
            0.0
        },
    ));
    s.push_str("},\n  \"e2e_latency\": ");
    s.push_str(&e2e.to_json());
    s.push_str(",\n  \"media\": {");
    s.push_str(&format!(
        "\"extent_lookups\": {}, \"extent_hits\": {}, \"hit_rate\": {:.4}, \
         \"hdc_read_hits\": {}, \"media_ops\": {}, \"service\": {}",
        snap.extent_lookups(),
        snap.extent_hits(),
        snap.hit_rate(),
        snap.hdc_read_hits(),
        snap.media_ops(),
        snap.service_all.to_json(),
    ));
    s.push_str("},\n  \"per_disk\": [\n");
    for (i, d) in snap.disks.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"disk\": {}, \"extent_lookups\": {}, \"extent_hits\": {}, \
             \"hdc_read_hits\": {}, \"pinned\": {}, \"media_ops\": {}, \
             \"media_blocks\": {}, \"read_ahead_blocks\": {}, \
             \"store_hits\": {}, \"store_misses\": {}, \
             \"failover_reads\": {}, \"offline\": {}, \"rebuilding\": {}, \
             \"service\": {}}}{}\n",
            d.disk,
            d.extent_lookups,
            d.extent_hits,
            d.hdc_read_hits,
            d.pinned,
            d.media_ops,
            d.media_blocks,
            d.read_ahead_blocks,
            d.store_hits,
            d.store_misses,
            d.failover_reads,
            d.offline,
            d.rebuilding,
            d.service.to_json(),
            if i + 1 < snap.disks.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One periodic stats line for stderr while the server runs, ending
/// with per-disk `store hits/misses` columns.
pub fn stats_line(
    snap: &EngineSnapshot,
    totals: &ServeTotals,
    e2e: &Quantiles,
    elapsed_secs: f64,
) -> String {
    let mut line = format!(
        "serve: {:>8.1}s  conns={} reqs={} errs={} shed={} inflight={} rps={:.0}  hit={:.1}%  \
         p50={:.2}ms p99={:.2}ms  disks=[",
        elapsed_secs,
        totals.connections,
        totals.requests,
        totals.errors,
        totals.shed,
        totals.inflight,
        if elapsed_secs > 0.0 {
            totals.requests as f64 / elapsed_secs
        } else {
            0.0
        },
        snap.hit_rate() * 100.0,
        e2e.p50_ns as f64 / 1e6,
        e2e.p99_ns as f64 / 1e6,
    );
    for (i, d) in snap.disks.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        line.push_str(&format!("{}:{}/{}", d.disk, d.store_hits, d.store_misses));
        // Degraded-state markers, appended only when live so healthy
        // lines keep their historical shape.
        if d.failover_reads > 0 {
            line.push_str(&format!("+fo{}", d.failover_reads));
        }
        if d.offline {
            line.push_str("!off");
        }
        if d.rebuilding {
            line.push_str("!rb");
        }
    }
    line.push(']');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{create_images, DiskMeta};
    use forhdc_core::ReadAheadKind;

    #[test]
    fn report_has_all_sections() {
        let dir = std::env::temp_dir().join(format!("forhdc_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = DiskMeta {
            block_bytes: 4096,
            disks: 2,
            unit_blocks: 4,
            files: 8,
            file_blocks: 4,
            seed: 3,
            fragmentation: 0.0,
            disk_blocks: 0,
            mirrored: false,
        };
        let meta = create_images(&dir, &meta).unwrap();
        let engine = Engine::open(&dir, meta, ReadAheadKind::For, 16).unwrap();
        let mut out = Vec::new();
        engine.read(0, 0, 4, &mut out).unwrap();
        let snap = engine.snapshot();
        let totals = ServeTotals {
            connections: 1,
            requests: 1,
            errors: 3,
            rejected: 0,
            inflight: 2,
            shed: 1,
            retries: 4,
            errors_by_code: [1, 0, 1, 1, 0],
        };
        let e2e = Quantiles::default();
        let json = server_report(&engine, &snap, &totals, &e2e, 1.5);
        for key in [
            "\"serve\"",
            "\"policy\"",
            "\"totals\"",
            "\"e2e_latency\"",
            "\"media\"",
            "\"per_disk\"",
            "\"p99_ns\"",
            "\"p999_ns\"",
            "\"rps\"",
            "\"inflight\": 2",
            "\"shed\": 1",
            "\"retries\": 4",
            "\"errors_by_code\": {\"media\": 1, \"offline\": 0, \"timeout\": 1, \
             \"overload\": 1, \"other\": 0}",
            "\"uptime_secs\": 1.500",
            "\"store_hits\"",
            "\"store_misses\"",
            "\"mirrored\": false",
            "\"failover_reads\": 0",
            "\"offline\": false",
            "\"rebuilding\": false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let line = stats_line(&snap, &totals, &e2e, 1.5);
        assert!(line.contains("reqs=1"), "{line}");
        assert!(line.contains("shed=1"), "{line}");
        assert!(line.contains("inflight=2"), "{line}");
        assert!(line.contains("disks=[0:"), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
