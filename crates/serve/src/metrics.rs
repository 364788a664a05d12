//! The serving front-end's live telemetry surface (DESIGN.md §6.8).
//!
//! One [`ServeMetrics`] per [`Engine`](crate::engine::Engine) holds
//! every metric family the server exposes — request/connection
//! counters, per-disk media and cache-hit counters, queue-depth and
//! inflight gauges, per-op and per-disk latency histograms — plus the
//! crash [`FlightRecorder`] and the wall-clock origin every flight
//! timestamp and the uptime gauge are measured from.
//!
//! Families split into two disciplines, and each instrument uses
//! exactly one:
//!
//! - *event-sourced*: incremented on the hot path by the code that
//!   observes the event (`add`/`inc`/`record`);
//! - *collector-style*: owned by a structure behind the disk locks
//!   (the controller's extent/HDC counters, the pinned-block gauge) and
//!   copied out with `set_total`/`set` whenever the engine snapshots.
//!
//! The registry renders Prometheus text exposition; the histograms
//! share [`forhdc_trace::PowerHistogram`]'s bucket geometry, so a
//! scraped distribution merges losslessly with `loadgen`'s own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use forhdc_metrics::{AtomicHistogram, Counter, FlightRecorder, Gauge, Registry};

use crate::protocol::ErrorCode;

/// The `code` label value of `forhdc_errors_total` for failures that
/// carry no [`ErrorCode`] (bad frames, range errors, internal errors,
/// busy rejections); the structured codes use [`ErrorCode::label`].
pub const ERROR_OTHER: &str = "other";
/// Index of [`ERROR_OTHER`] in the `errors_total` vector (the
/// structured codes occupy their [`ErrorCode::index`] slots).
pub const ERROR_OTHER_INDEX: usize = ErrorCode::ALL.len();

/// Flight-recorder rings: shards bound lock contention across worker
/// threads, capacity bounds memory per shard.
const FLIGHT_SHARDS: usize = 8;
/// Events retained per shard; total retention is
/// `FLIGHT_SHARDS * FLIGHT_CAPACITY` events, forever.
const FLIGHT_CAPACITY: usize = 512;

/// The protocol operations, as stable metric label values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `PING` liveness probes.
    Ping,
    /// `READ` file reads (the workload).
    Read,
    /// `META` manifest fetches.
    Meta,
    /// `STATS` JSON snapshots.
    Stats,
    /// `METRICS` Prometheus-text scrapes.
    Metrics,
    /// `DUMP` flight-recorder dumps.
    Dump,
    /// `SHUTDOWN` drain requests.
    Shutdown,
    /// `FAULT` admin chaos frames.
    Fault,
}

impl OpKind {
    /// Every operation, in label order.
    pub const ALL: [OpKind; 8] = [
        OpKind::Ping,
        OpKind::Read,
        OpKind::Meta,
        OpKind::Stats,
        OpKind::Metrics,
        OpKind::Dump,
        OpKind::Shutdown,
        OpKind::Fault,
    ];

    /// The `op` label value.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Ping => "ping",
            OpKind::Read => "read",
            OpKind::Meta => "meta",
            OpKind::Stats => "stats",
            OpKind::Metrics => "metrics",
            OpKind::Dump => "dump",
            OpKind::Shutdown => "shutdown",
            OpKind::Fault => "fault",
        }
    }

    /// Index into per-op instrument vectors (the [`OpKind::ALL`]
    /// position).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Every instrument the serving stack records into, the flight
/// recorder, and the request-id/timestamp allocators.
///
/// Fields are instrument handles cloned out of [`ServeMetrics::registry`];
/// per-op vectors index by [`OpKind::index`], per-disk vectors by disk
/// number.
#[derive(Debug)]
pub struct ServeMetrics {
    /// The family registry (renders the exposition text).
    pub registry: Registry,
    /// Recent request-lifecycle events for post-mortems.
    pub flight: FlightRecorder,
    started: Instant,
    next_req: AtomicU64,

    /// Seconds since the server process started serving.
    pub uptime_seconds: Arc<Gauge>,
    /// Connections accepted over the server's lifetime.
    pub connections_total: Arc<Counter>,
    /// Connections currently open.
    pub connections_active: Arc<Gauge>,
    /// Connections refused at the connection limit.
    pub connections_rejected_total: Arc<Counter>,
    /// Operations currently being served.
    pub inflight_ops: Arc<Gauge>,
    /// OK responses, by operation (`op` label).
    pub requests_total: Vec<Arc<Counter>>,
    /// Non-OK responses, by failure code (`code` label): the four
    /// structured [`ErrorCode`]s at their [`ErrorCode::index`] slots,
    /// then [`ERROR_OTHER`] for unstructured failures.
    pub errors_total: Vec<Arc<Counter>>,
    /// Media-read retries issued by the recovery policy.
    pub retries_total: Arc<Counter>,
    /// Requests shed by admission control (inflight or queue limit).
    pub shed_total: Arc<Counter>,
    /// Payload bytes of successful READs.
    pub bytes_served_total: Arc<Counter>,
    /// Wall-clock operation latency, by operation (`op` label).
    pub op_latency_ns: Vec<Arc<AtomicHistogram>>,

    /// Media read operations issued to each disk's image.
    pub disk_media_reads_total: Vec<Arc<Counter>>,
    /// Blocks moved by media reads (demanded + read-ahead).
    pub disk_media_blocks_total: Vec<Arc<Counter>>,
    /// Bytes moved by media reads.
    pub disk_media_bytes_total: Vec<Arc<Counter>>,
    /// Of the media blocks, speculative read-ahead blocks.
    pub disk_read_ahead_blocks_total: Vec<Arc<Counter>>,
    /// Demanded blocks served as controller hits.
    pub disk_store_hits_total: Vec<Arc<Counter>>,
    /// Demanded blocks served by media runs.
    pub disk_store_misses_total: Vec<Arc<Counter>>,
    /// Reads served by pinned HDC blocks (collector-style).
    pub disk_hdc_hits_total: Vec<Arc<Counter>>,
    /// Extent-level cache lookups (collector-style).
    pub disk_extent_lookups_total: Vec<Arc<Counter>>,
    /// Extent-level cache hits (collector-style).
    pub disk_extent_hits_total: Vec<Arc<Counter>>,
    /// Blocks pinned in the HDC region (collector-style).
    pub disk_pinned_blocks: Vec<Arc<Gauge>>,
    /// Requests waiting on or holding each disk's lock.
    pub disk_queue_depth: Vec<Arc<Gauge>>,
    /// Whether each disk is inside an offline window (1) or serving (0).
    pub disk_offline: Vec<Arc<Gauge>>,
    /// Media service time per disk (wall-clock nanoseconds): each media
    /// segment's transfer, `sendfile` or `pread`.
    pub disk_service_ns: Vec<Arc<AtomicHistogram>>,
    /// Mirrored read extents that failed over to the twin after this
    /// member failed (labelled by the *failed* member).
    pub disk_failover_reads_total: Vec<Arc<Counter>>,
    /// Blocks copied twin→target by rebuild streams (all disks).
    pub rebuild_blocks_total: Arc<Counter>,
    /// Rebuild progress per disk in percent (0 idle/complete never run,
    /// 100 = last rebuild finished).
    pub disk_rebuild_progress: Vec<Arc<Gauge>>,
}

impl ServeMetrics {
    /// Registers the full family set for a `disks`-disk array.
    pub fn new(disks: u16) -> ServeMetrics {
        let r = Registry::new();
        let disk_labels: Vec<String> = (0..disks).map(|d| d.to_string()).collect();
        let op_labels: Vec<String> = OpKind::ALL.iter().map(|o| o.label().to_string()).collect();
        let uptime_seconds = r.gauge(
            "forhdc_uptime_seconds",
            "Seconds since the server started serving",
        );
        let connections_total = r.counter(
            "forhdc_connections_total",
            "Connections accepted over the server's lifetime",
        );
        let connections_active = r.gauge("forhdc_connections_active", "Connections currently open");
        let connections_rejected_total = r.counter(
            "forhdc_connections_rejected_total",
            "Connections refused at the connection limit",
        );
        let inflight_ops = r.gauge("forhdc_inflight_ops", "Operations currently being served");
        let requests_total = r.counter_vec(
            "forhdc_requests_total",
            "OK responses by operation",
            "op",
            &op_labels,
        );
        let code_labels: Vec<String> = ErrorCode::ALL
            .iter()
            .map(|c| c.label().to_string())
            .chain(std::iter::once(ERROR_OTHER.to_string()))
            .collect();
        let errors_total = r.counter_vec(
            "forhdc_errors_total",
            "Non-OK responses by failure code",
            "code",
            &code_labels,
        );
        let retries_total = r.counter(
            "forhdc_retries_total",
            "Media-read retries issued by the recovery policy",
        );
        let shed_total = r.counter(
            "forhdc_shed_total",
            "Requests shed by admission control (inflight or queue limit)",
        );
        let bytes_served_total = r.counter(
            "forhdc_bytes_served_total",
            "Payload bytes of successful READs",
        );
        let op_latency_ns = r.histogram_vec(
            "forhdc_op_latency_ns",
            "Wall-clock operation latency in nanoseconds by operation",
            "op",
            &op_labels,
        );
        let disk_media_reads_total = r.counter_vec(
            "forhdc_disk_media_reads_total",
            "Media read operations issued to the disk image",
            "disk",
            &disk_labels,
        );
        let disk_media_blocks_total = r.counter_vec(
            "forhdc_disk_media_blocks_total",
            "Blocks moved by media reads (demanded plus read-ahead)",
            "disk",
            &disk_labels,
        );
        let disk_media_bytes_total = r.counter_vec(
            "forhdc_disk_media_bytes_total",
            "Bytes moved by media reads",
            "disk",
            &disk_labels,
        );
        let disk_read_ahead_blocks_total = r.counter_vec(
            "forhdc_disk_read_ahead_blocks_total",
            "Speculative read-ahead blocks among the media blocks",
            "disk",
            &disk_labels,
        );
        let disk_store_hits_total = r.counter_vec(
            "forhdc_disk_store_hits_total",
            "Demanded blocks served as controller hits",
            "disk",
            &disk_labels,
        );
        let disk_store_misses_total = r.counter_vec(
            "forhdc_disk_store_misses_total",
            "Demanded blocks served by media runs",
            "disk",
            &disk_labels,
        );
        let disk_hdc_hits_total = r.counter_vec(
            "forhdc_disk_hdc_hits_total",
            "Reads served by pinned HDC blocks",
            "disk",
            &disk_labels,
        );
        let disk_extent_lookups_total = r.counter_vec(
            "forhdc_disk_extent_lookups_total",
            "Extent-level cache lookups",
            "disk",
            &disk_labels,
        );
        let disk_extent_hits_total = r.counter_vec(
            "forhdc_disk_extent_hits_total",
            "Extent-level cache hits (every block resident)",
            "disk",
            &disk_labels,
        );
        let disk_pinned_blocks = r.gauge_vec(
            "forhdc_disk_pinned_blocks",
            "Blocks pinned in the HDC region",
            "disk",
            &disk_labels,
        );
        let disk_queue_depth = r.gauge_vec(
            "forhdc_disk_queue_depth",
            "Requests waiting on or holding the disk lock",
            "disk",
            &disk_labels,
        );
        let disk_offline = r.gauge_vec(
            "forhdc_disk_offline",
            "Whether the disk is inside an offline window (1) or serving (0)",
            "disk",
            &disk_labels,
        );
        let disk_service_ns = r.histogram_vec(
            "forhdc_disk_service_ns",
            "Media service time in wall-clock nanoseconds: each media segment's transfer",
            "disk",
            &disk_labels,
        );
        let disk_failover_reads_total = r.counter_vec(
            "forhdc_failover_reads_total",
            "Mirrored reads failed over to the twin after this member failed",
            "disk",
            &disk_labels,
        );
        let rebuild_blocks_total = r.counter(
            "forhdc_rebuild_blocks_total",
            "Blocks copied from the surviving twin by rebuild streams",
        );
        let disk_rebuild_progress = r.gauge_vec(
            "forhdc_rebuild_progress",
            "Rebuild progress in percent (100 = last rebuild finished)",
            "disk",
            &disk_labels,
        );
        ServeMetrics {
            registry: r,
            flight: FlightRecorder::new(FLIGHT_SHARDS, FLIGHT_CAPACITY),
            started: Instant::now(),
            next_req: AtomicU64::new(0),
            uptime_seconds,
            connections_total,
            connections_active,
            connections_rejected_total,
            inflight_ops,
            requests_total,
            errors_total,
            retries_total,
            shed_total,
            bytes_served_total,
            op_latency_ns,
            disk_media_reads_total,
            disk_media_blocks_total,
            disk_media_bytes_total,
            disk_read_ahead_blocks_total,
            disk_store_hits_total,
            disk_store_misses_total,
            disk_hdc_hits_total,
            disk_extent_lookups_total,
            disk_extent_hits_total,
            disk_pinned_blocks,
            disk_queue_depth,
            disk_offline,
            disk_service_ns,
            disk_failover_reads_total,
            rebuild_blocks_total,
            disk_rebuild_progress,
        }
    }

    /// The `errors_total` counter for a failure code (`None` =
    /// unstructured, the [`ERROR_OTHER`] slot).
    pub fn error_counter(&self, code: Option<ErrorCode>) -> &Counter {
        let i = code.map_or(ERROR_OTHER_INDEX, ErrorCode::index);
        &self.errors_total[i]
    }

    /// Total non-OK responses across all failure codes.
    pub fn errors_sum(&self) -> u64 {
        self.errors_total.iter().map(|c| c.get()).sum()
    }

    /// Nanoseconds since the server started — the flight recorder's
    /// timestamp origin.
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Allocates the next request id for flight-recorder correlation.
    pub fn next_req_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Total OK responses across all operations.
    pub fn requests_ok(&self) -> u64 {
        self.requests_total.iter().map(|c| c.get()).sum()
    }

    /// Refreshes the uptime gauge and renders the exposition text.
    /// Collector-style per-disk families are only as fresh as the last
    /// engine snapshot; callers wanting exact totals snapshot first.
    pub fn render(&self) -> String {
        self.uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_set_renders_with_labels() {
        let m = ServeMetrics::new(2);
        m.connections_total.inc();
        m.requests_total[OpKind::Read.index()].add(3);
        m.disk_media_reads_total[1].inc();
        m.disk_queue_depth[0].set(4);
        m.op_latency_ns[OpKind::Read.index()].record(1000);
        m.error_counter(Some(ErrorCode::MediaError)).add(2);
        m.error_counter(None).inc();
        m.retries_total.add(5);
        m.shed_total.inc();
        m.disk_offline[1].set(1);
        m.disk_failover_reads_total[0].add(4);
        m.rebuild_blocks_total.add(9);
        m.disk_rebuild_progress[1].set(50);
        let text = m.render();
        for needle in [
            "forhdc_failover_reads_total{disk=\"0\"} 4",
            "forhdc_failover_reads_total{disk=\"1\"} 0",
            "forhdc_rebuild_blocks_total 9",
            "forhdc_rebuild_progress{disk=\"1\"} 50",
            "# TYPE forhdc_uptime_seconds gauge",
            "forhdc_connections_total 1",
            "forhdc_requests_total{op=\"read\"} 3",
            "forhdc_requests_total{op=\"shutdown\"} 0",
            "forhdc_errors_total{code=\"media\"} 2",
            "forhdc_errors_total{code=\"timeout\"} 0",
            "forhdc_errors_total{code=\"other\"} 1",
            "forhdc_retries_total 5",
            "forhdc_shed_total 1",
            "forhdc_disk_offline{disk=\"0\"} 0",
            "forhdc_disk_offline{disk=\"1\"} 1",
            "forhdc_disk_media_reads_total{disk=\"0\"} 0",
            "forhdc_disk_media_reads_total{disk=\"1\"} 1",
            "forhdc_disk_queue_depth{disk=\"0\"} 4",
            "forhdc_op_latency_ns_count{op=\"read\"} 1",
            "forhdc_disk_service_ns_bucket{disk=\"0\",le=\"+Inf\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn op_labels_are_distinct_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(seen.insert(op.label()));
        }
    }

    #[test]
    fn request_ids_are_unique_and_requests_sum() {
        let m = ServeMetrics::new(1);
        assert_ne!(m.next_req_id(), m.next_req_id());
        m.requests_total[OpKind::Ping.index()].inc();
        m.requests_total[OpKind::Read.index()].add(2);
        assert_eq!(m.requests_ok(), 3);
    }

    #[test]
    fn error_codes_map_to_distinct_counters() {
        let m = ServeMetrics::new(1);
        for code in ErrorCode::ALL {
            m.error_counter(Some(code)).inc();
        }
        m.error_counter(None).add(2);
        for code in ErrorCode::ALL {
            assert_eq!(m.error_counter(Some(code)).get(), 1, "{code}");
        }
        assert_eq!(m.errors_total[ERROR_OTHER_INDEX].get(), 2);
        assert_eq!(m.errors_sum(), 6);
    }
}
