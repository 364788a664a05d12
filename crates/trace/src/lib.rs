//! # forhdc-trace
//!
//! Deterministic request-lifecycle tracing for the simulator
//! (DESIGN.md §6.3). Dependency-free, like `forhdc-runner`.
//!
//! The crate provides three things:
//!
//! 1. A **zero-overhead-when-disabled facade**: the [`Tracer`] trait,
//!    whose [`NullTracer`] implementation monomorphizes every guarded
//!    emission site to a no-op (`enabled()` is a constant `false`, so
//!    the event construction behind the guard folds away entirely).
//! 2. A **deterministic event model**: [`TraceEvent`] carries only
//!    integer simulated-time stamps (`SimTime` nanoseconds) and
//!    counters — never wall clocks — so a trace is a pure function of
//!    the workload and configuration, byte-identical between serial
//!    and parallel runs.
//! 3. **Analysis building blocks**: mergeable power-of-two latency
//!    histograms ([`PowerHistogram`]), per-phase/per-disk summaries
//!    ([`TraceSummary`]), slowest-request extraction, and sampler
//!    time-series downsampling for utilization timelines.
//!
//! Emission sites guard construction with `enabled()`:
//!
//! ```
//! use forhdc_trace::{MemTracer, NullTracer, TraceEvent, Tracer};
//!
//! fn work<T: Tracer>(tracer: &mut T) {
//!     if tracer.enabled() {
//!         tracer.emit(TraceEvent::Complete { t: 10, req: 1, response: 7 });
//!     }
//! }
//!
//! let mut null = NullTracer;
//! work(&mut null); // compiles to nothing
//! let mut mem = MemTracer::new();
//! work(&mut mem);
//! assert_eq!(mem.events.len(), 1);
//! ```

pub mod args;
pub mod event;
pub mod hist;
pub mod stdout;
pub mod summary;

pub use args::Args;
pub use event::{parse_jsonl, write_jsonl, FaultKind, ProbeResult, TraceEvent};
pub use hist::{PowerHistogram, Quantiles};
pub use summary::{
    slowest_requests, utilization_timeline, PhasePercentiles, RequestSpan, TraceSummary,
};

/// A sink for simulator trace events.
///
/// Implementations must be cheap to query: the simulator calls
/// [`Tracer::enabled`] on hot paths and only constructs events when it
/// returns `true`. [`NullTracer`] returns a constant `false`, so a
/// system monomorphized over it carries no tracing cost at all.
pub trait Tracer {
    /// Whether events should be constructed and emitted.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event. Called only when [`Tracer::enabled`] is
    /// `true` (callers guard emission), but implementations must
    /// tolerate unconditional calls.
    fn emit(&mut self, ev: TraceEvent);
}

/// The disabled tracer: a zero-sized type whose `enabled()` is a
/// constant `false`. Every guarded emission site monomorphizes to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// Collects events in memory, in emission order (which is
/// deterministic: the event loop is).
#[derive(Debug, Clone, Default)]
pub struct MemTracer {
    /// Emitted events, in order.
    pub events: Vec<TraceEvent>,
}

impl MemTracer {
    /// An empty collector.
    pub fn new() -> Self {
        MemTracer::default()
    }

    /// Renders the collected events as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        write_jsonl(&self.events)
    }
}

impl Tracer for MemTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullTracer>(), 0);
        assert!(!NullTracer.enabled());
        let mut t = NullTracer;
        t.emit(TraceEvent::Complete {
            t: 1,
            req: 2,
            response: 3,
        });
    }

    #[test]
    fn mem_tracer_collects_in_order() {
        let mut t = MemTracer::new();
        assert!(t.enabled());
        for i in 0..5 {
            t.emit(TraceEvent::Complete {
                t: i,
                req: i,
                response: i * 10,
            });
        }
        assert_eq!(t.events.len(), 5);
        assert_eq!(t.to_jsonl().lines().count(), 5);
    }
}
