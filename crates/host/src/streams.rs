//! The closed-loop stream driver.
//!
//! The paper replays its disk logs "as fast as possible to determine
//! the maximum throughput achievable" (§6.3), bounded by the server's
//! concurrency: 16 helper threads for the Web server, 128 simultaneous
//! requests for proxy and file server. [`StreamDriver`] models exactly
//! that: `S` streams, each working through one *job* (the request
//! sequence of one server-level operation, e.g. a whole-file read) at
//! a time — a job's requests issue sequentially on one stream, the
//! next the moment the previous completes, while different jobs run
//! concurrently across streams.

use forhdc_sim::StreamId;
use forhdc_workload::{Trace, TraceRequest};

/// Hands trace jobs to `S` concurrent streams, closed-loop.
///
/// # Example
///
/// ```
/// use forhdc_host::StreamDriver;
/// use forhdc_sim::{LogicalBlock, ReadWrite};
/// use forhdc_workload::{Trace, TraceRequest};
///
/// let req = TraceRequest { start: LogicalBlock::new(0), nblocks: 1, kind: ReadWrite::Read };
/// // Two jobs of two requests each, replayed by one stream.
/// let trace = Trace::with_jobs(vec![req; 4], vec![2, 2]);
/// let mut d = StreamDriver::new(&trace, 1);
/// let (s, _first) = d.start().pop().unwrap();
/// let (_, _second) = d.complete(s).unwrap(); // same job continues
/// assert_eq!(d.issued(), 2);
/// ```
#[derive(Debug)]
pub struct StreamDriver {
    // Flat replay state: the trace itself (shared, not copied), with
    // jobs handed out as index ranges over its requests. No per-job
    // queue allocations, no request moves.
    trace: Trace,
    job_count: usize,
    next_job: usize,
    next_req: usize,
    cursor: Vec<(usize, usize)>, // per stream: next request, end of its job
    streams: u32,
    in_flight: u32,
    issued: u64,
    completed: u64,
}

impl StreamDriver {
    /// Creates a driver replaying `trace`'s jobs over `streams`
    /// streams. It shares `trace`'s buffers and copies no request.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub fn new(trace: &Trace, streams: u32) -> Self {
        assert!(streams > 0, "need at least one stream");
        StreamDriver {
            trace: trace.clone(),
            job_count: trace.job_count(),
            next_job: 0,
            next_req: 0,
            cursor: vec![(0, 0); streams as usize],
            streams,
            in_flight: 0,
            issued: 0,
            completed: 0,
        }
    }

    /// Claims the next unstarted job for `stream`; false when the log
    /// has no jobs left.
    fn take_next_job(&mut self, stream: usize) -> bool {
        if self.next_job >= self.job_count {
            return false;
        }
        let end = self.trace.job_end(self.next_req);
        self.cursor[stream] = (self.next_req, end);
        self.next_job += 1;
        self.next_req = end;
        true
    }

    /// Issues the initial batch: up to `S` jobs' first requests.
    /// Call once at simulation start.
    pub fn start(&mut self) -> Vec<(StreamId, TraceRequest)> {
        let mut out = Vec::new();
        for s in 0..self.streams {
            if !self.take_next_job(s as usize) {
                break;
            }
            let (cur, _) = &mut self.cursor[s as usize];
            let req = self.trace.requests()[*cur];
            *cur += 1;
            self.in_flight += 1;
            self.issued += 1;
            out.push((StreamId::new(s), req));
        }
        out
    }

    /// Reports that `stream` finished a request; returns that stream's
    /// next request (the rest of its job, else the next job), or `None`
    /// when the log is drained.
    pub fn complete(&mut self, stream: StreamId) -> Option<(StreamId, TraceRequest)> {
        self.completed += 1;
        self.in_flight -= 1;
        let s = stream.as_usize();
        if self.cursor[s].0 == self.cursor[s].1 && !self.take_next_job(s) {
            return None;
        }
        let (cur, _) = &mut self.cursor[s];
        let req = self.trace.requests()[*cur];
        *cur += 1;
        self.in_flight += 1;
        self.issued += 1;
        Some((stream, req))
    }

    /// Requests currently being serviced.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Whether every request has been issued and completed.
    pub fn is_done(&self) -> bool {
        self.next_job >= self.job_count
            && self.in_flight == 0
            && self.cursor.iter().all(|&(cur, end)| cur == end)
    }

    /// Total requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Configured stream count.
    pub fn streams(&self) -> u32 {
        self.streams
    }

    /// The trace being replayed: the caller's, shared, not a copy.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_sim::{LogicalBlock, ReadWrite};

    fn reqs(n: usize) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                start: LogicalBlock::new(i as u64),
                nblocks: 1,
                kind: ReadWrite::Read,
            })
            .collect()
    }

    fn singleton_trace(n: usize) -> Trace {
        Trace::new(reqs(n))
    }

    #[test]
    fn start_issues_at_most_stream_count() {
        let t = singleton_trace(10);
        let mut d = StreamDriver::new(&t, 4);
        let batch = d.start();
        assert_eq!(batch.len(), 4);
        assert_eq!(d.in_flight(), 4);
        // The other 6 jobs wait for a stream to free up.
        let mut rest = 0;
        for (s, _) in batch {
            while d.complete(s).is_some() {
                rest += 1;
            }
        }
        assert_eq!(rest, 6);
        assert!(d.is_done());
    }

    #[test]
    fn fewer_jobs_than_streams() {
        let t = singleton_trace(2);
        let mut d = StreamDriver::new(&t, 8);
        assert_eq!(d.start().len(), 2);
        assert_eq!(d.in_flight(), 2);
    }

    #[test]
    fn job_requests_stay_on_one_stream_in_order() {
        // One job of 3 requests plus a singleton, two streams.
        let trace = Trace::with_jobs(reqs(4), vec![3, 1]);
        let mut d = StreamDriver::new(&trace, 2);
        let batch = d.start();
        assert_eq!(batch.len(), 2);
        let (s0, r0) = batch[0];
        assert_eq!({ r0.start }, LogicalBlock::new(0));
        // Completing the first request of the job yields the next
        // request of the *same* job on the *same* stream.
        let (s, r1) = d.complete(s0).unwrap();
        assert_eq!(s, s0);
        assert_eq!({ r1.start }, LogicalBlock::new(1));
        let (_, r2) = d.complete(s0).unwrap();
        assert_eq!({ r2.start }, LogicalBlock::new(2));
        assert!(d.complete(s0).is_none()); // log drained for this stream
    }

    #[test]
    fn closed_loop_drains_everything() {
        let trace = Trace::with_jobs(reqs(20), vec![2; 10]);
        let mut d = StreamDriver::new(&trace, 3);
        let mut active: Vec<StreamId> = d.start().into_iter().map(|(s, _)| s).collect();
        let mut served = active.len();
        while let Some(s) = active.pop() {
            if let Some((s2, _)) = d.complete(s) {
                served += 1;
                active.push(s2);
            }
        }
        assert_eq!(served, 20);
        assert!(d.is_done());
        assert_eq!(d.issued(), 20);
        assert_eq!(d.completed(), 20);
    }

    #[test]
    fn empty_log_is_done_immediately() {
        let t = singleton_trace(0);
        let mut d = StreamDriver::new(&t, 2);
        assert!(d.start().is_empty());
        assert!(d.is_done());
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _ = StreamDriver::new(&singleton_trace(1), 0);
    }
}
