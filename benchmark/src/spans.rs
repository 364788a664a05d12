//! Spans the traced run records around its own calls into each layer.
//!
//! A span is `{req, name, parent, start_ns, end_ns}`; spans live in a
//! buffer preallocated before timing starts (a full buffer drops new
//! spans and counts them) and are written out as JSONL once the run
//! ends. A layer's self time is its spans' duration minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn with_capacity(origin: Instant, cap: usize) -> Self {
        Spans {
            origin,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span at the current instant; returns its id, or [`ROOT`]
    /// when the buffer is full (closing that id is a no-op).
    pub fn open(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        let now = self.now();
        self.push(Span {
            req,
            name,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Records an already-measured span.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Appends another buffer (same origin), re-basing its parent ids.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.reserve(other.spans.len());
        for mut s in other.spans {
            if s.parent != ROOT {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// Runs `pass` over `0..n`, one span per `batch` calls; returns the
    /// total ns.
    pub fn batched(
        &mut self,
        batch: usize,
        name: &'static str,
        n: usize,
        mut pass: impl FnMut(usize),
    ) -> u64 {
        let mut total = 0;
        for (k, start) in (0..n).step_by(batch).enumerate() {
            let start_ns = self.now();
            for i in start..(start + batch).min(n) {
                pass(i);
            }
            let end_ns = self.now();
            self.push(Span {
                req: k as u64,
                name,
                parent: ROOT,
                start_ns,
                end_ns,
            });
            total += end_ns - start_ns;
        }
        total
    }

    /// Per-name `(spans, total ns, self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(c);
        }
        out
    }

    /// The self-time table, one row per span name.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<24} {:>10} {:>14} {:>14} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_ns/span"
        );
        for (name, (n, total, own)) in self.self_times() {
            s.push_str(&format!(
                "{:<24} {:>10} {:>14.3} {:>14.3} {:>12.1}\n",
                name,
                n,
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / n as f64
            ));
        }
        if self.dropped > 0 {
            s.push_str(&format!("({} spans dropped: buffer full)\n", self.dropped));
        }
        s
    }

    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"req\":{},\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                quote(s.name),
                parent,
                s.start_ns,
                s.end_ns
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        w.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::with_capacity(origin, 4);
        let root = a.push(Span {
            req: 1,
            name: "client.request",
            parent: ROOT,
            start_ns: 0,
            end_ns: 100,
        });
        a.push(Span {
            req: 1,
            name: "client.recv",
            parent: root,
            start_ns: 10,
            end_ns: 70,
        });
        let mut b = Spans::with_capacity(origin, 2);
        let r2 = b.push(Span {
            req: 2,
            name: "client.request",
            parent: ROOT,
            start_ns: 100,
            end_ns: 150,
        });
        b.push(Span {
            req: 2,
            name: "client.recv",
            parent: r2,
            start_ns: 110,
            end_ns: 140,
        });
        a.absorb(b);
        let t = a.self_times();
        assert_eq!(t["client.request"], (2, 150, 40 + 20));
        assert_eq!(t["client.recv"], (2, 90, 90));
        // A full buffer drops instead of growing.
        assert_eq!(a.open("x", 0, ROOT), ROOT);
        assert_eq!(a.dropped, 1);
    }
}
