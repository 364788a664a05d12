//! Plain-text serialization of traces and layouts.
//!
//! The formats are deliberately trivial (one record per line,
//! whitespace-separated) so real disk logs — e.g. from `blktrace` or an
//! instrumented kernel, which is how the paper captured its inputs —
//! can be converted with a few lines of awk and replayed through the
//! simulator.
//!
//! Trace format (`#forhdc-trace v1`):
//!
//! ```text
//! #forhdc-trace v1
//! <start_block> <nblocks> <R|W> <job_id>
//! ```
//!
//! Layout format (`#forhdc-layout v1`):
//!
//! ```text
//! #forhdc-layout v1
//! <file_id> <start_block> <len> <file_offset>
//! ```

use std::fmt;
use std::io::{BufRead, Write};

use forhdc_layout::{Extent, FileId, FileMap};
use forhdc_sim::{LogicalBlock, ReadWrite};

use crate::trace::{Trace, TraceBuilder, TraceRequest};

/// Error from parsing a trace or layout file.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors from reading: I/O or parse.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse(ParseError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError::Parse(e)
    }
}

/// Writes `trace` in the v1 text format. A `W: Write` can be passed as
/// `&mut w` thanks to the blanket impl.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    writeln!(w, "#forhdc-trace v1")?;
    for (job_id, job) in trace.jobs().enumerate() {
        for r in job {
            writeln!(
                w,
                "{} {} {} {}",
                r.start.index(),
                { r.nblocks },
                if r.kind.is_write() { 'W' } else { 'R' },
                job_id
            )?;
        }
    }
    Ok(())
}

/// Reads a v1 trace. Blank lines and `#` comments are skipped; job ids
/// must be non-decreasing (consecutive equal ids form one job).
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure or malformed lines.
pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, ReadError> {
    let mut trace = TraceBuilder::default();
    let mut last_job: Option<u64> = None;
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseError {
            line: idx + 1,
            message,
        };
        let mut parts = line.split_whitespace();
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| err(format!("missing field: {what}")))
        };
        let start: u64 = next("start")?
            .parse()
            .map_err(|e| err(format!("bad start block: {e}")))?;
        let nblocks: u32 = next("nblocks")?
            .parse()
            .map_err(|e| err(format!("bad block count: {e}")))?;
        if nblocks == 0 {
            return Err(err("zero-length request".into()).into());
        }
        let kind = match next("kind")? {
            "R" | "r" => ReadWrite::Read,
            "W" | "w" => ReadWrite::Write,
            other => return Err(err(format!("bad kind '{other}' (want R or W)")).into()),
        };
        let job: u64 = next("job")?
            .parse()
            .map_err(|e| err(format!("bad job id: {e}")))?;
        match last_job {
            Some(j) if job < j => {
                return Err(err(format!("job ids must be non-decreasing ({job} after {j})")).into())
            }
            Some(j) if job > j => trace.end_job(),
            _ => {}
        }
        last_job = Some(job);
        trace.push(TraceRequest {
            start: LogicalBlock::new(start),
            nblocks,
            kind,
        });
    }
    Ok(trace.build())
}

/// Writes `layout` in the v1 text format.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_layout<W: Write>(layout: &FileMap, mut w: W) -> std::io::Result<()> {
    writeln!(w, "#forhdc-layout v1")?;
    for f in 0..layout.file_count() {
        for e in layout.extents(FileId::new(f)) {
            writeln!(w, "{} {} {} {}", f, e.start.index(), e.len, e.file_offset)?;
        }
    }
    Ok(())
}

/// Reads a v1 layout.
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure or malformed lines.
///
/// # Panics
///
/// Panics if the extents are inconsistent (overlaps or offset gaps) —
/// the same invariants [`FileMap::from_extents`] enforces.
pub fn read_layout<R: BufRead>(r: R) -> Result<FileMap, ReadError> {
    let mut extents: Vec<Vec<Extent>> = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseError {
            line: idx + 1,
            message,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(err(format!("expected 4 fields, got {}", fields.len())).into());
        }
        let file: usize = fields[0]
            .parse()
            .map_err(|e| err(format!("bad file id: {e}")))?;
        let start: u64 = fields[1]
            .parse()
            .map_err(|e| err(format!("bad start: {e}")))?;
        let len: u32 = fields[2]
            .parse()
            .map_err(|e| err(format!("bad len: {e}")))?;
        let file_offset: u32 = fields[3]
            .parse()
            .map_err(|e| err(format!("bad offset: {e}")))?;
        if extents.len() <= file {
            extents.resize_with(file + 1, Vec::new);
        }
        extents[file].push(Extent {
            start: LogicalBlock::new(start),
            len,
            file_offset,
        });
    }
    Ok(FileMap::from_extents(extents))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(start: u64, n: u32, kind: ReadWrite) -> TraceRequest {
        TraceRequest {
            start: LogicalBlock::new(start),
            nblocks: n,
            kind,
        }
    }

    #[test]
    fn trace_roundtrip_preserves_jobs() {
        let trace = Trace::with_jobs(
            vec![
                req(0, 4, ReadWrite::Read),
                req(4, 2, ReadWrite::Read),
                req(100, 1, ReadWrite::Write),
            ],
            vec![2, 1],
        );
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), trace.requests());
        assert_eq!(back.job_count(), 2);
        let lens: Vec<usize> = back.jobs().map(<[TraceRequest]>::len).collect();
        assert_eq!(lens, vec![2, 1]);
    }

    #[test]
    fn trace_parse_errors_are_located() {
        let bad = "#forhdc-trace v1\n12 0 R 0\n";
        let e = read_trace(bad.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains("zero-length"));

        let bad = "5 1 X 0\n";
        let e = read_trace(bad.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad kind"));

        let bad = "5 1 R 3\n6 1 R 1\n";
        let e = read_trace(bad.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("non-decreasing"));
    }

    #[test]
    fn trace_skips_comments_and_blanks() {
        let text = "#forhdc-trace v1\n\n# a comment\n7 2 R 0\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!({ t.requests()[0].start }, LogicalBlock::new(7));
    }

    #[test]
    fn layout_roundtrip() {
        let layout = forhdc_layout::LayoutBuilder::new()
            .fragmentation(0.2)
            .seed(5)
            .build(&[6; 40]);
        let mut buf = Vec::new();
        write_layout(&layout, &mut buf).unwrap();
        let back = read_layout(buf.as_slice()).unwrap();
        assert_eq!(back.file_count(), layout.file_count());
        assert_eq!(back.total_blocks(), layout.total_blocks());
        for f in 0..40 {
            assert_eq!(back.extents(FileId::new(f)), layout.extents(FileId::new(f)));
        }
    }

    #[test]
    fn layout_parse_errors() {
        let e = read_layout("1 2 3\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("expected 4 fields"));
        let e = read_layout("x 2 3 4\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad file id"));
    }

    #[test]
    fn empty_inputs_give_empty_structures() {
        assert!(read_trace("".as_bytes()).unwrap().is_empty());
        assert_eq!(read_layout("".as_bytes()).unwrap().file_count(), 0);
    }
}
