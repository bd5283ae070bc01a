//! In-memory span recording for traced runs.
//!
//! A span is one timed call into a layer: its name, start and end
//! (nanoseconds since the tracer started), the span that caused it, and
//! the batch, epoch, restart or WAL-record number it belongs to. Spans
//! stay in memory during the run and are written out once at exit.

use crate::json::quote;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: u64,
}

impl Span {
    #[must_use]
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a finished span and returns its index (the handle child
    /// spans name as their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        id: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per run")
    }

    /// Opens a parent span whose end is not known yet; close it with
    /// [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        id: u64,
    ) -> u32 {
        self.record(name, start, start, parent, id)
    }

    pub fn close(&mut self, span: u32, end: Instant) {
        let end = self.ns(end);
        self.spans[span as usize].end_ns = end;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Writes the spans as `{"workload", "seed", "fields", "spans"}`,
    /// one `[name, start_ns, end_ns, parent, id]` array per span
    /// (`parent` is a span index or `null`).
    ///
    /// # Errors
    /// Whatever the filesystem reports.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \
             \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"id\"], \"spans\": [",
            quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\", {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("]}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}
