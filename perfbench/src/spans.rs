//! The benchmark's own spans: one record per public call it makes in a
//! traced run — name, start, end, parent and request id — kept in memory and
//! written out at the end. A layer's self time is its span minus the part
//! its children cover (see `summary.py`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;
/// The parent of a root span (and the id a disabled tracer hands out).
pub const NONE: SpanId = usize::MAX;

struct Record {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// Spans with explicit parents: `sim` keeps several ops in flight from one
/// thread, so a lexical stack would nest one op's calls under another's.
/// A disabled tracer records nothing and costs one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    records: Vec<Record>,
}

impl Tracer {
    pub fn enabled() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            records: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.records.push(Record {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.records.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.records[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write every span as `[name, start_us, end_us, parent, request]`, with
    /// parent -1 for roots and ids equal to array positions.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"fields\":[\"name\",\"start_us\",\"end_us\",\"parent\",\"request\"],\"spans\":["
        )?;
        for (i, r) in self.records.iter().enumerate() {
            let parent = if r.parent == NONE {
                -1
            } else {
                r.parent as i64
            };
            write!(
                out,
                "{}[\"{}\",{:.3},{:.3},{parent},{}]",
                if i == 0 { "" } else { "," },
                r.name,
                r.start_ns as f64 / 1e3,
                r.end_ns as f64 / 1e3,
                r.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
