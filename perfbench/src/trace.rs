//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark, around its calls into the
//! crates' public functions: name, start, end, parent span and the run
//! id. Nothing is read back into the program. The spans stay in memory
//! and are written out once, at exit. A disabled recorder runs the
//! wrapped call and records nothing. Span times are on the benchmark's
//! CPU-time clock (`clock.rs`), in nanoseconds since the recorder was
//! made.

use crate::clock::{self, CpuInstant};
use std::fmt::Write as _;

/// One timed call (or a batch of `count` identical calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Calls the span covers (1 unless the caller times a batch).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Seconds per covered call.
    pub fn per_call_secs(&self) -> f64 {
        self.secs() / self.count.max(1) as f64
    }
}

pub struct Recorder {
    enabled: bool,
    run_id: String,
    t0: CpuInstant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Time spent inside the recorder's own bookkeeping, nanoseconds.
    bookkeeping_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Recorder {
            enabled,
            run_id,
            t0: CpuInstant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
            bookkeeping_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        clock::now_ns() - self.t0.ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// Runs `f`, which makes `count` identical calls, inside one span.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let enter = self.now_ns();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            count,
        });
        self.open.push(idx);
        let start = self.now_ns();
        self.spans[idx as usize].start_ns = start;
        self.bookkeeping_ns += start - enter;
        let out = f(self);
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        self.open.pop();
        self.bookkeeping_ns += self.now_ns() - end;
        out
    }

    /// Records a span observed between two instants (e.g. by a sink the
    /// program calls back), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: CpuInstant, end: CpuInstant) {
        if !self.enabled {
            return;
        }
        let ns = |t: CpuInstant| t.ns().saturating_sub(self.t0.ns());
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            count: 1,
        });
    }

    /// Every recorded span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median seconds per call over the spans named `name` (0 if none).
    pub fn median_per_call(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self.named(name).map(Span::per_call_secs).collect();
        crate::stats::median(&mut v)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn bookkeeping_secs(&self) -> f64 {
        self.bookkeeping_ns as f64 * 1e-9
    }

    /// Writes the spans as NDJSON to `path` (one span per line).
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
