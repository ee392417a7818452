//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API: its name, start and end (nanoseconds since the run began),
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory and are written out as JSON lines when the run ends. A disabled
//! tracer records nothing and reads no clock, so untraced runs pay only a
//! branch per call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives the span's id (0 when disabled)
    /// so that calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(id);
        self.push(id, parent, request, name, start, Instant::now());
        result
    }

    /// Record a span whose end points were observed elsewhere (for example
    /// the arrival times of a search session's depth events). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, request, name, start, end);
        id
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Durations in seconds of every span with this name, in record order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
