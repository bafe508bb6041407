//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into each layer's public entry points. Each span carries a name, a
//! start and end (ns since the recorder was made), its parent span and
//! the case or request id it belongs to. Nothing is written until
//! [`Tracer::write`] at the end of the run. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span (0 = none).
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; always returns the measured duration.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
    /// Time spent recording spans, in ns.
    overhead_ns: AtomicU64,
}

/// Per-name totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: now(),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(1),
            overhead_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`, tagged with
    /// the case or request id `key`. `f` receives the new span's id so
    /// it can open children. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = if self.on { self.reserve_id() } else { 0 };
        let start = now();
        let out = f(id);
        let end = now();
        if self.on {
            self.record(id, parent, name, key, start, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records an already-timed interval (e.g. a request measured from
    /// its due time by the load generator).
    pub fn record_interval(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.reserve_id();
        self.record(id, parent, name, key, start, end);
        id
    }

    fn reserve_id(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn record(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let entered = now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                key,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        let cost = now().saturating_duration_since(entered).as_nanos() as u64;
        self.overhead_ns.fetch_add(cost, Ordering::Relaxed);
    }

    /// Seconds spent recording spans so far.
    pub fn overhead_s(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn snapshot(&self) -> Vec<Span> {
        match self.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.snapshot();
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span plus the per-name totals as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut doc = String::from("{\"spans\": [\n");
        for (i, s) in self.snapshot().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                doc,
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"key\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            );
        }
        doc.push_str("\n],\n\"totals\": {");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                doc,
                "{sep}\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                t.count, t.total_s, t.self_s
            );
        }
        doc.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

/// The benchmark's one clock read.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
