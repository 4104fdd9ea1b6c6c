//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public API; nothing inside the program is instrumented.  Each
//! span has a name whose prefix up to the last `.` is its layer
//! (`closure.close_batch` belongs to `closure`), a start, an end, an
//! optional parent and a list of counts taken at the same boundary.  The
//! spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// The layer a span name belongs to: everything before its last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span with explicit bounds.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        counts: &[(&'static str, f64)],
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts: counts.to_vec(),
        };
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, &[])
    }

    /// Close an open span now, attaching its counts.
    pub fn end(&self, id: SpanId, counts: &[(&'static str, f64)]) {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].end_ns = end_ns;
        spans[id].counts.extend_from_slice(counts);
    }

    /// Time `f` in a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        counts: &[(&'static str, f64)],
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, counts);
        out
    }

    /// Self time per layer (ns): each span's duration minus the part of its
    /// interval its child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, u64> {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            *out.entry(layer_of(s.name).to_string()).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let mut text = String::with_capacity(spans.len() * 120);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.name, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(text, "{sep}\"{k}\":{v}");
            }
            text.push_str("}}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn layer_is_the_prefix_before_the_last_dot() {
        assert_eq!(layer_of("closure.close_batch"), "closure");
        assert_eq!(layer_of("core.sampler.iteration"), "core.sampler");
        assert_eq!(layer_of("bench"), "bench");
    }

    #[test]
    fn covered_merges_overlapping_children() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50), (90, 120)];
        assert_eq!(covered_ns(0, 100, &mut kids), 20 + 10 + 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("core.engine.run", None, at(0), at(100), &[]);
        t.record("core.sampler.iteration", Some(root), at(10), at(40), &[]);
        t.record(
            "core.sampler.iteration",
            Some(root),
            at(40),
            at(90),
            &[("members", 8.0)],
        );
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer["core.engine"], 20_000_000);
        assert_eq!(by_layer["core.sampler"], 80_000_000);
        assert_eq!(t.len(), 3);
    }
}
