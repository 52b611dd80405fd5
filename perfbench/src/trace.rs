//! In-memory spans recorded by the benchmark around each call into a
//! layer. Spans are kept in memory and written out once, when the run
//! ends, so recording costs one clock read and one short lock per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One timed call: `start` and `end` are seconds since the tracer's epoch.
/// `run` groups the spans of one request (or of one batch-pipeline pass).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub run: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; when disabled every call is a plain
/// passthrough, which is how the untraced runs execute.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id
    /// (`None` when tracing is off) to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        run: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, name, run, start, Instant::now());
        out
    }

    /// Records a span measured by the caller; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, run, start, end);
        Some(id)
    }

    fn push(&self, id: u64, parent: Option<u64>, name: &str, run: u64, s: Instant, e: Instant) {
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            run,
            start: s.saturating_duration_since(self.epoch).as_secs_f64(),
            end: e.saturating_duration_since(self.epoch).as_secs_f64(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Self time per span id: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.duration() - covered(kids, s.start, s.end))
        })
        .collect()
}
