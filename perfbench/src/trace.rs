//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and a tile or request id. Spans
//! stay in memory while the workload runs and are written out when it
//! ends. A disabled tracer records nothing and never reads the clock,
//! so the untraced run takes the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `NONE` when the tracer is disabled.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    id: u64,
}

pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::join`].
    pub fn fork(&self) -> Self {
        Self {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        let Some(epoch) = self.epoch else { return NONE };
        let start_ns = Self::now_ns(epoch);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: SpanId) {
        if let (Some(epoch), Some(s)) = (self.epoch, self.spans.get_mut(span)) {
            s.end_ns = Self::now_ns(epoch);
        }
    }

    /// Appends a forked tracer's spans; its root spans get `parent`.
    pub fn join(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    fn duration_s(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Summed duration of spans named `name`, optionally only those
    /// whose parent is `parent`.
    pub fn total_s(&self, name: &str, parent: Option<SpanId>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && parent.is_none_or(|p| s.parent == p))
            .map(Self::duration_s)
            .sum()
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the part of it that its children's intervals
    /// cover (children may overlap, e.g. pipelined requests).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(c) = children.get_mut(s.parent) {
                c.push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += Self::duration_s(s);
            t.self_s += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
