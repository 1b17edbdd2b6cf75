//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function, keeps the spans in memory and writes
//! them out when the run ends. Spans inside the program are a later change
//! (ROADMAP item 5).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::util::{obj, Json};

/// Spans written to `out/trace-<workload>.json` (all are aggregated).
const MAX_SPANS_WRITTEN: usize = 20_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one statement.
    pub stmt: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, total time and self time (total minus children) of one span name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

impl Agg {
    /// Mean microseconds per call.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, stmt: u32) -> usize {
        let t = self.now();
        self.spans
            .push(Span { name, start_ns: t, end_ns: t, parent, stmt });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, stmt);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name totals; a span's duration is taken off its parent's self
    /// time.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut agg: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let a = agg.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += s.ns();
            a.self_ns += s.ns() as i64;
            if let Some(p) = s.parent {
                agg.entry(self.spans[p].name).or_default().self_ns -= s.ns() as i64;
            }
        }
        agg
    }

    /// Total time of the spans named `prefix…` whose parent is a
    /// `root`-named span: the stages on the statement's path, without
    /// replayed or nested calls.
    pub fn stage_ns(&self, root: &str, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(Span::ns)
            .sum()
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate();
        let doc = obj([
            ("workload", workload.into()),
            ("spans_recorded", self.spans.len().into()),
            (
                "spans_written",
                self.spans.len().min(MAX_SPANS_WRITTEN).into(),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .map(|(id, s)| {
                            obj([
                                ("id", id.into()),
                                ("name", s.name.into()),
                                ("start_ns", s.start_ns.into()),
                                ("end_ns", s.end_ns.into()),
                                ("parent", s.parent.map_or(Json::Null, Json::from)),
                                ("stmt", (s.stmt as u64).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}
