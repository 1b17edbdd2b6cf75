//! Rewrite-step tracing for the decorrelation pipeline.
//!
//! When a traced entry point is used ([`crate::apply_strategy_traced`],
//! [`crate::magic::magic_decorrelate_traced`]) every FEED, ABSORB,
//! LOJ-repair, OptMag CSE elimination, block merge and identity bypass
//! records a [`RewriteStep`]: which rule fired, the box it targeted, the
//! boxes it created or mutated, and printable before/after QGM snapshots
//! (from [`decorr_qgm::print::render_from`]). Snapshots are only computed
//! when tracing is enabled, so the untraced pipeline pays nothing.

use std::fmt::Write as _;

use decorr_common::JsonWriter;
use decorr_qgm::BoxId;

/// One recorded application of a rewrite rule.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// The rule that fired: `FEED`, `ABSORB`, `LOJ-repair`, `OptMag-CSE`,
    /// `merge-select`, `bypass-identity`, `optimize`, or a baseline name.
    pub rule: String,
    /// The box the rule was applied to.
    pub target: BoxId,
    /// Boxes the step created.
    pub created: Vec<BoxId>,
    /// Pre-existing boxes the step mutated.
    pub mutated: Vec<BoxId>,
    /// QGM snapshot of the affected region before the step.
    pub before: String,
    /// QGM snapshot of the affected region after the step.
    pub after: String,
    /// Free-form detail (`"COUNT-bug repair on out[1]"`, ...).
    pub note: String,
}

/// The ordered log of rewrite steps from one strategy application.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    pub steps: Vec<RewriteStep>,
}

impl RewriteTrace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, step: RewriteStep) {
        self.steps.push(step);
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Steps whose rule matches `rule` exactly.
    pub fn count_rule(&self, rule: &str) -> usize {
        self.steps.iter().filter(|s| s.rule == rule).count()
    }

    /// Compact one-line-per-step log (no snapshots).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, st) in self.steps.iter().enumerate() {
            write!(s, "step {:>2}: {} target={}", i + 1, st.rule, st.target).unwrap();
            if !st.created.is_empty() {
                write!(s, " created=[{}]", ids(&st.created)).unwrap();
            }
            if !st.mutated.is_empty() {
                write!(s, " mutated=[{}]", ids(&st.mutated)).unwrap();
            }
            if !st.note.is_empty() {
                write!(s, " — {}", st.note).unwrap();
            }
            s.push('\n');
        }
        s
    }

    /// Full log including the before/after snapshots of every step.
    pub fn render_full(&self) -> String {
        let mut s = String::new();
        for (i, st) in self.steps.iter().enumerate() {
            writeln!(
                s,
                "=== step {}: {} target={} created=[{}] mutated=[{}]{}{}",
                i + 1,
                st.rule,
                st.target,
                ids(&st.created),
                ids(&st.mutated),
                if st.note.is_empty() { "" } else { " — " },
                st.note
            )
            .unwrap();
            writeln!(s, "--- before").unwrap();
            indent_into(&st.before, &mut s);
            writeln!(s, "--- after").unwrap();
            indent_into(&st.after, &mut s);
        }
        s
    }

    /// The trace as a JSON document: `{"steps": [...]}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("steps").begin_array();
        for st in &self.steps {
            w.begin_object()
                .field_str("rule", &st.rule)
                .field_str("target", &st.target.to_string());
            w.key("created").begin_array();
            for b in &st.created {
                w.string(&b.to_string());
            }
            w.end_array();
            w.key("mutated").begin_array();
            for b in &st.mutated {
                w.string(&b.to_string());
            }
            w.end_array();
            w.field_str("note", &st.note)
                .field_str("before", &st.before)
                .field_str("after", &st.after)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn ids(v: &[BoxId]) -> String {
    v.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

fn indent_into(snapshot: &str, out: &mut String) {
    for line in snapshot.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
}
