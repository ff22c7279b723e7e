//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out once when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the span that was open when it began, and the operation it
//! belongs to. Spans of one operation nest strictly (the benchmark is
//! single-threaded wherever it traces), so a span's self time is its
//! duration minus the durations of its direct children.

use alert_audit::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ishm` or `detection.replay`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans begun from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Share of the time of the root spans named `root` that the self time
    /// of their descendants named in `additive` accounts for.
    pub fn coverage(&self, root: &str, additive: &[&str]) -> f64 {
        let own = self.self_ns();
        // Root index of every span (spans begin after their parents).
        let mut root_of: Vec<Option<usize>> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let r = match s.parent {
                None if s.name == root => Some(i),
                None => None,
                Some(p) => root_of[p],
            };
            root_of.push(r);
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if root_of[i] == Some(i) {
                total += s.dur_ns();
            } else if root_of[i].is_some() && additive.contains(&s.name) {
                covered += own[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The trace as JSON: the spans of the first `max_ops` operations in
    /// full (a long run records hundreds of thousands of evaluator spans),
    /// plus per-name self-time totals over all of them.
    pub fn to_json(&self, max_ops: u64) -> Value {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < max_ops)
            .map(|(i, s)| {
                Value::obj([
                    ("id", Value::Num(i as f64)),
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(own[i] as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("op", Value::Num(s.op as f64)),
                ])
            })
            .collect();
        let totals = self
            .self_ms_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Num(v)))
            .collect();
        Value::obj([
            ("span_count", Value::Num(self.spans.len() as f64)),
            ("self_ms_by_name", Value::Obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root [0,100], a [10,40] with child
    /// b [20,30], c [50,90]; then an unrelated root [200,300].
    fn fixture() -> Tracer {
        let mut t = Tracer::default();
        let mk = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        t.spans = vec![
            mk("op", 0, 100, None, 0),
            mk("a", 10, 40, Some(0), 0),
            mk("b", 20, 30, Some(1), 0),
            mk("c", 50, 90, Some(0), 0),
            mk("other", 200, 300, None, 1),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = fixture();
        assert_eq!(t.self_ns(), vec![30, 20, 10, 40, 100]);
    }

    #[test]
    fn coverage_counts_additive_self_time_under_roots() {
        let t = fixture();
        assert!((t.coverage("op", &["a", "b", "c"]) - 0.7).abs() < 1e-12);
        assert!((t.coverage("op", &["a", "c"]) - 0.6).abs() < 1e-12);
        assert_eq!(t.coverage("missing", &["a"]), 0.0);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut t = Tracer::default();
        t.set_op(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 3));
        let json = t.to_json(4);
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            t.to_json(3).get("spans").unwrap().as_arr().unwrap().len(),
            0
        );
    }
}
