//! Spans recorded from outside, around the calls into each layer. They
//! stay in memory until the run ends and are then written out whole.
//!
//! The program has no spans of its own yet, so an inner layer is priced
//! by calling it again with the same input right after the outer call
//! and linking that span to the outer one as its child. Sibling spans
//! never overlap, so a span's self time is its duration minus the
//! durations of its children, which is the part of its interval they
//! would cover had they run inside it.

use serde::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation this span belongs to; spans of one op share it.
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans.
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace { epoch: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (out, self.push(Span { op, name, parent, start_ns, end_ns }))
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A span of `dur_ns` reported by the other side of a call (the
    /// server's own clock), centred in the span that contains it.
    pub fn inside(&mut self, outer: SpanId, name: &'static str, dur_ns: u64) -> SpanId {
        let o = &self.spans[outer];
        let dur_ns = dur_ns.min(o.ns());
        let start_ns = o.start_ns + (o.ns() - dur_ns) / 2;
        let span =
            Span { op: o.op, name, parent: Some(outer), start_ns, end_ns: start_ns + dur_ns };
        self.push(span)
    }

    pub fn span_us(&self, id: SpanId) -> f64 {
        self.spans[id].ns() as f64 / 1e3
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Self time of every span, in ns, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Microseconds of every span named `name`, one value per span.
    pub fn each_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Self microseconds of every span named `name`.
    pub fn each_self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    fn per_op(&self, name: &str, ns_of: impl Fn(usize, &Span) -> u64) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            *by_op.entry(s.op).or_default() += ns_of(i, s);
        }
        by_op.into_values().map(|ns| ns as f64 / 1e3).collect()
    }

    /// Microseconds spent in spans named `name`, summed per operation.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |_, s| s.ns())
    }

    /// Self microseconds of spans named `name`, summed per operation.
    pub fn per_op_self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.per_op(name, |i, _| own[i])
    }

    /// Every span, and the counts, as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("op".into(), Json::Int(i128::from(s.op))),
                    ("name".into(), Json::Str(s.name.into())),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i128))),
                    ("start_ns".into(), Json::Int(i128::from(s.start_ns))),
                    ("end_ns".into(), Json::Int(i128::from(s.end_ns))),
                ])
            })
            .collect();
        let counts =
            self.counts.iter().map(|(k, v)| (k.to_string(), Json::Float(*v))).collect::<Vec<_>>();
        let doc = Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("counts".into(), Json::Obj(counts)),
        ]);
        std::fs::write(path, json::to_string(&doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        op: u32,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span { op, name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::default();
        let rtt = t.push(span(0, "rtt", None, 0, 100_000));
        let server = t.inside(rtt, "server", 60_000);
        assert_eq!(t.spans[server].start_ns, 20_000, "centred in its parent");
        // The inner layers were called again after the outer call returned.
        let exec = t.push(span(0, "exec", Some(server), 110_000, 150_000));
        t.push(span(0, "lint", Some(exec), 150_000, 155_000));
        t.push(span(0, "plan", Some(exec), 155_000, 165_000));
        assert_eq!(t.each_self_us("rtt"), vec![40.0]);
        assert_eq!(t.each_self_us("server"), vec![20.0]);
        assert_eq!(t.each_self_us("exec"), vec![25.0]);
        assert_eq!(t.each_self_us("lint"), vec![5.0]);
        assert_eq!(t.each_us("exec"), vec![40.0]);
        // Self times of a tree add up to its root.
        let total: f64 = t.names().iter().flat_map(|n| t.each_self_us(n)).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn self_time_never_goes_negative_and_sums_per_op() {
        let mut t = Trace::default();
        // A cache hit: the outer call was faster than re-running the inner one.
        let q = t.push(span(7, "query", None, 0, 2_000));
        t.push(span(7, "execute", Some(q), 2_000, 12_000));
        assert_eq!(t.each_self_us("query"), vec![0.0]);
        // Two exchanges of one op, one of another.
        t.push(span(8, "rtt", None, 0, 3_000));
        t.push(span(8, "rtt", None, 3_000, 10_000));
        t.push(span(9, "rtt", None, 0, 4_000));
        assert_eq!(t.per_op_us("rtt"), vec![10.0, 4.0]);
        assert_eq!(t.per_op_self_us("rtt"), vec![10.0, 4.0]);
        assert_eq!(t.each_us("rtt").len(), 3);
        let reported = t.inside(q, "server", 5_000);
        assert_eq!(t.spans[reported].ns(), 2_000, "clipped to the span that contains it");
    }

    #[test]
    fn counts_accumulate_and_the_trace_serialises() {
        let mut t = Trace::default();
        t.count("pager.page_reads", 3.0);
        t.count("pager.page_reads", 2.0);
        assert_eq!(t.counted("pager.page_reads"), 5.0);
        assert_eq!(t.counted("absent"), 0.0);
        let ((), id) = t.span(1, "work", None, || ());
        assert!(t.spans[id].end_ns >= t.spans[id].start_ns);
        let path = std::env::current_exe().unwrap().with_extension("trace-test.json");
        t.write(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 1);
        let keys: Vec<&str> = spans[0].as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["op", "name", "parent", "start_ns", "end_ns"]);
    }
}
