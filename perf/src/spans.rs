//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, the span that caused it, and an identifier
//! shared by the spans of one request or batch. Written out once, when the
//! traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`SpanLog::names`].
    pub name: u16,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request / batch / call identifier shared by related spans.
    pub id: u64,
}

/// Total and self time of every span sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// A single-threaded span recorder; per-thread logs are merged with
/// [`SpanLog::absorb`].
pub struct SpanLog {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (share one epoch between
    /// the logs of a run so merged spans line up).
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, names: Vec::new(), spans: Vec::new(), open: Vec::new() }
    }

    /// Intern a span name; call once per name, outside timed code.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        u16::try_from(self.names.len() - 1).expect("fewer than 65536 span names")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: u16, id: u64) {
        let parent = self.open.last().copied();
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, id });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: u16, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval measured elsewhere (e.g. a request from its send
    /// to its answer), with no parent.
    pub fn record(&mut self, name: u16, id: u64, start: Instant, end: Instant) {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: rel(start), end_ns: rel(end), parent: None, id });
    }

    /// Append another thread's log (same epoch), remapping names and parents.
    pub fn absorb(&mut self, other: SpanLog) {
        assert!(other.open.is_empty(), "absorbing a log with open spans");
        let base = self.spans.len() as u32;
        let remap: Vec<u16> = other.names.iter().map(|n| self.name(n)).collect();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            name: remap[s.name as usize],
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals; a span's self time is its duration minus the part
    /// of its interval that its children cover.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut by_name = vec![NameTotals::default(); self.names.len()];
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let t = &mut by_name[span.name as usize];
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += own;
        }
        self.names.iter().cloned().zip(by_name).filter(|(_, t)| t.count > 0).collect()
    }

    /// The span file: every name, the per-name totals, and the first
    /// `max_spans` spans themselves.
    pub fn to_json(&self, max_spans: usize) -> Value {
        let totals: Vec<Value> = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                json!({
                    "name": name,
                    "count": t.count,
                    "total_ns": t.total_ns,
                    "self_ns": t.self_ns
                })
            })
            .collect();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                json!({
                    "name": self.names[s.name as usize].as_str(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "id": s.id
                })
            })
            .collect();
        json!({
            "recorded": self.spans.len() as u64,
            "written": spans.len() as u64,
            "totals": totals,
            "spans": spans
        })
    }
}

/// Self time of each span: duration minus the union of its children's
/// intervals clipped to it (children may overlap when they come from
/// different threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: 0, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(0, 100, None), span(10, 30, Some(0)), span(40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(40, 80, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(50, 100, None), span(0, 60, Some(0)), span(90, 200, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
    }

    #[test]
    fn nested_enter_exit_builds_the_tree() {
        let mut log = SpanLog::new(Instant::now());
        let (outer, inner) = (log.name("outer"), log.name("inner"));
        log.span(outer, 7, || {});
        log.enter(outer, 8);
        log.span(inner, 8, || {});
        log.exit();
        assert_eq!(log.len(), 3);
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!(log.spans[1].parent, None);
        let totals = log.totals();
        assert_eq!(totals["outer"].count, 2);
        assert_eq!(totals["inner"].count, 1);
        assert!(totals["outer"].self_ns <= totals["outer"].total_ns);
    }

    #[test]
    fn absorb_remaps_names_and_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let x = a.name("x");
        a.span(x, 1, || {});
        let mut b = SpanLog::new(epoch);
        let (y, bx) = (b.name("y"), b.name("x"));
        b.enter(y, 2);
        b.span(bx, 2, || {});
        b.exit();
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.totals()["x"].count, 2);
        assert_eq!(a.totals()["y"].count, 1);
    }
}
