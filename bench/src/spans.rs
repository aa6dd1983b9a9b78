//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from `bench/` around each call into a layer (spans
//! inside the product crates are a later change). A span has a name, a
//! start, an end, the span that caused it, and the id of the pass or
//! set-up round it belongs to. Nothing is written until the run ends.
//! With the recorder off, `enter`/`exit` read no clock and store nothing.

use hpcnet_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" / "recorder was off" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Pass (or set-up round) this span belongs to.
    pub trace_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    pub on: bool,
    origin: Instant,
    trace_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            trace_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start a new pass / set-up round, recorded or not.
    pub fn begin_trace(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "a span is still open");
        self.on = on;
        self.trace_id += 1;
    }

    pub fn trace_id(&self) -> u32 {
        self.trace_id
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(idx);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id: self.trace_id,
        });
        idx
    }

    #[inline]
    pub fn exit(&mut self, idx: u32) {
        if idx == NONE {
            return;
        }
        self.spans[idx as usize].end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    /// Close every span opened inside `idx` and still open: an error path
    /// returned early.
    pub fn unwind_to(&mut self, idx: u32) {
        while self.open.last().is_some_and(|&top| top != idx) {
            let top = self.open[self.open.len() - 1];
            self.exit(top);
        }
    }

    /// Time `f` under a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over when the run ends.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one span never overlap: one thread records them).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name and trace id: the duration summed inside that trace —
/// "time busy in this layer during one pass".
pub fn per_trace_totals(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name)
            .or_default()
            .entry(s.trace_id)
            .or_default() += s.duration_ns() as f64;
    }
    out
}

/// The trace document: `names`, then one `[name, start, end, parent,
/// trace_id]` row per span (ns since the recorder's origin; parent is a
/// row index or -1), then duration / self time / count per name.
pub fn document(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let own = self_times(spans);
    let mut agg: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let a = agg.entry(s.name).or_default();
        a.0 += 1;
        a.1 += s.duration_ns();
        a.2 += own_ns;
    }
    let rows = spans
        .iter()
        .map(|s| {
            let name = names.binary_search(&s.name).expect("name was collected") as f64;
            let parent = if s.parent == NONE {
                -1.0
            } else {
                f64::from(s.parent)
            };
            Json::Arr(vec![
                Json::Num(name),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(parent),
                Json::Num(f64::from(s.trace_id)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("time_unit", Json::Str("ns".into())),
        (
            "columns",
            Json::Arr(
                ["name", "start", "end", "parent", "trace_id"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        (
            "names",
            Json::Arr(names.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        (
            "by_name",
            Json::Obj(
                agg.into_iter()
                    .map(|(name, (count, total, own))| {
                        let v = Json::obj(vec![
                            ("count", Json::Num(count as f64)),
                            ("total_ns", Json::Num(total as f64)),
                            ("self_ns", Json::Num(own as f64)),
                        ]);
                        (name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, trace_id: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("pass", 0, 100, NONE, 1),
            span("row", 10, 60, 0, 1),
            span("vm.invoke", 20, 50, 1, 1),
            span("row", 60, 90, 0, 1),
        ];
        // pass: 100 - (50 + 30); first row: 50 - 30; leaves keep all.
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut r = Recorder::new();
        r.begin_trace(false);
        let s = r.enter("x");
        assert_eq!(s, NONE);
        r.exit(s);
        assert!(r.spans().is_empty());

        r.begin_trace(true);
        let outer = r.enter("outer");
        r.span("inner", || ());
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NONE, 0));
        assert_eq!(spans[1].trace_id, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn totals_group_by_name_and_trace() {
        let spans = [
            span("a", 0, 10, NONE, 1),
            span("a", 10, 30, NONE, 1),
            span("a", 0, 5, NONE, 2),
            span("b", 0, 7, NONE, 2),
        ];
        let t = per_trace_totals(&spans);
        assert_eq!(t["a"], BTreeMap::from([(1, 30.0), (2, 5.0)]));
        assert_eq!(t["b"], BTreeMap::from([(2, 7.0)]));
    }
}
