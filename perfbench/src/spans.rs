//! Wall-clock spans recorded around the benchmark's calls into each layer,
//! and the per-layer self time derived from them.
//!
//! Spans are recorded here, in the benchmark, around public calls; nothing
//! inside the crates under test is instrumented.  A tracer that is off
//! records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Repetition the span belongs to.
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same run.
    pub parent: Option<u32>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, run: u32) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            run: self.run,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Times one call as a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        result
    }

    /// Hands over the run's spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.open.is_empty(),
            "every span is closed before the run ends"
        );
        self.spans
    }
}

/// Per-layer totals of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    /// Duration minus the part covered by child spans, summed over calls.
    pub self_ns: u64,
    /// Longest single call (full duration).
    pub max_ns: u64,
}

/// Self time per span name over the spans of one run.  A span's self time
/// is its duration minus the union of its children's intervals, clipped to
/// the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, mut kids) in spans.iter().zip(children) {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            let end = end.min(span.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.self_ns += duration - covered.min(duration);
        layer.max_ns = layer.max_ns.max(duration);
    }
    layers
}

/// Writes spans as JSON lines to `out`.
pub fn write_spans(out: &mut impl Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut index = 0u32;
    let mut run = None;
    for span in spans {
        if run != Some(span.run) {
            run = Some(span.run);
            index = 0;
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"run\": {}, \"id\": {index}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            span.run, span.name, span.start_ns, span.end_ns
        )?;
        index += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            run: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // step [0, 100) holds submit [10, 30) and [30, 50) and poll [60, 70).
        let spans = [
            span("step", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("submit", 30, 50, Some(0)),
            span("poll", 60, 70, Some(0)),
        ];
        let layers = self_times(&spans);
        assert_eq!(
            layers["step"],
            LayerTime {
                calls: 1,
                self_ns: 50,
                max_ns: 100
            }
        );
        assert_eq!(
            layers["submit"],
            LayerTime {
                calls: 2,
                self_ns: 40,
                max_ns: 20
            }
        );
        assert_eq!(layers["poll"].self_ns, 10);
        // Self times partition the root's wall time.
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("outer", 100, 200, None),
            span("a", 90, 140, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 230, Some(0)),
        ];
        // Covered: [100, 160) and [190, 200) = 70 of 100.
        assert_eq!(self_times(&spans)["outer"].self_ns, 30);
    }

    #[test]
    fn grandchildren_charge_only_their_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 0, 60, Some(0)),
            span("leaf", 10, 40, Some(1)),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["root"].self_ns, 40);
        assert_eq!(layers["mid"].self_ns, 30);
        assert_eq!(layers["leaf"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tracer = Tracer::new(true, 3);
        let outer = tracer.begin("outer");
        let value = tracer.call("inner", || 7);
        tracer.end(outer);
        let spans = tracer.into_spans();
        assert_eq!(value, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, 0);
        let open = off.begin("outer");
        off.call("inner", || ());
        off.end(open);
        assert!(off.into_spans().is_empty());
    }
}
