//! Spans around the suite's calls into each crate.
//!
//! A span records its name, start and end (ns since the tracer was
//! created), the span that was open when it began, and the id of the
//! operation (layer run, inference, request) it belongs to. Spans are
//! kept in memory and written out as JSON lines when the run ends; a
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, `crate.call` (e.g. `riscv_core.fast`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id the span belongs to.
    pub op: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `cap` spans to `path` as JSON lines
    /// (`name`, `start_ns`, `end_ns`, `parent`, `op`); returns how many
    /// were left out.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<usize> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(cap) {
            let line = Value::Obj(vec![
                ("name".into(), s.name.into()),
                ("start_ns".into(), s.start_ns.into()),
                ("end_ns".into(), s.end_ns.into()),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| (p as u64).into()),
                ),
                ("op".into(), s.op.into()),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()?;
        Ok(self.spans.len().saturating_sub(cap))
    }
}

/// Aggregate time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of
/// its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0,100) holds stage [10,30) and run [30,90); run holds an
        // inner span [40,50) that must not be subtracted from op.
        let spans = [
            span("op", 0, 100, None),
            span("stage", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(t["stage"].self_ns, 20);
        assert_eq!(
            t["run"],
            SelfTime {
                count: 1,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(t["inner"].self_ns, 10);
        let total_self: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_by_union() {
        let spans = [
            span("p", 100, 200, None),
            span("a", 90, 130, Some(0)),  // overhangs the start
            span("b", 120, 150, Some(0)), // overlaps a
            span("c", 190, 250, Some(0)), // overhangs the end
        ];
        let t = self_times(&spans);
        // covered: [100,150) + [190,200) = 60
        assert_eq!(t["p"].self_ns, 40);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.set_op(7);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Tracer::off();
        assert_eq!(off.span("x", |tr| tr.span("y", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
