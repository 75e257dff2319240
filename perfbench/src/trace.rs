//! In-memory spans recorded around the calls into each layer.
//!
//! The benchmark is single-threaded, so one thread-local recorder serves
//! every layer, including resource closures registered on a hub (which
//! must be `Send` and so cannot capture a shared handle). Recording is
//! off unless [`enable`] turned it on; untraced runs never touch it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `broker.call`.
    pub name: &'static str,
    /// Start instant.
    pub start: u64,
    /// End instant.
    pub end: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

struct Recorder {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off.
pub fn enable(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Tags the spans that follow with operation `op`.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span called `name` (just runs it when off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start = r.origin.elapsed().as_nanos() as u64;
        let idx = r.spans.len();
        let span = Span {
            name,
            start,
            end: start,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[idx].end = end;
            r.open.pop();
        });
    }
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
}

/// Adds a recording's self and total times into `into`, by span name.
pub fn accumulate(spans: &[Span], into: &mut BTreeMap<&'static str, Totals>) {
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = into.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += own;
        t.total_ns += s.end - s.start;
    }
}

/// Writes spans as tab-separated `op name start_ns end_ns parent` lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start, s.end, parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            s("op", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("a.inner", 15, 25, Some(1)),
            s("b", 50, 70, Some(0)),
            // Overlaps `b`: the union 50..80 is covered, not 20 + 20.
            s("c", 60, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 20, 20]);
        let mut totals = BTreeMap::new();
        accumulate(&spans, &mut totals);
        assert_eq!(totals["op"].self_ns, 40);
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(totals["a"].count, 1);
    }

    #[test]
    fn recorded_spans_nest_by_call_structure() {
        enable(true);
        set_op(7);
        span("op", || {
            span("layer", || span("resource", || ()));
            span("layer", || ());
        });
        enable(false);
        span("ignored", || ());
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None),
                ("layer", Some(0)),
                ("resource", Some(1)),
                ("layer", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].end - spans[0].start);
    }
}
