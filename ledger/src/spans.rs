//! The benchmark's own spans, recorded from outside the program around the
//! calls into each crate. Kept in memory; written out when the cycle ends.

use serde::Serialize;
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub cycle: usize,
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    spans: Vec<Span>,
    /// Duration minus the interval the children cover, per span.
    self_ns: Vec<u64>,
}

pub struct Spans {
    enabled: bool,
    cycle: usize,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// An open span. Closing it on drop means a panic that unwinds through
/// [`Spans::time`] still leaves every span with an end after its start.
struct Open<'a>(&'a Spans);

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let spans = self.0;
        if let Some(i) = spans.open.borrow_mut().pop() {
            spans.spans.borrow_mut()[i].end_ns = spans.ns(Instant::now());
        }
    }
}

impl Spans {
    /// With `enabled` off, [`Spans::time`] only times: end-to-end metrics
    /// are measured with nothing recorded.
    pub fn new(enabled: bool, cycle: usize) -> Spans {
        Spans {
            enabled,
            cycle,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and seconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let open = self.enabled.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent: self.open.borrow().last().copied(),
                cycle: self.cycle,
            });
            self.open.borrow_mut().push(spans.len() - 1);
            Open(self)
        });
        let value = f();
        let end = Instant::now();
        drop(open);
        (value, (end - start).as_secs_f64())
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time of every span: its duration minus the union of the
    /// intervals its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    pub fn write(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let file = TraceFile {
            workload: workload.to_string(),
            spans: self.spans.borrow().clone(),
            self_ns: self.self_ns(),
        };
        let text = serde_json::to_string(&file).expect("printing JSON cannot fail");
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_are_non_negative() {
        let sp = Spans::new(true, 1);
        let ((), outer) = sp.time("outer", || {
            sp.time("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            sp.time("b", || {
                sp.time("b.inner", || ());
            });
        });
        assert!(outer >= 0.002);
        let spans = sp.spans.borrow().clone();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let own = sp.self_ns();
        let outer_ns = spans[0].end_ns - spans[0].start_ns;
        let kids: u64 = [1, 2]
            .iter()
            .map(|&i| spans[i].end_ns - spans[i].start_ns)
            .sum();
        assert_eq!(own[0], outer_ns - kids);
        assert!(own
            .iter()
            .zip(&spans)
            .all(|(o, s)| *o <= s.end_ns - s.start_ns));
    }

    #[test]
    fn a_panic_inside_a_span_closes_it() {
        let sp = Spans::new(true, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sp.time("outer", || {
                sp.time("inner", || panic!("the program failed"))
            })
        }));
        assert!(caught.is_err());
        assert!(sp.open.borrow().is_empty());
        let spans = sp.spans.borrow().clone();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[0].end_ns);
        drop(spans);
        assert!(sp.self_ns().iter().all(|&ns| ns < 1_000_000_000));
    }

    #[test]
    fn disabled_spans_time_but_record_nothing() {
        let sp = Spans::new(false, 0);
        let (v, secs) = sp.time("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(sp.len(), 0);
    }
}
