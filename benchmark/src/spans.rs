//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's layers.
//!
//! A span has a name, a host start and end, the span that was open when
//! it began (its parent), and the id of the batch or round it belongs
//! to, shared by every span of that batch. Spans stay in memory while the
//! workload runs; the run writes them out at the end. A disabled tracer
//! records nothing and never reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Read the host clock. Every host-time figure the benchmark reports
/// starts here; none of them feeds back into the simulation.
pub fn host_clock() -> Instant {
    Instant::now() // detlint::allow(no-wallclock): benchmark host-time measurement, never simulated state
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub batch: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: host_clock(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` for a tracer that records nothing.
    pub fn is_off(&self) -> bool {
        !self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, batch: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            batch,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("span exit without enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Record `f` as a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, batch);
        let out = f();
        self.exit();
        out
    }

    /// Self time in seconds per span name, over every span below a span
    /// named `root`: a span's duration minus the part its children
    /// cover.
    pub fn self_seconds_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.has_ancestor(i, root) {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    fn has_ancestor(&self, mut i: usize, root: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// The spans as a Chrome trace-event document (loads in Perfetto):
    /// one complete event per span, with its batch id and parent index.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"batch\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.batch
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_respects_the_root() {
        let mut t = Tracer::new(true);
        t.enter("setup", 0);
        t.leaf("core.kvstore.drive", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.enter("measure", 0);
        t.enter("batch", 1);
        t.leaf("core.kvstore.drive", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        t.exit();
        let own = t.self_seconds_under("measure");
        let drive = own["core.kvstore.drive"];
        assert!((0.003..0.1).contains(&drive), "{drive}");
        assert!(own["batch"] < drive);
        assert!(!own.contains_key("setup"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("measure", 0);
        assert_eq!(t.leaf("x", 0, || 7), 7);
        t.exit();
        assert!(t.self_seconds_under("measure").is_empty());
        assert_eq!(t.to_chrome_json(), "{\"traceEvents\":[\n\n]}\n");
    }
}
