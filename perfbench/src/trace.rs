//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent span, request id). Every span feeds a
//! per-name aggregate of count, total time and self time (duration minus
//! the part covered by child spans), so self times stay exact however
//! many spans there are. The first [`SPAN_CAP`] spans are also kept in
//! memory and written once, at the end, as a Chrome trace-event file
//! that Perfetto loads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans only feed the aggregates.
pub const SPAN_CAP: usize = 100_000;

/// One finished span, times in ns since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    request: u64,
    start: Instant,
    child_ns: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time: duration minus time covered by child spans (ns).
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per span (ns).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self time per span (ns).
    pub fn mean_self_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.count as f64)
    }
}

/// A single-threaded span recorder. A disabled recorder records nothing
/// and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`, on thread lane
    /// `tid`.
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Self {
            enabled,
            origin,
            tid,
            next_id: u64::from(tid) << 40,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let request = self.stack.last().map_or(0, |o| o.request);
        self.begin_request(name, request);
    }

    /// Opens a span tagged with request id `request` (0 for none).
    pub fn begin_request(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id: self.next_id,
            request,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration (ns).
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let open = self.stack.pop().expect("end() matches a begin()");
        let end = Instant::now();
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        self.finish(open, dur_ns);
        dur_ns
    }

    /// Closes the innermost open span at `end`, first accounting `child`
    /// (`name`, count, ns) as time spent inside it by calls that were
    /// timed separately. Returns the span's duration (ns).
    pub fn end_at(&mut self, end: Instant, child: (&'static str, u64, u64)) -> u64 {
        if !self.enabled {
            return 0;
        }
        let (name, count, child_ns) = child;
        self.account(name, count, child_ns);
        let open = self.stack.pop().expect("end_at() matches a begin()");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        self.finish(open, dur_ns);
        dur_ns
    }

    /// Adds `dur_ns` of child time under the innermost open span and to
    /// the aggregate of `name`, without keeping a span (used for calls too
    /// frequent to keep one span each).
    pub fn account(&mut self, name: &'static str, count: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let a = self.agg.entry(name).or_default();
        a.count += count;
        a.total_ns += dur_ns;
        a.self_ns += dur_ns;
    }

    fn finish(&mut self, open: Open, dur_ns: u64) {
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        let a = self.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur_ns;
        a.self_ns += dur_ns.saturating_sub(open.child_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent,
                request: open.request,
                tid: self.tid,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The aggregate for spans named `name` (all zero if none).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Spans recorded, kept or not.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Moves another recorder's spans and aggregates into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, a) in other.agg {
            let mine = self.agg.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - keep) as u64;
        self.spans.extend(other.spans.into_iter().take(keep));
    }

    /// Writes the kept spans as a Chrome trace-event JSON file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.request
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.begin("outer");
        t.account("inner", 3, 1_000);
        t.begin("child");
        t.end();
        let outer = t.end();
        let a = t.agg("outer");
        let child = t.agg("child");
        assert_eq!(a.count, 1);
        assert_eq!(a.total_ns, outer);
        assert_eq!(a.self_ns, outer.saturating_sub(1_000 + child.total_ns));
        assert_eq!(t.agg("inner").count, 3);
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        t.begin("x");
        assert_eq!(t.end(), 0);
        assert_eq!(t.span_count(), 0);
    }
}
