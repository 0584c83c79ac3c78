//! In-memory spans around the benchmark's calls into each layer,
//! written out as a Chrome trace and a per-layer self-time summary when
//! the run ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub parent: Option<usize>,
    /// Chrome-trace lane: 0 for the benchmark's own thread, 1.. for its
    /// session workers and the runner's worker lanes.
    pub lane: usize,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Lane of the spans [`Tracer::begin`] opens.
    lane: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            lane: 0,
        }
    }

    /// An empty tracer for another thread, on `lane`, with this one's
    /// epoch and state; hand it back with [`Tracer::merge`].
    pub fn worker(&self, lane: usize) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            lane,
        }
    }

    /// Take a worker's spans; its outermost ones become children of the
    /// innermost span open here.
    pub fn merge(&mut self, worker: Tracer) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
            parent: self.stack.last().copied(),
            lane: self.lane,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let span = &mut self.spans[id];
        span.dur = self.epoch.elapsed().saturating_sub(span.start);
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Record a span measured elsewhere (a runner job, from its
    /// `JobResult` offsets), as a child of the innermost open span.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        dur: Duration,
        lane: usize,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            start: start.saturating_duration_since(self.epoch),
            dur,
            parent: self.stack.last().copied(),
            lane,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of its interval that its children cover. Children on the
    /// runner's lanes overlap each other, so their union is taken.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.start + s.dur));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            kids.sort();
            let (lo, hi) = (s.start, s.start + s.dur);
            let mut covered = Duration::ZERO;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.dur.saturating_sub(covered).as_secs_f64();
        }
        out
    }

    /// The spans in Chrome's trace-event JSON format.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.layer,
                sp.lane,
                sp.start.as_secs_f64() * 1e6,
                sp.dur.as_secs_f64() * 1e6,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("a", "core");
        t.end(o);
        t.add("job", "runner", Instant::now(), Duration::from_millis(1), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", "bench");
        let inner = t.begin("inner", "core");
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        // Two overlapping jobs on parallel lanes, the second past the
        // parent's end.
        let now = Instant::now();
        t.add("job", "runner", now, Duration::from_millis(4), 1);
        t.add("job", "runner", now, Duration::from_secs(5), 2);
        std::thread::sleep(Duration::from_millis(6));
        t.end(outer);
        let st = t.self_time_by_layer();
        let sp = t.spans();
        assert_eq!(sp[1].parent, Some(0));
        let covered_by_jobs = (sp[0].start + sp[0].dur) - sp[2].start;
        let expect = sp[0].dur - sp[1].dur - covered_by_jobs;
        assert!((st["bench"].1 - expect.as_secs_f64()).abs() < 1e-9);
        assert_eq!(st["runner"], (2, 5.004));
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn merged_worker_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", "bench");
        let mut w = t.worker(1);
        let job = w.begin("job", "bench");
        let inner = w.begin("inner", "core");
        w.end(inner);
        w.end(job);
        t.merge(w);
        t.end(outer);
        let sp = t.spans();
        assert_eq!(sp.len(), 3);
        assert_eq!((sp[1].parent, sp[1].lane), (Some(0), 1));
        assert_eq!((sp[2].parent, sp[2].lane), (Some(1), 1));
    }
}
