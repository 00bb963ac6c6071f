//! In-memory spans around the benchmark's calls into each layer, written
//! out when the traced run ends. Spans inside the program are a later
//! issue; these sit at the layer boundaries the benchmark itself crosses.

use std::time::Instant;

use obsv::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call goes into.
    pub layer: &'static str,
    /// The cell the call belongs to, if any.
    pub cell: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Counts read at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span; returns its result and the span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: &'static str,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, usize) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer: name.split('.').next().unwrap_or(name),
            cell,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(index);
        let result = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (result, index)
    }

    pub fn count(&mut self, span: usize, name: &'static str, value: u64) {
        self.spans[span].counts.push((name, value));
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::dur_ns)
            .sum();
        self.spans[index].dur_ns().saturating_sub(children)
    }

    /// Total duration of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let mut spans = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Json::obj();
            o.set("id", Json::from_u64(i as u64));
            o.set("name", Json::Str(s.name.to_string()));
            o.set("layer", Json::Str(s.layer.to_string()));
            o.set("cell", Json::Str(s.cell.to_string()));
            o.set("start_ns", Json::from_u64(s.start_ns));
            o.set("end_ns", Json::from_u64(s.end_ns));
            o.set(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from_u64(p as u64)),
            );
            o.set("self_ns", Json::from_u64(self.self_ns(i)));
            let mut counts = Json::obj();
            for (name, value) in &s.counts {
                counts.set(name, Json::from_u64(*value));
            }
            o.set("counts", counts);
            spans.push(o);
        }
        let mut doc = Json::obj();
        doc.set("workload", Json::Str(workload.to_string()));
        doc.set("seed", Json::from_u64(seed));
        doc.set(
            "clock",
            Json::Str("host monotonic ns since the traced run began".into()),
        );
        doc.set("spans", Json::Arr(spans));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("bench.round", "", |t| {
            t.span("core.run_program", "ccl", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("obsv.analyze", "ccl", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[1].layer, "core");
        let children = t.spans[1].dur_ns() + t.spans[2].dur_ns();
        assert_eq!(t.self_ns(outer), t.spans[outer].dur_ns() - children);
        assert!(t.total_ms("core.run_program") >= 2.0);
    }
}
