//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the run id.  Spans are
//! kept in memory and written out once, at exit.  With tracing off the
//! same `enter`/`exit` calls still time the call but record nothing.

use crate::json;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (the untraced comparison run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: (started - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        Open { index, started }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = (now - self.origin).as_nanos() as u64;
        }
        (now - open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let value = f();
        (value, self.exit(open))
    }

    /// Self time (ms) summed over every span called `name`: each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e6
            })
            .sum()
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json::string(&self.run_id),
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json::string(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"run\": {}, \"spans\": [\n  {}\n]}}\n",
            json::string(&self.run_id),
            spans.join(",\n  ")
        )
    }
}
