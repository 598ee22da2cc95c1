//! The traced run's span ledger.
//!
//! Spans (name, start, end, parent, request id) are recorded by the
//! benchmark around its calls into each layer, kept in memory, and written
//! out as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover; the share of request
//! latency that no self time covers is the ledger's unaccounted
//! fraction.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A served request: its root span (due or call time to completion) and,
/// for coalesced requests, the batch span whose stages it shared.
#[derive(Debug, Clone, Copy)]
struct Request {
    root: usize,
    batch: Option<usize>,
}

pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    requests: Vec<Request>,
}

/// Per-layer self time summed over every request, against the summed
/// request latency.
pub struct Accounts {
    pub latency_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Accounts {
    pub fn unaccounted_frac(&self) -> f64 {
        let covered: u64 = self.self_ns.values().sum();
        1.0 - covered as f64 / (self.latency_ns as f64).max(1.0)
    }
}

impl Ledger {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Nanoseconds since the ledger's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; the span is recorded when `f` returns.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(name, start, end, parent, req);
        r
    }

    /// Opens a span whose end is set later with [`Ledger::close`], so
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    pub fn span(&self, i: usize) -> &Span {
        &self.spans[i]
    }

    /// Registers a served request for the accounts.
    pub fn request(&mut self, root: usize, batch: Option<usize>) {
        self.requests.push(Request { root, batch });
    }

    pub fn requests(&self) -> usize {
        self.requests.len()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e6)
            .collect()
    }

    /// Latencies in ms of every registered request.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| self.spans[r.root].dur() as f64 / 1e6)
            .collect()
    }

    pub fn accounts(&self) -> Accounts {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let self_ns = |i: usize| {
            let covered: u64 = children[i].iter().map(|&c| self.spans[c].dur()).sum();
            self.spans[i].dur().saturating_sub(covered)
        };
        let mut acc = Accounts {
            latency_ns: 0,
            self_ns: BTreeMap::new(),
        };
        for r in &self.requests {
            acc.latency_ns += self.spans[r.root].dur();
            // Everything below the root and below the shared batch span is
            // a layer; the root's and the batch span's own gaps are not.
            let mut stack: Vec<usize> = children[r.root].clone();
            if let Some(b) = r.batch {
                stack.extend(&children[b]);
            }
            while let Some(i) = stack.pop() {
                *acc.self_ns.entry(self.spans[i].name).or_default() += self_ns(i);
                stack.extend(&children[i]);
            }
        }
        acc
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}
