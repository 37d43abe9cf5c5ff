//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each call
//! it makes into a layer's public functions; nothing inside the simulator is
//! instrumented, so tracing cannot move a simulated counter. A disabled
//! tracer costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its id.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.spans[id as usize].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
    }

    /// A tracer for another thread, sharing this one's epoch and switch.
    pub fn child(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends `other`'s spans, its top-level ones as children of
    /// `parent`; returns the id offset they got (the id of `other`'s first
    /// span).
    pub fn absorb(&mut self, other: &Tracer, parent: u32) -> u32 {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: if s.parent == ROOT {
                parent
            } else {
                s.parent + base
            },
            ..*s
        }));
        base
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: u32) -> Option<&Span> {
        self.spans.get(id as usize)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Share of span `window`'s duration covered by its direct children.
    pub fn coverage(&self, window: u32) -> f64 {
        let Some(w) = self.get(window) else {
            return 0.0;
        };
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == window)
            .map(Span::dur)
            .sum();
        covered as f64 / w.dur().max(1) as f64
    }

    /// Self time per layer (ns): each span's duration minus the part its
    /// direct children cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer()).or_insert(0) += s.dur().saturating_sub(c);
        }
        out
    }

    /// Writes the spans from index `from` on, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, from: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// The `p`-quantile (0..=1) of `v` by nearest rank on the sorted values.
pub fn quantile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    s[((s.len() - 1) as f64 * p).round() as usize]
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}
