//! The driver's own span recorder: one span around each call into a
//! layer's public function, kept in memory and written out when the run
//! ends. Spans inside the product are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `calls > 1` marks an aggregated span: many
/// short calls (step 4 inside step 3's emit callback) folded into one
/// span whose length is their summed busy time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub calls: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Records a tree of spans on one thread; the open spans form a stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_us: now,
            end_us: now,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.now_us();
    }

    /// Adds an aggregated child of `parent`: `calls` calls that together
    /// kept the thread busy for `busy_us`, the first starting at
    /// `start_us`.
    pub fn aggregate(
        &mut self,
        parent: usize,
        name: &'static str,
        start_us: u64,
        busy_us: u64,
        calls: u64,
    ) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_us,
            end_us: start_us + busy_us,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval its child spans
    /// cover.
    pub fn self_us(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                c.end_us
                    .min(s.end_us)
                    .saturating_sub(c.start_us.max(s.start_us))
            })
            .sum();
        s.duration_us().saturating_sub(covered)
    }

    /// Summed self time, in milliseconds, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        let us: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_us(s.id))
            .sum();
        us as f64 / 1e3
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"name\":\"{}\",\
                 \"start_us\":{},\"end_us\":{},\"calls\":{}}}",
                s.id, s.name, s.start_us, s.end_us, s.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_us,
            end_us,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let mut r = Recorder::new();
        r.spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Aggregated child whose summed busy time runs past the parent.
            span(2, Some(0), 90, 130),
            span(3, Some(1), 10, 15),
        ];
        assert_eq!(r.self_us(0), 100 - 30 - 10);
        assert_eq!(r.self_us(1), 25);
        assert_eq!(r.self_us(3), 5);
    }

    #[test]
    fn enter_exit_nest_and_aggregate_attaches_to_its_parent() {
        let mut r = Recorder::new();
        let outer = r.enter("outer");
        let inner = r.enter("inner");
        r.exit(inner);
        r.aggregate(outer, "folded", r.spans[outer].start_us, 3, 12);
        r.exit(outer);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(outer));
        assert_eq!((s[2].calls, s[2].duration_us()), (12, 3));
        assert!(s[0].end_us >= s[1].end_us);
    }
}
