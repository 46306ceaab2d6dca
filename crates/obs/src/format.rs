//! Exposition: `--metrics-json` and the `--stats` stderr block shared by
//! every CLI mode.

use std::fmt::Display;
use std::fmt::Write as _;

use crate::metrics::{Snapshot, BUCKET_BOUNDS};
use crate::trace::{push_escaped, push_json_f64};

/// Render a snapshot as the `--metrics-json` document:
///
/// ```json
/// {"counters":{"queries_total":4},
///  "gauges":{"cache_bytes":1024.0},
///  "histograms":{"query_seconds":{"sum":0.5,"count":3,
///    "buckets":[{"le":1e-6,"count":0},...,{"le":"+Inf","count":3}]}}}
/// ```
///
/// Bucket counts are cumulative (Prometheus `le` semantics); the
/// `"+Inf"` bound is spelled as a string because JSON has no infinity.
pub fn render_json(s: &Snapshot) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_key(&mut out, k);
        let _ = write!(out, "{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_key(&mut out, k);
        push_json_f64(&mut out, *v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in s.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_key(&mut out, k);
        out.push_str("{\"sum\":");
        push_json_f64(&mut out, h.sum());
        let _ = write!(out, ",\"count\":{},\"buckets\":[", h.count());
        let cum = h.cumulative();
        for (j, c) in cum.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"le\":");
            match BUCKET_BOUNDS.get(j) {
                Some(b) => push_json_f64(&mut out, *b),
                None => out.push_str("\"+Inf\""),
            }
            let _ = write!(out, ",\"count\":{c}}}");
        }
        out.push_str("]}");
    }
    out.push_str("}}\n");
    out
}

fn push_json_key(out: &mut String, k: &str) {
    out.push('"');
    push_escaped(out, k);
    out.push_str("\":");
}

/// The one `--stats` formatter: an ordered list of `key=value` fields
/// rendered as a single space-separated stderr line, so plain, index,
/// db, and batch runs all print the same schema. Seconds fields go
/// through [`StatsBlock::secs`] (three decimals, `_secs` suffix by
/// convention at the call site); counts through [`StatsBlock::field`].
#[derive(Debug, Default)]
pub struct StatsBlock {
    fields: Vec<(String, String)>,
}

impl StatsBlock {
    /// Start a block: every line leads with `engine=` and `mode=`.
    pub fn new(engine: &str, mode: &str) -> StatsBlock {
        let mut b = StatsBlock::default();
        b.field("engine", engine);
        b.field("mode", mode);
        b
    }

    /// Append `key=value`.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut StatsBlock {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a seconds measurement, three decimals.
    pub fn secs(&mut self, key: &str, secs: f64) -> &mut StatsBlock {
        self.fields.push((key.to_string(), format!("{secs:.3}")));
        self
    }

    /// Render as one space-separated line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.fields.len() * 16);
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{names, Registry};

    fn sample() -> Snapshot {
        let r = Registry::default();
        r.count(names::QUERIES_TOTAL, 4);
        r.set_gauge(names::CACHE_BYTES, 1024.0);
        r.observe_secs(names::QUERY_SECONDS, 0.5);
        r.observe_secs(names::QUERY_SECONDS, 2e-6);
        r.snapshot()
    }

    #[test]
    fn json_contains_every_instrument_and_balances() {
        let s = sample();
        let j = render_json(&s);
        assert!(j.contains("\"queries_total\":4"), "{j}");
        assert!(j.contains("\"cache_bytes\":1024.0"), "{j}");
        assert!(j.contains("\"query_seconds\":{"), "{j}");
        assert!(j.contains("\"le\":\"+Inf\",\"count\":2"), "{j}");
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{j}");
    }

    #[test]
    fn stats_block_renders_space_separated_schema() {
        let mut b = StatsBlock::new("oris", "db");
        b.field("volumes", 2).field("cache_hits", 9);
        b.secs("attach_secs", 0.12345);
        assert_eq!(
            b.render(),
            "engine=oris mode=db volumes=2 cache_hits=9 attach_secs=0.123"
        );
    }
}
