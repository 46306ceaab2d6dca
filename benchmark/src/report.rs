//! What a run leaves behind, all of it JSON documents: the *pass
//! document* one pass of one workload produces, the one-line contract
//! result derived from it, the *result document* (`out/results.json`) a
//! suite merges its passes into, the printed table, the history line and
//! `compare`.

use std::io::Write;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{per_layer_values, Better, END_TO_END, PER_LAYER};
use crate::run::{EndToEnd, Ops};
use crate::staged::Layers;
use crate::stats::Summary;

/// One pass of one workload: what the pass's own process writes to
/// `--result-file` and the suite merges into the result document.
pub fn pass_json(
    workload: &str,
    gated_threads: usize,
    ops: &Ops,
    end_to_end: Option<&EndToEnd>,
    per_layer: Option<&Layers>,
) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::str(workload)),
        ("gated_threads".to_string(), Json::Num(gated_threads as f64)),
        ("ops".to_string(), Json::Num(ops.attempted as f64)),
        ("failed_ops".to_string(), Json::Num(ops.failed as f64)),
        (
            "errors".to_string(),
            Json::Arr(ops.errors.iter().map(Json::str).collect()),
        ),
    ];
    if let Some(e) = end_to_end {
        let metrics = END_TO_END.iter().map(|m| {
            let (_, s) = e
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("every end-to-end metric is measured on every workload");
            let summary = Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(m.unit)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("n", Json::Num(s.n as f64)),
            ]);
            (m.name, summary)
        });
        fields.extend([
            ("records".to_string(), Json::Num(e.records as f64)),
            (
                "output_fnv".to_string(),
                Json::str(format!("{:016x}", e.output_fnv)),
            ),
            ("end_to_end".to_string(), Json::obj(metrics)),
        ]);
    }
    if let Some(layers) = per_layer {
        let metrics = per_layer_values(layers).into_iter().map(|(m, v)| {
            let value = Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]);
            (m.name, value)
        });
        fields.push(("per_layer".to_string(), Json::obj(metrics)));
    }
    Json::Obj(fields)
}

/// A numeric field, 0 when absent.
fn count(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// The last line of standard output under the driver's contract: the
/// end-to-end metrics of a pass with tracing off, the per-layer metrics
/// of a traced one, each as `{value, unit}`.
pub fn contract_line(pass: &Json) -> String {
    let table = pass.get("end_to_end").or(pass.get("per_layer"));
    let table = table.map(Json::fields).unwrap_or_default();
    let metrics = table.iter().map(|(name, m)| {
        let keep = ["value", "unit"].map(|k| (k, m.get(k).cloned().unwrap_or(Json::Null)));
        (name.as_str(), Json::obj(keep))
    });
    Json::obj([
        ("correct", Json::Bool(count(pass, "failed_ops") == 0.0)),
        ("attempted", Json::Num(count(pass, "ops"))),
        ("failed", Json::Num(count(pass, "failed_ops"))),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// One workload's entry in the result document: its two passes merged.
pub fn merge_passes(end_to_end: &Json, traced: &Json) -> Json {
    let errors = |p: &Json| match p.get("errors") {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    };
    let sum = |key: &str| Json::Num(count(end_to_end, key) + count(traced, key));
    let mut fields = vec![
        ("ops".to_string(), sum("ops")),
        ("failed_ops".to_string(), sum("failed_ops")),
        (
            "errors".to_string(),
            Json::Arr([errors(end_to_end), errors(traced)].concat()),
        ),
    ];
    let carried = [
        (end_to_end, "gated_threads"),
        (end_to_end, "records"),
        (end_to_end, "output_fnv"),
        (end_to_end, "end_to_end"),
        (traced, "per_layer"),
    ];
    for (pass, key) in carried {
        if let Some(v) = pass.get(key) {
            fields.push((key.to_string(), v.clone()));
        }
    }
    Json::Obj(fields)
}

/// Facts about the run as a whole.
pub struct RunInfo {
    pub commit: String,
    pub seed: u64,
    pub nproc: usize,
    pub threads: usize,
    pub seconds: f64,
    pub smoke: bool,
}

/// The result document of a suite run.
pub fn results_json(info: &RunInfo, workloads: Vec<(&str, Json)>) -> Json {
    Json::obj([
        ("commit", Json::str(&info.commit)),
        ("seed", Json::Num(info.seed as f64)),
        ("nproc", Json::Num(info.nproc as f64)),
        ("threads", Json::Num(info.threads as f64)),
        ("seconds", Json::Num(info.seconds)),
        ("smoke", Json::Bool(info.smoke)),
        ("workloads", Json::obj(workloads)),
    ])
}

fn workloads_of(doc: &Json) -> &[(String, Json)] {
    doc.get("workloads").map(Json::fields).unwrap_or_default()
}

/// Total failed operations in a result document.
pub fn failed_ops(doc: &Json) -> f64 {
    let failed = |(_, w): &(String, Json)| count(w, "failed_ops");
    workloads_of(doc).iter().map(failed).sum()
}

/// Prints every metric of every workload by name, with its unit.
pub fn print_table(doc: &Json) {
    let smoke = doc.get("smoke") == Some(&Json::Bool(true));
    println!(
        "commit {}  seed {}  nproc {}  threads {}  {} s per pass{}",
        text(doc, "commit"),
        count(doc, "seed"),
        count(doc, "nproc"),
        count(doc, "threads"),
        count(doc, "seconds"),
        if smoke {
            "  (smoke: 1/20 size, not a measurement)"
        } else {
            ""
        }
    );
    for (name, w) in workloads_of(doc) {
        println!(
            "\n== {name}  gated at -t {}  ops {}  failed_ops {}  records {}  output_fnv {}",
            count(w, "gated_threads"),
            count(w, "ops"),
            count(w, "failed_ops"),
            count(w, "records"),
            text(w, "output_fnv"),
        );
        for m in &END_TO_END {
            let Some(v) = w.get("end_to_end").and_then(|t| t.get(m.name)) else {
                continue;
            };
            println!(
                "   {:<30} {:>14.4} {:<7} min {:.4} max {:.4} n {}  ({} is better, bound {}%)",
                m.name,
                count(v, "value"),
                m.unit,
                count(v, "min"),
                count(v, "max"),
                count(v, "n"),
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        for m in &PER_LAYER {
            let Some(v) = w.get("per_layer").and_then(|t| t.get(m.name)) else {
                continue;
            };
            println!(
                "   {:<30} {:>14.4} {:<7} ({} is better)",
                m.name,
                count(v, "value"),
                m.unit,
                m.better.as_str()
            );
        }
    }
}

/// Appends the run's end-to-end medians to the history file, one line
/// per recorded run.
pub fn append_history(path: &Path, doc: &Json) -> std::io::Result<()> {
    let workloads = workloads_of(doc).iter().map(|(name, w)| {
        let table = w.get("end_to_end").map(Json::fields).unwrap_or_default();
        let median = |(metric, v): &(String, Json)| (metric.clone(), Json::Num(count(v, "value")));
        (name.clone(), Json::Obj(table.iter().map(median).collect()))
    });
    let keep = |key: &str| (key.to_string(), doc.get(key).cloned().unwrap_or(Json::Null));
    let mut line: Vec<(String, Json)> = ["commit", "seed", "nproc", "threads"].map(keep).into();
    line.push(("workloads".to_string(), Json::Obj(workloads.collect())));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", Json::Obj(line).render())
}

/// `compare`'s verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `worse` when B's median is worse than A's by more than `bound` (a
/// share of A's median). When either side's own run-to-run spread (the
/// distance between its quartiles) is wider than the bound the medians
/// cannot settle it: the pair is `unresolved` unless the two min–max
/// ranges are disjoint, every run of one side beating every run of the
/// other.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if (a.spread() > bound || b.spread() > bound) && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn summary_from(doc: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Summary {
        median: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

/// Compares two result documents pair by pair; returns the printed table
/// and whether any pair is `worse` (or missing on one side).
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "A = {} (seed {})   B = {} (seed {})   ratio = B median / A median\n\
         {:<16} {:<15} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        text(a, "commit"),
        count(a, "seed"),
        text(b, "commit"),
        count(b, "seed"),
        "workload",
        "metric",
        "A median",
        "B median",
        "ratio",
        "bound",
    );
    let mut any_worse = false;
    for (workload, _) in workloads_of(a) {
        for m in &END_TO_END {
            let sides = (
                summary_from(a, workload, m.name),
                summary_from(b, workload, m.name),
            );
            let (Some(sa), Some(sb)) = sides else {
                out += &format!("{workload:<16} {:<15} missing on one side\n", m.name);
                any_worse = true;
                continue;
            };
            let v = verdict(&sa, &sb, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            out += &format!(
                "{workload:<16} {:<15} {:>12.4} {:>12.4} {:>8.4} {:>5.0}%  {}\n",
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.bound * 100.0,
                v.as_str()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A summary whose quartiles sit halfway between median and range.
    fn summary(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1: (median + min) / 2.0,
            q3: (median + max) / 2.0,
            min,
            max,
            n: 5,
        }
    }

    /// The two pass documents of one workload; the traced pass carries a
    /// failed operation.
    fn passes(wall: Summary) -> (Json, Json) {
        let other = summary(2.0, 1.9, 2.1);
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, if m.name == "wall_s" { wall } else { other }))
            .collect();
        let e = EndToEnd {
            metrics,
            records: 42,
            output_fnv: 0xabc,
        };
        let ops = Ops {
            attempted: 9,
            failed: 0,
            errors: vec![],
        };
        let traced_ops = Ops {
            attempted: 4,
            failed: 1,
            errors: vec!["staged run: differs".into()],
        };
        let layers = Layers::from([("step2.ms", 12.5)]);
        (
            pass_json("est_x_est", 2, &ops, Some(&e), None),
            pass_json("est_x_est", 2, &traced_ops, None, Some(&layers)),
        )
    }

    fn document(wall: Summary) -> Json {
        let info = RunInfo {
            commit: "abc123".into(),
            seed: 1,
            nproc: 2,
            threads: 2,
            seconds: 10.0,
            smoke: false,
        };
        let (e2e, traced) = passes(wall);
        results_json(&info, vec![("est_x_est", merge_passes(&e2e, &traced))])
    }

    #[test]
    fn results_document_round_trips_and_carries_every_metric() {
        let doc = document(summary(2.0, 1.9, 2.1));
        let back = parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
        let w = back.get("workloads").unwrap().get("est_x_est").unwrap();
        assert_eq!((count(w, "ops"), count(w, "failed_ops")), (13.0, 1.0));
        assert_eq!(failed_ops(&back), 1.0);
        let errors = Json::Arr(vec![Json::str("staged run: differs")]);
        assert_eq!(w.get("errors"), Some(&errors));
        assert_eq!(text(w, "output_fnv"), "0000000000000abc");
        assert_eq!(
            w.get("end_to_end").unwrap().fields().len(),
            END_TO_END.len()
        );
        let layers = w.get("per_layer").unwrap();
        assert_eq!(layers.fields().len(), PER_LAYER.len());
        assert_eq!(count(layers.get("step2.ms").unwrap(), "value"), 12.5);
        assert_eq!(count(layers.get("db.open_ms").unwrap(), "value"), 0.0);
        assert_eq!(
            summary_from(&back, "est_x_est", "wall_s"),
            Some(summary(2.0, 1.9, 2.1))
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let (e2e, traced) = passes(summary(2.0, 1.9, 2.1));
        let line = parse(&contract_line(&e2e)).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let wall = Json::obj([("value", Json::Num(2.0)), ("unit", Json::str("s"))]);
        assert_eq!(metrics.get("wall_s"), Some(&wall));
        let line = parse(&contract_line(&traced)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            (count(&line, "attempted"), count(&line, "failed")),
            (4.0, 1.0)
        );
        assert_eq!(line.get("metrics").unwrap().fields().len(), PER_LAYER.len());
    }

    #[test]
    fn history_gains_one_line_of_medians_per_recorded_run() {
        let name = format!("oris-benchmark-history-{}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        append_history(&path, &document(summary(2.0, 1.9, 2.1))).unwrap();
        append_history(&path, &document(summary(3.0, 2.9, 3.1))).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = written.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        let wall = |l: &Json| {
            let w = l.get("workloads").unwrap().get("est_x_est").unwrap();
            count(w, "wall_s")
        };
        assert_eq!((wall(&lines[0]), wall(&lines[1])), (2.0, 3.0));
        assert_eq!(text(&lines[0], "commit"), "abc123");
        assert_eq!(count(&lines[0], "threads"), 2.0);
    }

    #[test]
    fn verdicts() {
        let a = summary(1.0, 0.98, 1.02);
        let v = |b: Summary, better| verdict(&a, &b, better, 0.1);
        // Within the bound, either direction.
        assert_eq!(v(summary(1.09, 1.07, 1.11), Better::Lower), Verdict::Same);
        assert_eq!(v(summary(0.5, 0.49, 0.51), Better::Lower), Verdict::Same);
        // Past the bound with tight spreads.
        assert_eq!(v(summary(1.2, 1.19, 1.21), Better::Lower), Verdict::Worse);
        assert_eq!(v(summary(0.8, 0.79, 0.81), Better::Higher), Verdict::Worse);
        // A quartile spread wider than the bound with overlapping ranges
        // settles nothing…
        assert_eq!(
            v(summary(1.2, 0.9, 1.5), Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            v(summary(1.0, 0.9, 1.5), Better::Lower),
            Verdict::Unresolved
        );
        // …one stray run does not widen the quartiles…
        let stray = Summary {
            max: 1.9,
            ..summary(1.0, 0.98, 1.02)
        };
        assert_eq!(v(stray, Better::Lower), Verdict::Same);
        // …and disjoint ranges settle it whatever the spread.
        assert_eq!(v(summary(1.8, 1.3, 2.3), Better::Lower), Verdict::Worse);
        assert_eq!(v(summary(0.6, 0.3, 0.9), Better::Lower), Verdict::Same);
    }

    #[test]
    fn compare_flags_only_the_worse_pair() {
        let a = document(summary(2.0, 1.9, 2.1));
        let (table, worse) = compare(&a, &a);
        assert!(!worse, "{table}");
        let (table, worse) = compare(&a, &document(summary(3.0, 2.9, 3.1)));
        assert!(worse);
        assert_eq!(table.matches("worse").count(), 1, "{table}");
        assert!(table.contains("1.5000"), "{table}");
    }
}
