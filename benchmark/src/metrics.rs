//! The metric tables: names, units, directions and — for the gated
//! end-to-end metrics — the share of the baseline median by which a
//! metric may get worse before it counts as a regression. `BENCHMARK.json`
//! repeats these tables; a test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The gated metrics. On this 2-vCPU virtual machine the quartile spread
/// of `wall_s` and `cpu_s` over ten seeds is 3–9 % of the median (the
/// host's speed drifts over minutes; longer runs do not average that
/// out), so a tighter time bound than 25 % would flag the machine, not
/// the code. Memory and recall repeat almost exactly and are held tight.
pub const END_TO_END: [EndToEnd; 5] = [
    gated("wall_s", "s", Lower, 0.25),
    gated("cpu_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.05),
    gated("setup_s", "s", Lower, 0.25),
    gated("planted_recall", "ratio", Higher, 0.01),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, reported on every workload; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("seqio.parse_ms", "ms", Lower),
    layer("seqio.parse_mb_per_s", "MB/s", Higher),
    layer("seqio.residues", "count", Lower),
    layer("index.prepare_subject_ms", "ms", Lower),
    layer("index.prepare_query_ms", "ms", Lower),
    layer("index.ns_per_residue", "ns", Lower),
    layer("index.heap_mb", "MB", Lower),
    layer("index.masked_fraction", "ratio", Lower),
    layer("index.prepare_query_us_p50", "us", Lower),
    layer("step2.ms", "ms", Lower),
    layer("step2.pairs", "count", Lower),
    layer("step2.aborted", "count", Higher),
    layer("step2.kept", "count", Lower),
    layer("step2.ns_per_pair", "ns", Lower),
    layer("step2.kept_per_pair", "ratio", Higher),
    layer("step3.ms", "ms", Lower),
    layer("step3.extended", "count", Lower),
    layer("step3.skipped_contained", "count", Higher),
    layer("step3.us_per_extension", "us", Lower),
    layer("step3.alignments_per_hsp", "ratio", Higher),
    layer("step4.ms", "ms", Lower),
    layer("step4.emitted", "count", Higher),
    layer("step4.dropped_by_evalue", "count", Lower),
    layer("step4.us_per_record", "us", Lower),
    layer("step4.emitted_per_alignment", "ratio", Higher),
    layer("sink.sort_ms", "ms", Lower),
    layer("sink.write_ms", "ms", Lower),
    layer("sink.out_mb", "MB", Lower),
    layer("db.makedb_ms", "ms", Lower),
    layer("db.disk_bytes_per_residue", "B/nt", Lower),
    layer("db.open_ms", "ms", Lower),
    layer("db.attach_ms", "ms", Lower),
    layer("db.dispatches", "count", Lower),
    layer("db.records_per_query", "ratio", Higher),
    layer("db.query_us_p50", "us", Lower),
    layer("db.query_us_p99", "us", Lower),
    layer("db.query_us_max", "us", Lower),
    layer("db.cache.hit_ratio", "ratio", Higher),
    layer("db.cache.hit_query_us_p50", "us", Lower),
    layer("db.cache.on_over_off", "ratio", Lower),
    layer("scale.wall_t1_s", "s", Lower),
    layer("scale.par_speedup", "ratio", Higher),
    layer("scale.cpu_over_wall", "ratio", Higher),
    layer("thr.mbp2_per_s", "Mbp2/s", Higher),
    layer("thr.queries_per_s", "1/s", Higher),
    layer("thr.records_per_s", "1/s", Higher),
    layer("trace.staged_ms", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.staged_over_cli", "ratio", Lower),
];

/// Every per-layer metric in table order, 0 for a layer the workload did
/// not exercise.
///
/// # Panics
/// Panics if `layers` carries a name the table does not: a metric that
/// is computed but never reported is a typo, not a feature.
pub fn per_layer_values(
    layers: &std::collections::BTreeMap<&'static str, f64>,
) -> Vec<(&'static PerLayer, f64)> {
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer metric {name} is not in the table"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match spec.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();
        let gated = rows("end_to_end");
        assert_eq!(gated.len(), END_TO_END.len());
        for (row, m) in gated.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(row, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(row, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::gen::WORKLOADS);
    }
}
