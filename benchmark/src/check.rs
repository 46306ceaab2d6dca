//! Output checks run on every operation. None of them is a golden hash:
//! a change that legitimately alters the `-m 8` bytes must stay landable,
//! so the checks are properties (well-formed, ordered, identical across
//! runs and thread counts) and recall against the generator's own truth.

use std::collections::{HashMap, HashSet};

use oris_eval::M8Record;
use oris_seqio::Bank;

use crate::gen::{Inputs, ReadOrigin, Truth};

/// The product's default e-value threshold (`-e`), which no run overrides.
pub const EVALUE_THRESHOLD: f64 = 1e-3;
/// `genome_null` shares no homology; chance records beyond this many mean
/// the statistics are off.
pub const NULL_MAX_RECORDS: usize = 10;

fn lengths(bank: &Bank) -> HashMap<&str, usize> {
    bank.records()
        .iter()
        .map(|r| (r.name.as_str(), r.len))
        .collect()
}

/// Parses an `-m 8` file and checks every record: twelve parseable
/// fields, e-value at or under the threshold, coordinates inside the named
/// sequences. Then the order: e-values never decrease within a query
/// (the whole file for a bank-vs-bank run, each read's segment for a
/// batch, segments in batch order). The file carries e-values to three
/// digits, so that is the precision `total_order` can be checked to.
pub fn well_formed(bytes: &[u8], inputs: &Inputs) -> Result<Vec<M8Record>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("output is not UTF-8: {e}"))?;
    let qlen = lengths(&inputs.query);
    let slen = lengths(&inputs.subject);
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("record {}: {msg}: {line}", i + 1);
        let r = M8Record::parse(line).ok_or_else(|| at("unparseable".into()))?;
        if r.evalue.is_nan() || r.evalue > EVALUE_THRESHOLD {
            return Err(at(format!("e-value over {EVALUE_THRESHOLD}")));
        }
        let ql = *qlen
            .get(r.qid.as_str())
            .ok_or_else(|| at("unknown query id".into()))?;
        let sl = *slen
            .get(r.sid.as_str())
            .ok_or_else(|| at("unknown subject id".into()))?;
        if !(1 <= r.qstart && r.qstart <= r.qend && r.qend <= ql) {
            return Err(at(format!("query interval outside 1..={ql}")));
        }
        if !(1 <= r.sstart && r.sstart <= r.send && r.send <= sl) {
            return Err(at(format!("subject interval outside 1..={sl}")));
        }
        records.push(r);
    }
    check_order(&records, inputs)?;
    Ok(records)
}

fn check_order(records: &[M8Record], inputs: &Inputs) -> Result<(), String> {
    // Position in the batch of the read whose segment is being walked.
    let batch = inputs.query.records();
    let mut at = 0;
    for (i, r) in records.iter().enumerate() {
        let starts_segment = inputs.db_batch && (i == 0 || records[i - 1].qid != r.qid);
        if starts_segment {
            // Reads without a hit leave no segment; a name may come
            // again later in the batch (a resubmitted read).
            let from = if i == 0 { 0 } else { at + 1 };
            at = (from..batch.len())
                .find(|&p| batch[p].name == r.qid)
                .ok_or_else(|| format!("record {}: query out of batch order", i + 1))?;
        } else if i > 0 && records[i - 1].evalue > r.evalue {
            return Err(format!("record {}: e-value decreases", i + 1));
        }
    }
    Ok(())
}

/// Planted homologies recovered / planted, from the generator's truth
/// table. Exact for a given seed.
pub fn planted_recall(records: &[M8Record], inputs: &Inputs) -> f64 {
    match &inputs.truth {
        Truth::None | Truth::NoHomology => 1.0,
        Truth::AllPairs => {
            let found: HashSet<(&str, &str)> = records
                .iter()
                .map(|r| (r.qid.as_str(), r.sid.as_str()))
                .collect();
            let all = inputs.query.num_sequences() * inputs.subject.num_sequences();
            found.len() as f64 / all as f64
        }
        Truth::Reads(origins) => {
            // A resubmitted read shares its name and its origin.
            let reads = inputs.query.records();
            let origin_of: HashMap<&str, &ReadOrigin> =
                reads.iter().map(|r| r.name.as_str()).zip(origins).collect();
            let recovered: HashSet<&str> = records
                .iter()
                .filter(|r| {
                    let o = origin_of[r.qid.as_str()];
                    let overlap = (r.send.min(o.end) + 1).saturating_sub(r.sstart.max(o.start));
                    r.sid == o.subject && 2 * overlap > o.end - o.start
                })
                .map(|r| r.qid.as_str())
                .collect();
            let hits = reads.iter().filter(|r| recovered.contains(r.name.as_str()));
            hits.count() as f64 / reads.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;

    fn bank(names: &[&str], len: usize) -> Bank {
        let mut b = BankBuilder::new();
        for n in names {
            b.push_codes(n, &vec![0u8; len]);
        }
        b.finish()
    }

    fn inputs(truth: Truth, db_batch: bool) -> Inputs {
        Inputs {
            query: bank(&["q0", "q1"], 100),
            subject: bank(&["s0", "s1"], 200),
            truth,
            db_batch,
        }
    }

    fn line(q: &str, s: &str, qend: usize, sstart: usize, send: usize, e: &str) -> String {
        format!("{q}\t{s}\t100.00\t50\t0\t0\t1\t{qend}\t{sstart}\t{send}\t{e}\t99.0\n")
    }

    #[test]
    fn accepts_ordered_output_and_rejects_each_defect() {
        let plain = inputs(Truth::None, false);
        let good =
            line("q1", "s0", 50, 1, 50, "1.00e-20") + &line("q0", "s1", 50, 1, 50, "1.00e-9");
        assert_eq!(well_formed(good.as_bytes(), &plain).unwrap().len(), 2);
        let reversed =
            line("q0", "s1", 50, 1, 50, "1.00e-9") + &line("q1", "s0", 50, 1, 50, "1.00e-20");
        assert!(well_formed(reversed.as_bytes(), &plain).is_err());
        // A batch orders within each query and queries by batch position.
        let batch = inputs(Truth::None, true);
        assert!(well_formed(reversed.as_bytes(), &batch).is_ok());
        assert!(well_formed(good.as_bytes(), &batch).is_err());
        for bad in [
            line("q0", "s0", 101, 1, 50, "1.00e-9"),
            line("q0", "s0", 50, 151, 201, "1.00e-9"),
            line("q0", "s0", 50, 1, 50, "1.00e-2"),
            line("q9", "s0", 50, 1, 50, "1.00e-9"),
            "q0\ts0\tgarbage\n".to_string(),
        ] {
            assert!(well_formed(bad.as_bytes(), &plain).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_resubmitted_read_gets_its_own_segment_in_batch_order() {
        let batch = Inputs {
            query: bank(&["a", "b", "a"], 100),
            ..inputs(Truth::None, true)
        };
        let seg = |q: &str| line(q, "s0", 50, 1, 50, "1.00e-9");
        assert!(well_formed((seg("a") + &seg("b") + &seg("a")).as_bytes(), &batch).is_ok());
        assert!(well_formed((seg("b") + &seg("a")).as_bytes(), &batch).is_ok());
        assert!(well_formed((seg("b") + &seg("a") + &seg("b")).as_bytes(), &batch).is_err());
    }

    #[test]
    fn recall_follows_the_truth_table() {
        let origin = |start, end| ReadOrigin {
            subject: "s0".into(),
            start,
            end,
        };
        let reads = inputs(Truth::Reads(vec![origin(1, 100), origin(101, 200)]), true);
        // q0 overlaps half its origin; q1 hits the wrong record, then too little.
        let out = line("q0", "s0", 50, 51, 120, "1.00e-9")
            + &line("q1", "s1", 50, 101, 200, "1.00e-9")
            + &line("q1", "s0", 50, 1, 149, "1.00e-9");
        let recs = M8Record::parse_many(&out);
        assert_eq!(planted_recall(&recs, &reads), 0.5);
        assert_eq!(planted_recall(&recs, &inputs(Truth::AllPairs, false)), 0.75);
        assert_eq!(planted_recall(&recs, &inputs(Truth::None, false)), 1.0);
    }
}
