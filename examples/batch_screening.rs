//! Batch screening: many EST query banks against one prepared subject,
//! streamed through a sink.
//!
//! ```text
//! cargo run --release --example batch_screening
//! ```
//!
//! The paper's *intensive comparison* scenario at its fullest: one
//! subject bank is prepared once ([`Session`]), a stream of query banks
//! runs against it ([`Session::run_batch`]), and each query's records
//! leave through a [`StreamWriter`] the moment the query finishes —
//! peak memory holds one query's working set no matter how long the
//! batch is. The example screens six EST banks, prints the batch totals
//! from the returned [`BatchStats`] (a fixed-size fold — a query's own
//! report comes from [`Session::run`]), and verifies that the streamed
//! bytes equal what the collect-everything path would have produced.

use oris::prelude::*;
use oris_core::M8Writer;

fn main() {
    // One subject, prepared once; six query banks from the same simulated
    // EST gene pool (so every bank finds real homologies).
    let subject = paper_banks(&["EST2"], 0.08).remove(0).bank;
    let query_names = ["EST1", "EST3", "EST4", "EST5", "EST6", "EST7"];
    let queries: Vec<Bank> = query_names
        .iter()
        .map(|name| paper_banks(&[name], 0.04).remove(0).bank)
        .collect();
    let cfg = OrisConfig::default();

    let session = Session::new(&subject, &cfg).expect("valid configuration");

    // --- Streamed: records leave as each query finishes ----------------
    let mut sink = StreamWriter::new(Vec::new());
    let batch = session
        .run_batch(&queries, &mut sink)
        .expect("memory writer cannot fail");
    let streamed = sink.into_inner();

    println!(
        "# batch screening — {} queries, one prepared subject",
        batch.queries()
    );
    // --- Collected: one `Session::run` per query, whose report is that
    // query's own (the batch stats above are their fold) ----------------
    let mut collected = Vec::new();
    let mut m8 = M8Writer::new(&mut collected);
    for (name, q) in query_names.iter().zip(&queries) {
        let r = session.run(q);
        println!(
            "{name}: {} records, {} HSPs, 1 query index build ({} total)",
            r.stats.step4.emitted, r.stats.hsps, r.stats.index_builds,
        );
        for rec in &r.alignments {
            m8.write_record(rec).unwrap();
        }
    }
    println!(
        "\nsubject prepared once: {} build(s), {:.3} s — amortized over {} queries",
        batch.subject.builds,
        batch.subject.build_secs,
        batch.queries(),
    );
    println!(
        "{} records streamed, {} index builds total (subject once + one per query)",
        batch.total_records(),
        batch.total_index_builds(),
    );

    // --- Cross-check: the streamed bytes are the collected bytes -------
    assert_eq!(streamed, collected, "streamed output must match collected");
    println!("\nstreamed output verified byte-identical to the collected path");
}
