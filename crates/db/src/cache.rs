//! The result cache: a repeated query costs no volume search.
//!
//! A serving deployment sees the same queries over and over (heavy
//! traffic is repetitive traffic), and within one session a query's answer
//! is a pure function of the query bank's content: the session's volumes
//! and its configuration never change under it. [`ResultCache`] memoizes
//! that function — each entry is one query's whole answer ([`CachedQuery`]:
//! every searched volume's records, the query's own step-3/4
//! [`PipelineStats`] and the volumes its search covered), keyed by the
//! query's [`bank_fingerprint`] — under a **bounded-memory LRU**: memory
//! never grows with query-history length, and the entry given up first is
//! the least recently used one.
//!
//! Correctness contract (enforced by `DbSession`, tested in
//! `tests/db_equivalence.rs` and `crates/db/tests/serving.rs`):
//!
//! * A hit replays **byte-identical** records: an entry stores the exact
//!   records a fresh search gathers, and the sink's boundary sort under
//!   `M8Record::total_order` makes arrival order irrelevant — so cached
//!   and cold output bytes are equal.
//! * Only a *completed* search populates the cache. A deadline-aborted
//!   search inserts nothing (its partial records are discarded with the
//!   chunk's answers).
//! * A quarantine empties the cache ([`ResultCache::clear`]): an answer
//!   that covered the failed volume is never served afterwards.
//! * Staleness matches the attach cache's contract: a cached entry (like
//!   a cached attached volume) assumes the volume's files are not swapped
//!   out from under an open session.
//!
//! Determinism note: the map is a `BTreeMap` (ordered, deterministic
//! iteration) and the LRU order is an explicit queue — no hash-iteration
//! order can reach a result path, keeping the `oris-lint` det-hash rule
//! trivially satisfied.

use std::collections::BTreeMap;

use oris_core::{M8Record, PipelineStats};
use oris_seqio::Bank;

/// One query's whole answer: what its search merged into the sink.
#[derive(Debug, Clone)]
pub struct CachedQuery {
    /// The searched volumes' records, in ascending volume order and, within
    /// a volume, in arrival order.
    pub records: Vec<M8Record>,
    /// The query's own step-3/4 counters over those volumes (replayed on a
    /// hit so merged stats keep counting cached work). A query is searched
    /// in a chunk of queries, and step 2's counters belong to the chunk, so
    /// they are not part of an entry.
    pub stats: PipelineStats,
    /// The volumes the search covered, ascending.
    pub searched: Vec<usize>,
    /// Approximate heap bytes this entry charges against the budget.
    bytes: usize,
}

/// Session-lifetime cache counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Queries the cache answered.
    pub hits: u64,
    /// Queries it did not (each led to a search of every live volume).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the memory bound (LRU order).
    pub evictions: u64,
    /// Entries dropped by [`ResultCache::clear`].
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently charged.
    pub bytes: usize,
}

/// Bounded-memory LRU over whole query answers. See the
/// [module docs](self) for the correctness contract.
#[derive(Debug, Default)]
pub struct ResultCache {
    /// Memory budget in bytes (entry payloads, approximate).
    capacity: usize,
    /// Entries by query fingerprint. `BTreeMap`, not `HashMap`:
    /// deterministic iteration order, so nothing about this structure can
    /// leak nondeterminism into a result path (and the det-hash lint stays
    /// clean).
    entries: BTreeMap<u64, CachedQuery>,
    /// LRU order, least recently used first. Touch = move to back. The
    /// queue is small (one element per resident entry), so the linear
    /// remove on touch is cheaper than a second ordered index.
    order: Vec<u64>,
    counters: CacheCounters,
}

impl ResultCache {
    /// A cache charging at most `capacity_bytes` of entry payload.
    pub fn new(capacity_bytes: usize) -> ResultCache {
        ResultCache {
            capacity: capacity_bytes,
            ..ResultCache::default()
        }
    }

    /// Looks up the query with fingerprint `query`, counting a hit or miss
    /// and refreshing the entry's LRU position on a hit.
    pub fn lookup(&mut self, query: u64) -> Option<&CachedQuery> {
        if self.entries.contains_key(&query) {
            self.counters.hits += 1;
            self.touch(query);
        } else {
            self.counters.misses += 1;
        }
        self.entries.get(&query)
    }

    /// Inserts a completed search's answer, evicting least-recently-used
    /// entries until the budget holds. An entry larger than the whole
    /// budget is not stored: the bound is never exceeded, not even
    /// transiently.
    pub fn insert(
        &mut self,
        query: u64,
        records: Vec<M8Record>,
        stats: PipelineStats,
        searched: Vec<usize>,
    ) {
        let bytes = entry_bytes(&records, &searched);
        if bytes > self.capacity {
            return;
        }
        if let Some(old) = self.entries.remove(&query) {
            // Replace, don't double-charge: the bound holds whatever the
            // caller inserts.
            self.counters.bytes -= old.bytes;
            self.order.retain(|&q| q != query);
        }
        while self.counters.bytes + bytes > self.capacity && !self.order.is_empty() {
            let victim = self.order.remove(0);
            if let Some(e) = self.entries.remove(&victim) {
                self.counters.bytes -= e.bytes;
                self.counters.evictions += 1;
            }
        }
        self.counters.bytes += bytes;
        self.counters.insertions += 1;
        self.order.push(query);
        self.entries.insert(
            query,
            CachedQuery {
                records,
                stats,
                searched,
                bytes,
            },
        );
    }

    /// Drops every entry — called the moment a volume is quarantined, so
    /// an answer that covered a volume which failed is never served
    /// afterwards.
    pub fn clear(&mut self) {
        self.counters.invalidations += self.entries.len() as u64;
        self.counters.bytes = 0;
        self.entries.clear();
        self.order.clear();
    }

    /// Session-lifetime counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.entries.len(),
            ..self.counters
        }
    }

    /// Moves `query` to the back of the LRU queue.
    fn touch(&mut self, query: u64) {
        if let Some(pos) = self.order.iter().position(|&q| q == query) {
            let q = self.order.remove(pos);
            self.order.push(q);
        }
    }
}

/// Approximate heap bytes of one entry.
fn entry_bytes(records: &[M8Record], searched: &[usize]) -> usize {
    let strings: usize = records.iter().map(|r| r.qid.len() + r.sid.len()).sum();
    std::mem::size_of_val(records)
        + strings
        + std::mem::size_of_val(searched)
        + std::mem::size_of::<CachedQuery>()
}

/// Content fingerprint of a bank, by FNV-1a (the constants of
/// `oris_index::persist::fnv1a`): packed code data **plus** record names
/// and boundaries. The manifest's `bank_hash` covers the data alone; a
/// cache key must also distinguish banks whose sequences agree but whose
/// names differ, because record names appear verbatim in the output
/// (`qid`/`sid` columns).
pub fn bank_fingerprint(bank: &Bank) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bank.data());
    h.u64(bank.num_sequences() as u64);
    for r in bank.records() {
        h.bytes(r.name.as_bytes());
        // Separator + boundaries: names are free text, so frame them.
        h.bytes(&[0xFF]);
        h.u64(r.start as u64);
        h.u64(r.len as u64);
    }
    h.0
}

/// Incremental FNV-1a, so a multi-part fingerprint needs no intermediate
/// buffer.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;

    fn rec(sid: &str, evalue: f64) -> M8Record {
        M8Record {
            qid: "q".into(),
            sid: sid.into(),
            pident: 100.0,
            length: 20,
            mismatch: 0,
            gapopen: 0,
            qstart: 1,
            qend: 20,
            sstart: 1,
            send: 20,
            evalue,
            bitscore: 40.0,
        }
    }

    /// Inserts `records` as query `q`'s answer over volumes 0 and 1.
    fn put(c: &mut ResultCache, q: u64, records: Vec<M8Record>) {
        c.insert(q, records, PipelineStats::default(), vec![0, 1]);
    }

    #[test]
    fn hit_replays_exact_records_and_counts() {
        let mut c = ResultCache::new(1 << 20);
        let records = vec![rec("s1", 1e-5), rec("s0", 1e-9)];
        put(&mut c, 1, records.clone());
        assert!(c.lookup(2).is_none(), "different query must miss");
        let hit = c.lookup(1).expect("hit");
        assert_eq!(hit.records, records);
        assert_eq!(hit.searched, [0, 1]);
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let one = entry_bytes(&[rec("s", 1.0)], &[0, 1]);
        // Room for exactly two single-record entries.
        let mut c = ResultCache::new(2 * one);
        put(&mut c, 1, vec![rec("a", 1.0)]);
        put(&mut c, 2, vec![rec("b", 1.0)]);
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(c.lookup(1).is_some());
        put(&mut c, 3, vec![rec("c", 1.0)]);
        assert!(c.lookup(2).is_none(), "LRU entry evicted");
        assert!(c.lookup(1).is_some(), "touched entry survives");
        assert!(c.lookup(3).is_some());
        let n = c.counters();
        assert_eq!(n.evictions, 1);
        assert_eq!(n.entries, 2);
        assert!(n.bytes <= 2 * one);
    }

    #[test]
    fn oversized_entry_is_never_stored() {
        let mut c = ResultCache::new(8);
        put(&mut c, 1, vec![rec("s", 1.0)]);
        assert_eq!(c.counters().entries, 0);
        assert_eq!(c.counters().bytes, 0);
        assert!(c.lookup(1).is_none());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = ResultCache::new(0);
        put(&mut c, 1, Vec::new());
        assert_eq!(c.counters().entries, 0);
    }

    #[test]
    fn clear_drops_every_entry_and_counts_each() {
        let mut c = ResultCache::new(1 << 20);
        put(&mut c, 1, vec![rec("a", 1.0)]);
        put(&mut c, 2, vec![rec("b", 1.0)]);
        put(&mut c, 3, vec![rec("c", 1.0)]);
        assert!(c.lookup(2).is_some());
        c.clear();
        let n = c.counters();
        assert_eq!((n.invalidations, n.entries, n.bytes), (3, 0, 0));
        assert!((1..=3).all(|q| c.lookup(q).is_none()));
        // The emptied cache takes entries again, from a zero charge.
        put(&mut c, 1, vec![rec("a", 1.0)]);
        let n = c.counters();
        assert_eq!(n.entries, 1);
        assert_eq!(n.bytes, entry_bytes(&[rec("a", 1.0)], &[0, 1]));
    }

    #[test]
    fn reinserting_a_live_key_replaces_without_double_charging() {
        let mut c = ResultCache::new(1 << 20);
        put(&mut c, 1, vec![rec("a", 1.0)]);
        let before = c.counters().bytes;
        put(&mut c, 1, vec![rec("b", 1.0)]);
        assert_eq!(c.counters().bytes, before);
        assert_eq!(c.counters().entries, 1);
        assert_eq!(c.lookup(1).unwrap().records[0].sid, "b");
    }

    #[test]
    fn bank_fingerprint_sees_names_not_just_data() {
        let mk = |name: &str| {
            let mut b = BankBuilder::new();
            b.push_str(name, "ACGTACGTACGT").unwrap();
            b.finish()
        };
        let a = mk("s0");
        let b = mk("renamed");
        assert_eq!(a.data(), b.data(), "same packed data by construction");
        assert_ne!(bank_fingerprint(&a), bank_fingerprint(&b));
        assert_eq!(bank_fingerprint(&a), bank_fingerprint(&mk("s0")));
    }
}
