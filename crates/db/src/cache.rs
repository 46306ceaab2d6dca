//! The volume-level result cache: repeated queries cost ~0 volume
//! searches.
//!
//! A serving deployment sees the same queries over and over (heavy
//! traffic is repetitive traffic), and a volume's records for a query are
//! a pure function of three things: the query bank's content, the volume
//! bank's content, and the search configuration. [`ResultCache`] memoizes
//! exactly that function — each entry holds one `(query, volume)` pair's
//! staged records plus its [`PipelineStats`], keyed by
//! [`CacheKey`]'s three content fingerprints — under a **bounded-memory
//! LRU**: memory never grows with query-history length, and the entry
//! given up first is the least recently used one.
//!
//! Correctness contract (enforced by `DbSession`, tested in
//! `tests/db_equivalence.rs` and `crates/db/tests/serving.rs`):
//!
//! * A hit replays **byte-identical** records: entries store the exact
//!   per-volume record vector a fresh search would stage, and the sink's
//!   boundary sort under `M8Record::total_order` makes arrival order
//!   irrelevant — so cached and cold output bytes are equal.
//! * Only a *completed* volume search populates the cache. A
//!   deadline-aborted search inserts nothing (its partial records are
//!   discarded with the staging buffer).
//! * A quarantined volume is never served from the cache: the session
//!   checks quarantine before probing, and [`ResultCache::invalidate_volume`]
//!   drops a volume's entries the moment it is quarantined.
//! * Staleness matches the attach cache's contract: a cached entry (like
//!   a cached attached volume) assumes the volume's files are not swapped
//!   out from under an open session. The volume fingerprint is the
//!   manifest's content hash, revalidated on every real attach.
//!
//! Determinism note: the map is a `BTreeMap` (ordered, deterministic
//! iteration) and the LRU order is an explicit queue — no hash-iteration
//! order can reach a result path, keeping the `oris-lint` det-hash rule
//! trivially satisfied.

use std::collections::BTreeMap;

use oris_core::{M8Record, OrisConfig, PipelineStats};
use oris_seqio::Bank;

/// Cache key: the three content fingerprints that fully determine a
/// volume's records for a query, plus the volume's id (fingerprints are
/// content hashes; the id pins the entry to its manifest row so
/// [`ResultCache::invalidate_volume`] can drop a quarantined volume's
/// entries without hashing anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`bank_fingerprint`] of the query bank (data, names, boundaries).
    pub query: u64,
    /// Volume id (dense manifest ordinal).
    pub volume: usize,
    /// The volume's content hash (the manifest's `bank_hash`, verified
    /// against the FASTA and the index file on every real attach).
    pub volume_hash: u64,
    /// [`config_fingerprint`] of the session's effective configuration.
    pub config: u64,
}

/// One cached `(query, volume)` result: the records a fresh search of
/// that volume would stage, plus its pipeline report.
#[derive(Debug, Clone)]
pub struct CachedVolume {
    /// Per-volume records in staging (arrival) order.
    pub records: Vec<M8Record>,
    /// The volume search's pipeline report (replayed on a hit so merged
    /// per-query stats keep counting cached volumes' work).
    pub stats: PipelineStats,
    /// Approximate heap bytes this entry charges against the budget.
    bytes: usize,
}

/// Session-lifetime cache counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes that found a usable entry.
    pub hits: u64,
    /// Probes that found nothing (and led to a real volume search).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the memory bound (LRU order).
    pub evictions: u64,
    /// Entries dropped by [`ResultCache::invalidate_volume`].
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently charged.
    pub bytes: usize,
}

/// Bounded-memory LRU over per-volume query results. See the
/// [module docs](self) for the correctness contract.
#[derive(Debug, Default)]
pub struct ResultCache {
    /// Memory budget in bytes (entry payloads, approximate).
    capacity: usize,
    /// Keyed entries. `BTreeMap`, not `HashMap`: deterministic iteration
    /// order, so nothing about this structure can leak nondeterminism
    /// into a result path (and the det-hash lint stays clean).
    entries: BTreeMap<CacheKey, CachedVolume>,
    /// LRU order, least recently used first. Touch = move to back. The
    /// queue is small (one element per resident entry), so the linear
    /// remove on touch is cheaper than a second ordered index.
    order: Vec<CacheKey>,
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

    /// Looks up `key`, counting a hit or miss and refreshing the entry's
    /// LRU position on a hit.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<&CachedVolume> {
        match self.entries.get(key) {
            Some(_) => {
                self.counters.hits += 1;
                self.touch(key);
                self.entries.get(key)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts a completed volume search's records and stats, evicting
    /// least-recently-used entries until the budget holds. An entry
    /// larger than the whole budget is not stored: the bound is never
    /// exceeded, not even transiently.
    pub fn insert(&mut self, key: CacheKey, records: Vec<M8Record>, stats: PipelineStats) {
        let bytes = entry_bytes(&records);
        if bytes > self.capacity {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            // Re-insert of a live key (e.g. after invalidate+requery
            // races in caller logic): replace, don't double-charge.
            self.counters.bytes -= old.bytes;
            self.order.retain(|k| k != &key);
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
        self.order.push(key);
        self.entries.insert(
            key,
            CachedVolume {
                records,
                stats,
                bytes,
            },
        );
        self.counters.entries = self.entries.len();
    }

    /// Drops every entry belonging to volume `v` — called the moment a
    /// volume is quarantined, so a volume that failed is never served
    /// from the cache afterwards.
    pub fn invalidate_volume(&mut self, v: usize) {
        let victims: Vec<CacheKey> = self
            .order
            .iter()
            .filter(|k| k.volume == v)
            .copied()
            .collect();
        for key in victims {
            if let Some(e) = self.entries.remove(&key) {
                self.counters.bytes -= e.bytes;
                self.counters.invalidations += 1;
            }
        }
        self.order.retain(|k| k.volume != v);
        self.counters.entries = self.entries.len();
    }

    /// Session-lifetime counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.entries.len(),
            ..self.counters
        }
    }

    /// Moves `key` to the back of the LRU queue.
    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

/// Approximate heap bytes of one entry's record payload.
fn entry_bytes(records: &[M8Record]) -> usize {
    let strings: usize = records.iter().map(|r| r.qid.len() + r.sid.len()).sum();
    std::mem::size_of_val(records) + strings + std::mem::size_of::<CachedVolume>()
}

/// Incremental FNV-1a (the same constants as
/// `oris_index::persist::fnv1a`, in fold form so multi-part fingerprints
/// need no intermediate buffer).
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

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Content fingerprint of a bank: packed code data **plus** record names
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

/// Fingerprint of every configuration field that can change what a
/// search emits. Excluded on purpose: `threads` (byte-identical by the
/// workspace's determinism contract — pinned by the `db_equivalence`
/// proptests) and the deadline (a completed search under a deadline is
/// byte-identical to one without).
pub fn config_fingerprint(cfg: &OrisConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(cfg.w as u64);
    h.i64(i64::from(cfg.xdrop_ungapped));
    h.i64(i64::from(cfg.xdrop_gapped));
    h.i64(i64::from(cfg.min_hsp_score));
    h.u64(cfg.evalue_threshold.to_bits());
    h.i64(i64::from(cfg.scheme.matsch));
    h.i64(i64::from(cfg.scheme.mismatch));
    h.i64(i64::from(cfg.scheme.gap_open));
    h.i64(i64::from(cfg.scheme.gap_extend));
    h.u64(u64::from(cfg.filter.code()));
    h.u64(u64::from(cfg.asymmetric));
    h.u64(u64::from(cfg.both_strands));
    match cfg.subject_space {
        oris_core::SubjectSpace::PerSequence => h.u64(0),
        oris_core::SubjectSpace::Database(n) => {
            h.u64(1);
            h.u64(n);
        }
    }
    h.0
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

    fn key(q: u64, v: usize) -> CacheKey {
        CacheKey {
            query: q,
            volume: v,
            volume_hash: 0xabc + v as u64,
            config: 7,
        }
    }

    #[test]
    fn hit_replays_exact_records_and_counts() {
        let mut c = ResultCache::new(1 << 20);
        let records = vec![rec("s1", 1e-5), rec("s0", 1e-9)];
        c.insert(key(1, 0), records.clone(), PipelineStats::default());
        assert!(c.lookup(&key(2, 0)).is_none(), "different query must miss");
        let hit = c.lookup(&key(1, 0)).expect("hit");
        assert_eq!(hit.records, records);
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let one = entry_bytes(&[rec("s", 1.0)]);
        // Room for exactly two single-record entries.
        let mut c = ResultCache::new(2 * one);
        c.insert(key(1, 0), vec![rec("a", 1.0)], PipelineStats::default());
        c.insert(key(2, 0), vec![rec("b", 1.0)], PipelineStats::default());
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(c.lookup(&key(1, 0)).is_some());
        c.insert(key(3, 0), vec![rec("c", 1.0)], PipelineStats::default());
        assert!(c.lookup(&key(2, 0)).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(1, 0)).is_some(), "touched entry survives");
        assert!(c.lookup(&key(3, 0)).is_some());
        let n = c.counters();
        assert_eq!(n.evictions, 1);
        assert_eq!(n.entries, 2);
        assert!(n.bytes <= 2 * one);
    }

    #[test]
    fn oversized_entry_is_never_stored() {
        let mut c = ResultCache::new(8);
        c.insert(key(1, 0), vec![rec("s", 1.0)], PipelineStats::default());
        assert_eq!(c.counters().entries, 0);
        assert_eq!(c.counters().bytes, 0);
        assert!(c.lookup(&key(1, 0)).is_none());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = ResultCache::new(0);
        c.insert(key(1, 0), Vec::new(), PipelineStats::default());
        assert_eq!(c.counters().entries, 0);
    }

    #[test]
    fn invalidate_volume_drops_only_that_volume() {
        let mut c = ResultCache::new(1 << 20);
        c.insert(key(1, 0), vec![rec("a", 1.0)], PipelineStats::default());
        c.insert(key(1, 1), vec![rec("b", 1.0)], PipelineStats::default());
        c.insert(key(2, 1), vec![rec("c", 1.0)], PipelineStats::default());
        c.invalidate_volume(1);
        assert!(c.lookup(&key(1, 1)).is_none());
        assert!(c.lookup(&key(2, 1)).is_none());
        assert!(c.lookup(&key(1, 0)).is_some());
        let n = c.counters();
        assert_eq!(n.invalidations, 2);
        assert_eq!(n.entries, 1);
    }

    #[test]
    fn reinserting_a_live_key_replaces_without_double_charging() {
        let mut c = ResultCache::new(1 << 20);
        c.insert(key(1, 0), vec![rec("a", 1.0)], PipelineStats::default());
        let before = c.counters().bytes;
        c.insert(key(1, 0), vec![rec("b", 1.0)], PipelineStats::default());
        assert_eq!(c.counters().bytes, before);
        assert_eq!(c.counters().entries, 1);
        assert_eq!(c.lookup(&key(1, 0)).unwrap().records[0].sid, "b");
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

    #[test]
    fn config_fingerprint_tracks_output_affecting_fields() {
        let base = OrisConfig::small(7);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()));
        for (name, cfg) in [
            ("w", OrisConfig::small(6)),
            (
                "evalue",
                OrisConfig {
                    evalue_threshold: 1.0,
                    ..base
                },
            ),
            (
                "strands",
                OrisConfig {
                    both_strands: true,
                    ..base
                },
            ),
            (
                "space",
                OrisConfig {
                    subject_space: oris_core::SubjectSpace::Database(1234),
                    ..base
                },
            ),
        ] {
            assert_ne!(fp, config_fingerprint(&cfg), "{name} must change the key");
        }
        // Thread count is invisible in output, so it must not split the key.
        let threaded = OrisConfig {
            threads: Some(4),
            ..base
        };
        assert_eq!(fp, config_fingerprint(&threaded));
    }
}
