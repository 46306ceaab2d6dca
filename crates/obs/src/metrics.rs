//! Metrics registry: counters, gauges, and fixed-bucket latency
//! histograms behind one mutex, all `BTreeMap`-backed so exposition
//! order is deterministic (det-hash clean by construction).
//!
//! Instrument names are `&'static str` constants in [`names`] — call
//! sites and the `--metrics-json` schema check share one source of
//! truth.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// The documented instrument names. Adding an instrument means adding
/// it here *and* to [`names::ALL`] (the CI schema check walks `ALL`
/// against `--metrics-json` output).
pub mod names {
    /// Counter: queries fully executed (all modes).
    pub const QUERIES_TOTAL: &str = "queries_total";
    /// Counter: `-m 8` records emitted.
    pub const RECORDS_TOTAL: &str = "records_total";
    /// Counter: queries the result cache answered (an entry is one
    /// query's whole answer over every volume).
    pub const CACHE_HITS_TOTAL: &str = "cache_hits_total";
    /// Counter: queries the result cache did not answer.
    pub const CACHE_MISSES_TOTAL: &str = "cache_misses_total";
    /// Counter: result-cache entries (query answers) inserted.
    pub const CACHE_INSERTIONS_TOTAL: &str = "cache_insertions_total";
    /// Counter: result-cache entries evicted by the memory bound.
    pub const CACHE_EVICTIONS_TOTAL: &str = "cache_evictions_total";
    /// Counter: result-cache entries dropped because a volume was
    /// quarantined (a quarantine empties the cache).
    pub const CACHE_INVALIDATIONS_TOTAL: &str = "cache_invalidations_total";
    /// Gauge: result-cache entries currently resident.
    pub const CACHE_ENTRIES: &str = "cache_entries";
    /// Gauge: result-cache bytes currently charged.
    pub const CACHE_BYTES: &str = "cache_bytes";
    /// Counter: transient volume-I/O retries (bounded-backoff loop).
    pub const IO_RETRIES_TOTAL: &str = "io_retries_total";
    /// Counter: volumes quarantined for the session lifetime.
    pub const VOLUME_QUARANTINES_TOTAL: &str = "volume_quarantines_total";
    /// Counter: queries cut short by an expired deadline.
    pub const DEADLINE_EXPIRIES_TOTAL: &str = "deadline_expiries_total";
    /// Counter: (chunk, volume) searches dispatched by the volume walk.
    pub const WORKER_DISPATCH_TOTAL: &str = "worker_dispatch_total";
    /// Counter: volume attaches performed (cold opens, not cache hits).
    pub const VOLUME_ATTACHES_TOTAL: &str = "volume_attaches_total";
    /// Histogram: end-to-end per-query latency, seconds.
    pub const QUERY_SECONDS: &str = "query_seconds";
    /// Histogram: per-volume attach time, seconds.
    pub const VOLUME_ATTACH_SECONDS: &str = "volume_attach_seconds";
    /// Histogram: per-volume search time, seconds.
    pub const VOLUME_SEARCH_SECONDS: &str = "volume_search_seconds";

    /// Every documented instrument, in exposition order.
    pub const ALL: &[&str] = &[
        QUERIES_TOTAL,
        RECORDS_TOTAL,
        CACHE_HITS_TOTAL,
        CACHE_MISSES_TOTAL,
        CACHE_INSERTIONS_TOTAL,
        CACHE_EVICTIONS_TOTAL,
        CACHE_INVALIDATIONS_TOTAL,
        CACHE_ENTRIES,
        CACHE_BYTES,
        IO_RETRIES_TOTAL,
        VOLUME_QUARANTINES_TOTAL,
        DEADLINE_EXPIRIES_TOTAL,
        WORKER_DISPATCH_TOTAL,
        VOLUME_ATTACHES_TOTAL,
        QUERY_SECONDS,
        VOLUME_ATTACH_SECONDS,
        VOLUME_SEARCH_SECONDS,
    ];
}

/// Histogram bucket upper bounds in seconds: powers of 4 from 1 µs to
/// ~67 s. Fourteen finite buckets resolve better than one order of
/// magnitude each across the microsecond-to-minute range a query can
/// span; observations above the last bound land in the implicit `+Inf`
/// bucket.
pub const BUCKET_BOUNDS: [f64; 14] = [
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 2.62144e-1,
    1.048576, 4.194304, 16.777216, 67.108864,
];

/// A fixed-bucket latency histogram (cumulative exposition, like
/// Prometheus: bucket *i* counts observations `<= BUCKET_BOUNDS[i]`
/// once rendered; internally counts are per-bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts; the last slot is the `+Inf`
    /// overflow bucket.
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKET_BOUNDS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one observation (seconds). NaN and negative values land
    /// in the overflow bucket rather than corrupting a bound
    /// comparison.
    pub fn observe(&mut self, secs: f64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
        self.sum += secs;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative counts per bound (Prometheus `le` semantics); the
    /// final entry is the `+Inf` count and equals [`Histogram::count`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Raw per-bucket counts (last slot is overflow).
    #[cfg(test)]
    fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Thread-safe instrument store. One mutex guards all three maps: the
/// armed path takes it per operation (micro-contended at worst — a
/// handful of updates per volume), the disarmed path never constructs
/// one.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// A point-in-time copy of every instrument, detached from the
/// registry lock. Rendering and assertions work on this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned metrics mutex must not take the search down with
        // it: instrumentation is off the result path by contract.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Set counter `name` to an absolute value (for syncing from an
    /// authoritative source like `ResultCache::counters`).
    pub fn set_counter(&self, name: &'static str, v: u64) {
        self.lock().counters.insert(name, v);
    }

    /// Set gauge `name`.
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        self.lock().gauges.insert(name, v);
    }

    /// Record `secs` into histogram `name` (creating it empty).
    pub fn observe_secs(&self, name: &'static str, secs: f64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .observe(secs);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name` (zero if never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        self.lock().gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Copy of histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Insert every documented instrument at zero. An armed handle
    /// calls this once, so an exported snapshot always carries the full
    /// documented schema — the CI check walks [`names::ALL`] against
    /// `--metrics-json` output, including instruments the run never
    /// touched.
    pub fn preregister(&self) {
        let mut g = self.lock();
        for &n in names::ALL {
            match n {
                names::CACHE_ENTRIES | names::CACHE_BYTES => {
                    g.gauges.entry(n).or_insert(0.0);
                }
                names::QUERY_SECONDS
                | names::VOLUME_ATTACH_SECONDS
                | names::VOLUME_SEARCH_SECONDS => {
                    g.histograms.entry(n).or_default();
                }
                _ => {
                    g.counters.entry(n).or_insert(0);
                }
            }
        }
    }

    /// Copy out every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            histograms: g.histograms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::default();
        r.count(names::QUERIES_TOTAL, 1);
        r.count(names::QUERIES_TOTAL, 2);
        r.set_gauge(names::CACHE_BYTES, 512.0);
        assert_eq!(r.counter(names::QUERIES_TOTAL), 3);
        assert_eq!(r.gauge(names::CACHE_BYTES), 512.0);
        assert_eq!(r.counter("never_touched"), 0);
        r.set_counter(names::QUERIES_TOTAL, 10);
        assert_eq!(r.counter(names::QUERIES_TOTAL), 10);
    }

    #[test]
    fn histogram_bucketing_places_exact_values() {
        let mut h = Histogram::default();
        // Exactly on a bound: counts in that bucket (le semantics).
        h.observe(1e-6);
        // Between bounds: next bucket up.
        h.observe(2e-6);
        // Far past every bound: overflow bucket.
        h.observe(1e9);
        // NaN: overflow, not a panic or a misfiled bucket.
        h.observe(f64::NAN);
        let raw = h.bucket_counts();
        assert_eq!(raw[0], 1, "1e-6 lands in the first bucket");
        assert_eq!(raw[1], 1, "2e-6 lands in the second bucket");
        assert_eq!(raw[BUCKET_BOUNDS.len()], 2, "1e9 and NaN overflow");
        assert_eq!(h.count(), 4);
        let cum = h.cumulative();
        assert_eq!(*cum.last().unwrap(), h.count());
        assert!(
            cum.windows(2).all(|w| w[0] <= w[1]),
            "cumulative is monotone"
        );
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        assert!(BUCKET_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn preregister_covers_every_documented_name_exactly_once() {
        let r = Registry::default();
        r.preregister();
        let s = r.snapshot();
        for n in names::ALL {
            assert!(
                s.counters.contains_key(n)
                    || s.gauges.contains_key(n)
                    || s.histograms.contains_key(n),
                "{n} missing from a preregistered snapshot"
            );
        }
        assert_eq!(
            s.counters.len() + s.gauges.len() + s.histograms.len(),
            names::ALL.len()
        );
    }

    #[test]
    fn snapshot_is_deterministic_and_detached() {
        let r = Registry::default();
        r.count(names::CACHE_MISSES_TOTAL, 1);
        r.count(names::CACHE_HITS_TOTAL, 1);
        let s1 = r.snapshot();
        r.count(names::CACHE_HITS_TOTAL, 5);
        let s2 = r.snapshot();
        assert_eq!(s1.counters[names::CACHE_HITS_TOTAL], 1);
        assert_eq!(s2.counters[names::CACHE_HITS_TOTAL], 6);
        // BTreeMap: iteration order is lexicographic, run after run.
        let keys: Vec<_> = s2.counters.keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
