//! The [`Obs`] handle: the one value instrumented code carries.
//!
//! A disarmed handle is `None` inside — every operation is a single
//! branch and no lock, allocation, or clock read happens. An armed
//! handle shares a clock, a [`Registry`], and (optionally) a trace
//! sink behind an `Arc`, so cloning is cheap and worker threads can
//! hold copies.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Registry, Snapshot};
use crate::trace::TraceSink;

pub use crate::trace::Field;

struct ObsInner {
    clock: Arc<dyn Clock>,
    registry: Registry,
    trace: Option<TraceSink>,
    seq: AtomicU64,
}

/// Cloneable observability handle. `Obs::default()` is disarmed.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("armed", &self.is_armed())
            .finish()
    }
}

/// Configures an armed [`Obs`]: which clock, and whether trace events
/// are written anywhere.
pub struct ObsBuilder {
    clock: Arc<dyn Clock>,
    trace: Option<Box<dyn Write + Send>>,
}

impl Default for ObsBuilder {
    fn default() -> ObsBuilder {
        ObsBuilder {
            clock: Arc::new(MonotonicClock),
            trace: None,
        }
    }
}

impl ObsBuilder {
    /// Use `clock` instead of the default [`MonotonicClock`]. Tests
    /// pass an `Arc<ManualClock>` and keep a clone to advance it.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> ObsBuilder {
        self.clock = clock;
        self
    }

    /// Write JSON-lines trace events to `writer` (max verbosity).
    pub fn trace(mut self, writer: Box<dyn Write + Send>) -> ObsBuilder {
        self.trace = Some(writer);
        self
    }

    /// Arm the handle. Every documented instrument is pre-registered at
    /// zero, so snapshots always carry the full schema.
    pub fn build(self) -> Obs {
        let registry = Registry::default();
        registry.preregister();
        Obs {
            inner: Some(Arc::new(ObsInner {
                clock: self.clock,
                registry,
                trace: self.trace.map(TraceSink::new),
                seq: AtomicU64::new(0),
            })),
        }
    }
}

impl Obs {
    /// The no-op handle: every operation is one branch.
    pub const fn disarmed() -> Obs {
        Obs { inner: None }
    }

    /// An armed handle with the monotonic clock, a fresh registry, and
    /// no trace sink (registry-only instrumentation).
    pub fn armed() -> Obs {
        ObsBuilder::default().build()
    }

    /// Start configuring an armed handle.
    pub fn builder() -> ObsBuilder {
        ObsBuilder::default()
    }

    /// Whether metrics and trace events are being recorded.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Clock read through this handle's clock; `Duration::ZERO` when
    /// disarmed (instrumented code never branches on this value — the
    /// off-result-path rule).
    #[cfg(test)]
    fn now(&self) -> Duration {
        match &self.inner {
            Some(i) => i.clock.now(),
            None => Duration::ZERO,
        }
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(i) = &self.inner {
            i.registry.count(name, n);
        }
    }

    /// Set counter `name` to an absolute value.
    pub fn set_counter(&self, name: &'static str, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.set_counter(name, v);
        }
    }

    /// Set gauge `name`.
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.set_gauge(name, v);
        }
    }

    /// Record `secs` into histogram `name`.
    pub fn observe_secs(&self, name: &'static str, secs: f64) {
        if let Some(i) = &self.inner {
            i.registry.observe_secs(name, secs);
        }
    }

    /// Counter value (zero when disarmed or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => 0,
        }
    }

    /// Gauge value (zero when disarmed or never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => 0.0,
        }
    }

    /// Copy out every instrument; `None` when disarmed.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// Emit a `point` event (instantaneous, no matching end).
    pub fn point(&self, span: &'static str, fields: &[Field<'_>]) {
        if let Some(i) = &self.inner {
            if let Some(t) = &i.trace {
                let seq = i.seq.fetch_add(1, Ordering::Relaxed) + 1;
                t.emit(seq, i.clock.now(), "point", span, fields);
            }
        }
    }

    /// Open a span: emits `begin` now, `end` when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_impl(name, &[], None)
    }

    /// Open a span with extra fields on both `begin` and `end` events.
    /// Only `U64` fields are carried to the `end` event (span identity
    /// like a volume number; strings would need owned storage).
    #[cfg(test)]
    fn span_with(&self, name: &'static str, fields: &[Field<'_>]) -> SpanGuard {
        self.span_impl(name, fields, None)
    }

    /// Open a span whose elapsed time is also recorded into histogram
    /// `histogram` when the guard drops.
    pub fn timed_span(&self, name: &'static str, histogram: &'static str) -> SpanGuard {
        self.span_impl(name, &[], Some(histogram))
    }

    /// [`Obs::timed_span`] with extra fields.
    pub fn timed_span_with(
        &self,
        name: &'static str,
        histogram: &'static str,
        fields: &[Field<'_>],
    ) -> SpanGuard {
        self.span_impl(name, fields, Some(histogram))
    }

    fn span_impl(
        &self,
        name: &'static str,
        fields: &[Field<'_>],
        histogram: Option<&'static str>,
    ) -> SpanGuard {
        let Some(i) = &self.inner else {
            return SpanGuard {
                obs: Obs::disarmed(),
                name,
                start: Duration::ZERO,
                histogram: None,
                carry: Vec::new(),
            };
        };
        let start = i.clock.now();
        if let Some(t) = &i.trace {
            let seq = i.seq.fetch_add(1, Ordering::Relaxed) + 1;
            t.emit(seq, start, "begin", name, fields);
        }
        let carry = fields
            .iter()
            .filter_map(|f| match *f {
                Field::U64(k, v) => Some((k, v)),
                _ => None,
            })
            .collect();
        SpanGuard {
            obs: self.clone(),
            name,
            start,
            histogram,
            carry,
        }
    }

    /// Flush the trace sink (call before reading the trace file).
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(i) = &self.inner {
            if let Some(t) = &i.trace {
                return t.flush();
            }
        }
        Ok(())
    }
}

/// RAII span: emits the `end` trace event (and the optional histogram
/// observation) on drop, so early returns and `?` close spans too.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    name: &'static str,
    start: Duration,
    histogram: Option<&'static str>,
    carry: Vec<(&'static str, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(i) = &self.obs.inner else { return };
        let end = i.clock.now();
        let dur = end.saturating_sub(self.start);
        if let Some(h) = self.histogram {
            i.registry.observe_secs(h, dur.as_secs_f64());
        }
        if let Some(t) = &i.trace {
            let mut fields: Vec<Field<'_>> =
                self.carry.iter().map(|&(k, v)| Field::U64(k, v)).collect();
            fields.push(Field::U64("dur_us", crate::trace::micros(dur)));
            let seq = i.seq.fetch_add(1, Ordering::Relaxed) + 1;
            t.emit(seq, end, "end", self.name, &fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::metrics::names;
    use std::sync::Mutex;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn disarmed_handle_is_inert() {
        let obs = Obs::disarmed();
        obs.count(names::QUERIES_TOTAL, 1);
        obs.observe_secs(names::QUERY_SECONDS, 0.5);
        let _g = obs.span("query");
        assert!(!obs.is_armed());
        assert_eq!(obs.counter(names::QUERIES_TOTAL), 0);
        assert!(obs.snapshot().is_none());
        assert_eq!(obs.now(), Duration::ZERO);
    }

    #[test]
    fn manual_clock_drives_exact_span_durations() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let obs = Obs::builder()
            .clock(clock.clone())
            .trace(Box::new(buf.clone()))
            .build();
        {
            let _q = obs.timed_span(names::QUERY_SECONDS, names::QUERY_SECONDS);
            clock.advance(Duration::from_millis(2));
            {
                let _v = obs.span_with("volume_search", &[Field::U64("volume", 7)]);
                clock.advance(Duration::from_millis(3));
            }
            clock.advance(Duration::from_millis(1));
        }
        let h = obs.snapshot().unwrap().histograms[names::QUERY_SECONDS].clone();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.006).abs() < 1e-12, "sum = {}", h.sum());
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        // Nesting: begin(query) begin(volume) end(volume) end(query),
        // with seq strictly increasing.
        assert!(lines[0].contains("\"seq\":1") && lines[0].contains("\"ev\":\"begin\""));
        assert!(lines[1].contains("\"seq\":2") && lines[1].contains("\"volume\":7"));
        assert!(lines[2].contains("\"seq\":3") && lines[2].contains("\"ev\":\"end\""));
        assert!(lines[2].contains("\"dur_us\":3000"), "{}", lines[2]);
        assert!(lines[3].contains("\"seq\":4") && lines[3].contains("\"span\":\"query_seconds\""));
        assert!(lines[3].contains("\"dur_us\":6000"), "{}", lines[3]);
    }

    #[test]
    fn span_closes_on_early_return() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let obs = Obs::builder()
            .clock(clock.clone())
            .trace(Box::new(buf.clone()))
            .build();
        fn bails(obs: &Obs, clock: &ManualClock) -> Result<(), ()> {
            let _g = obs.span("attach");
            clock.advance(Duration::from_micros(10));
            Err(())
        }
        assert!(bails(&obs, &clock).is_err());
        let text = buf.text();
        assert!(text.contains("\"ev\":\"end\""), "{text}");
        assert!(text.contains("\"dur_us\":10"), "{text}");
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::armed();
        let c = obs.clone();
        c.count(names::WORKER_DISPATCH_TOTAL, 2);
        obs.count(names::WORKER_DISPATCH_TOTAL, 1);
        assert_eq!(obs.counter(names::WORKER_DISPATCH_TOTAL), 3);
    }
}
