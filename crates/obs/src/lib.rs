//! # oris-obs — observability for the oris workspace
//!
//! One dependency-free crate holding everything that reads the wall
//! clock or exports runtime telemetry: a [`Clock`] abstraction, a
//! metrics registry (counters, gauges, fixed-bucket latency
//! histograms), and a span-style JSON-lines trace sink.
//!
//! ## Why the clock lives here
//!
//! The workspace's central invariant is *byte identity*: `-m 8` output
//! must not depend on thread count, window, cache state, volume
//! layout — or on what time it is. PR 4 encoded that as oris-lint's
//! `det-time` rule, but enforcement was porous: 15 scoped allows let
//! `Instant::now` leak into whatever module needed a timer. This crate
//! closes the seam. `Instant::now`/`SystemTime::now` are permitted
//! **only inside `oris-obs`** (the lint's single remaining exemption);
//! every other crate meters time through [`Stopwatch`]/[`Clock`] and
//! the cooperative deadline reads [`monotonic_now`]. A reviewer
//! auditing determinism now has exactly one crate to read, and tests
//! get a steerable [`ManualClock`] instead of sleeping.
//!
//! ## The off-result-path rule
//!
//! Instrumentation observes the pipeline; it never participates in it.
//! Nothing returned by a registry or clock may influence which records
//! are produced, their order, or their formatting. Concretely:
//!
//! - The [`Obs`] handle is `Option`-shaped: a disarmed handle is a
//!   `None` and every operation on it is a single branch, so the
//!   default path stays within noise of un-instrumented code. What the
//!   tests hold is the invisibility, not the clock:
//!   `armed_obs_is_byte_invisible` in `crates/db/tests/obs.rs` (records
//!   and reports equal, armed or not, over window × cache) and
//!   `armed_instrumentation_is_byte_invisible_end_to_end` in
//!   `crates/cli/tests/cli_obs.rs` (a bare run diffed against a fully
//!   armed one).
//! - Registry maps are `BTreeMap`s: exposition order is deterministic
//!   and det-hash clean by construction.
//! - An armed handle at max verbosity must leave `-m 8` bytes and the
//!   `SearchReport` identical to a disarmed run — pinned by the
//!   `db_equivalence` proptests, which quantify over obs on/off.
//!
//! ## Instruments
//!
//! Instrument names are centralized in [`names`]; the documented set is
//! [`names::ALL`]. Exposition: [`render_json`] (the `--metrics-json`
//! schema). Trace events are JSON lines,
//! `{"seq":N,"t_us":T,"ev":"begin|end|point","span":NAME,...}`, written
//! through `--trace <path>`.

mod clock;
mod format;
mod handle;
mod metrics;
mod trace;

pub use clock::{monotonic_now, Clock, ManualClock, MonotonicClock, Stopwatch};
pub use format::{render_json, StatsBlock};
pub use handle::{Field, Obs, ObsBuilder, SpanGuard};
pub use metrics::{names, Histogram, Registry, Snapshot, BUCKET_BOUNDS};
