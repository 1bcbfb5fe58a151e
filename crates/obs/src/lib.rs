//! # goldfinger-obs
//!
//! Dependency-free observability for the GoldFinger workspace (the build
//! container is offline, so `tracing` and `serde` are hand-rolled here in
//! miniature):
//!
//! - [`metrics`] — a registry of relaxed-atomic counters, gauges and
//!   log2-bucket duration histograms;
//! - [`span`] — the paper's cost phases ([`Phase`]: preparation vs
//!   construction, Table 3/4) and [`SpanSet`], which aggregates their wall
//!   time across threads;
//! - [`observer`] — the [`BuildObserver`] contract the KNN builders emit
//!   per-iteration convergence events through (Figs. 10/12), with a no-op
//!   default that builders skip, and [`PhaseTimer`], the one guard that
//!   times a phase for both the observer and the flight recorder;
//! - [`json`] — a minimal JSON value, writer and parser;
//! - [`report`] — the [`RunReport`]/[`ReportSet`] schema behind
//!   `--json PATH` and `results/bench.json`;
//! - [`trace`] — a flight recorder: per-thread lock-free event rings
//!   (enabled by `GF_TRACE=path.json`) exported as Chrome-trace JSON;
//! - [`expose`] — a dependency-free `/metrics`+`/healthz`+`/epoch` HTTP
//!   server rendering a [`Registry`] in the Prometheus text format;
//! - [`mem`] — peak-RSS introspection via `/proc/self/status`.
//!
//! ```
//! use goldfinger_obs::{Phase, PhaseTimer, RecordingObserver};
//!
//! let rec = RecordingObserver::new();
//! {
//!     let _phase = PhaseTimer::start(&rec, Phase::Join);
//!     // ... work ...
//! }
//! let phases = rec.phases();
//! assert_eq!((phases[0].phase, phases[0].entries), (Phase::Join, 1));
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod span;
pub mod trace;

pub use expose::{render_prometheus, MetricsServer, StatusFn};
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use observer::{BuildObserver, IterationEvent, NoopObserver, PhaseTimer, RecordingObserver};
pub use report::{ReportSet, RunReport, Traffic, SCHEMA};
pub use span::{Phase, PhaseSpan, SpanSet};
pub use trace::{Timeline, TraceEvent, TraceKind, TraceSession};
