//! # abw-obs
//!
//! Zero-external-dependency observability layer for the `abwe`
//! workspace. Every figure in Jain & Dovrolis (IMC 2004) is an argument
//! about *internal* dynamics — queue build-up during a probing stream,
//! OWD trends inside a train, convergence of an iterative search — and
//! this crate is how those dynamics become observable without a
//! debugger:
//!
//! * [`Recorder`] — span/event sink trait. [`NullRecorder`] is the
//!   zero-cost default (the simulator holds *no* recorder unless one is
//!   installed, so the off path is a single branch);
//!   [`JsonlRecorder`] streams one JSON object per event;
//!   [`MemoryRecorder`] buffers events for in-process analysis;
//!   [`SharedRecorder`] fans multiple simulators into one sink.
//! * [`metrics`] — a fixed-bucket log-linear
//!   [`metrics::LogLinearHistogram`] sized for OWD / queue-depth / gap
//!   distributions.
//! * [`manifest::RunManifest`] — seeds, scenario parameters, a
//!   git-describe-style version, wall-clock and simulated-time totals,
//!   and per-link counter snapshots, serialized as JSON so any run is
//!   reproducible from its artifact alone.
//! * [`global`] — an opt-in process-wide default recorder, the hook the
//!   `ABW_TRACE` environment plumbing in `abw-bench` uses, plus the
//!   per-thread capture layer the parallel executor (`abw-exec`) wraps
//!   around every job so traces stay byte-identical across worker
//!   counts.
//! * [`merge`] — the deterministic join-order folding of per-worker
//!   recorders, metrics and manifest fragments.
//! * [`prof`] — performance observability: wall-clock-free hot-path
//!   cost counters (legal everywhere under lint rule D1) and
//!   hierarchical span timers whose clock is injected by the harness,
//!   so real-time reads stay confined to `exec`/`bench`.
//!
//! The environment this workspace builds in is offline, so everything
//! here is hand-rolled on `std` only (no `tracing`, no `metrics`, no
//! `serde`), matching the repo's dependency policy.

pub mod event;
pub mod global;
pub mod json;
pub mod manifest;
pub mod merge;
pub mod metrics;
pub mod prof;
pub mod record;

pub use event::{Event, Field, OwnedEvent, OwnedValue, Phase, Value};
pub use manifest::{LinkSnapshot, RunManifest};
pub use merge::Merge;
pub use metrics::LogLinearHistogram;
pub use prof::{Cost, Profile, SpanGuard};
pub use record::{JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, SharedRecorder};
