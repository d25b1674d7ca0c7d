//! Dependency-free tracing and metrics for SymbFuzz campaigns.
//!
//! The [`Collector`] is shared (via `Arc`) between the fuzz loop, the
//! simulator, the symbolic engine and the SMT backend. It offers three
//! cheap primitives:
//!
//! * **Counters / gauges** — relaxed atomics ([`Counter`], [`Gauge`]).
//! * **Phase spans** — RAII [`PhaseTimer`]s decomposing wall time into
//!   the six [`Phase`]s of Algorithm 1; spans nest, and a parent's
//!   self-time excludes its children, so the per-phase totals sum to
//!   at most the campaign total.
//! * **Events** — the structured [`Event`] taxonomy, appended to a
//!   bounded in-memory ring and optionally streamed as JSONL through a
//!   [`TraceSink`].
//!
//! The JSONL trace schema lives in one module, in both directions:
//! [`TraceLine`] wraps a [`Record`] (an [`Event`] or a synthetic
//! `Phase`, `Metrics`, `SolverCache` or `Flight` record), writes it
//! with [`TraceLine::to_json`] and parses it back with
//! [`TraceLine::parse`] / [`parse_trace`]. The collector formats every
//! line it streams ([`Collector::record`], phase spans,
//! [`Collector::emit`]) through `to_json`, and only when the sink is
//! enabled. The same module owns the flight recorder's two artifacts:
//! [`FlightSample`] lines of `flight.jsonl` and the [`Status`]
//! heartbeat of `status.json`, each with a `to_json` and a `parse`.
//!
//! Timestamps come from a [`Clock`]. The default is the deterministic
//! [`ManualClock`] (driven by the input-vector count), which keeps
//! campaign reports byte-identical across `--jobs` values; wall-clock
//! traces opt in to [`MonotonicClock`] via `--trace-out`.

mod clock;
mod collector;
mod event;
mod log;
mod record;
mod sampler;
mod sink;
mod snapshot;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use collector::{
    bucket_of, Collector, Counter, Gauge, OwnedPhaseTimer, Phase, PhaseTimer, DEFAULT_RING_CAP,
    HIST_BUCKETS,
};
pub use event::{Event, Mechanism, SolveStatus, TimedEvent, UnknownReason};
pub use log::{log_at, log_enabled, log_level, set_log_level, Level};
pub use record::{parse_trace, Record, Status, TraceLine, FLIGHT_VERSION};
pub use sampler::{
    merge_flight, write_atomic, FlightSample, SampleState, Sampler, DEFAULT_SAMPLE_RING_CAP,
};
pub use sink::{BufferSink, FileSink, NullSink, SharedSink, StderrSink, TraceSink};
pub use snapshot::{hist_quantile, MetricsSnapshot, PhaseStat};
