//! # dri-trace — deterministic distributed tracing for the SSO/ZTA twin
//!
//! The paper's SOC story (§III-D) and NIST zero-trust tenet 7 require
//! reconstructing *why* any access was granted. This crate gives every
//! end-to-end flow — discovery → broker → portal → SSH CA → bastion →
//! Slurm/Jupyter — a W3C-style trace, with three properties the rest of
//! the repo depends on:
//!
//! * **Deterministic.** Trace ids are a pure function of
//!   `(seed, flow key, per-key sequence)` and span ids of a per-trace
//!   counter, so a login storm yields *byte-identical* exports whether
//!   it runs serially or across eight workers. No `std::time`, no OS
//!   entropy: simulated time comes from [`dri_clock::SimClock`] and
//!   wall-clock micros from an injected closure that only ever feeds
//!   the stage summaries.
//! * **Signature-neutral.** Context propagates through a thread-local
//!   flow frame: orchestration code opens a [`flow`], substrate crates
//!   sprinkle [`span`]/[`span_with`] at hop points, and nothing changes
//!   its function signatures. Outside a flow (unit tests, disabled
//!   tracing) every call is a cheap no-op.
//! * **Allocation-free per flow.** Spans buffer in a thread-local flow
//!   frame whose buffers the thread reuses, and flush once per flow into
//!   an append-only per-shard log (rows, an attribute table and one text
//!   arena). That log is the only record: per-stage latency summaries
//!   are folded from it into log2 histograms when read. Trace ids
//!   travel as the 16-byte `Copy` [`TraceId`] and become hex only when
//!   exported or displayed.
//!
//! Exports ([`chrome_trace`], [`flamegraph`]) consume only
//! deterministic fields and serialize through `dri_crypto::json`
//! (sorted keys), so they are directly diffable across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod ids;
mod tracer;

pub use export::{chrome_trace, flamegraph, well_formed, TreeError};
pub use hist::{HistSnapshot, LogHistogram};
pub use ids::{SpanId, TraceCtx, TraceId};
pub use tracer::{
    active, add_attr, current_ctx, current_trace_id, flow, span, span_with, FlowGuard, SpanGuard,
    SpanRecord, Stage, StageSummary, Tracer, WallClockFn, ALL_STAGES, STAGE_COUNT,
};
