//! The span collector and the thread-local propagation machinery.
//!
//! Design rules (see DESIGN.md §4.2):
//!
//! * **Flows are rooted explicitly** ([`flow`]) by the orchestration
//!   layer; substrate crates only ever add child spans ([`span`]),
//!   which are no-ops unless a flow is active on the calling thread.
//!   That keeps the instrumentation signature-neutral: no `TraceCtx`
//!   parameter threads through ten crates.
//! * **Each flow runs on one thread**, so the whole span tree for a
//!   trace is buffered in a thread-local frame and flushed into the
//!   sharded collector once, when the flow root closes — one shard
//!   lock per flow, not per span.
//! * **No `std::time` in this crate.** Simulated time comes from the
//!   shared [`SimClock`]; wall-clock micros come from a closure the
//!   embedder installs ([`Tracer::install_wall_clock`]). Wall readings
//!   feed histograms only — never identifiers or the chrome export —
//!   so determinism is preserved.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dri_clock::SimClock;
use dri_sync::{hash_key, shard_index, ShardMap};
use parking_lot::RwLock;

use crate::hist::{HistSnapshot, LogHistogram};
use crate::ids::{SpanId, TraceCtx, TraceId};

/// Which pipeline stage a span belongs to. One histogram pair is kept
/// per stage, so stage attribution is O(1) at record time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// A whole end-to-end flow (the root span of every trace).
    Flow = 0,
    /// IdP discovery / home-organisation authentication (federation).
    Discovery = 1,
    /// Broker session establishment and OIDC token mint.
    Broker = 2,
    /// Portal project registration / invitation acceptance.
    Portal = 3,
    /// SSH certificate issuance.
    SshCa = 4,
    /// Bastion relay hops.
    Bastion = 5,
    /// Tailnet enrolment and overlay sends.
    Tailnet = 6,
    /// Identity-aware tunnel round-trips.
    Tunnel = 7,
    /// Edge proxy admission.
    Edge = 8,
    /// Raw network hops (zone/domain microsegmentation checks).
    Network = 9,
    /// Slurm submission, Jupyter spawn, login-node sessions.
    Cluster = 10,
    /// Policy-decision-point consultations.
    Policy = 11,
    /// SIEM pipeline work.
    Siem = 12,
}

/// Number of [`Stage`] variants (histogram array size).
pub const STAGE_COUNT: usize = 13;

/// All stages, in discriminant order.
pub const ALL_STAGES: [Stage; STAGE_COUNT] = [
    Stage::Flow,
    Stage::Discovery,
    Stage::Broker,
    Stage::Portal,
    Stage::SshCa,
    Stage::Bastion,
    Stage::Tailnet,
    Stage::Tunnel,
    Stage::Edge,
    Stage::Network,
    Stage::Cluster,
    Stage::Policy,
    Stage::Siem,
];

impl Stage {
    /// Stable lowercase name (used as the chrome-trace category).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Flow => "flow",
            Stage::Discovery => "discovery",
            Stage::Broker => "broker",
            Stage::Portal => "portal",
            Stage::SshCa => "sshca",
            Stage::Bastion => "bastion",
            Stage::Tailnet => "tailnet",
            Stage::Tunnel => "tunnel",
            Stage::Edge => "edge",
            Stage::Network => "network",
            Stage::Cluster => "cluster",
            Stage::Policy => "policy",
            Stage::Siem => "siem",
        }
    }
}

/// A finished span, as stored in the collector.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id (unique within the trace).
    pub span_id: SpanId,
    /// Parent span id; `None` only for the flow root.
    pub parent_id: Option<SpanId>,
    /// Operation name, e.g. `broker.issue_token`.
    pub name: &'static str,
    /// Pipeline stage for latency attribution.
    pub stage: Stage,
    /// Logical step counter at open (per-trace, deterministic).
    pub start_step: u64,
    /// Logical step counter at close (strictly greater than
    /// `start_step`; sibling/child intervals never overlap).
    pub end_step: u64,
    /// Simulated clock at open (ms).
    pub start_ms: u64,
    /// Simulated clock at close (ms).
    pub end_ms: u64,
    /// Wall-clock duration in µs (0 when no wall source is installed).
    /// Feeds histograms only; excluded from deterministic exports.
    pub wall_us: u64,
    /// Key/value attributes (zone, domain, audience, ...). Keys are
    /// static names, borrowed rather than copied; the `Cow` keeps them
    /// comparable with `==` against `&str` and `String`.
    pub attrs: Vec<(Cow<'static, str>, String)>,
}

impl SpanRecord {
    /// Duration in logical steps.
    pub fn steps(&self) -> u64 {
        self.end_step - self.start_step
    }
}

/// Per-stage latency summary (steps and wall-clock), as surfaced in
/// `MetricsSnapshot` and the E9 attribution table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Logical-step latency statistics.
    pub steps: HistSnapshot,
    /// Wall-clock (µs) latency statistics.
    pub wall_us: HistSnapshot,
}

/// Source of wall-clock microseconds, installed by the embedder.
pub type WallClockFn = dyn Fn() -> u64 + Send + Sync;

struct StagePair {
    steps: LogHistogram,
    wall_us: LogHistogram,
}

/// The per-infrastructure span collector.
///
/// Cheap to share (`Arc`), safe to hammer from a parallel storm: trace
/// ids are minted from per-key sequences behind sharded locks, finished
/// flows land in a [`ShardMap`] keyed by trace id, and stage histograms
/// are plain atomics.
pub struct Tracer {
    enabled: AtomicBool,
    seed: u64,
    /// Per-flow-key mint sequence, so the N-th login of one subject has
    /// a stable trace id regardless of what other subjects are doing.
    seqs: ShardMap<u64>,
    /// Per-shard mint counters: cheap stats plus the uniqueness
    /// sequence for key-less flows.
    minted: Vec<AtomicU64>,
    /// Finished spans, keyed by trace-id hex; one entry per flow.
    spans: ShardMap<Vec<SpanRecord>>,
    stages: Vec<StagePair>,
    clock: SimClock,
    wall: RwLock<Option<Arc<WallClockFn>>>,
}

impl Tracer {
    /// A tracer minting ids under `seed`, with `shards` collector
    /// shards (rounded to a power of two), stamping simulated time from
    /// `clock`. Starts **disabled**; flows are no-ops until
    /// [`set_enabled`](Tracer::set_enabled).
    pub fn new(seed: u64, shards: usize, clock: SimClock) -> Tracer {
        let n = dri_sync::clamp_shards(shards);
        Tracer {
            enabled: AtomicBool::new(false),
            seed,
            seqs: ShardMap::new(n),
            minted: (0..n).map(|_| AtomicU64::new(0)).collect(),
            spans: ShardMap::new(n),
            stages: (0..STAGE_COUNT)
                .map(|_| StagePair {
                    steps: LogHistogram::new(),
                    wall_us: LogHistogram::new(),
                })
                .collect(),
            clock,
            wall: RwLock::new(None),
        }
    }

    /// Turn collection on or off. When off, [`flow`] hands out no-op
    /// guards and the per-span cost is one relaxed atomic load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Install the wall-clock-microseconds source. The tracer itself
    /// never touches `std::time`; the embedder injects it (dri-core
    /// installs an `Instant`-based one).
    pub fn install_wall_clock(&self, f: Arc<WallClockFn>) {
        *self.wall.write() = Some(f);
    }

    /// Mint the next trace id for `key` (per-key sequence, sharded).
    fn mint(&self, key: &str) -> TraceId {
        let hash = hash_key(key);
        let shard = shard_index(hash, self.minted.len());
        self.minted[shard].fetch_add(1, Ordering::Relaxed);
        let seq = self.seqs.upsert(key, |seq| {
            *seq += 1;
            *seq
        });
        TraceId::mint(self.seed, hash, seq)
    }

    /// Flush one finished flow into the collector and the stage
    /// histograms. Called once per flow, from the root guard's drop.
    /// Every flow is kept until [`clear_spans`](Tracer::clear_spans).
    fn flush(&self, trace_id: TraceId, done: Vec<SpanRecord>) {
        for span in &done {
            self.record_stage(span.stage, span.steps(), span.wall_us);
        }
        self.spans.insert(trace_id.to_hex(), done);
    }

    /// Record one latency sample for `stage`.
    fn record_stage(&self, stage: Stage, steps: u64, wall_us: u64) {
        let pair = &self.stages[stage as usize];
        pair.steps.record(steps);
        pair.wall_us.record(wall_us);
    }

    /// Number of flows collected.
    pub fn trace_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of trace ids minted (≥ `trace_count` while flows are in
    /// flight), summed over the per-shard counters.
    pub fn minted_count(&self) -> u64 {
        self.minted.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total spans across all collected flows.
    pub fn span_count(&self) -> usize {
        let mut n = 0;
        self.spans.for_each(|_, v| n += v.len());
        n
    }

    /// Every collected span, in canonical order: sorted by
    /// `(trace_id, start_step, span_id)`. This order — and everything
    /// derived from it — is identical for serial and parallel runs of
    /// the same seed.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.span_count());
        self.spans.for_each(|_, v| out.extend(v.iter().cloned()));
        out.sort_by(|a, b| {
            (a.trace_id, a.start_step, a.span_id).cmp(&(b.trace_id, b.start_step, b.span_id))
        });
        out
    }

    /// Latency summaries for every stage with at least one sample,
    /// in stage order.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        ALL_STAGES
            .iter()
            .filter_map(|&stage| {
                let pair = &self.stages[stage as usize];
                if pair.steps.count() == 0 {
                    None
                } else {
                    Some(StageSummary {
                        stage,
                        steps: pair.steps.snapshot(),
                        wall_us: pair.wall_us.snapshot(),
                    })
                }
            })
            .collect()
    }

    /// Drop all collected spans (histograms and sequences are kept, so
    /// ids minted after a clear do not repeat).
    pub fn clear_spans(&self) {
        self.spans.clear();
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("traces", &self.trace_count())
            .field("spans", &self.span_count())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Thread-local propagation
// ---------------------------------------------------------------------

struct OpenSpan {
    span_id: SpanId,
    parent_id: Option<SpanId>,
    name: &'static str,
    stage: Stage,
    start_step: u64,
    start_ms: u64,
    wall_start: u64,
    attrs: Vec<(Cow<'static, str>, String)>,
}

struct FlowFrame {
    tracer: Arc<Tracer>,
    trace_id: TraceId,
    /// Open spans, innermost last (the root is index 0 for the whole
    /// life of the frame).
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
    /// Per-trace logical step counter: bumped at every open and close,
    /// so intervals nest strictly and deterministically.
    step: u64,
    span_seq: u64,
    wall: Option<Arc<WallClockFn>>,
}

impl FlowFrame {
    fn wall_now(&self) -> u64 {
        self.wall.as_ref().map(|f| f()).unwrap_or(0)
    }

    fn open(&mut self, name: &'static str, stage: Stage, attrs: &[(&'static str, &str)]) {
        self.span_seq += 1;
        let span_id = SpanId::mint(self.trace_id.low64(), self.span_seq);
        let parent_id = self.stack.last().map(|s| s.span_id);
        let start_step = self.step;
        self.step += 1;
        self.stack.push(OpenSpan {
            span_id,
            parent_id,
            name,
            stage,
            start_step,
            start_ms: self.tracer.clock.now_ms(),
            wall_start: self.wall_now(),
            attrs: attrs
                .iter()
                .map(|&(k, v)| (Cow::Borrowed(k), v.to_string()))
                .collect(),
        });
    }

    fn close(&mut self) {
        let Some(open) = self.stack.pop() else { return };
        let end_step = self.step;
        self.step += 1;
        let wall_end = self.wall_now();
        self.done.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            name: open.name,
            stage: open.stage,
            start_step: open.start_step,
            end_step,
            start_ms: open.start_ms,
            end_ms: self.tracer.clock.now_ms(),
            wall_us: wall_end.saturating_sub(open.wall_start),
            attrs: open.attrs,
        });
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<FlowFrame>> = const { RefCell::new(Vec::new()) };
}

/// Start a flow (trace root) keyed by `key` on the calling thread.
///
/// The returned guard owns the root span; child [`span`]s opened while
/// it lives attach automatically. If a flow for the **same tracer** is
/// already active on this thread, a nested child span is opened instead
/// of a second root (stories call each other). Disabled tracers hand
/// out no-op guards.
pub fn flow(tracer: &Arc<Tracer>, key: &str, name: &'static str, stage: Stage) -> FlowGuard {
    if !tracer.enabled() {
        return FlowGuard {
            mode: FlowMode::Noop,
        };
    }
    ACTIVE.with(|cell| {
        let mut frames = cell.borrow_mut();
        if let Some(top) = frames.last_mut() {
            if Arc::ptr_eq(&top.tracer, tracer) {
                top.open(name, stage, &[]);
                return FlowGuard {
                    mode: FlowMode::Child,
                };
            }
        }
        let trace_id = tracer.mint(key);
        let wall = tracer.wall.read().clone();
        let mut frame = FlowFrame {
            tracer: tracer.clone(),
            trace_id,
            stack: Vec::with_capacity(8),
            done: Vec::with_capacity(16),
            step: 0,
            span_seq: 0,
            wall,
        };
        frame.open(name, stage, &[("flow.key", key)]);
        frames.push(frame);
        FlowGuard {
            mode: FlowMode::Root,
        }
    })
}

/// Open a child span on the active flow, if any. No-op (and
/// allocation-free) when no flow is active on this thread.
pub fn span(name: &'static str, stage: Stage) -> SpanGuard {
    span_with(name, stage, &[])
}

/// [`span`] with initial attributes.
pub fn span_with(name: &'static str, stage: Stage, attrs: &[(&'static str, &str)]) -> SpanGuard {
    ACTIVE.with(|cell| {
        let mut frames = cell.borrow_mut();
        match frames.last_mut() {
            Some(frame) => {
                frame.open(name, stage, attrs);
                SpanGuard { armed: true }
            }
            None => SpanGuard { armed: false },
        }
    })
}

/// Attach an attribute to the innermost open span, if any.
pub fn add_attr(key: &'static str, value: &str) {
    ACTIVE.with(|cell| {
        let mut frames = cell.borrow_mut();
        if let Some(open) = frames.last_mut().and_then(|f| f.stack.last_mut()) {
            open.attrs.push((Cow::Borrowed(key), value.to_string()));
        }
    });
}

/// The active flow's trace id (hex), if a flow is open on this thread.
/// This is what `SecurityEvent` stamps onto every emission.
pub fn current_trace_id() -> Option<String> {
    ACTIVE.with(|cell| cell.borrow().last().map(|f| f.trace_id.to_hex()))
}

/// The active propagation context (trace id + innermost span id), ready
/// to serialize as a `traceparent` header.
pub fn current_ctx() -> Option<TraceCtx> {
    ACTIVE.with(|cell| {
        let frames = cell.borrow();
        let frame = frames.last()?;
        let open = frame.stack.last()?;
        Some(TraceCtx {
            trace_id: frame.trace_id,
            span_id: open.span_id,
        })
    })
}

/// Whether a flow is active on the calling thread.
pub fn active() -> bool {
    ACTIVE.with(|cell| !cell.borrow().is_empty())
}

enum FlowMode {
    Noop,
    Child,
    Root,
}

/// RAII guard for a flow root (or a nested pseudo-root). Closing the
/// root flushes the whole buffered span tree into the collector.
#[must_use = "dropping the guard immediately would record an empty flow"]
pub struct FlowGuard {
    mode: FlowMode,
}

impl Drop for FlowGuard {
    fn drop(&mut self) {
        match self.mode {
            FlowMode::Noop => {}
            FlowMode::Child => close_innermost(),
            FlowMode::Root => {
                ACTIVE.with(|cell| {
                    let mut frames = cell.borrow_mut();
                    let Some(mut frame) = frames.pop() else {
                        return;
                    };
                    // Close anything a panic unwound past, then the root.
                    while !frame.stack.is_empty() {
                        frame.close();
                    }
                    let tracer = frame.tracer.clone();
                    tracer.flush(frame.trace_id, std::mem::take(&mut frame.done));
                });
            }
        }
    }
}

/// RAII guard for a child span.
#[must_use = "dropping the guard immediately would record a zero-length span"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            close_innermost();
        }
    }
}

fn close_innermost() {
    ACTIVE.with(|cell| {
        let mut frames = cell.borrow_mut();
        if let Some(frame) = frames.last_mut() {
            // Never close the root from a child guard: the root closes
            // only when the FlowGuard drops.
            if frame.stack.len() > 1 {
                frame.close();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tracer() -> Arc<Tracer> {
        let t = Arc::new(Tracer::new(42, 4, SimClock::new()));
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let t = Arc::new(Tracer::new(42, 4, SimClock::new()));
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            let _s = span("broker.establish", Stage::Broker);
            assert!(current_trace_id().is_none());
        }
        assert_eq!(t.trace_count(), 0);
        assert_eq!(t.minted_count(), 0);
    }

    #[test]
    fn span_outside_flow_is_noop() {
        let _s = span("orphan", Stage::Broker);
        assert!(!active());
    }

    #[test]
    fn flow_buffers_and_flushes_a_tree() {
        let t = test_tracer();
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            assert!(active());
            {
                let _s = span_with("broker.establish", Stage::Broker, &[("acr", "mfa")]);
                add_attr("loa", "high");
                let _inner = span("net.connect", Stage::Network);
            }
            // Nothing visible until the root closes.
            assert_eq!(t.trace_count(), 0);
        }
        assert!(!active());
        assert_eq!(t.trace_count(), 1);
        let spans = t.all_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.parent_id.is_none()).unwrap();
        assert_eq!(root.name, "login");
        assert_eq!(root.start_step, 0);
        let establish = spans.iter().find(|s| s.name == "broker.establish").unwrap();
        assert_eq!(establish.parent_id, Some(root.span_id));
        assert!(establish.attrs.contains(&("acr".into(), "mfa".into())));
        assert!(establish.attrs.contains(&("loa".into(), "high".into())));
        let net = spans.iter().find(|s| s.name == "net.connect").unwrap();
        assert_eq!(net.parent_id, Some(establish.span_id));
        // Strict interval nesting on the step counter.
        assert!(net.start_step > establish.start_step);
        assert!(net.end_step < establish.end_step);
        assert!(establish.end_step < root.end_step);
    }

    #[test]
    fn same_key_sequence_is_deterministic() {
        let run = || {
            let t = test_tracer();
            for _ in 0..3 {
                let _f = flow(&t, "alice", "login", Stage::Flow);
            }
            let _f = flow(&t, "bob", "login", Stage::Flow);
            drop(_f);
            t.all_spans()
                .iter()
                .map(|s| s.trace_id.to_hex())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let ids = run();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4, "every flow has its own trace id");
    }

    #[test]
    fn nested_flow_becomes_child_span() {
        let t = test_tracer();
        {
            let _outer = flow(&t, "alice", "story1", Stage::Flow);
            let _inner = flow(&t, "alice", "login", Stage::Flow);
            assert_eq!(t.minted_count(), 1, "nested flow mints no new id");
        }
        assert_eq!(t.trace_count(), 1);
        let spans = t.all_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans.iter().filter(|s| s.parent_id.is_none()).count(),
            1,
            "exactly one root"
        );
    }

    #[test]
    fn parallel_flows_mint_identical_ids_to_serial() {
        let serial = {
            let t = test_tracer();
            for i in 0..64 {
                let user = format!("user-{i}");
                let _f = flow(&t, &user, "login", Stage::Flow);
                let _s = span("broker.establish", Stage::Broker);
            }
            let mut ids: Vec<String> = t.all_spans().iter().map(|s| s.trace_id.to_hex()).collect();
            ids.dedup();
            ids
        };
        let parallel = {
            let t = test_tracer();
            crossbeam::thread::scope(|scope| {
                for w in 0..8 {
                    let t = t.clone();
                    scope.spawn(move |_| {
                        for i in (w..64).step_by(8) {
                            let user = format!("user-{i}");
                            let _f = flow(&t, &user, "login", Stage::Flow);
                            let _s = span("broker.establish", Stage::Broker);
                        }
                    });
                }
            })
            .unwrap();
            let mut ids: Vec<String> = t.all_spans().iter().map(|s| s.trace_id.to_hex()).collect();
            ids.dedup();
            ids
        };
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stage_histograms_accumulate() {
        let t = test_tracer();
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            let _s = span("broker.establish", Stage::Broker);
        }
        let summaries = t.stage_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].stage, Stage::Flow);
        assert_eq!(summaries[1].stage, Stage::Broker);
        assert_eq!(summaries[1].steps.count, 1);
        // The span opened and closed with one nested step pair: 2 steps.
        assert!(summaries[1].steps.p50 >= 1);
    }

    #[test]
    fn current_ctx_tracks_innermost_span() {
        let t = test_tracer();
        let _f = flow(&t, "alice", "login", Stage::Flow);
        let root_ctx = current_ctx().unwrap();
        {
            let _s = span("jupyter.spawn", Stage::Cluster);
            let inner_ctx = current_ctx().unwrap();
            assert_eq!(inner_ctx.trace_id, root_ctx.trace_id);
            assert_ne!(inner_ctx.span_id, root_ctx.span_id);
            let header = inner_ctx.traceparent();
            assert_eq!(TraceCtx::parse(&header), Some(inner_ctx));
        }
        assert_eq!(current_ctx().unwrap().span_id, root_ctx.span_id);
    }
}
