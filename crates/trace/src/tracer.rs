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
//!   collector once, when the flow root closes — one shard lock per
//!   flow, not per span. The frame's buffers are reused by the thread's
//!   next flow, and a shard stores finished flows as append-only rows
//!   (see [`Tracer`]), so a flow costs no heap allocation of its own.
//! * **No `std::time` in this crate.** Simulated time comes from the
//!   shared [`SimClock`]; wall-clock micros come from a closure the
//!   embedder installs ([`Tracer::install_wall_clock`]). Wall readings
//!   feed the stage summaries only — never identifiers or the chrome
//!   export — so determinism is preserved.

use std::borrow::Cow;
use std::cell::RefCell;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dri_clock::SimClock;
use dri_sync::{hash_key, shard_index, ShardMap};
use parking_lot::{Mutex, RwLock};

use crate::hist::{HistSnapshot, LogHistogram};
use crate::ids::{SpanId, TraceCtx, TraceId};

/// Which pipeline stage a span belongs to; the stage summaries group
/// spans by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
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

/// Number of [`Stage`] variants.
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

/// A finished span, as [`Tracer::all_spans`] exports it. The collector
/// stores spans more compactly; this is the view every exporter reads.
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
    /// Feeds the stage summaries only; excluded from deterministic
    /// exports.
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

/// Per-stage latency summary (steps and wall-clock) of the collected
/// spans, as surfaced in `MetricsSnapshot` and the E9 attribution table.
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

/// A finished span as a shard log stores it, in 56 bytes. The trace id
/// is kept once per flow and the attributes in the attribute table. The
/// span ids are not kept at all: a span's id is minted from its trace id
/// and its sequence number (its position in the flow, from 1), so the row
/// needs only its parent's sequence number.
#[derive(Clone, Copy)]
struct SpanRow {
    name: &'static str,
    start_ms: u64,
    end_ms: u64,
    wall_us: u64,
    start_step: u32,
    end_step: u32,
    /// Sequence number of the parent span; `None` for the flow root.
    parent: Option<NonZeroU32>,
    stage: Stage,
}

const _: () = assert!(std::mem::size_of::<SpanRow>() <= 56);

/// The sequence number of the span at `index` in its flow. Every span
/// costs its frame a 56-byte row and two steps, so a flow reaches 2^31
/// spans (where steps would overflow `u32`) only after 120 GB of rows.
fn seq(index: usize) -> NonZeroU32 {
    u32::try_from(index + 1)
        .ok()
        .and_then(NonZeroU32::new)
        .expect("a flow holds fewer than 2^32 spans")
}

fn span_id(trace_id: TraceId, seq: NonZeroU32) -> SpanId {
    SpanId::mint(trace_id.low64(), seq.get().into())
}

impl SpanRow {
    /// The export view of this row, the `seq`-th span of `trace_id`.
    fn record(&self, trace_id: TraceId, seq: NonZeroU32) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id: span_id(trace_id, seq),
            parent_id: self.parent.map(|p| span_id(trace_id, p)),
            name: self.name,
            stage: self.stage,
            start_step: self.start_step.into(),
            end_step: self.end_step.into(),
            start_ms: self.start_ms,
            end_ms: self.end_ms,
            wall_us: self.wall_us,
            attrs: Vec::new(),
        }
    }
}

/// One attribute: its key, the span it belongs to, and where its value
/// ends in the text arena. Values are appended in table order, so a
/// value starts where the previous row's ends.
#[derive(Clone, Copy)]
struct AttrRow {
    key: &'static str,
    /// Index of the span's row (within the flow in a frame, within the
    /// shard in a log).
    span: usize,
    end: usize,
}

/// A flushed flow: its trace id and the end of its rows in `spans`.
struct FlowRow {
    trace_id: TraceId,
    spans_end: usize,
}

/// One shard's append-only store of finished flows. A flush appends the
/// flow's rows, attributes and attribute text; nothing is allocated per
/// flow beyond the amortized growth of four buffers.
#[derive(Default)]
struct ShardLog {
    flows: Vec<FlowRow>,
    spans: Vec<SpanRow>,
    attrs: Vec<AttrRow>,
    /// Every attribute value of the shard, back to back.
    text: String,
}

impl ShardLog {
    fn append(&mut self, trace_id: TraceId, frame: &FrameBuf) {
        let (span_base, text_base) = (self.spans.len(), self.text.len());
        self.spans.extend_from_slice(&frame.spans);
        self.attrs.extend(frame.attrs.iter().map(|a| AttrRow {
            key: a.key,
            span: span_base + a.span,
            end: text_base + a.end,
        }));
        self.text.push_str(&frame.text);
        self.flows.push(FlowRow {
            trace_id,
            spans_end: self.spans.len(),
        });
    }

    /// Append this shard's spans to `out` as records, in storage order.
    fn export(&self, out: &mut Vec<SpanRecord>) {
        let base = out.len();
        let mut start = 0;
        for flow in &self.flows {
            out.extend(
                self.spans[start..flow.spans_end]
                    .iter()
                    .enumerate()
                    .map(|(i, row)| row.record(flow.trace_id, seq(i))),
            );
            start = flow.spans_end;
        }
        let mut from = 0;
        for attr in &self.attrs {
            out[base + attr.span].attrs.push((
                Cow::Borrowed(attr.key),
                self.text[from..attr.end].to_string(),
            ));
            from = attr.end;
        }
    }
}

/// The per-infrastructure span collector.
///
/// Cheap to share (`Arc`), safe to hammer from a parallel storm: trace
/// ids are minted from per-key sequences behind sharded locks, and
/// finished flows are appended to one of several append-only shard logs
/// (picked by the trace id's low half). The logs are the only record:
/// the stage summaries are folded from them when read.
pub struct Tracer {
    enabled: AtomicBool,
    seed: u64,
    /// Per-flow-key mint sequence, so the N-th login of one subject has
    /// a stable trace id regardless of what other subjects are doing.
    seqs: ShardMap<u64>,
    /// Finished flows, one append-only log per shard.
    logs: Vec<Mutex<ShardLog>>,
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
            logs: (0..n).map(|_| Mutex::default()).collect(),
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
        let seq = self.seqs.upsert(key, |seq| {
            *seq += 1;
            *seq
        });
        TraceId::mint(self.seed, hash, seq)
    }

    /// Append one finished flow to its shard's log. Called once per
    /// flow, from the root guard's drop. Every flow is kept until
    /// [`clear_spans`](Tracer::clear_spans).
    fn flush(&self, trace_id: TraceId, frame: &FrameBuf) {
        let shard = shard_index(trace_id.low64(), self.logs.len());
        self.logs[shard].lock().append(trace_id, frame);
    }

    /// Number of flows collected.
    pub fn trace_count(&self) -> usize {
        self.logs.iter().map(|log| log.lock().flows.len()).sum()
    }

    /// Total spans across all collected flows.
    pub fn span_count(&self) -> usize {
        self.logs.iter().map(|log| log.lock().spans.len()).sum()
    }

    /// Every collected span, in canonical order: sorted by
    /// `(trace_id, start_step, span_id)`. This order — and everything
    /// derived from it — is identical for serial and parallel runs of
    /// the same seed.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.span_count());
        for log in &self.logs {
            log.lock().export(&mut out);
        }
        out.sort_by(|a, b| {
            (a.trace_id, a.start_step, a.span_id).cmp(&(b.trace_id, b.start_step, b.span_id))
        });
        out
    }

    /// Latency summaries of the collected spans for every stage with at
    /// least one span, in stage order. Folded from the shard logs on each
    /// call, so they cover exactly the spans [`all_spans`](Tracer::all_spans)
    /// returns.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let mut hists: [(LogHistogram, LogHistogram); STAGE_COUNT] = Default::default();
        for log in &self.logs {
            for row in &log.lock().spans {
                let (steps, wall_us) = &mut hists[row.stage as usize];
                steps.record((row.end_step - row.start_step).into());
                wall_us.record(row.wall_us);
            }
        }
        ALL_STAGES
            .into_iter()
            .zip(hists)
            .map(|(stage, (steps, wall_us))| StageSummary {
                stage,
                steps: steps.snapshot(),
                wall_us: wall_us.snapshot(),
            })
            .filter(|s| s.steps.count > 0)
            .collect()
    }

    /// Drop all collected spans and free their storage. The stage
    /// summaries follow the spans, so they restart empty; the mint
    /// sequences are kept, so ids minted after a clear do not repeat.
    pub fn clear_spans(&self) {
        for log in &self.logs {
            *log.lock() = ShardLog::default();
        }
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

/// A flow's buffers. A root flow takes them from its thread's spare
/// list and returns them cleared, so a thread allocates them once and
/// then only when a flow outgrows them.
#[derive(Default)]
struct FrameBuf {
    /// Spans in open order (a span's index is its sequence number minus
    /// one); the end fields are filled in when the span closes.
    spans: Vec<SpanRow>,
    /// Open spans, innermost last, as (index into `spans`, wall-clock
    /// reading at open). The root is index 0 for the frame's whole life.
    stack: Vec<(usize, u64)>,
    attrs: Vec<AttrRow>,
    /// The attribute values, back to back.
    text: String,
}

impl FrameBuf {
    fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.attrs.clear();
        self.text.clear();
    }

    fn add_attr(&mut self, span: usize, key: &'static str, value: &str) {
        self.text.push_str(value);
        self.attrs.push(AttrRow {
            key,
            span,
            end: self.text.len(),
        });
    }
}

struct FlowFrame {
    tracer: Arc<Tracer>,
    trace_id: TraceId,
    buf: FrameBuf,
    /// Per-trace logical step counter: bumped at every open and close,
    /// so intervals nest strictly and deterministically.
    step: u32,
    wall: Option<Arc<WallClockFn>>,
}

impl FlowFrame {
    fn wall_now(&self) -> u64 {
        self.wall.as_ref().map(|f| f()).unwrap_or(0)
    }

    fn open(&mut self, name: &'static str, stage: Stage, attrs: &[(&'static str, &str)]) {
        let index = self.buf.spans.len();
        let parent = self.buf.stack.last().map(|&(i, _)| seq(i));
        let start_step = self.step;
        self.step += 1;
        let start_ms = self.tracer.clock.now_ms();
        let wall_start = self.wall_now();
        self.buf.spans.push(SpanRow {
            name,
            start_ms,
            end_ms: start_ms,
            wall_us: 0,
            start_step,
            end_step: start_step,
            parent,
            stage,
        });
        self.buf.stack.push((index, wall_start));
        for &(key, value) in attrs {
            self.buf.add_attr(index, key, value);
        }
    }

    fn close(&mut self) {
        let Some((index, wall_start)) = self.buf.stack.pop() else {
            return;
        };
        let end_step = self.step;
        self.step += 1;
        let wall_end = self.wall_now();
        let end_ms = self.tracer.clock.now_ms();
        let row = &mut self.buf.spans[index];
        row.end_step = end_step;
        row.end_ms = end_ms;
        row.wall_us = wall_end.saturating_sub(wall_start);
    }
}

/// The calling thread's flows: the active frames (innermost last) and
/// the buffers finished root flows handed back for reuse.
struct Flows {
    active: Vec<FlowFrame>,
    spare: Vec<FrameBuf>,
}

thread_local! {
    static FLOWS: RefCell<Flows> = const {
        RefCell::new(Flows {
            active: Vec::new(),
            spare: Vec::new(),
        })
    };
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
    FLOWS.with(|cell| {
        let flows = &mut *cell.borrow_mut();
        if let Some(top) = flows.active.last_mut() {
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
            buf: flows.spare.pop().unwrap_or_default(),
            step: 0,
            wall,
        };
        frame.open(name, stage, &[("flow.key", key)]);
        flows.active.push(frame);
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
    FLOWS.with(|cell| {
        let mut flows = cell.borrow_mut();
        match flows.active.last_mut() {
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
    FLOWS.with(|cell| {
        let mut flows = cell.borrow_mut();
        if let Some(frame) = flows.active.last_mut() {
            if let Some(&(span, _)) = frame.buf.stack.last() {
                frame.buf.add_attr(span, key, value);
            }
        }
    });
}

/// The active flow's trace id, if a flow is open on this thread. This
/// is what `SecurityEvent` stamps onto every emission.
pub fn current_trace_id() -> Option<TraceId> {
    FLOWS.with(|cell| cell.borrow().active.last().map(|f| f.trace_id))
}

/// The active propagation context (trace id + innermost span id), ready
/// to serialize as a `traceparent` header.
pub fn current_ctx() -> Option<TraceCtx> {
    FLOWS.with(|cell| {
        let flows = cell.borrow();
        let frame = flows.active.last()?;
        let &(open, _) = frame.buf.stack.last()?;
        Some(TraceCtx {
            trace_id: frame.trace_id,
            span_id: span_id(frame.trace_id, seq(open)),
        })
    })
}

/// Whether a flow is active on the calling thread.
pub fn active() -> bool {
    FLOWS.with(|cell| !cell.borrow().active.is_empty())
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
                FLOWS.with(|cell| {
                    let flows = &mut *cell.borrow_mut();
                    let Some(mut frame) = flows.active.pop() else {
                        return;
                    };
                    // Close anything a panic unwound past, then the root.
                    while !frame.buf.stack.is_empty() {
                        frame.close();
                    }
                    frame.tracer.flush(frame.trace_id, &frame.buf);
                    frame.buf.clear();
                    flows.spare.push(frame.buf);
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
    FLOWS.with(|cell| {
        let mut flows = cell.borrow_mut();
        if let Some(frame) = flows.active.last_mut() {
            // Never close the root from a child guard: the root closes
            // only when the FlowGuard drops.
            if frame.buf.stack.len() > 1 {
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

    /// The trace ids of `n` consecutive "alice" flows on a fresh tracer.
    fn alice_ids(n: usize) -> Vec<TraceId> {
        let t = test_tracer();
        (0..n)
            .map(|_| {
                let _f = flow(&t, "alice", "login", Stage::Flow);
                current_trace_id().unwrap()
            })
            .collect()
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let first = alice_ids(1)[0];
        let t = Arc::new(Tracer::new(42, 4, SimClock::new()));
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            let _s = span("broker.establish", Stage::Broker);
            assert!(current_trace_id().is_none());
        }
        assert_eq!(t.trace_count(), 0);
        // The disabled flow minted nothing: alice's first traced flow
        // still gets her first id.
        t.set_enabled(true);
        let _f = flow(&t, "alice", "login", Stage::Flow);
        assert_eq!(current_trace_id(), Some(first));
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
    fn attrs_follow_their_span_across_flows_and_shards() {
        let t = test_tracer();
        for user in ["alice", "bob", "carol", "dave", "erin"] {
            let _f = flow(&t, user, "login", Stage::Flow);
            let _outer = span_with("broker.establish", Stage::Broker, &[("who", user)]);
            {
                let _inner = span_with("net.connect", Stage::Network, &[("zone", "dmz")]);
                add_attr("outcome", "allowed");
            }
            // Added to the outer span after its child closed.
            add_attr("loa", "high");
        }
        assert_eq!(t.trace_count(), 5);
        assert_eq!(t.span_count(), 15);
        let spans = t.all_spans();
        for s in &spans {
            let attrs: Vec<(&str, &str)> = s
                .attrs
                .iter()
                .map(|(k, v)| (k.as_ref(), v.as_str()))
                .collect();
            match s.name {
                "login" => assert_eq!(attrs.len(), 1),
                "broker.establish" => {
                    assert_eq!(attrs[0].0, "who");
                    assert_eq!(attrs[1], ("loa", "high"));
                    let root = spans
                        .iter()
                        .find(|r| r.trace_id == s.trace_id && r.parent_id.is_none())
                        .unwrap();
                    assert_eq!(root.attrs[0], ("flow.key".into(), attrs[0].1.to_string()));
                }
                "net.connect" => assert_eq!(attrs, [("zone", "dmz"), ("outcome", "allowed")]),
                other => panic!("unexpected span {other}"),
            }
        }
    }

    #[test]
    fn frames_are_reused_and_clear_frees_the_store() {
        let t = test_tracer();
        let run = |t: &Arc<Tracer>| {
            for i in 0..3 {
                let _f = flow(t, "alice", "login", Stage::Flow);
                let _s = span_with("broker.establish", Stage::Broker, &[("i", &i.to_string())]);
            }
        };
        run(&t);
        let first = t.all_spans();
        // The thread's frame buffers went back to its spare list.
        FLOWS.with(|cell| {
            let flows = cell.borrow();
            assert!(flows.active.is_empty());
            assert!(!flows.spare.is_empty());
            assert!(flows
                .spare
                .iter()
                .all(|b| b.spans.is_empty() && b.text.is_empty()));
        });
        t.clear_spans();
        assert_eq!((t.trace_count(), t.span_count()), (0, 0));
        assert!(t.logs.iter().all(|log| log.lock().spans.capacity() == 0));
        run(&t);
        let second = t.all_spans();
        assert_eq!(second.len(), first.len());
        // Sequences survive the clear, so the ids do not repeat.
        assert!(second
            .iter()
            .all(|s| first.iter().all(|f| f.trace_id != s.trace_id)));
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
        let ids = alice_ids(2);
        {
            let _outer = flow(&t, "alice", "story1", Stage::Flow);
            let _inner = flow(&t, "alice", "login", Stage::Flow);
            assert_eq!(current_trace_id(), Some(ids[0]));
        }
        assert_eq!(t.trace_count(), 1);
        {
            let _next = flow(&t, "alice", "login", Stage::Flow);
            assert_eq!(
                current_trace_id(),
                Some(ids[1]),
                "nested flow mints no new id"
            );
        }
        let spans = t.all_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().filter(|s| s.trace_id == ids[0]).count(),
            2,
            "the nested flow is a span of the outer trace"
        );
        assert_eq!(
            spans.iter().filter(|s| s.parent_id.is_none()).count(),
            2,
            "one root per trace"
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
        for user in ["alice", "bob", "carol"] {
            let _f = flow(&t, user, "login", Stage::Flow);
            let _s = span("broker.establish", Stage::Broker);
            let _n = span("net.connect", Stage::Network);
        }
        let summaries = t.stage_summaries();
        let stages: Vec<Stage> = summaries.iter().map(|s| s.stage).collect();
        assert_eq!(stages, [Stage::Flow, Stage::Broker, Stage::Network]);
        // Each summary counts and sums exactly the exported spans.
        let spans = t.all_spans();
        for s in &summaries {
            let of_stage = spans.iter().filter(|r| r.stage == s.stage);
            assert_eq!(s.steps.count, of_stage.clone().count() as u64);
            assert_eq!(s.steps.sum, of_stage.map(SpanRecord::steps).sum::<u64>());
        }
        // Steps 0..5 for the root, 1..4 for broker, 2..3 for network.
        let steps: Vec<(u64, u64)> = summaries
            .iter()
            .map(|s| (s.steps.min, s.steps.max))
            .collect();
        assert_eq!(steps, [(5, 5), (3, 3), (1, 1)]);
        t.clear_spans();
        assert!(t.stage_summaries().is_empty(), "summaries follow the spans");
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
