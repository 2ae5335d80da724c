//! The SIEM: ingestion, windowed detection rules, alerting and
//! kill-switch recommendations.
//!
//! Producers on the login hot path call [`Siem::enqueue`], which only
//! pushes the event onto a pending buffer under its own short lock: no
//! detection work, no state lock. Pending events are stored in batches
//! under the state lock, either lazily by any accessor
//! ([`Siem::alerts`], [`Siem::events_ingested`], …) or explicitly via
//! [`Siem::flush`].
//!
//! Everything past the pending buffer lives behind one state lock. A
//! flush takes it, then takes the pending batch, sorts it into timeline
//! order, stores it, runs detection and runs the taps over the stored
//! tail, all under the same guard; readers flush and read through that
//! guard too. The lock order is state → pending, and producers only
//! ever take pending. So a read observes exactly the events enqueued
//! before it, including a batch another thread took but has not
//! finished storing. Taps run under the state lock, so they must not
//! call back into the SIEM.

use std::collections::{HashMap, VecDeque};

use dri_clock::{IdGen, SimClock};
use dri_trace::TraceId;
use parking_lot::{Mutex, MutexGuard};

use crate::events::{EventKind, SecurityEvent, Severity};

/// Callback invoked for every stored event (e.g. the rate-anomaly
/// detector taps the stream at flush time). Runs under the SIEM's state
/// lock; it must not call back into the SIEM.
pub type IngestTap = Box<dyn Fn(&SecurityEvent) + Send + Sync>;

/// How many events the pending buffer holds. A producer that finds it
/// full flushes a batch itself (backpressure by work stealing), so
/// events are never dropped.
const INGEST_QUEUE_CAP: usize = 4096;

/// Detection thresholds (all sliding windows in milliseconds).
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// Failed authentications per subject before a credential-stuffing
    /// alert.
    pub authn_failure_threshold: usize,
    /// Window for authentication failures.
    pub authn_window_ms: u64,
    /// Token rejections per subject before a token-abuse alert.
    pub token_reject_threshold: usize,
    /// Window for token rejections.
    pub token_window_ms: u64,
    /// Denied connections from one internal source before a
    /// lateral-movement alert.
    pub lateral_threshold: usize,
    /// Window for denied connections.
    pub lateral_window_ms: u64,
    /// Expired-credential uses per subject before an alert.
    pub expired_cred_threshold: usize,
    /// Window for expired-credential uses.
    pub expired_window_ms: u64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            authn_failure_threshold: 5,
            authn_window_ms: 60_000,
            token_reject_threshold: 5,
            token_window_ms: 60_000,
            lateral_threshold: 3,
            lateral_window_ms: 60_000,
            expired_cred_threshold: 3,
            expired_window_ms: 300_000,
        }
    }
}

/// A raised alert.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Alert id.
    pub id: String,
    /// When raised (ms).
    pub at_ms: u64,
    /// Which rule fired.
    pub rule: &'static str,
    /// Offending subject / source.
    pub subject: String,
    /// Severity.
    pub severity: Severity,
    /// Evidence events counted in the window.
    pub evidence: usize,
    /// Recommended response (`revoke-subject`, `isolate-host`, …).
    pub recommendation: &'static str,
}

#[derive(Default)]
struct SiemState {
    events: Vec<SecurityEvent>,
    alerts: Vec<Alert>,
    /// Per (rule, subject) sliding windows of event timestamps.
    windows: HashMap<(&'static str, String), VecDeque<u64>>,
    /// Per (rule, subject): suppress duplicate alerts until window rolls.
    alerted: HashMap<(&'static str, String), u64>,
    /// Trace id -> indices into `events`, maintained at store time so
    /// pulling a flow's events is a lookup, not a scan.
    trace_index: HashMap<TraceId, Vec<usize>>,
    /// Per-event observers, run over each stored batch.
    taps: Vec<IngestTap>,
    /// An empty buffer swapped in for the pending one at each flush, so
    /// neither side reallocates once both have grown.
    spare: Vec<SecurityEvent>,
}

impl SiemState {
    /// Store an event, keeping the trace-correlation index in step.
    fn store(&mut self, event: SecurityEvent) {
        if let Some(tid) = event.trace_id {
            self.trace_index
                .entry(tid)
                .or_default()
                .push(self.events.len());
        }
        self.events.push(event);
    }
}

/// The SIEM service (runs in SEC).
pub struct Siem {
    clock: SimClock,
    /// Detection thresholds.
    pub config: DetectionConfig,
    /// Stored events, detection state and taps; taken before `pending`.
    state: Mutex<SiemState>,
    /// Events enqueued but not yet stored.
    pending: Mutex<Vec<SecurityEvent>>,
    ids: IdGen,
}

impl Siem {
    /// Create a SIEM with the given detection thresholds.
    pub fn new(clock: SimClock, config: DetectionConfig) -> Siem {
        Siem {
            clock,
            config,
            state: Mutex::new(SiemState::default()),
            pending: Mutex::new(Vec::new()),
            ids: IdGen::new("alert"),
        }
    }

    /// Register a per-event observer invoked at flush time (e.g. the
    /// rate-anomaly detector).
    pub fn register_tap(&self, tap: IngestTap) {
        self.state.lock().taps.push(tap);
    }

    /// Fire-and-forget ingestion: push the event onto the pending buffer
    /// and return — no detection work, no state lock. If the buffer is
    /// full, the caller flushes a batch itself (backpressure by work
    /// stealing) first; events are never dropped.
    pub fn enqueue(&self, event: SecurityEvent) {
        let mut pending = self.pending.lock();
        while pending.len() >= INGEST_QUEUE_CAP {
            drop(pending);
            self.flush();
            pending = self.pending.lock();
        }
        pending.push(event);
    }

    /// Store everything pending and run detection. Returns alerts raised
    /// by the stored events. Waits for any batch another thread is still
    /// storing, so on return every event enqueued before the call has
    /// been stored, tapped and alerted on.
    pub fn flush(&self) -> Vec<Alert> {
        self.drain_pending(&mut self.state.lock())
    }

    /// The state after a flush, still locked, for readers.
    fn flushed(&self) -> MutexGuard<'_, SiemState> {
        let mut state = self.state.lock();
        self.drain_pending(&mut state);
        state
    }

    /// Take the pending batch and store it; the caller holds `state`.
    fn drain_pending(&self, state: &mut SiemState) -> Vec<Alert> {
        let spare = std::mem::take(&mut state.spare);
        let mut batch = std::mem::replace(&mut *self.pending.lock(), spare);
        // Merge concurrent producers into timeline order; the sort is
        // stable, so same-timestamp events keep their enqueue order.
        batch.sort_by_key(|e| e.at_ms);
        let alerts = self.store_batch(state, batch.drain(..));
        state.spare = batch;
        alerts
    }

    /// Number of events waiting in the pending buffer.
    pub fn pending(&self) -> usize {
        self.pending.lock().len()
    }

    /// Ingest a batch of events synchronously, running detection on
    /// each. Pending events are stored first so the timeline stays in
    /// order; the returned alerts are those raised by `events`.
    pub fn ingest(&self, events: Vec<SecurityEvent>) -> Vec<Alert> {
        self.store_batch(&mut self.flushed(), events)
    }

    /// Store `events` in order, running detection on each, then run the
    /// taps over the stored tail.
    fn store_batch(
        &self,
        state: &mut SiemState,
        events: impl IntoIterator<Item = SecurityEvent>,
    ) -> Vec<Alert> {
        let first = state.events.len();
        let new_alerts = events
            .into_iter()
            .filter_map(|event| self.process(state, event))
            .collect();
        for event in &state.events[first..] {
            for tap in &state.taps {
                tap(event);
            }
        }
        new_alerts
    }

    fn process(&self, state: &mut SiemState, event: SecurityEvent) -> Option<Alert> {
        let (rule, key, threshold, window_ms, severity, recommendation) = match event.kind {
            EventKind::AuthnFailure => (
                "credential-stuffing",
                event.subject.clone(),
                self.config.authn_failure_threshold,
                self.config.authn_window_ms,
                Severity::High,
                "suspend-subject",
            ),
            EventKind::TokenRejected => (
                "token-abuse",
                event.subject.clone(),
                self.config.token_reject_threshold,
                self.config.token_window_ms,
                Severity::High,
                "revoke-subject",
            ),
            EventKind::ConnDenied if !event.source.starts_with("internet") => (
                "lateral-movement",
                event.source.clone(),
                self.config.lateral_threshold,
                self.config.lateral_window_ms,
                Severity::Critical,
                "isolate-host",
            ),
            EventKind::ExpiredCredentialUse => (
                "expired-credential-replay",
                event.subject.clone(),
                self.config.expired_cred_threshold,
                self.config.expired_window_ms,
                Severity::Warning,
                "notify-user",
            ),
            // Trace-shape finding: a single PDP bypass is already an
            // incident — no windowed accumulation needed.
            EventKind::PdpBypass => (
                "pdp-bypass",
                event.subject.clone(),
                1,
                60_000,
                Severity::Critical,
                "revoke-subject",
            ),
            _ => {
                state.store(event);
                return None;
            }
        };

        let at_ms = event.at_ms;
        state.store(event);

        let win = state.windows.entry((rule, key.clone())).or_default();
        while win
            .front()
            .is_some_and(|t| at_ms.saturating_sub(*t) > window_ms)
        {
            win.pop_front();
        }
        win.push_back(at_ms);
        let evidence = win.len();
        if evidence < threshold {
            return None;
        }
        // Deduplicate: one alert per (rule, subject) per window.
        if let Some(last) = state.alerted.get(&(rule, key.clone())) {
            if at_ms.saturating_sub(*last) <= window_ms {
                return None;
            }
        }
        state.alerted.insert((rule, key.clone()), at_ms);
        let alert = Alert {
            id: self.ids.next(),
            at_ms: self.clock.now_ms(),
            rule,
            subject: key,
            severity,
            evidence,
            recommendation,
        };
        state.alerts.push(alert.clone());
        Some(alert)
    }

    /// All alerts so far (stores pending events first).
    pub fn alerts(&self) -> Vec<Alert> {
        self.flushed().alerts.clone()
    }

    /// Total events ingested (stores pending events first).
    pub fn events_ingested(&self) -> u64 {
        self.flushed().events.len() as u64
    }

    /// Events matching a kind (forensics queries; stores pending events
    /// first).
    pub fn events_of_kind(&self, kind: EventKind) -> Vec<SecurityEvent> {
        self.flushed()
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Every stored event correlated to `trace_id`, in ingest order —
    /// an index lookup (O(events-of-this-trace)), not a scan of the
    /// whole store. This is how `respond_to_alert` pulls the full
    /// originating flow. Stores pending events first.
    pub fn events_for_trace(&self, trace_id: TraceId) -> Vec<SecurityEvent> {
        let state = self.flushed();
        match state.trace_index.get(&trace_id) {
            Some(indices) => indices.iter().map(|&i| state.events[i].clone()).collect(),
            None => Vec::new(),
        }
    }

    /// Number of distinct trace ids in the correlation index.
    pub fn indexed_trace_count(&self) -> usize {
        self.flushed().trace_index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn siem() -> (Siem, SimClock) {
        let clock = SimClock::new();
        (Siem::new(clock.clone(), DetectionConfig::default()), clock)
    }

    fn failure(at_ms: u64, subject: &str) -> SecurityEvent {
        SecurityEvent::new(
            at_ms,
            "fds/broker",
            EventKind::AuthnFailure,
            subject,
            "bad password",
            Severity::Warning,
        )
    }

    #[test]
    fn credential_stuffing_detected_at_threshold() {
        let (siem, clock) = siem();
        for i in 0..4 {
            clock.advance(100);
            assert!(
                siem.ingest(vec![failure(clock.now_ms(), "maid-1")])
                    .is_empty(),
                "{i}"
            );
        }
        clock.advance(100);
        let alerts = siem.ingest(vec![failure(clock.now_ms(), "maid-1")]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "credential-stuffing");
        assert_eq!(alerts[0].subject, "maid-1");
        assert_eq!(alerts[0].evidence, 5);
        assert_eq!(alerts[0].recommendation, "suspend-subject");
    }

    #[test]
    fn failures_outside_window_do_not_accumulate() {
        let (siem, clock) = siem();
        for _ in 0..10 {
            clock.advance(61_000); // each failure falls outside the window
            assert!(siem
                .ingest(vec![failure(clock.now_ms(), "maid-1")])
                .is_empty());
        }
        assert!(siem.alerts().is_empty());
    }

    #[test]
    fn different_subjects_tracked_separately() {
        let (siem, clock) = siem();
        for i in 0..4 {
            clock.advance(10);
            siem.ingest(vec![failure(clock.now_ms(), &format!("user-{i}"))]);
        }
        assert!(siem.alerts().is_empty());
    }

    #[test]
    fn duplicate_alerts_suppressed_within_window() {
        let (siem, clock) = siem();
        let mut alerts = 0;
        for _ in 0..20 {
            clock.advance(100);
            alerts += siem.ingest(vec![failure(clock.now_ms(), "maid-1")]).len();
        }
        assert_eq!(alerts, 1, "one alert per window, not one per event");
    }

    #[test]
    fn lateral_movement_from_internal_host() {
        let (siem, clock) = siem();
        let denied = |at| {
            SecurityEvent::new(
                at,
                "mdc/login01",
                EventKind::ConnDenied,
                "",
                "tried mdc/mgmt01",
                Severity::Warning,
            )
        };
        clock.advance(10);
        siem.ingest(vec![denied(clock.now_ms())]);
        clock.advance(10);
        siem.ingest(vec![denied(clock.now_ms())]);
        clock.advance(10);
        let alerts = siem.ingest(vec![denied(clock.now_ms())]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "lateral-movement");
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(alerts[0].recommendation, "isolate-host");
    }

    #[test]
    fn internet_denials_are_not_lateral_movement() {
        let (siem, clock) = siem();
        for _ in 0..10 {
            clock.advance(10);
            siem.ingest(vec![SecurityEvent::new(
                clock.now_ms(),
                "internet/203.0.113.9",
                EventKind::ConnDenied,
                "",
                "scan",
                Severity::Info,
            )]);
        }
        assert!(siem.alerts().is_empty());
    }

    #[test]
    fn info_events_stored_but_not_alerting() {
        let (siem, clock) = siem();
        clock.advance(5);
        siem.ingest(vec![SecurityEvent::new(
            clock.now_ms(),
            "fds/broker",
            EventKind::TokenIssued,
            "maid-1",
            "aud=ssh-ca",
            Severity::Info,
        )]);
        assert_eq!(siem.events_ingested(), 1);
        assert!(siem.alerts().is_empty());
        assert_eq!(siem.events_of_kind(EventKind::TokenIssued).len(), 1);
    }

    #[test]
    fn token_abuse_detected() {
        let (siem, clock) = siem();
        for _ in 0..5 {
            clock.advance(10);
            siem.ingest(vec![SecurityEvent::new(
                clock.now_ms(),
                "mdc/login01",
                EventKind::TokenRejected,
                "maid-1",
                "bad signature",
                Severity::Warning,
            )]);
        }
        let alerts = siem.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "token-abuse");
        assert_eq!(alerts[0].recommendation, "revoke-subject");
    }

    #[test]
    fn enqueue_is_deferred_until_flush_or_read() {
        let (siem, clock) = siem();
        for _ in 0..5 {
            clock.advance(10);
            siem.enqueue(failure(clock.now_ms(), "maid-1"));
        }
        assert_eq!(siem.pending(), 5);
        // Any accessor drains the queue and runs detection.
        let alerts = siem.alerts();
        assert_eq!(siem.pending(), 0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "credential-stuffing");
        assert_eq!(siem.events_ingested(), 5);
    }

    #[test]
    fn flush_merges_concurrent_producers_in_timeline_order() {
        let (siem, clock) = siem();
        clock.advance(1_000);
        let at = clock.now_ms();
        crossbeam::thread::scope(|scope| {
            for t in 0..4 {
                let siem = &siem;
                scope.spawn(move |_| {
                    for i in 0..50 {
                        siem.enqueue(SecurityEvent::new(
                            at + i,
                            "fds/broker",
                            EventKind::TokenIssued,
                            format!("maid-{t}"),
                            "aud=ssh-ca",
                            Severity::Info,
                        ));
                    }
                });
            }
        })
        .expect("producer threads");
        assert_eq!(siem.events_ingested(), 200);
        let events = siem.events_of_kind(EventKind::TokenIssued);
        assert!(events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn full_queue_applies_backpressure_without_losing_events() {
        let (siem, clock) = siem();
        clock.advance(10);
        let at = clock.now_ms();
        for _ in 0..(super::INGEST_QUEUE_CAP + 100) {
            siem.enqueue(SecurityEvent::new(
                at,
                "fds/broker",
                EventKind::TokenIssued,
                "maid-1",
                "aud=ssh-ca",
                Severity::Info,
            ));
        }
        assert_eq!(
            siem.events_ingested(),
            (super::INGEST_QUEUE_CAP + 100) as u64
        );
    }

    #[test]
    fn trace_index_joins_events_without_a_scan() {
        let (siem, clock) = siem();
        clock.advance(10);
        let at = clock.now_ms();
        let (a, b) = (TraceId([0xaa; 16]), TraceId([0xbb; 16]));
        // Two flows interleaved, plus an uncorrelated event.
        for i in 0..3u64 {
            siem.enqueue(failure(at + i, "maid-1").with_trace_id(Some(a)));
            siem.enqueue(failure(at + i, "maid-2").with_trace_id(Some(b)));
        }
        siem.enqueue(failure(at + 9, "maid-3"));
        let flow_a = siem.events_for_trace(a);
        assert_eq!(flow_a.len(), 3);
        assert!(flow_a.iter().all(|e| e.subject == "maid-1"));
        assert!(flow_a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(siem.events_for_trace(b).len(), 3);
        assert!(siem.events_for_trace(TraceId([0xcc; 16])).is_empty());
        assert_eq!(siem.indexed_trace_count(), 2);
    }

    #[test]
    fn tap_sees_every_drained_event() {
        let (siem, clock) = siem();
        let seen = Arc::new(AtomicUsize::new(0));
        let s2 = seen.clone();
        siem.register_tap(Box::new(move |_event| {
            s2.fetch_add(1, Ordering::Relaxed);
        }));
        for _ in 0..7 {
            clock.advance(10);
            siem.enqueue(failure(clock.now_ms(), "maid-1"));
        }
        siem.ingest(vec![failure(clock.now_ms(), "maid-2")]);
        assert_eq!(seen.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn taps_see_the_stored_events_in_store_order() {
        let (siem, clock) = siem();
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = seen.clone();
            siem.register_tap(Box::new(move |event| {
                seen.lock().push((event.at_ms, event.subject.clone()));
            }));
        }
        // Enqueued out of timeline order; the drain sorts, then stores by
        // move, and the taps read the stored batch.
        clock.advance(100);
        let at = clock.now_ms();
        for (dt, subject) in [(3, "maid-3"), (1, "maid-1"), (2, "maid-2")] {
            siem.enqueue(failure(at + dt, subject));
        }
        siem.ingest(vec![failure(at + 9, "maid-9")]);
        let stored: Vec<(u64, String)> = siem
            .events_of_kind(EventKind::AuthnFailure)
            .into_iter()
            .map(|e| (e.at_ms, e.subject))
            .collect();
        assert_eq!(*seen.lock(), stored);
        assert_eq!(
            stored.iter().map(|(_, s)| s.as_str()).collect::<Vec<_>>(),
            ["maid-1", "maid-2", "maid-3", "maid-9"]
        );
        assert_eq!(siem.events_ingested(), 4);
    }

    #[test]
    fn flush_waits_for_a_batch_another_thread_is_draining() {
        let (siem, clock) = siem();
        let entered = Arc::new(AtomicBool::new(false));
        let tapped = Arc::new(AtomicBool::new(false));
        {
            let (entered, tapped) = (entered.clone(), tapped.clone());
            siem.register_tap(Box::new(move |_event| {
                entered.store(true, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(50));
                tapped.store(true, Ordering::SeqCst);
            }));
        }
        clock.advance(10);
        siem.enqueue(failure(clock.now_ms(), "maid-1"));
        std::thread::scope(|scope| {
            scope.spawn(|| siem.flush());
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The other thread has dequeued the event and sits in its
            // tap: the queue is empty, yet this flush must not return
            // before that batch is fully processed.
            assert_eq!(siem.pending(), 0);
            siem.flush();
            assert!(
                tapped.load(Ordering::SeqCst),
                "flush returned before the in-flight batch was tapped"
            );
        });
        assert_eq!(siem.events_ingested(), 1);
    }
}
