//! The security-event vocabulary forwarded from every domain.

use dri_trace::TraceId;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine (successful operations).
    Info,
    /// Suspicious but not conclusive.
    Warning,
    /// Requires attention.
    High,
    /// Active incident.
    Critical,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Failed interactive authentication.
    AuthnFailure,
    /// Successful interactive authentication.
    AuthnSuccess,
    /// RBAC token issued.
    TokenIssued,
    /// A service rejected a presented token.
    TokenRejected,
    /// Use of an expired credential (token or certificate).
    ExpiredCredentialUse,
    /// SSH certificate issued.
    CertIssued,
    /// Connection allowed by the fabric.
    ConnAllowed,
    /// Connection denied by the fabric.
    ConnDenied,
    /// Request blocked at the edge (rate/blocklist).
    EdgeBlocked,
    /// Privileged management operation executed.
    PrivilegedOp,
    /// Batch job submitted.
    JobSubmitted,
    /// Notebook session spawned.
    NotebookSpawned,
    /// Kill switch activated.
    KillSwitch,
    /// A circuit breaker changed state (closed/open/half-open).
    BreakerTransition,
    /// A login succeeded in degraded mode (IdP-of-last-resort failover).
    DegradedLogin,
    /// The fault plane injected a failure into a hop.
    FaultInjected,
    /// Trace-shape detection: a flow reached the SSH CA without a
    /// preceding policy evaluation (PDP bypass).
    PdpBypass,
    /// A dependency spent its error budget for the current window.
    BudgetExhausted,
    /// The SIEM feedback loop tightened or relaxed resilience
    /// thresholds (breaker config / retry budget) for a dependency.
    BudgetFeedback,
}

/// One event in the pipeline.
#[derive(Debug, Clone)]
pub struct SecurityEvent {
    /// Simulated time (ms).
    pub at_ms: u64,
    /// Emitting component (`fds/broker`, `sws/bastion`, `mdc/login01` …).
    pub source: String,
    /// Event kind.
    pub kind: EventKind,
    /// Subject involved, when known (cuid, `admin:x`, source IP, …).
    pub subject: String,
    /// Free-text detail.
    pub detail: String,
    /// Severity assigned by the emitter.
    pub severity: Severity,
    /// Trace id of the flow that caused this event, when the emitter
    /// ran inside a traced flow — the SOC's join key back to the full
    /// span tree of the originating login.
    pub trace_id: Option<TraceId>,
}

impl SecurityEvent {
    /// Convenience constructor. Stamps the calling thread's active
    /// trace id (if any), so events emitted mid-flow correlate to the
    /// flow for free.
    pub fn new(
        at_ms: u64,
        source: impl Into<String>,
        kind: EventKind,
        subject: impl Into<String>,
        detail: impl Into<String>,
        severity: Severity,
    ) -> SecurityEvent {
        SecurityEvent {
            at_ms,
            source: source.into(),
            kind,
            subject: subject.into(),
            detail: detail.into(),
            severity,
            trace_id: dri_trace::current_trace_id(),
        }
    }

    /// Override the trace correlation, for emitters that act *after*
    /// the causing flow finished (e.g. a kill switch severing a session
    /// established by an earlier login carries that login's trace id).
    pub fn with_trace_id(mut self, trace_id: Option<TraceId>) -> SecurityEvent {
        self.trace_id = trace_id;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Critical > Severity::High);
        assert!(Severity::High > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn event_constructor() {
        let e = SecurityEvent::new(
            10,
            "fds/broker",
            EventKind::AuthnFailure,
            "maid-1",
            "bad password",
            Severity::Warning,
        );
        assert_eq!(e.source, "fds/broker");
        assert_eq!(e.kind, EventKind::AuthnFailure);
        assert_eq!(e.trace_id, None, "no flow active in unit tests");
    }

    #[test]
    fn trace_id_can_be_overridden() {
        let e = SecurityEvent::new(
            10,
            "mgmt/killswitch",
            EventKind::KillSwitch,
            "maid-1",
            "severed",
            Severity::Critical,
        )
        .with_trace_id(Some(TraceId([0xde; 16])));
        assert_eq!(e.trace_id, Some(TraceId([0xde; 16])));
    }
}
