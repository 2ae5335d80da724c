//! Trace-shape detection rules: findings over the span tree itself
//! rather than over event kinds or rates.
//!
//! The first rule closes the ROADMAP item "SIEM detection rules keyed
//! on trace shape": any flow whose `sshca`-stage span has **no
//! preceding `policy`-stage span** reached the certificate authority
//! without a PDP evaluation — a policy-enforcement bypass. "Preceding"
//! is judged on the deterministic per-trace logical step counter
//! (`start_step`), so the audit yields identical findings however the
//! flows were scheduled across worker threads.

use std::collections::BTreeMap;

use dri_trace::{SpanRecord, Stage, TraceId};

use crate::events::{EventKind, SecurityEvent, Severity};

/// One PDP-bypass finding: a trace that reached the SSH CA without a
/// prior policy evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdpBypassFinding {
    /// Trace id of the offending flow.
    pub trace_id: TraceId,
    /// Name of the first `sshca`-stage span with no preceding `policy`
    /// span (e.g. `sshca.sign`).
    pub span_name: String,
    /// Logical step at which the unvetted CA hop started.
    pub start_step: u64,
    /// Simulated time (ms) the hop started.
    pub at_ms: u64,
}

/// Scan a span set for flows whose `sshca` span has no preceding
/// `policy` span. At most one finding is reported per trace, and the
/// findings come back sorted by trace id so repeated audits over the
/// same spans are byte-stable.
pub fn find_pdp_bypasses(spans: &[SpanRecord]) -> Vec<PdpBypassFinding> {
    // Per trace: earliest sshca span and earliest policy start step.
    let mut by_trace: BTreeMap<TraceId, (Option<&SpanRecord>, Option<u64>)> = BTreeMap::new();
    for span in spans {
        let entry = by_trace.entry(span.trace_id).or_default();
        match span.stage {
            Stage::SshCa if entry.0.is_none_or(|s| span.start_step < s.start_step) => {
                entry.0 = Some(span);
            }
            Stage::Policy if entry.1.is_none_or(|step| span.start_step < step) => {
                entry.1 = Some(span.start_step);
            }
            _ => {}
        }
    }
    by_trace
        .into_iter()
        .filter_map(|(trace_id, (sshca, policy_step))| {
            let sshca = sshca?;
            let vetted = policy_step.is_some_and(|step| step < sshca.start_step);
            (!vetted).then(|| PdpBypassFinding {
                trace_id,
                span_name: sshca.name.to_string(),
                start_step: sshca.start_step,
                at_ms: sshca.start_ms,
            })
        })
        .collect()
}

/// Render findings as [`EventKind::PdpBypass`] events (one per trace,
/// citing the trace id) ready for [`crate::Siem::ingest`]. The SIEM's
/// `pdp-bypass` rule alerts on the first one.
pub fn pdp_bypass_events(findings: &[PdpBypassFinding], source: &str) -> Vec<SecurityEvent> {
    findings
        .iter()
        .map(|f| {
            SecurityEvent::new(
                f.at_ms,
                source,
                EventKind::PdpBypass,
                f.trace_id.to_hex(),
                format!(
                    "{} at step {} with no preceding policy evaluation (trace {})",
                    f.span_name, f.start_step, f.trace_id
                ),
                Severity::Critical,
            )
            .with_trace_id(Some(f.trace_id))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_trace::Tracer;
    use std::sync::Arc;

    /// Record one flow with the given (name, stage) hops, in order.
    fn record_flow(tracer: &Arc<Tracer>, key: &str, hops: &[(&'static str, Stage)]) -> TraceId {
        let flow = dri_trace::flow(tracer, key, "login", Stage::Flow);
        let trace_id = dri_trace::current_trace_id().expect("flow active");
        for (name, stage) in hops {
            let _s = dri_trace::span(name, *stage);
        }
        drop(flow);
        trace_id
    }

    fn tracer() -> Arc<Tracer> {
        let t = Arc::new(Tracer::new(7, 4, dri_clock::SimClock::new()));
        t.set_enabled(true);
        t
    }

    #[test]
    fn vetted_flow_is_clean() {
        let t = tracer();
        record_flow(
            &t,
            "alice",
            &[
                ("policy.decide", Stage::Policy),
                ("sshca.sign", Stage::SshCa),
            ],
        );
        assert!(find_pdp_bypasses(&t.all_spans()).is_empty());
    }

    #[test]
    fn sshca_without_policy_is_flagged_once_per_trace() {
        let t = tracer();
        let bad = record_flow(
            &t,
            "mallory",
            &[("sshca.sign", Stage::SshCa), ("sshca.sign", Stage::SshCa)],
        );
        record_flow(
            &t,
            "alice",
            &[
                ("policy.decide", Stage::Policy),
                ("sshca.sign", Stage::SshCa),
            ],
        );
        let findings = find_pdp_bypasses(&t.all_spans());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].trace_id, bad);
        assert_eq!(findings[0].span_name, "sshca.sign");
    }

    #[test]
    fn policy_after_the_ca_hop_does_not_count() {
        let t = tracer();
        let bad = record_flow(
            &t,
            "mallory",
            &[
                ("sshca.sign", Stage::SshCa),
                ("policy.decide", Stage::Policy),
            ],
        );
        let findings = find_pdp_bypasses(&t.all_spans());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].trace_id, bad);
    }

    #[test]
    fn flows_without_sshca_are_ignored() {
        let t = tracer();
        record_flow(&t, "alice", &[("broker.issue", Stage::Broker)]);
        assert!(find_pdp_bypasses(&t.all_spans()).is_empty());
    }

    #[test]
    fn events_cite_the_trace_id_and_alert_immediately() {
        let t = tracer();
        let bad = record_flow(&t, "mallory", &[("sshca.sign", Stage::SshCa)]);
        let findings = find_pdp_bypasses(&t.all_spans());
        let events = pdp_bypass_events(&findings, "sec/siem");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::PdpBypass);
        assert_eq!(events[0].trace_id, Some(bad));
        assert_eq!(events[0].subject, bad.to_hex());
        assert!(events[0].detail.contains(&bad.to_hex()));

        let siem = crate::Siem::new(dri_clock::SimClock::new(), Default::default());
        let alerts = siem.ingest(events);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "pdp-bypass");
        assert_eq!(alerts[0].severity, Severity::Critical);
        // The SOC can join back to the offending flow via the index.
        assert_eq!(siem.events_for_trace(bad).len(), 1);
    }
}
