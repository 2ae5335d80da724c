//! Shared by the user-story tests: what a story flow did, read from the
//! tracer's spans.

use isambard_dri::core::Infrastructure;
use isambard_dri::trace::SpanRecord;

/// The spans of the one flow whose root span is `root` (`story1.onboard_pi`,
/// …) and whose key is the user label `key`, in start order.
pub fn flow_spans(infra: &Infrastructure, root: &str, key: &str) -> Vec<SpanRecord> {
    let spans = infra.tracer.all_spans();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| {
            s.parent_id.is_none()
                && s.name == root
                && s.attrs.iter().any(|(k, v)| k == "flow.key" && v == key)
        })
        .map(|s| s.trace_id)
        .collect();
    assert_eq!(roots.len(), 1, "expected one {root} flow keyed {key}");
    spans
        .into_iter()
        .filter(|s| s.trace_id == roots[0])
        .collect()
}
