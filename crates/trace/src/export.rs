//! Deterministic exporters over collected spans.
//!
//! Both exporters consume the canonical span order produced by
//! [`Tracer::all_spans`](crate::Tracer::all_spans) and use only
//! deterministic fields (logical steps, simulated ms, attributes) — no
//! wall-clock readings — so the same seed yields byte-identical output
//! for serial and parallel runs.

use std::collections::BTreeMap;

use dri_crypto::json::Value;

use crate::ids::{SpanId, TraceId};
use crate::tracer::SpanRecord;

/// Render spans as chrome-trace ("catapult") JSON: complete (`ph: "X"`)
/// events, one per span, with the logical step counter as the
/// microsecond timeline. Load the result in `chrome://tracing` or
/// Perfetto. Each trace gets its own `tid` lane, assigned in canonical
/// trace-id order.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut lanes: BTreeMap<TraceId, u64> = BTreeMap::new();
    for s in spans {
        let next = lanes.len() as u64;
        lanes.entry(s.trace_id).or_insert(next);
    }
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut args = BTreeMap::new();
            args.insert("trace_id".to_string(), Value::s(s.trace_id.to_hex()));
            args.insert("span_id".to_string(), Value::s(s.span_id.to_hex()));
            if let Some(p) = s.parent_id {
                args.insert("parent_id".to_string(), Value::s(p.to_hex()));
            }
            args.insert("sim_start_ms".to_string(), Value::u(s.start_ms));
            args.insert("sim_end_ms".to_string(), Value::u(s.end_ms));
            for (k, v) in &s.attrs {
                // The `cache.` prefix is reserved for hit/miss
                // observations whose values depend on thread
                // interleaving (a parallel storm races on the first
                // miss) and on whether the caches are enabled; the
                // `budget.` prefix carries error-budget burn readings
                // whose values race the same way (many lanes feed one
                // window's counters). Both are excluded from the export
                // so a seed yields byte-identical traces serial vs
                // parallel and cache on vs off.
                if k.starts_with("cache.") || k.starts_with("budget.") {
                    continue;
                }
                args.insert(format!("attr.{k}"), Value::s(v.clone()));
            }
            Value::obj([
                ("ph", Value::s("X")),
                ("name", Value::s(s.name)),
                ("cat", Value::s(s.stage.as_str())),
                ("ts", Value::u(s.start_step)),
                ("dur", Value::u(s.steps())),
                ("pid", Value::u(1)),
                ("tid", Value::u(lanes[&s.trace_id])),
                ("args", Value::Obj(args)),
            ])
        })
        .collect();
    Value::obj([
        ("displayTimeUnit", Value::s("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
    .to_json()
}

/// Render spans as a collapsed-stack ("flamegraph") rollup: one line
/// per distinct root→leaf name path, `stack;path count`, weighted by
/// self-time in logical steps and sorted lexicographically.
pub fn flamegraph(spans: &[SpanRecord]) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    // Index spans per trace for parent-chain walks, and sum each span's
    // direct children's steps in the same pass.
    let mut by_id: BTreeMap<(TraceId, SpanId), &SpanRecord> = BTreeMap::new();
    let mut child_steps: BTreeMap<(TraceId, SpanId), u64> = BTreeMap::new();
    for s in spans {
        by_id.insert((s.trace_id, s.span_id), s);
        if let Some(parent) = s.parent_id {
            *child_steps.entry((s.trace_id, parent)).or_insert(0) += s.steps();
        }
    }
    for s in spans {
        // Self time: own steps minus direct children's steps.
        let children = child_steps.get(&(s.trace_id, s.span_id)).copied();
        let self_steps = s.steps().saturating_sub(children.unwrap_or(0));
        // Build the path root-first.
        let mut path = vec![s.name];
        let mut cursor = s.parent_id;
        while let Some(pid) = cursor {
            match by_id.get(&(s.trace_id, pid)) {
                Some(parent) => {
                    path.push(parent.name);
                    cursor = parent.parent_id;
                }
                None => break,
            }
        }
        path.reverse();
        *weights.entry(path.join(";")).or_insert(0) += self_steps;
    }
    let mut out = String::new();
    for (stack, weight) in weights {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Structural defects [`well_formed`] can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A span references a parent id that is not in its trace.
    MissingParent {
        /// Trace containing the dangling reference.
        trace: String,
        /// The offending span.
        span: String,
    },
    /// A trace has not exactly one root span.
    RootCount {
        /// The trace.
        trace: String,
        /// How many parentless spans it contains.
        roots: usize,
    },
    /// A span's interval does not nest strictly inside its parent's.
    BadNesting {
        /// The trace.
        trace: String,
        /// The offending span.
        span: String,
    },
    /// A parent chain loops (or exceeds the span count, which implies
    /// a loop).
    Cycle {
        /// The trace.
        trace: String,
        /// The span whose ancestry never terminates.
        span: String,
    },
    /// Two spans in one trace share an id.
    DuplicateSpanId {
        /// The trace.
        trace: String,
        /// The duplicated id.
        span: String,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::MissingParent { trace, span } => {
                write!(f, "trace {trace}: span {span} has a missing parent")
            }
            TreeError::RootCount { trace, roots } => {
                write!(f, "trace {trace}: {roots} roots (expected 1)")
            }
            TreeError::BadNesting { trace, span } => {
                write!(f, "trace {trace}: span {span} does not nest in its parent")
            }
            TreeError::Cycle { trace, span } => {
                write!(f, "trace {trace}: span {span} ancestry cycles")
            }
            TreeError::DuplicateSpanId { trace, span } => {
                write!(f, "trace {trace}: duplicate span id {span}")
            }
        }
    }
}

/// Check every trace in `spans` is a well-formed tree: unique span ids,
/// exactly one root, every parent present, child intervals strictly
/// inside their parent's, and no ancestry cycles.
pub fn well_formed(spans: &[SpanRecord]) -> Result<(), TreeError> {
    let mut traces: BTreeMap<TraceId, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        traces.entry(s.trace_id).or_default().push(s);
    }
    for (trace_id, members) in &traces {
        let trace = trace_id.to_hex();
        let mut by_id: BTreeMap<SpanId, &SpanRecord> = BTreeMap::new();
        for s in members {
            if by_id.insert(s.span_id, s).is_some() {
                return Err(TreeError::DuplicateSpanId {
                    trace: trace.clone(),
                    span: s.span_id.to_hex(),
                });
            }
        }
        let roots = members.iter().filter(|s| s.parent_id.is_none()).count();
        if roots != 1 {
            return Err(TreeError::RootCount { trace, roots });
        }
        for s in members {
            if let Some(pid) = s.parent_id {
                let Some(parent) = by_id.get(&pid) else {
                    return Err(TreeError::MissingParent {
                        trace: trace.clone(),
                        span: s.span_id.to_hex(),
                    });
                };
                if s.start_step <= parent.start_step || s.end_step >= parent.end_step {
                    return Err(TreeError::BadNesting {
                        trace: trace.clone(),
                        span: s.span_id.to_hex(),
                    });
                }
            }
            // Walk the ancestry; more hops than spans implies a cycle.
            let mut cursor = s.parent_id;
            let mut hops = 0usize;
            while let Some(pid) = cursor {
                hops += 1;
                if hops > members.len() {
                    return Err(TreeError::Cycle {
                        trace: trace.clone(),
                        span: s.span_id.to_hex(),
                    });
                }
                cursor = by_id.get(&pid).and_then(|p| p.parent_id);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{flow, span, Stage, Tracer};
    use dri_clock::SimClock;
    use std::sync::Arc;

    fn sample_spans() -> Vec<SpanRecord> {
        let t = Arc::new(Tracer::new(42, 4, SimClock::new()));
        t.set_enabled(true);
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            {
                let _a = span("broker.establish", Stage::Broker);
                let _b = span("net.connect", Stage::Network);
            }
            let _c = span("jupyter.spawn", Stage::Cluster);
        }
        t.all_spans()
    }

    #[test]
    fn chrome_export_is_valid_json_and_deterministic() {
        let spans = sample_spans();
        let out1 = chrome_trace(&spans);
        let out2 = chrome_trace(&sample_spans());
        assert_eq!(out1, out2);
        let parsed = Value::parse(&out1).expect("valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        for ev in events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("dur").unwrap().as_u64().unwrap() >= 1);
        }
    }

    #[test]
    fn racy_attr_prefixes_are_excluded_from_chrome_export() {
        let t = Arc::new(Tracer::new(42, 4, SimClock::new()));
        t.set_enabled(true);
        {
            let _f = flow(&t, "alice", "login", Stage::Flow);
            let _a = span("broker.establish", Stage::Broker);
            crate::tracer::add_attr("cache.token", "hit");
            crate::tracer::add_attr("budget.burn_per_mille", "130");
            crate::tracer::add_attr("audience", "jupyter");
        }
        let out = chrome_trace(&t.all_spans());
        assert!(!out.contains("cache.token"));
        assert!(!out.contains("budget.burn_per_mille"));
        assert!(out.contains("attr.audience"));
    }

    #[test]
    fn flamegraph_rolls_up_self_time() {
        let spans = sample_spans();
        let out = flamegraph(&spans);
        assert!(out.contains("login;broker.establish;net.connect "));
        assert!(out.contains("login;jupyter.spawn "));
        // Total weight equals the root's total steps.
        let root_steps = spans
            .iter()
            .find(|s| s.parent_id.is_none())
            .unwrap()
            .steps();
        let total: u64 = out
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, root_steps);
    }

    /// The nested-scan rollup [`flamegraph`] replaced: each span's
    /// children found by scanning every span.
    fn flamegraph_reference(spans: &[SpanRecord]) -> String {
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_id: BTreeMap<(TraceId, SpanId), &SpanRecord> = BTreeMap::new();
        for s in spans {
            by_id.insert((s.trace_id, s.span_id), s);
        }
        for s in spans {
            let child_steps: u64 = spans
                .iter()
                .filter(|c| c.trace_id == s.trace_id && c.parent_id == Some(s.span_id))
                .map(|c| c.steps())
                .sum();
            let self_steps = s.steps().saturating_sub(child_steps);
            let mut path = vec![s.name];
            let mut cursor = s.parent_id;
            while let Some(pid) = cursor {
                match by_id.get(&(s.trace_id, pid)) {
                    Some(parent) => {
                        path.push(parent.name);
                        cursor = parent.parent_id;
                    }
                    None => break,
                }
            }
            path.reverse();
            *weights.entry(path.join(";")).or_insert(0) += self_steps;
        }
        let mut out = String::new();
        for (stack, weight) in weights {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    #[test]
    fn one_pass_flamegraph_matches_the_nested_scan_on_a_storm() {
        let t = Arc::new(Tracer::new(7, 4, SimClock::new()));
        t.set_enabled(true);
        // 700 flows of 2 to 8 spans in varying shapes: 3 500 spans, with
        // one subject repeated so several flows share paths.
        for i in 0..700u32 {
            let subject = ["alice", "bob", "carol", "dave", "erin"][i as usize % 5];
            let _f = flow(&t, subject, "login", Stage::Flow);
            {
                let _a = span("broker.establish", Stage::Broker);
                for _ in 0..i % 3 {
                    let _b = span("net.connect", Stage::Network);
                }
            }
            if i % 2 == 0 {
                let _c = span("jupyter.spawn", Stage::Cluster);
                let _d = span("net.connect", Stage::Network);
            }
            let _e = span("siem.emit", Stage::Siem);
        }
        let spans = t.all_spans();
        assert!(spans.len() > 3000, "{} spans", spans.len());
        assert_eq!(flamegraph(&spans), flamegraph_reference(&spans));
        // Spans whose parent is missing are rolled up from where their
        // chain breaks, the same way by both.
        let orphans: Vec<SpanRecord> = spans
            .iter()
            .filter(|s| s.name != "broker.establish")
            .cloned()
            .collect();
        assert_eq!(flamegraph(&orphans), flamegraph_reference(&orphans));
    }

    #[test]
    fn well_formed_accepts_real_trees() {
        assert_eq!(well_formed(&sample_spans()), Ok(()));
    }

    #[test]
    fn well_formed_rejects_defects() {
        let mut spans = sample_spans();
        // Dangling parent.
        let mut broken = spans.clone();
        broken[1].parent_id = Some(SpanId([0xee; 8]));
        assert!(matches!(
            well_formed(&broken),
            Err(TreeError::MissingParent { .. })
        ));
        // Two roots.
        let mut broken = spans.clone();
        let idx = broken.iter().position(|s| s.parent_id.is_some()).unwrap();
        broken[idx].parent_id = None;
        assert!(matches!(
            well_formed(&broken),
            Err(TreeError::RootCount { .. })
        ));
        // Interval escaping the parent.
        let idx = spans.iter().position(|s| s.parent_id.is_some()).unwrap();
        spans[idx].end_step = u64::MAX;
        assert!(matches!(
            well_formed(&spans),
            Err(TreeError::BadNesting { .. })
        ));
    }
}
