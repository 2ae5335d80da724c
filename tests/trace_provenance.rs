//! Flow-trace determinism and provenance over the assembled co-design.
//!
//! The tentpole guarantee: a given seed yields *byte-identical* trace
//! exports whether the RSECon storm runs serially or fanned out over
//! eight workers, the trace trees are well-formed, and one trace covers
//! the whole discovery → broker → portal → SSH CA → bastion → cluster
//! chain.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::crypto::json::Value;
use isambard_dri::trace::{chrome_trace, flamegraph, well_formed, SpanRecord, TraceCtx};
use isambard_dri::workload::{build_population, run_storm, StormMode};
use proptest::prelude::*;

const RSECON_USERS: usize = 45;

/// Build the RSECon-workshop population (9 projects × 5 members = 45
/// users), run one SSH story for coverage of the CA/bastion stages, then
/// run the notebook storm in `mode`. Returns the collected spans.
fn rsecon_run(seed: u64, mode: StormMode) -> (Infrastructure, Vec<SpanRecord>) {
    let config = InfraConfig::builder()
        .seed(seed)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .unwrap();
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, 9, 4).unwrap().members();
    assert_eq!(users.len(), RSECON_USERS);

    // One SSH connection exercises the CA, bastion, and login-node hops.
    infra.story4_ssh_connect(&users[0].0, &users[0].1).unwrap();

    let result = run_storm(&infra, &users, mode);
    assert_eq!(result.completed, RSECON_USERS, "{:?}", result.failures);

    let spans = infra.tracer.all_spans();
    (infra, spans)
}

#[test]
fn rsecon_storm_traces_are_bit_identical_serial_vs_parallel() {
    let (serial_infra, serial_spans) = rsecon_run(9, StormMode::Serial);
    let (parallel_infra, parallel_spans) = rsecon_run(9, StormMode::Parallel(8));

    well_formed(&serial_spans).unwrap();
    well_formed(&parallel_spans).unwrap();

    // Same trace ids were minted, and the canonical exports match byte
    // for byte — parallelism is unobservable in the trace record.
    assert_eq!(
        serial_infra.tracer.trace_count(),
        parallel_infra.tracer.trace_count()
    );
    assert_eq!(
        chrome_trace(&serial_spans),
        chrome_trace(&parallel_spans),
        "chrome-trace export must not depend on thread interleaving"
    );
    assert_eq!(flamegraph(&serial_spans), flamegraph(&parallel_spans));
}

#[test]
fn rsecon_storm_chrome_trace_is_valid_and_covers_the_flow_chain() {
    let (_infra, spans) = rsecon_run(9, StormMode::Parallel(8));

    // Every stage of the end-to-end chain appears in the span record.
    let stages: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
    for expected in [
        "discovery",
        "broker",
        "portal",
        "sshca",
        "bastion",
        "cluster",
        "edge",
        "tunnel",
    ] {
        assert!(stages.contains(expected), "missing stage {expected}");
    }

    // The export is valid JSON with one event per span, all fields
    // deterministic (sim steps, not wall-clock).
    let exported = chrome_trace(&spans);
    let parsed = Value::parse(&exported).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
        assert!(event.get("ts").and_then(Value::as_u64).is_some());
        assert!(event.get("dur").and_then(Value::as_u64).is_some());
    }
}

#[test]
fn traceparent_header_crosses_the_http_hop() {
    let (_infra, spans) = rsecon_run(9, StormMode::Serial);

    // The Jupyter authenticator surfaces the inbound W3C header as a
    // span attribute; it must cite the very trace the span belongs to.
    let spawn_spans: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "jupyter.spawn").collect();
    assert_eq!(spawn_spans.len(), RSECON_USERS);
    for span in spawn_spans {
        let header = span
            .attrs
            .iter()
            .find(|(k, _)| k == "traceparent")
            .map(|(_, v)| v.as_str())
            .expect("jupyter.spawn carries the traceparent attribute");
        let ctx = TraceCtx::parse(header).expect("well-formed traceparent");
        assert_eq!(ctx.trace_id, span.trace_id, "header cites its own trace");
    }
}

#[test]
fn disabled_tracing_records_nothing() {
    let config = InfraConfig::builder()
        .seed(9)
        .tracing(false)
        .build()
        .unwrap();
    let infra = Infrastructure::new(config);
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
    assert_eq!(infra.tracer.span_count(), 0);
    assert_eq!(infra.tracer.trace_count(), 0);
    assert!(infra.tracer.stage_summaries().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Satellite property: for any seed and worker count, the parallel
    // storm's trace forest is well-formed and byte-identical to a serial
    // run of the same seed.
    #[test]
    fn storm_trace_forest_well_formed_and_deterministic(
        seed in 0u64..1_000,
        workers in 2usize..9,
    ) {
        let run = |mode: StormMode| {
            let config = InfraConfig::builder()
                .seed(seed)
                .jupyter_capacity(4096)
                .interactive_nodes(4096)
                .edge_threshold(usize::MAX / 2)
                .build()
                .unwrap();
            let infra = Infrastructure::new(config);
            let users = build_population(&infra, 2, 2).unwrap().members();
            let result = run_storm(&infra, &users, mode);
            assert_eq!(result.completed, users.len(), "{:?}", result.failures);
            infra.tracer.all_spans()
        };
        let serial = run(StormMode::Serial);
        let parallel = run(StormMode::Parallel(workers));
        prop_assert!(well_formed(&serial).is_ok());
        prop_assert!(well_formed(&parallel).is_ok());
        prop_assert_eq!(chrome_trace(&serial), chrome_trace(&parallel));
    }
}
