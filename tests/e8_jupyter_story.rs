//! E8 — user story 6: Jupyter via the edge, the reverse tunnel, and the
//! token-validating authenticator.

mod common;

use isambard_dri::cluster::JobState;
use isambard_dri::core::config::JUPYTER_TOKEN_TTL_SECS;
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};
use isambard_dri::netsim::{EdgeError, HttpRequest, TunnelError};

fn onboarded() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .unwrap();
    infra
}

#[test]
fn jupyter_story_end_to_end() {
    let infra = onboarded();
    let outcome = infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .unwrap();
    // A real job backs the notebook, on the interactive partition,
    // running as the per-project UNIX account.
    let job = infra.scheduler.job(&outcome.notebook.job_id).unwrap();
    assert_eq!(job.state, JobState::Running);
    assert_eq!(job.partition, "interactive");
    assert_eq!(job.user, outcome.notebook.unix_account);
    assert_eq!(outcome.notebook.project, "climate-llm");
    // The flow's spans name every hop of Fig. 1's web path, in order.
    const HOPS: [&str; 3] = ["edge.handle", "tunnel.handle", "jupyter.spawn"];
    let hops: Vec<&str> = common::flow_spans(&infra, "story6.jupyter", "alice")
        .iter()
        .map(|s| s.name)
        .filter(|name| HOPS.contains(name))
        .collect();
    assert_eq!(hops, HOPS);
}

#[test]
fn unauthenticated_request_gets_401_through_the_whole_path() {
    let infra = onboarded();
    let response = infra
        .edge
        .handle(
            &infra.tunnel,
            "203.0.113.50",
            HttpRequest {
                path: "/jupyter".into(),
                headers: vec![],
                body: vec![],
            },
        )
        .unwrap();
    assert_eq!(response.status, 401);
    assert_eq!(infra.jupyter.session_count(), 0);
}

#[test]
fn expired_token_rejected_by_authenticator() {
    let infra = onboarded();
    let (token, _) = infra
        .token_for(
            "alice",
            "jupyter",
            vec![(
                "unix_account".into(),
                isambard_dri::crypto::json::Value::s("u-x"),
            )],
        )
        .unwrap();
    infra.clock.advance_secs(JUPYTER_TOKEN_TTL_SECS + 1);
    let response = infra
        .edge
        .handle(
            &infra.tunnel,
            "203.0.113.51",
            HttpRequest {
                path: "/jupyter".into(),
                headers: vec![("x-auth-token".into(), token)],
                body: vec![],
            },
        )
        .unwrap();
    assert_eq!(response.status, 401);
}

#[test]
fn ddos_source_is_absorbed_at_the_edge() {
    let infra = onboarded();
    let req = || HttpRequest {
        path: "/jupyter".into(),
        headers: vec![],
        body: vec![],
    };
    // Hammer from one source: after the threshold the source is blocked
    // and the origin stops seeing its traffic entirely.
    let mut blocked = false;
    for _ in 0..(infra.config.edge_threshold + 5) {
        infra.clock.advance(5);
        match infra.edge.handle(&infra.tunnel, "203.0.113.66", req()) {
            Err(EdgeError::RateLimited) | Err(EdgeError::Blocked) => blocked = true,
            _ => {}
        }
    }
    assert!(blocked);
    let served_before = infra.tunnel.requests_served("/jupyter");
    let _ = infra.edge.handle(&infra.tunnel, "203.0.113.66", req());
    assert_eq!(infra.tunnel.requests_served("/jupyter"), served_before);
    // A legitimate user still gets through.
    assert!(infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .is_ok());
}

#[test]
fn tunnel_kill_switch_stops_web_access() {
    let infra = onboarded();
    infra.kill_tunnels();
    assert!(matches!(
        infra.story6_jupyter("alice", "climate-llm", "198.51.100.10"),
        Err(FlowError::Edge(EdgeError::Origin(TunnelError::Closed)))
    ));
    infra.tunnel.reopen_tunnel("/jupyter");
    assert!(infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .is_ok());
}

#[test]
fn stopping_notebook_frees_the_node() {
    let infra = onboarded();
    let outcome = infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .unwrap();
    let part_before = infra
        .scheduler
        .partition("interactive")
        .unwrap()
        .allocated_nodes;
    assert!(infra.jupyter.stop(&outcome.notebook.id));
    let part_after = infra
        .scheduler
        .partition("interactive")
        .unwrap()
        .allocated_nodes;
    assert_eq!(part_after, part_before - 1);
}
