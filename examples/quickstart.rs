//! Quickstart: build the whole co-design, onboard a project, and walk a
//! researcher from federated login to an SSH shell and a Jupyter
//! notebook.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use isambard_dri::cluster::MgmtOp;
use isambard_dri::core::{InfraConfig, Infrastructure};

/// Print the spans of `user`'s `root` flow, in the order they started:
/// the tracer's record of every hop the story crossed.
fn print_flow(infra: &Infrastructure, root: &str, user: &str) {
    let spans = infra.tracer.all_spans();
    let Some(flow) = spans
        .iter()
        .find(|s| s.name == root && s.attrs.iter().any(|(k, v)| k == "flow.key" && v == user))
    else {
        return;
    };
    for span in spans.iter().filter(|s| s.trace_id == flow.trace_id) {
        println!("    - {}", span.name);
    }
}

fn main() {
    // 1. Stand up the infrastructure of Fig. 1: federation, proxy,
    //    broker, portal, SSH CA, segmented network, bastion, tailnet,
    //    tunnels, cluster, SIEM.
    let infra = Infrastructure::new(InfraConfig::default());
    println!("== isambard-dri quickstart ==");
    println!(
        "fabric: {} hosts, {} allow rules (default-deny otherwise)",
        infra.network.host_ids().len(),
        infra.network.rule_count()
    );

    // 2. User story 1 — a PI gets a project.
    infra.create_federated_user("alice", "correct-horse-battery");
    let pi = infra
        .story1_onboard_pi("climate-llm", "alice", 5_000.0)
        .expect("PI onboarding");
    println!("\n[story 1] PI onboarded:");
    print_flow(&infra, "story1.onboard_pi", "alice");
    println!(
        "    project={} cuid={} unix={}",
        pi.project_id, pi.cuid, pi.unix_account
    );

    // 3. User story 3 — the PI invites a researcher.
    infra.create_federated_user("ravi", "another-password");
    let researcher = infra
        .story3_onboard_researcher("alice", &pi.project_id, "climate-llm", "ravi")
        .expect("researcher onboarding");
    println!("\n[story 3] researcher onboarded: cuid={}", researcher.cuid);

    // 4. User story 4 — SSH with a short-lived certificate.
    let ssh = infra
        .story4_ssh_connect("ravi", "climate-llm")
        .expect("ssh story");
    println!("\n[story 4] ssh session:");
    print_flow(&infra, "story4.ssh_connect", "ravi");
    println!(
        "    shell as {} on {} (cert serial {})",
        ssh.shell.account, ssh.relay.target, ssh.cert_serial
    );

    // 5. User story 6 — Jupyter through the edge and the reverse tunnel.
    let jupyter = infra
        .story6_jupyter("ravi", "climate-llm", "198.51.100.23")
        .expect("jupyter story");
    println!(
        "\n[story 6] notebook {} on job {}",
        jupyter.notebook.id, jupyter.notebook.job_id
    );

    // 6. User story 2 + 5 — an admin registers and runs a privileged op.
    infra
        .story2_register_admin("dave")
        .expect("admin registration");
    let op = infra
        .story5_privileged_op("dave", MgmtOp::Health)
        .expect("privileged op");
    println!("\n[story 5] management plane says: {}", op.detail);

    // 7. The telemetry loop saw everything.
    infra.pump_network_logs();
    println!(
        "\nSIEM ingested {} events ({} alerts)",
        infra.siem.events_ingested(),
        infra.siem.alerts().len()
    );

    // 8. Zero-trust scorecard.
    let audit = infra.tenet_audit();
    let (passed, total) = audit.score();
    println!("zero-trust tenets: {passed}/{total} pass");
    let (cis_passed, cis_total) = infra.cis_report().score();
    println!("CIS-style checks:  {cis_passed}/{cis_total} pass");
}
