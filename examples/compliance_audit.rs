//! Compliance & ablation report (E10 + E15 + E16): assess the exercised
//! co-design's live evidence against the seven-tenet, CIS-style and CAF
//! baseline rule tables, then compare
//! the blast radius of one stolen credential against the perimeter-trust
//! baseline the paper's §II-C describes.
//!
//! ```sh
//! cargo run --release --example compliance_audit
//! ```

use isambard_dri::clock::SimClock;
use isambard_dri::cluster::MgmtOp;
use isambard_dri::core::ablation::PerimeterBaseline;
use isambard_dri::core::{InfraConfig, Infrastructure};

fn main() {
    let infra = Infrastructure::new(InfraConfig::default());

    // Exercise the infrastructure so the audit sees live evidence.
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .expect("onboard");
    infra.story2_register_admin("dave").expect("admin");
    infra
        .story4_ssh_connect("alice", "climate-llm")
        .expect("ssh");
    infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.9")
        .expect("jupyter");
    infra
        .story5_privileged_op("dave", MgmtOp::Health)
        .expect("op");
    infra.pump_network_logs();

    println!("== NIST SP 800-207 seven-tenet audit ==");
    let audit = infra.tenet_audit();
    for c in &audit.controls {
        println!(
            "  tenet {}: {}  [{}]\n           evidence: {}",
            c.id,
            if c.met() { "PASS" } else { "FAIL" },
            c.title,
            c.evidence
        );
    }
    let (p, t) = audit.score();
    println!("  overall: {p}/{t}\n");

    println!("== CIS-style configuration assessment ==");
    let report = infra.cis_report();
    for c in &report.controls {
        println!(
            "  {:<7} {}  — {}",
            c.id,
            if c.met() { "PASS" } else { "FAIL" },
            c.title
        );
    }
    let (cp, ct) = report.score();
    println!("  score: {cp}/{ct} (the FAIL is the paper's admitted gap)\n");

    println!("== NCSC CAF baseline-profile assessment (the paper's next step) ==");
    let caf = infra.caf_assessment();
    for c in &caf.controls {
        println!(
            "  {:<3} {:<42} {:<20} (baseline wants {})",
            c.id,
            c.title,
            c.achieved.as_str(),
            c.expected.as_str()
        );
    }
    let (cb, ct2) = caf.score();
    println!(
        "  baseline-profile: {cb}/{ct2} principles met -> compliant = {}\n",
        caf.compliant()
    );

    println!("== E10 ablation: blast radius of one stolen credential ==");
    let projects_hosted = 20;
    let perimeter = PerimeterBaseline::new(SimClock::new(), projects_hosted).blast_radius();
    let zta = infra.zta_blast_radius(1);
    println!(
        "  {:<28} {:>12} {:>12}",
        "metric", "perimeter", "zero-trust"
    );
    println!(
        "  {:<28} {:>12} {:>12}",
        "reachable services", perimeter.reachable_services, zta.reachable_services
    );
    println!(
        "  {:<28} {:>12} {:>12}",
        "management endpoints", perimeter.management_reachable, zta.management_reachable
    );
    println!(
        "  {:<28} {:>12} {:>12}",
        "storage endpoints", perimeter.storage_reachable, zta.storage_reachable
    );
    println!(
        "  {:<28} {:>12} {:>12}",
        "projects exposed", perimeter.projects_exposed, zta.projects_exposed
    );
    println!(
        "  {:<28} {:>12} {:>12}",
        "exposure window (s)",
        if perimeter.exposure_secs == u64::MAX {
            "unbounded".to_string()
        } else {
            perimeter.exposure_secs.to_string()
        },
        zta.exposure_secs
    );
    println!(
        "\n  containment factor (projects): {}x; exposure bounded at {} h",
        perimeter.projects_exposed / zta.projects_exposed.max(1),
        zta.exposure_secs / 3600
    );
}
