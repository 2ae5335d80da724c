//! E6 — user story 4: SSH to the AI platform with short-lived
//! certificates and the transparent bastion.

mod common;

use isambard_dri::cluster::LoginError;
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};
use isambard_dri::netsim::BastionError;
use isambard_dri::sshca::CertError;

fn onboarded() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .unwrap();
    infra
}

#[test]
fn ssh_story_end_to_end() {
    let infra = onboarded();
    let outcome = infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    // The shell runs as the per-project account, and the audit trail
    // names the human behind it.
    let cuid = infra.subject_of("alice").unwrap();
    assert_eq!(outcome.shell.key_id, cuid);
    assert_eq!(outcome.shell.project, "climate-llm");
    assert_eq!(outcome.relay.principal, outcome.shell.account);
    assert!(infra.bastion.session_alive(&outcome.relay.id));
    assert!(infra.login_node.session_alive(&outcome.shell.id));
    // The flow's spans cover every designed hop, in order: an `ssh-ca`
    // token, the CA signing, the bastion relay, the login node.
    const HOPS: [&str; 4] = [
        "broker.issue_token",
        "sshca.sign_request",
        "bastion.relay",
        "login.open_session",
    ];
    let spans = common::flow_spans(&infra, "story4.ssh_connect", "alice");
    let hops: Vec<_> = spans.iter().filter(|s| HOPS.contains(&s.name)).collect();
    assert_eq!(hops.iter().map(|s| s.name).collect::<Vec<_>>(), HOPS);
    assert!(hops[0]
        .attrs
        .iter()
        .any(|(k, v)| k == "aud" && v == "ssh-ca"));
}

#[test]
fn certificate_expiry_forces_reissuance() {
    let infra = onboarded();
    let first = infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    // Let the certificate expire.
    infra.clock.advance_secs(infra.config.cert_ttl_secs + 1);
    // The retained certificate no longer opens sessions.
    let users = infra.users.read();
    let cert = users
        .get("alice")
        .unwrap()
        .ssh
        .as_ref()
        .unwrap()
        .certificate
        .clone()
        .unwrap();
    drop(users);
    assert_eq!(
        cert.verify(&infra.ssh_ca.public_key(), infra.clock.now_secs(), None),
        Err(CertError::Expired)
    );
    // A fresh run of the story re-issues (requires re-login first: the
    // broker session has also aged out, enforcing re-authentication).
    assert!(matches!(
        infra.story4_ssh_connect("alice", "climate-llm"),
        Err(FlowError::NotLoggedIn(_)) | Err(FlowError::PolicyDenied(_))
    ));
    infra.federated_login("alice").unwrap();
    let second = infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    assert!(second.cert_serial > first.cert_serial);
}

/// Invalidation leads caching for the prepared CA keys: once the CA
/// re-keys and both checkpoints are told, a certificate signed under the
/// old key is refused at the bastion and at the login node, and a freshly
/// issued one is accepted at both.
#[test]
fn ca_rotation_refuses_old_certificates_at_bastion_and_login_node() {
    let infra = onboarded();
    infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    infra.ssh_ca.rotate_key([0x5a; 32]);
    infra.bastion.trust_ca(infra.ssh_ca.public_key());
    infra.login_node.trust_ca(infra.ssh_ca.public_key());

    let users = infra.users.read();
    let client = users.get("alice").unwrap().ssh.as_ref().unwrap();
    let old_cert = client.certificate.clone().unwrap();
    let account = client.alias_for("climate-llm").unwrap().user.clone();
    assert_eq!(
        infra.bastion.relay(
            &infra.network,
            "internet/user",
            "mdc/login01",
            &old_cert,
            &account
        ),
        Err(BastionError::Cert(CertError::BadSignature))
    );
    assert_eq!(
        infra
            .login_node
            .open_session(&old_cert, &account, |ch| client.sign_auth_challenge(ch)),
        Err(LoginError::Cert(CertError::BadSignature))
    );
    drop(users);

    let outcome = infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    assert!(infra.bastion.session_alive(&outcome.relay.id));
    assert!(infra.login_node.session_alive(&outcome.shell.id));
}

#[test]
fn unique_unix_account_per_project_in_cert_principals() {
    let infra = onboarded();
    // Put alice on a second project.
    let now = infra.clock.now_secs();
    let (_, inv) = infra
        .portal
        .create_project(
            "admin:ops",
            "genomics",
            isambard_dri::portal::Allocation::gpu(5.0),
            now,
            now + 100_000,
            "alice@x",
        )
        .unwrap();
    let cuid = infra.subject_of("alice").unwrap();
    let m2 = infra
        .portal
        .accept_invitation(&inv.token, &cuid, true)
        .unwrap();
    infra
        .login_node
        .provision_account(&m2.unix_account, "genomics");

    infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    let users = infra.users.read();
    let client = users.get("alice").unwrap().ssh.as_ref().unwrap();
    let cert = client.certificate.as_ref().unwrap();
    assert_eq!(cert.principals.len(), 2);
    assert_ne!(cert.principals[0], cert.principals[1]);
    // The aliases hide the bastion and per-project user.
    let config = client.ssh_config();
    assert!(config.contains("ProxyJump sws/bastion"));
    assert!(config.contains("Host climate-llm.ai.isambard"));
    assert!(config.contains("Host genomics.ai.isambard"));
}

#[test]
fn wrong_project_principal_is_refused() {
    let infra = onboarded();
    infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    let users = infra.users.read();
    let client = users.get("alice").unwrap().ssh.as_ref().unwrap();
    let cert = client.certificate.clone().unwrap();
    drop(users);
    // Try to use the cert as a principal it does not certify.
    assert!(matches!(
        infra.bastion.relay(
            &infra.network,
            "internet/user",
            "mdc/login01",
            &cert,
            "uDEADBEEF"
        ),
        Err(isambard_dri::netsim::BastionError::Cert(
            CertError::PrincipalNotAllowed
        ))
    ));
}

#[test]
fn ssh_requires_membership() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("outsider", "pw");
    // No project: login itself is refused (authorisation-led).
    assert!(infra.story4_ssh_connect("outsider", "anything").is_err());
}
