//! The laptop-side SSH certificate client.
//!
//! Implements the user experience of user story 4: the user runs the
//! client, it opens a device-flow login, the user approves it in a
//! browser, the client submits the public key to the CA, and finally it
//! (optionally) writes transparent `ProxyJump` aliases so
//! `ssh climate-llm.ai.isambard` "just works" — the per-project UNIX
//! account and the bastion hop are hidden from the user.

use dri_broker::oidc::{DeviceFlowError, OidcProvider};
use dri_clock::SimRng;
use dri_crypto::ed25519::SigningKey;

use crate::ca::{CaError, SshCa};
use crate::cert::SshCertificate;

/// One generated SSH config alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshAlias {
    /// The alias the user types (`<project>.<cluster>`).
    pub host_alias: String,
    /// Real login-node hostname.
    pub hostname: String,
    /// UNIX account to log in as (the per-project account).
    pub user: String,
    /// The bastion used as a transparent jump host.
    pub proxy_jump: String,
}

impl SshAlias {
    /// Render as an `ssh_config` block.
    pub fn to_config_block(&self) -> String {
        format!(
            "Host {}\n  HostName {}\n  User {}\n  ProxyJump {}\n",
            self.host_alias, self.hostname, self.user, self.proxy_jump
        )
    }
}

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The device flow failed or was denied.
    Device(DeviceFlowError),
    /// The CA refused to sign.
    Ca(CaError),
    /// The device flow never started (bad client id).
    FlowStart,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Device(e) => write!(f, "device flow failed: {e}"),
            ClientError::Ca(e) => write!(f, "certificate authority refused: {e}"),
            ClientError::FlowStart => write!(f, "could not start device flow"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The certificate client application state.
pub struct SshCertClient {
    /// The user's SSH keypair (generated locally; the private half never
    /// leaves the "laptop").
    key: SigningKey,
    /// The current certificate, if any.
    pub certificate: Option<SshCertificate>,
    /// Generated SSH aliases.
    pub aliases: Vec<SshAlias>,
}

impl SshCertClient {
    /// Generate a fresh user keypair.
    pub fn new(rng: &mut SimRng) -> SshCertClient {
        SshCertClient {
            key: SigningKey::from_seed(&rng.seed32()),
            certificate: None,
            aliases: Vec::new(),
        }
    }

    /// The user's SSH public key (what gets certified).
    pub fn public_key(&self) -> [u8; 32] {
        *self.key.verifying_key().as_bytes()
    }

    /// Prove possession of the private key (used by login nodes when
    /// authenticating the SSH connection itself).
    pub fn sign_auth_challenge(&self, challenge: &[u8]) -> [u8; 64] {
        self.key.sign(challenge)
    }

    /// Run the full issuance flow given an approved device grant:
    /// poll the token, submit the CSR, build aliases.
    ///
    /// `approve` is invoked with the user code and must arrange approval
    /// (in reality: the user's browser; in tests: a closure that calls
    /// `OidcProvider::approve_device`).
    #[allow(clippy::too_many_arguments)] // mirrors the real CLI's flag set
    pub fn obtain_certificate(
        &mut self,
        oidc: &OidcProvider,
        ca: &SshCa,
        client_id: &str,
        cluster_suffix: &str,
        bastion: &str,
        login_node: &str,
        approve: impl FnOnce(&str),
    ) -> Result<(), ClientError> {
        let grant = oidc
            .begin_device_flow(client_id)
            .map_err(|_| ClientError::FlowStart)?;
        approve(&grant.user_code);
        let (token, _claims) = oidc
            .poll_device(&grant.device_code)
            .map_err(ClientError::Device)?;
        let signed = ca
            .sign_request(&token, self.public_key())
            .map_err(ClientError::Ca)?;
        self.aliases = signed
            .projects
            .iter()
            .map(|(project, account)| SshAlias {
                host_alias: format!("{project}.{cluster_suffix}"),
                hostname: login_node.to_string(),
                user: account.clone(),
                proxy_jump: bastion.to_string(),
            })
            .collect();
        self.certificate = Some(signed.certificate);
        Ok(())
    }

    /// The alias matching a project, if the user has one.
    pub fn alias_for(&self, project: &str) -> Option<&SshAlias> {
        self.aliases
            .iter()
            .find(|a| a.host_alias.split('.').next() == Some(project))
    }

    /// Render the generated `ssh_config` snippet.
    pub fn ssh_config(&self) -> String {
        let mut out = String::new();
        for a in &self.aliases {
            out.push_str(&a.to_config_block());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_broker::authz::StaticAuthz;
    use dri_broker::broker::{IdentityBroker, IdentitySource, TokenPolicy};
    use dri_broker::managed_idp::ManagedLogin;
    use dri_broker::oidc::OidcClient;
    use dri_clock::SimClock;
    use dri_federation::metadata::FederationRegistry;
    use std::sync::Arc;

    struct Fixture {
        oidc: OidcProvider,
        ca: SshCa,
        session_id: String,
        clock: SimClock,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(9_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("last-resort:alice", "ssh-ca", &["researcher"]);
        authz.add_unix_account("last-resort:alice", "climate-llm", "uaaaa1111");
        authz.add_unix_account("last-resort:alice", "genomics", "ubbbb2222");
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [41u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::standard("ssh-ca", 900));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "last-resort:alice".into(),
                    acr: "mfa-totp".into(),
                },
                IdentitySource::LastResort,
            )
            .unwrap();
        let oidc = OidcProvider::new(broker.clone(), clock.clone(), SimRng::seed_from_u64(5));
        oidc.register_client(OidcClient {
            client_id: "ssh-cert-cli".into(),
            redirect_uri: "urn:ietf:wg:oauth:2.0:oob".into(),
            audience: "ssh-ca".into(),
        });
        let ca = SshCa::new(
            [42u8; 32],
            4 * 3600,
            clock.clone(),
            broker.jwks(),
            broker.introspector(),
            authz,
            dri_fault::FaultHook::default(),
        );
        Fixture {
            oidc,
            ca,
            session_id: session.session_id,
            clock,
        }
    }

    #[test]
    fn full_flow_yields_cert_and_aliases() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(9);
        let mut client = SshCertClient::new(&mut rng);
        client
            .obtain_certificate(
                &f.oidc,
                &f.ca,
                "ssh-cert-cli",
                "ai.isambard",
                "bastion.isambard.ac.uk",
                "login01.ai.isambard.ac.uk",
                |user_code| f.oidc.approve_device(user_code, &f.session_id).unwrap(),
            )
            .unwrap();
        let cert = client.certificate.as_ref().unwrap();
        assert_eq!(cert.principals.len(), 2);
        assert_eq!(
            cert.verify(&f.ca.public_key(), f.clock.now_secs(), Some("uaaaa1111")),
            Ok(())
        );
        // Aliases are transparent: user/bastion details are embedded.
        let alias = client.alias_for("climate-llm").unwrap();
        assert_eq!(alias.user, "uaaaa1111");
        assert_eq!(alias.proxy_jump, "bastion.isambard.ac.uk");
        let config = client.ssh_config();
        assert!(config.contains("Host climate-llm.ai.isambard"));
        assert!(config.contains("ProxyJump bastion.isambard.ac.uk"));
        assert!(config.contains("Host genomics.ai.isambard"));
    }

    #[test]
    fn denied_device_flow_surfaces_error() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(10);
        let mut client = SshCertClient::new(&mut rng);
        let result = client.obtain_certificate(
            &f.oidc,
            &f.ca,
            "ssh-cert-cli",
            "ai.isambard",
            "bastion",
            "login01",
            |user_code| f.oidc.deny_device(user_code).unwrap(),
        );
        assert_eq!(result, Err(ClientError::Device(DeviceFlowError::Denied)));
        assert!(client.certificate.is_none());
    }

    #[test]
    fn cert_expires_requiring_new_flow() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(11);
        let mut client = SshCertClient::new(&mut rng);
        client
            .obtain_certificate(
                &f.oidc,
                &f.ca,
                "ssh-cert-cli",
                "ai.isambard",
                "bastion",
                "login01",
                |uc| f.oidc.approve_device(uc, &f.session_id).unwrap(),
            )
            .unwrap();
        f.clock.advance_secs(4 * 3600 + 1);
        let cert = client.certificate.as_ref().unwrap();
        assert_eq!(
            cert.verify(&f.ca.public_key(), f.clock.now_secs(), None),
            Err(crate::cert::CertError::Expired)
        );
    }

    #[test]
    fn unknown_client_id_fails_fast() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(12);
        let mut client = SshCertClient::new(&mut rng);
        let result = client.obtain_certificate(
            &f.oidc,
            &f.ca,
            "wrong-client",
            "ai.isambard",
            "bastion",
            "login01",
            |_| {},
        );
        assert_eq!(result, Err(ClientError::FlowStart));
    }
}
