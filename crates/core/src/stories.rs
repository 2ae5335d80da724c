//! The six user stories of §IV-A, end to end.
//!
//! Each story runs as one traced flow: its root span (`story1.onboard_pi`
//! … `story6.jupyter`) and the spans of every hop it crosses share one
//! trace id, so `infra.tracer.all_spans()` is the record of what the
//! flow did. The outcome structs carry only what the flow produced.

use dri_broker::authz::AuthorizationSource;
use dri_cluster::jupyter::NotebookSession;
use dri_cluster::login::ShellSession;
use dri_cluster::mgmt::{MgmtOp, TransportPath};
use dri_crypto::json::Value;
use dri_netsim::bastion::RelaySession;
use dri_netsim::tailnet::TailnetNode;
use dri_netsim::tunnel::HttpRequest;
use dri_policy::trust::{AccessRequest, DevicePosture, Sensitivity, SourceZone};
use dri_portal::project::{Allocation, DataClass};
use dri_siem::events::{EventKind, Severity};
use dri_sshca::client::SshCertClient;
use dri_trace::Stage;

use crate::flows::FlowError;
use crate::ids::{Cuid, ProjectId, SessionId, UserLabel};
use crate::infra::Infrastructure;

/// Outcome of user story 1 (PI onboarding).
#[derive(Debug, Clone)]
pub struct PiOutcome {
    /// The created project.
    pub project_id: ProjectId,
    /// The PI's community id.
    pub cuid: Cuid,
    /// The PI's broker session.
    pub session_id: SessionId,
    /// The minted per-project UNIX account.
    pub unix_account: String,
}

/// Outcome of user story 2 (admin registration).
#[derive(Debug, Clone)]
pub struct AdminOutcome {
    /// The admin subject (`admin:name`).
    pub subject: Cuid,
    /// The admin's broker session.
    pub session_id: SessionId,
}

/// Outcome of user story 3 (researcher onboarding).
#[derive(Debug, Clone)]
pub struct ResearcherOutcome {
    /// The researcher's community id.
    pub cuid: Cuid,
    /// Their broker session.
    pub session_id: SessionId,
    /// The minted per-project UNIX account.
    pub unix_account: String,
}

/// Outcome of user story 4 (SSH connection).
#[derive(Debug, Clone)]
pub struct SshOutcome {
    /// The bastion relay session.
    pub relay: RelaySession,
    /// The shell session on the login node.
    pub shell: ShellSession,
    /// Serial of the certificate used.
    pub cert_serial: u64,
}

/// Outcome of user story 5 (privileged operation).
#[derive(Debug, Clone)]
pub struct PrivilegedOpOutcome {
    /// The op result detail.
    pub detail: String,
}

/// Outcome of user story 6 (Jupyter).
#[derive(Debug, Clone)]
pub struct JupyterOutcome {
    /// The spawned notebook session.
    pub notebook: NotebookSession,
}

impl Infrastructure {
    /// **User story 1** — an allocator creates a project and invites a
    /// PI; the PI registers via the federation (authorisation-led) and
    /// ends with a broker session and a per-project UNIX account.
    ///
    /// `pi_label` must be an existing federated or last-resort user.
    pub fn story1_onboard_pi(
        &self,
        project_name: &str,
        pi_label: impl Into<UserLabel>,
        gpu_hours: f64,
    ) -> Result<PiOutcome, FlowError> {
        let pi_label: UserLabel = pi_label.into();
        let pi_label = pi_label.as_str();
        let _flow = dri_trace::flow(&self.tracer, pi_label, "story1.onboard_pi", Stage::Flow);

        // Allocator creates the project and the PI invitation.
        let now = self.clock.now_secs();
        let (project_id, invitation) = self
            .portal
            .create_project(
                "admin:ops",
                project_name,
                Allocation::gpu(gpu_hours),
                now,
                now + 90 * 24 * 3600,
                &format!("{pi_label}@example.org"),
            )
            .map_err(FlowError::Portal)?;

        // PI registers at MyAccessID (works even though not yet authorised).
        let cuid = self.establish_identity(pi_label)?;

        // PI accepts the invitation (T&C acceptance included).
        let membership = self
            .portal
            .accept_invitation(&invitation.token, &cuid, true)
            .map_err(FlowError::Portal)?;

        // Provision the UNIX account on the login node.
        self.login_node
            .provision_account(&membership.unix_account, project_name);

        // Now the broker session succeeds (authorisation exists).
        let session = self.login_as(pi_label)?;

        Ok(PiOutcome {
            project_id: project_id.into(),
            cuid: cuid.into(),
            session_id: session.into(),
            unix_account: membership.unix_account,
        })
    }

    /// **User story 2** — a BriCS admin registers an administrators-only
    /// account: hardware-key registration, human vetting, per-service
    /// grants (no global admin), then a hardware-key login.
    pub fn story2_register_admin(
        &self,
        label: impl Into<UserLabel>,
    ) -> Result<AdminOutcome, FlowError> {
        let label: UserLabel = label.into();
        let label = label.as_str();
        let _flow = dri_trace::flow(&self.tracer, label, "story2.register_admin", Stage::Flow);
        self.create_admin(label, &format!("{label}-initial-password"));

        // The human check (user story 2: "at least one human check").
        self.admin_idp
            .vet_user(label)
            .map_err(FlowError::ManagedIdp)?;

        let subject = format!("admin:{label}");
        // Per-service grants — explicitly not a global admin bit.
        self.portal
            .grant_admin(&subject, "mgmt-tailnet", &["sysadmin"]);
        self.portal
            .grant_admin(&subject, "mgmt-cluster", &["sysadmin"]);
        self.mgmt.acl_add(&subject);

        let session = self.admin_login(label)?;

        Ok(AdminOutcome {
            subject: subject.into(),
            session_id: session.session_id.into(),
        })
    }

    /// **User story 3** — a PI invites a researcher, who registers and
    /// receives fewer privileges than the PI.
    pub fn story3_onboard_researcher(
        &self,
        pi_label: impl Into<UserLabel>,
        project_id: impl Into<ProjectId>,
        project_name: &str,
        researcher_label: impl Into<UserLabel>,
    ) -> Result<ResearcherOutcome, FlowError> {
        let pi_label: UserLabel = pi_label.into();
        let pi_label = pi_label.as_str();
        let project_id: ProjectId = project_id.into();
        let project_id = project_id.as_str();
        let researcher_label: UserLabel = researcher_label.into();
        let researcher_label = researcher_label.as_str();
        let _flow = dri_trace::flow(
            &self.tracer,
            researcher_label,
            "story3.onboard_researcher",
            Stage::Flow,
        );
        let pi_subject = self
            .subject_of(pi_label)
            .ok_or_else(|| FlowError::NotLoggedIn(pi_label.to_string()))?;

        let invitation = self
            .portal
            .invite_researcher(
                &pi_subject,
                project_id,
                &format!("{researcher_label}@example.org"),
            )
            .map_err(FlowError::Portal)?;

        let cuid = self.establish_identity(researcher_label)?;

        let membership = self
            .portal
            .accept_invitation(&invitation.token, &cuid, true)
            .map_err(FlowError::Portal)?;

        self.login_node
            .provision_account(&membership.unix_account, project_name);

        let session = self.login_as(researcher_label)?;

        Ok(ResearcherOutcome {
            cuid: cuid.into(),
            session_id: session.into(),
            unix_account: membership.unix_account,
        })
    }

    /// **User story 4** — connect via SSH: device-flow certificate
    /// issuance, transparent ProxyJump through the bastion, and a shell
    /// on the login node under the per-project UNIX account.
    pub fn story4_ssh_connect(
        &self,
        label: impl Into<UserLabel>,
        project_name: &str,
    ) -> Result<SshOutcome, FlowError> {
        let label: UserLabel = label.into();
        let label = label.as_str();
        let _flow = dri_trace::flow(&self.tracer, label, "story4.ssh_connect", Stage::Flow);
        let session_id = self.session_of(label)?;

        // PDP gate (tenet 4): dynamic decision before touching the CA.
        // Official-class projects attract the Elevated threshold.
        let subject = self.subject_of(label);
        let sensitivity = self.project_sensitivity(subject.as_deref(), project_name);
        self.consult_pdp_for(label, &session_id, "ssh-ca", sensitivity)?;

        // Take the user's SSH client out (create on first use).
        let mut client = {
            let mut users = self.users.write();
            let user = users
                .get_mut(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
            match user.ssh.take() {
                Some(c) => c,
                None => SshCertClient::new(&mut self.rng.lock()),
            }
        };

        // Device flow + CA signing, approving with the user's session.
        let result = client.obtain_certificate(
            &self.oidc,
            &self.ssh_ca,
            "ssh-cert-cli",
            "ai.isambard",
            "sws/bastion",
            "mdc/login01",
            |user_code| {
                let _ = self.oidc.approve_device(user_code, &session_id);
            },
        );

        let outcome = match result {
            Ok(()) => {
                let cert = client.certificate.clone().expect("cert present");
                self.emit(
                    "fds/ssh-ca",
                    EventKind::CertIssued,
                    &cert.key_id,
                    format!("serial {} principals {:?}", cert.serial, cert.principals),
                    Severity::Info,
                );
                let alias = client
                    .alias_for(project_name)
                    .cloned()
                    .ok_or(FlowError::Ca(dri_sshca::ca::CaError::NoPrincipals))?;

                // Relay via the bastion (network + cert checks inside).
                let relay = self
                    .bastion
                    .relay(
                        &self.network,
                        "internet/user",
                        "mdc/login01",
                        &cert,
                        &alias.user,
                    )
                    .map_err(FlowError::Bastion)?;

                // Login node: cert + possession proof.
                let shell = self
                    .login_node
                    .open_session(&cert, &alias.user, |ch| client.sign_auth_challenge(ch))
                    .map_err(FlowError::Login)?;

                Ok(SshOutcome {
                    relay,
                    shell,
                    cert_serial: cert.serial,
                })
            }
            Err(dri_sshca::client::ClientError::Device(e)) => Err(FlowError::Device(e)),
            Err(dri_sshca::client::ClientError::Ca(e)) => Err(FlowError::Ca(e)),
            Err(dri_sshca::client::ClientError::FlowStart) => Err(FlowError::Oidc(
                dri_broker::oidc::OidcError::UnknownClient("ssh-cert-cli".into()),
            )),
        };

        // Put the client back regardless of outcome.
        if let Some(user) = self.users.write().get_mut(label) {
            user.ssh = Some(client);
        }
        outcome
    }

    /// **User story 5** — a system administrator performs a privileged
    /// operation: admin session → tailnet enrolment with an RBAC token →
    /// encrypted command to the management plane → layered checks there.
    pub fn story5_privileged_op(
        &self,
        label: impl Into<UserLabel>,
        op: MgmtOp,
    ) -> Result<PrivilegedOpOutcome, FlowError> {
        let label: UserLabel = label.into();
        let label = label.as_str();
        let _flow = dri_trace::flow(&self.tracer, label, "story5.privileged_op", Stage::Flow);
        let session_id = self.session_of(label)?;

        self.consult_pdp_for(label, &session_id, "mgmt-cluster", Sensitivity::Critical)?;

        // Token for tailnet enrolment.
        let (tailnet_token, _) = self.token_for(label, "mgmt-tailnet", Vec::new())?;

        // Enrol the admin's device.
        let node_name = format!("{label}-laptop");
        let node = TailnetNode::generate(&node_name, &mut self.rng.lock());
        self.tailnet
            .enroll(&node, &tailnet_token)
            .map_err(FlowError::Tailnet)?;

        // Encrypted command to the management endpoint.
        let (frame, nonce) = self
            .tailnet
            .send(&node, "mdc-mgmt01", format!("{op:?}").as_bytes())
            .map_err(FlowError::Tailnet)?;
        // The management node decrypts (proves the channel works end-to-end).
        let sender_pub = self
            .tailnet
            .public_key_of(&node_name)
            .expect("node just enrolled");
        let opened = self
            .mgmt_node
            .open_from(&sender_pub, &node_name, &nonce, &frame);
        if opened.is_none() {
            return Err(FlowError::Tailnet(
                dri_netsim::tailnet::TailnetError::DecryptFailed,
            ));
        }

        // Cluster-level token + layered management-plane checks.
        let (cluster_token, _) = self.token_for(label, "mgmt-cluster", Vec::new())?;
        let result = self
            .mgmt
            .execute(TransportPath::Tailnet, &cluster_token, op)
            .map_err(FlowError::Mgmt)?;

        self.emit(
            "mdc/mgmt01",
            EventKind::PrivilegedOp,
            self.subject_of(label).as_deref().unwrap_or(label),
            result.detail.clone(),
            Severity::Info,
        );
        Ok(PrivilegedOpOutcome {
            detail: result.detail,
        })
    }

    /// **User story 6** — connect to a Jupyter notebook: edge → Zenith
    /// tunnel → authenticator (token header validated against JWKS) →
    /// notebook spawned on a compute node.
    pub fn story6_jupyter(
        &self,
        label: impl Into<UserLabel>,
        project_name: &str,
        source_ip: &str,
    ) -> Result<JupyterOutcome, FlowError> {
        let label: UserLabel = label.into();
        let label = label.as_str();
        let _flow = dri_trace::flow(&self.tracer, label, "story6.jupyter", Stage::Flow);
        let session_id = self.session_of(label)?;

        let subject = self.subject_of(label);
        let sensitivity = self.project_sensitivity(subject.as_deref(), project_name);
        self.consult_pdp_for(label, &session_id, "jupyter", sensitivity)?;

        // Find the user's unix account for this project.
        let subject = subject.ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        let mut account = None;
        self.portal.for_each_active_membership(&subject, |p, m| {
            if account.is_none() && p.name == project_name {
                account = Some(m.unix_account.clone());
            }
        });
        let account = account.ok_or(FlowError::Jupyter(
            dri_cluster::jupyter::JupyterError::NoAccount,
        ))?;

        // Token with the account + project claims.
        let (token, _claims) = self.token_for_shared(
            label,
            "jupyter",
            vec![
                ("unix_account".to_string(), Value::s(account)),
                ("project".to_string(), Value::s(project_name)),
            ],
        )?;

        // Through the edge and the reverse tunnel. The W3C-style
        // `traceparent` header carries the flow context across the HTTP
        // hop; the authenticator surfaces it as a span attribute.
        let traceparent = dri_trace::current_ctx().map(|ctx| ctx.traceparent());
        let response = self.with_retry(
            "edge",
            label,
            |e: &dri_netsim::edge::EdgeError| matches!(e, dri_netsim::edge::EdgeError::Down),
            || {
                let mut headers = Vec::with_capacity(2);
                headers.push(("x-auth-token".to_string(), token.clone()));
                if let Some(tp) = &traceparent {
                    headers.push(("traceparent".to_string(), tp.clone()));
                }
                self.edge.handle(
                    &self.tunnel,
                    source_ip,
                    HttpRequest {
                        path: "/jupyter".into(),
                        headers,
                        body: Vec::new(),
                    },
                )
            },
        )?;

        if response.status != 200 {
            return Err(FlowError::UnexpectedStatus(
                response.status,
                String::from_utf8_lossy(&response.body).to_string(),
            ));
        }
        let session_id = String::from_utf8_lossy(&response.body).to_string();
        let notebook = self
            .jupyter
            .session(&session_id)
            .expect("spawned session exists");

        self.emit(
            "mdc/login01",
            EventKind::NotebookSpawned,
            &notebook.subject,
            format!("notebook {} on job {}", notebook.id, notebook.job_id),
            Severity::Info,
        );
        Ok(JupyterOutcome { notebook })
    }

    // --- shared helpers ---------------------------------------------------------

    /// Whether `label` logs in through the federation (otherwise the
    /// IdP of last resort).
    fn is_federated(&self, label: &str) -> Result<bool, FlowError> {
        let users = self.users.read();
        let user = users
            .get(label)
            .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
        Ok(matches!(
            user.kind,
            crate::users::UserKind::Federated { .. }
        ))
    }

    /// Establish the user's community identity (route-dependent): for
    /// federated users, register at the proxy; last-resort users already
    /// carry their subject.
    fn establish_identity(&self, label: &str) -> Result<String, FlowError> {
        if self.is_federated(label)? {
            let (cuid, _wire) = self.proxy_authenticate(label)?;
            Ok(cuid)
        } else {
            self.subject_of(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))
        }
    }

    /// Login with whichever route the user has.
    fn login_as(&self, label: &str) -> Result<String, FlowError> {
        let session = if self.is_federated(label)? {
            self.federated_login(label)?
        } else {
            self.last_resort_login(label)?
        };
        Ok(session.session_id)
    }

    /// The live session id of a user, or `NotLoggedIn`.
    pub fn session_of(&self, label: &str) -> Result<SessionId, FlowError> {
        let users = self.users.read();
        let user = users
            .get(label)
            .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
        let sid = user
            .session_id
            .clone()
            .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        // The session must still be live *and unexpired* at the broker —
        // an aged-out session means interactive re-authentication.
        let now = self.clock.now_secs();
        match self.broker.with_session(&sid, |s| now < s.expires_at) {
            Some(true) => Ok(sid.into()),
            _ => Err(FlowError::NotLoggedIn(label.to_string())),
        }
    }

    /// The PDP sensitivity implied by a project's data classification.
    fn project_sensitivity(&self, subject: Option<&str>, project_name: &str) -> Sensitivity {
        let Some(subject) = subject else {
            return Sensitivity::Standard;
        };
        let mut official = false;
        self.portal.for_each_active_membership(subject, |p, _| {
            official |= p.name == project_name && p.data_class == DataClass::Official;
        });
        if official {
            Sensitivity::Elevated
        } else {
            Sensitivity::Standard
        }
    }

    /// Consult the PDP for `resource` with the live session `session_id`
    /// (already checked by [`Infrastructure::session_of`]).
    fn consult_pdp_for(
        &self,
        label: &str,
        session_id: &str,
        resource: &str,
        sensitivity: Sensitivity,
    ) -> Result<(), FlowError> {
        let now = self.clock.now_secs();
        let (subject, loa, acr, age) = self
            .broker
            .with_session(session_id, |session| {
                (
                    session.subject.clone(),
                    session.loa,
                    session.acr.clone(),
                    now.saturating_sub(session.established_at),
                )
            })
            .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        let has_role = !self.portal.roles_for(&subject, resource).is_empty();
        let device = if acr == "mfa-hw" {
            DevicePosture::healthy()
        } else {
            DevicePosture::unknown()
        };
        let source = if acr == "mfa-hw" {
            SourceZone::Management
        } else {
            SourceZone::Internet
        };
        let decision = self.pdp_decide(&AccessRequest {
            subject,
            loa,
            acr,
            device,
            source,
            session_age_secs: age,
            resource: resource.to_string(),
            sensitivity,
            has_role,
        });
        if decision.allow {
            Ok(())
        } else {
            Err(FlowError::PolicyDenied(
                decision.reasons.first().cloned().unwrap_or_default(),
            ))
        }
    }
}
