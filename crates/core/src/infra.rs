//! Assembly of the full Fig. 1 infrastructure, the login flows, and the
//! log pipeline into the SIEM.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_broker::authz::AuthorizationSource;
use dri_broker::broker::{IdentityBroker, IdentitySource, SessionInfo, TokenPolicy};
use dri_broker::managed_idp::{HardwareKey, ManagedIdp};
use dri_broker::oidc::{OidcClient, OidcProvider};
use dri_clock::{SimClock, SimRng};
use dri_cluster::jupyter::JupyterService;
use dri_cluster::login::LoginNode;
use dri_cluster::mgmt::ManagementPlane;
use dri_cluster::slurm::Scheduler;
use dri_crypto::json::Value;
use dri_crypto::jwt::Claims;
use dri_federation::idp::IdentityProvider;
use dri_federation::metadata::{EntityDescriptor, EntityKind, FederationRegistry};
use dri_federation::proxy::IdpProxy;
use dri_federation::types::{EntityCategory, LevelOfAssurance};
use dri_netsim::bastion::Bastion;
use dri_netsim::edge::EdgeProxy;
use dri_netsim::tailnet::{Tailnet, TailnetNode};
use dri_netsim::topology::{Domain, Network, Selector, Zone};
use dri_netsim::tunnel::{HttpResponse, TunnelServer};
use dri_policy::trust::MemoizedPdp;
use dri_portal::portal::Portal;
use dri_siem::anomaly::{AnomalyDetector, RateAnomaly};
use dri_siem::events::{EventKind, SecurityEvent, Severity};
use dri_siem::inventory::{Inventory, Version, Vulnerability};
use dri_siem::siem::Siem;
use dri_sshca::ca::SshCa;
use dri_trace::{Stage, Tracer};
use parking_lot::{Mutex, RwLock};

use dri_fault::BreakerState;

use crate::config::{
    InfraConfig, ADMIN_TOKEN_TTL_SECS, COMPUTE_NODES, JUPYTER_TOKEN_TTL_SECS, SSH_TOKEN_TTL_SECS,
    TAILNET_LEASE_SECS,
};
use crate::flows::FlowError;
use crate::resilience::{IdpHop, Resilience};
use crate::users::{SimUser, UserKind};

/// Entity id of the MyAccessID-style proxy.
pub const PROXY_ENTITY: &str = "https://proxy.myaccessid.org";
/// Entity id (issuer) of the identity broker.
pub const BROKER_ENTITY: &str = "https://broker.isambard.ac.uk";
/// Entity id of the simulated university IdP.
pub const UNIVERSITY_IDP: &str = "https://idp.bristol.ac.uk";

/// The edge's DDoS scoring window (ms).
const EDGE_WINDOW_MS: u64 = 1_000;

/// Audiences every project member is authorised for.
pub(crate) const MEMBER_AUDIENCES: [&str; 4] = ["ssh-ca", "jupyter", "slurm", "portal"];

/// The assembled co-design.
pub struct Infrastructure {
    /// Configuration it was built with.
    pub config: InfraConfig,
    /// Shared simulated clock.
    pub clock: SimClock,
    /// Deterministic RNG (client-side randomness).
    pub rng: Mutex<SimRng>,
    /// eduGAIN-style metadata registry.
    pub registry: Arc<FederationRegistry>,
    /// The institutional IdP (stands in for all eduGAIN IdPs).
    pub university_idp: Arc<IdentityProvider>,
    /// Additional partner IdPs registered after construction.
    pub partner_idps: RwLock<Vec<Arc<IdentityProvider>>>,
    /// MyAccessID-style proxy.
    pub proxy: Arc<IdpProxy>,
    /// The Waldur-style portal (also the broker's authorisation source).
    pub portal: Arc<Portal>,
    /// The identity broker in FDS.
    pub broker: Arc<IdentityBroker>,
    /// OIDC flows over the broker.
    pub oidc: Arc<OidcProvider>,
    /// Administrator IdP (hardware-key MFA, vetted registration).
    pub admin_idp: Arc<ManagedIdp>,
    /// Identity Provider of Last Resort (password + TOTP).
    pub last_resort_idp: Arc<ManagedIdp>,
    /// The online SSH CA.
    pub ssh_ca: Arc<SshCa>,
    /// The segmented network fabric.
    pub network: Arc<Network>,
    /// The HA bastion set in SWS.
    pub bastion: Arc<Bastion>,
    /// The admin tailnet.
    pub tailnet: Arc<Tailnet>,
    /// The Zenith tunnel server in FDS.
    pub tunnel: Arc<TunnelServer>,
    /// The zero-trust edge in front of it.
    pub edge: Arc<EdgeProxy>,
    /// The batch scheduler.
    pub scheduler: Arc<Scheduler>,
    /// The login node.
    pub login_node: Arc<LoginNode>,
    /// The Jupyter service.
    pub jupyter: Arc<JupyterService>,
    /// The cluster management plane.
    pub mgmt: Arc<ManagementPlane>,
    /// The SIEM in SEC.
    pub siem: Arc<Siem>,
    /// The flow-trace collector: the span records of every cross-crate
    /// flow, from which the per-stage latency summaries are read.
    pub tracer: Arc<Tracer>,
    /// Asset inventory.
    pub inventory: Arc<Inventory>,
    /// Per-source event-rate anomaly detector (tenet 7's feedback loop).
    /// Fed from a SIEM ingest tap at flush time; keeps its own findings.
    pub anomaly: Arc<AnomalyDetector>,
    /// The policy decision point, wrapped in the epoch-invalidated
    /// decision memo (the kill switch bumps the memo epoch).
    pub pdp: MemoizedPdp,
    /// Retry/breaker/degraded-mode state plus the shared fault hook.
    pub resilience: Resilience,
    /// Simulated users (client-side state lives here).
    pub users: RwLock<HashMap<String, SimUser>>,
    /// The management-plane's tailnet endpoint.
    pub(crate) mgmt_node: TailnetNode,
    pub(crate) pdp_consultations: AtomicU64,
}

impl Infrastructure {
    /// Build the full architecture from a configuration.
    pub fn new(config: InfraConfig) -> Infrastructure {
        let clock = SimClock::starting_at(1_700_000_000_000); // arbitrary epoch
        let mut rng = SimRng::seed_from_u64(config.seed);

        // Flow tracing: trace/span ids derive from the master seed, so a
        // given seed yields byte-identical traces whether flows run
        // serially or fanned out over threads. Wall-clock readings feed
        // the latency summaries only — they never enter trace ids or
        // exports.
        let tracer = Arc::new(Tracer::new(
            rng.next_u64(),
            config.broker_shards,
            clock.clone(),
        ));
        tracer.set_enabled(config.tracing);
        let wall_epoch = std::time::Instant::now();
        tracer.install_wall_clock(Arc::new(move || wall_epoch.elapsed().as_micros() as u64));

        // Resilience layer. It owns the fault hook every instrumented hop
        // below takes a clone of, so `install_fault_plan` arms all hops
        // at once.
        let resilience = Resilience::new(config.seed);
        let faults = &resilience.faults;

        // --- Federation layer -------------------------------------------------
        let registry = Arc::new(FederationRegistry::new());
        registry.register_federation("edugain", "GEANT");
        registry.register_federation("ukamf", "Jisc");

        let university_idp = Arc::new(IdentityProvider::new(
            UNIVERSITY_IDP,
            "bristol.ac.uk",
            LevelOfAssurance::Medium,
            rng.seed32(),
            clock.clone(),
            faults.clone(),
        ));
        registry
            .register_entity(EntityDescriptor {
                entity_id: UNIVERSITY_IDP.into(),
                display_name: "University of Bristol".into(),
                kind: EntityKind::IdentityProvider,
                home_federation: "ukamf".into(),
                categories: vec![
                    EntityCategory::ResearchAndScholarship,
                    EntityCategory::Sirtfi,
                ],
                max_loa: LevelOfAssurance::Medium,
                signing_key: university_idp.verifying_key(),
            })
            .expect("register idp");

        let proxy = Arc::new(IdpProxy::new(
            PROXY_ENTITY,
            rng.seed32(),
            clock.clone(),
            registry.clone(),
            faults.clone(),
        ));
        proxy.register_service(BROKER_ENTITY);
        registry
            .register_entity(EntityDescriptor {
                entity_id: PROXY_ENTITY.into(),
                display_name: "MyAccessID".into(),
                kind: EntityKind::Proxy,
                home_federation: "edugain".into(),
                categories: vec![EntityCategory::ResearchAndScholarship],
                max_loa: LevelOfAssurance::High,
                signing_key: proxy.verifying_key(),
            })
            .expect("register proxy");

        // --- Portal + broker ---------------------------------------------------
        let portal = Arc::new(Portal::new(
            clock.clone(),
            MEMBER_AUDIENCES.iter().map(|s| s.to_string()).collect(),
        ));
        let authz: Arc<dyn AuthorizationSource> = portal.clone();
        let broker = Arc::new(IdentityBroker::with_shards(
            BROKER_ENTITY,
            rng.seed32(),
            config.session_ttl_secs,
            clock.clone(),
            registry.clone(),
            authz,
            config.broker_shards,
            faults.clone(),
        ));
        broker.register_service(TokenPolicy::standard("ssh-ca", SSH_TOKEN_TTL_SECS));
        broker.register_service(TokenPolicy::standard("jupyter", JUPYTER_TOKEN_TTL_SECS));
        broker.register_service(TokenPolicy::standard("slurm", JUPYTER_TOKEN_TTL_SECS));
        broker.register_service(TokenPolicy::standard("portal", 3600));
        broker.register_service(TokenPolicy::admin("mgmt-tailnet", ADMIN_TOKEN_TTL_SECS));
        broker.register_service(TokenPolicy::admin("mgmt-cluster", ADMIN_TOKEN_TTL_SECS));

        let oidc = Arc::new(OidcProvider::new(
            broker.clone(),
            clock.clone(),
            rng.split(),
        ));
        oidc.register_client(OidcClient {
            client_id: "ssh-cert-cli".into(),
            redirect_uri: "urn:ietf:wg:oauth:2.0:oob".into(),
            audience: "ssh-ca".into(),
        });
        oidc.register_client(OidcClient {
            client_id: "jupyter-web".into(),
            redirect_uri: "https://isambard.example/jupyter/callback".into(),
            audience: "jupyter".into(),
        });
        oidc.register_client(OidcClient {
            client_id: "portal-web".into(),
            redirect_uri: "https://isambard.example/portal/callback".into(),
            audience: "portal".into(),
        });

        let admin_idp = Arc::new(ManagedIdp::new("admin", true, clock.clone(), rng.split()));
        let last_resort_idp = Arc::new(ManagedIdp::new(
            "last-resort",
            false,
            clock.clone(),
            rng.split(),
        ));

        // --- SSH CA ------------------------------------------------------------
        let ssh_ca = Arc::new(SshCa::new(
            rng.seed32(),
            config.cert_ttl_secs,
            clock.clone(),
            broker.jwks(),
            broker.introspector(),
            portal.clone(),
            faults.clone(),
        ));

        // --- Network fabric (Fig. 1) -------------------------------------------
        let network = Arc::new(Network::new(clock.clone()));
        build_fabric(&network);

        let bastion = Arc::new(Bastion::new(
            "sws/bastion",
            config.bastion_instances,
            ssh_ca.public_key(),
            clock.clone(),
            faults.clone(),
        ));

        let tailnet = Arc::new(Tailnet::new(
            broker.jwks(),
            broker.introspector(),
            TAILNET_LEASE_SECS,
            clock.clone(),
            faults.clone(),
        ));
        let mut tailnet_rng = rng.split();
        let mgmt_node = TailnetNode::generate("mdc-mgmt01", &mut tailnet_rng);
        tailnet.enroll_infrastructure(&mgmt_node);
        tailnet.allow("*", "mdc-mgmt01");

        // --- Cluster -----------------------------------------------------------
        let scheduler = Arc::new(Scheduler::new(clock.clone(), faults.clone()));
        scheduler.add_partition("gh", COMPUTE_NODES, COMPUTE_NODES);
        scheduler.add_partition("interactive", config.interactive_nodes, 1);

        let login_node = Arc::new(LoginNode::with_shards(
            "mdc/login01",
            ssh_ca.public_key(),
            clock.clone(),
            rng.split(),
            config.broker_shards,
            faults.clone(),
        ));

        let jupyter = Arc::new(JupyterService::new(
            broker.jwks(),
            broker.introspector(),
            scheduler.clone(),
            "interactive",
            config.jupyter_capacity,
            clock.clone(),
        ));

        let mgmt = Arc::new(ManagementPlane::new(
            broker.jwks(),
            broker.introspector(),
            scheduler.clone(),
            clock.clone(),
        ));

        // --- Zenith tunnel + edge ----------------------------------------------
        let mut tunnel_rng = rng.split();
        let tunnel = Arc::new(TunnelServer::new("fds/zenith", &mut tunnel_rng));
        let jupyter_for_tunnel = jupyter.clone();
        let client_private = dri_crypto::x25519::clamp(tunnel_rng.seed32());
        tunnel
            .register_tunnel(
                &network,
                "mdc/login01",
                &client_private,
                "/jupyter",
                Arc::new(move |req| match jupyter_for_tunnel.spawn(&req.headers) {
                    Ok(session) => HttpResponse {
                        status: 200,
                        body: session.id.into_bytes(),
                    },
                    Err(e) => {
                        let status = match e {
                            dri_cluster::jupyter::JupyterError::NoToken
                            | dri_cluster::jupyter::JupyterError::BadToken(_)
                            | dri_cluster::jupyter::JupyterError::TokenRevoked => 401,
                            dri_cluster::jupyter::JupyterError::RoleMissing
                            | dri_cluster::jupyter::JupyterError::NoAccount => 403,
                            _ => 503,
                        };
                        HttpResponse {
                            status,
                            body: e.to_string().into_bytes(),
                        }
                    }
                }),
            )
            .expect("jupyter tunnel registration");

        let edge = Arc::new(EdgeProxy::new(
            clock.clone(),
            EDGE_WINDOW_MS,
            config.edge_threshold,
            faults.clone(),
        ));

        // --- SEC: SIEM + inventory ----------------------------------------------
        let siem = Arc::new(Siem::new(clock.clone(), config.detection.clone()));
        let inventory = Arc::new(Inventory::new());
        seed_inventory(&inventory, config.bastion_instances);

        // The rate-anomaly detector taps the SIEM: every stored event is
        // observed at flush time, off the emitters' hot path.
        let anomaly = Arc::new(AnomalyDetector::new());
        {
            let anomaly = anomaly.clone();
            siem.register_tap(Box::new(move |event| {
                anomaly.observe(&event.source, event.at_ms);
            }));
        }

        // Per-(dependency, lane) circuit breakers whose transitions land
        // in the SIEM and on the active flow's span.
        {
            let siem = siem.clone();
            resilience.breakers.set_sink(Arc::new(move |t| {
                dri_trace::add_attr("breaker.state", t.to.as_str());
                dri_trace::add_attr("breaker.dependency", &t.dependency);
                let severity = if t.to == BreakerState::Open {
                    Severity::High
                } else {
                    Severity::Info
                };
                siem.enqueue(SecurityEvent::new(
                    t.at_ms,
                    "fds/broker",
                    EventKind::BreakerTransition,
                    &t.dependency,
                    format!(
                        "breaker {}|{}: {} -> {}",
                        t.dependency,
                        t.lane,
                        t.from.as_str(),
                        t.to.as_str()
                    ),
                    severity,
                ));
            }));
        }

        let verification_cache = config.verification_cache;
        let pdp_shards = config.broker_shards;
        let infra = Infrastructure {
            config,
            clock,
            rng: Mutex::new(rng),
            registry,
            university_idp,
            partner_idps: RwLock::new(Vec::new()),
            proxy,
            portal,
            broker,
            oidc,
            admin_idp,
            last_resort_idp,
            ssh_ca,
            network,
            bastion,
            tailnet,
            tunnel,
            edge,
            scheduler,
            login_node,
            jupyter,
            mgmt,
            siem,
            tracer,
            inventory,
            anomaly,
            pdp: MemoizedPdp::new(pdp_shards),
            resilience,
            users: RwLock::new(HashMap::new()),
            mgmt_node,
            pdp_consultations: AtomicU64::new(0),
        };
        if !verification_cache {
            // Cold baseline: both caches fall back to the uncached
            // paths without structural change — no rng is consumed
            // either way, so the derived key material is identical.
            infra.broker.token_cache().set_enabled(false);
            infra.pdp.set_enabled(false);
        }
        infra.bootstrap_operations_admin();
        infra
    }

    /// Create the built-in operations admin (`ops`): a vetted,
    /// hardware-key administrator who is the portal allocator.
    fn bootstrap_operations_admin(&self) {
        self.create_admin("ops", "ops-password");
        self.admin_idp.vet_user("ops").expect("vet ops");
        self.portal.add_allocator("admin:ops");
        self.portal
            .grant_admin("admin:ops", "portal", &["allocator"]);
        self.portal
            .grant_admin("admin:ops", "mgmt-tailnet", &["sysadmin"]);
        self.portal
            .grant_admin("admin:ops", "mgmt-cluster", &["sysadmin"]);
        self.mgmt.acl_add("admin:ops");
    }

    // --- Federation growth -----------------------------------------------------

    /// Register a partner institution's IdP in the federation (the paper:
    /// "this solution can be extended to other trusted IdP federations").
    /// Returns the entity id. Users are provisioned with
    /// [`Infrastructure::create_federated_user_at`].
    pub fn register_partner_idp(
        &self,
        short_name: &str,
        scope: &str,
        loa: LevelOfAssurance,
    ) -> String {
        let entity_id = format!("https://idp.{scope}");
        let idp = Arc::new(IdentityProvider::new(
            entity_id.clone(),
            scope,
            loa,
            self.rng.lock().seed32(),
            self.clock.clone(),
            self.resilience.faults.clone(),
        ));
        self.registry
            .register_entity(EntityDescriptor {
                entity_id: entity_id.clone(),
                display_name: short_name.to_string(),
                kind: EntityKind::IdentityProvider,
                home_federation: "edugain".into(),
                categories: vec![EntityCategory::ResearchAndScholarship],
                max_loa: loa,
                signing_key: idp.verifying_key(),
            })
            .expect("partner idp registration");
        self.partner_idps.write().push(idp);
        entity_id
    }

    /// Provision a federated user at a partner IdP.
    pub fn create_federated_user_at(&self, idp_entity: &str, label: &str, password: &str) {
        let idps = self.partner_idps.read();
        let idp = idps
            .iter()
            .find(|i| i.entity_id == idp_entity)
            .expect("partner idp exists");
        idp.provision_user(label, password, label, "member", None);
        self.users.write().insert(
            label.to_string(),
            SimUser {
                label: label.to_string(),
                kind: UserKind::Federated {
                    idp_entity: idp_entity.to_string(),
                    username: label.to_string(),
                    password: password.to_string(),
                },
                subject: None,
                ssh: None,
                session_id: None,
            },
        );
    }

    // --- User management -----------------------------------------------------

    /// Provision a federated user at the university IdP and register the
    /// client-side handle.
    pub fn create_federated_user(&self, label: &str, password: &str) {
        self.university_idp
            .provision_user(label, password, label, "member", None);
        self.register_federated_handle(label, password);
    }

    /// Provision a federated user with TOTP MFA enrolled at their IdP
    /// (`acr = pwd+totp`), as Official-class projects require.
    pub fn create_federated_user_mfa(&self, label: &str, password: &str) {
        self.university_idp.provision_user(
            label,
            password,
            label,
            "member",
            Some(format!("totp-{label}").into_bytes()),
        );
        self.register_federated_handle(label, password);
    }

    fn register_federated_handle(&self, label: &str, password: &str) {
        self.users.write().insert(
            label.to_string(),
            SimUser {
                label: label.to_string(),
                kind: UserKind::Federated {
                    idp_entity: UNIVERSITY_IDP.to_string(),
                    username: label.to_string(),
                    password: password.to_string(),
                },
                subject: None,
                ssh: None,
                session_id: None,
            },
        );
    }

    /// Register a last-resort user (vendor / AISI staff).
    pub fn create_last_resort_user(&self, label: &str, password: &str) {
        self.last_resort_idp
            .register_totp_user(label, password)
            .expect("register last-resort user");
        self.users.write().insert(
            label.to_string(),
            SimUser {
                label: label.to_string(),
                kind: UserKind::LastResort {
                    username: label.to_string(),
                    password: password.to_string(),
                },
                subject: Some(format!("last-resort:{label}")),
                ssh: None,
                session_id: None,
            },
        );
    }

    /// Register an admin identity (unvetted until story 2 completes).
    pub fn create_admin(&self, label: &str, password: &str) {
        let hw_key = HardwareKey::generate(&mut self.rng.lock());
        self.admin_idp
            .register_hw_user(label, password, hw_key.public())
            .expect("register admin");
        self.users.write().insert(
            label.to_string(),
            SimUser {
                label: label.to_string(),
                kind: UserKind::Admin {
                    username: label.to_string(),
                    password: password.to_string(),
                    hw_key,
                },
                subject: Some(format!("admin:{label}")),
                ssh: None,
                session_id: None,
            },
        );
    }

    // --- Login flows -----------------------------------------------------------

    /// Authenticate a federated user up to the proxy (MyAccessID
    /// registration), returning `(cuid, assertion_for_broker)`. This is
    /// the step that works *even before* authorisation exists — the
    /// broker is the layer that refuses unauthorised subjects.
    pub fn proxy_authenticate(&self, label: &str) -> Result<(String, String), FlowError> {
        let _flow = dri_trace::flow(&self.tracer, label, "login.proxy_authenticate", Stage::Flow);
        let (idp_entity, username, password) = {
            let users = self.users.read();
            let user = users
                .get(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
            match &user.kind {
                UserKind::Federated {
                    idp_entity,
                    username,
                    password,
                } => (idp_entity.clone(), username.clone(), password.clone()),
                _ => return Err(FlowError::WrongIdentityKind),
            }
        };
        let idp: Arc<IdentityProvider> = if idp_entity == UNIVERSITY_IDP {
            self.university_idp.clone()
        } else {
            self.partner_idps
                .read()
                .iter()
                .find(|i| i.entity_id == idp_entity)
                .cloned()
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?
        };
        // The IdP authentication and the proxy hop retry as one unit
        // (the proxy consumes each assertion exactly once, so a retry
        // needs a fresh assertion). The user's authenticator app supplies
        // the current code when their IdP has TOTP enrolled.
        let result = self.with_retry("idp", label, IdpHop::is_transient, || {
            let totp = idp.current_totp(&username);
            let assertion = idp
                .authenticate(&username, &password, totp, PROXY_ENTITY)
                .map_err(IdpHop::Idp)?;
            self.proxy
                .broker_login(&idp_entity, &assertion, BROKER_ENTITY)
                .map_err(IdpHop::Proxy)
        });
        let (cuid, wire) = result.inspect_err(|e| {
            if let FlowError::Idp(err) = e {
                self.emit(
                    "fds/broker",
                    EventKind::AuthnFailure,
                    label,
                    format!("idp refused: {err}"),
                    Severity::Warning,
                );
            }
        })?;
        if let Some(user) = self.users.write().get_mut(label) {
            user.subject = Some(cuid.clone());
        }
        Ok((cuid, wire))
    }

    /// Full federated login: IdP → proxy → broker session. When the home
    /// IdP (or the proxy in front of it) is unreachable — including via
    /// an open circuit breaker — and the user holds a last-resort
    /// fallback enrolment, the login degrades to the IdP of Last Resort
    /// instead of failing (the paper's availability story).
    pub fn federated_login(&self, label: &str) -> Result<SessionInfo, FlowError> {
        let _flow = dri_trace::flow(&self.tracer, label, "login.federated", Stage::Flow);
        match self.federated_login_primary(label) {
            Ok(session) => Ok(session),
            Err(e) if Self::identity_plane_down(&e) => self.degraded_last_resort_login(label, e),
            Err(e) => Err(e),
        }
    }

    /// The primary (non-degraded) federated path.
    fn federated_login_primary(&self, label: &str) -> Result<SessionInfo, FlowError> {
        let (_cuid, wire) = self.proxy_authenticate(label)?;
        let session = self
            .with_retry(
                "broker",
                label,
                |e: &dri_broker::broker::BrokerError| {
                    matches!(e, dri_broker::broker::BrokerError::Unavailable)
                },
                || self.broker.login_federated(PROXY_ENTITY, &wire),
            )
            .inspect_err(|e| {
                if let FlowError::Broker(err) = e {
                    self.emit(
                        "fds/broker",
                        EventKind::AuthnFailure,
                        label,
                        format!("broker refused: {err}"),
                        Severity::Warning,
                    );
                }
            })?;
        self.finish_login(label, &session);
        Ok(session)
    }

    /// Does this error mean the *identity discovery* plane (home IdP or
    /// proxy) is down? Broker unavailability is excluded: the last-resort
    /// route needs the broker too, so there is nothing to degrade to.
    fn identity_plane_down(e: &FlowError) -> bool {
        match e {
            FlowError::Idp(dri_federation::idp::AuthnError::IdpUnavailable) => true,
            FlowError::Proxy(dri_federation::proxy::ProxyError::Unavailable) => true,
            FlowError::CircuitOpen(dep) => dep == "idp",
            _ => false,
        }
    }

    /// Degraded-mode login through the IdP of Last Resort, available to
    /// federated users enrolled via
    /// [`Infrastructure::enroll_last_resort_fallback`]. Returns the
    /// original error when no fallback exists.
    fn degraded_last_resort_login(
        &self,
        label: &str,
        original: FlowError,
    ) -> Result<SessionInfo, FlowError> {
        let password = match self.resilience.fallback_passwords.read().get(label) {
            Some(p) => p.clone(),
            None => return Err(original),
        };
        let code = match self.last_resort_idp.current_totp(label) {
            Some(c) => c,
            None => return Err(original),
        };
        let login = match self.last_resort_idp.login_totp(label, &password, code) {
            Ok(l) => l,
            Err(_) => return Err(original),
        };
        let session = self
            .broker
            .login_managed(&login, IdentitySource::LastResort)
            .map_err(FlowError::Broker)?;
        dri_trace::add_attr("login.degraded", "last-resort");
        self.resilience
            .degraded_logins
            .fetch_add(1, Ordering::Relaxed);
        self.emit(
            "fds/broker",
            EventKind::DegradedLogin,
            &session.subject,
            format!("home IdP unreachable ({original}); failover to IdP of last resort"),
            Severity::Warning,
        );
        self.finish_login(label, &session);
        Ok(session)
    }

    /// Login through the Identity Provider of Last Resort.
    pub fn last_resort_login(&self, label: &str) -> Result<SessionInfo, FlowError> {
        let _flow = dri_trace::flow(&self.tracer, label, "login.last_resort", Stage::Flow);
        let (username, password) = {
            let users = self.users.read();
            let user = users
                .get(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
            match &user.kind {
                UserKind::LastResort { username, password } => (username.clone(), password.clone()),
                _ => return Err(FlowError::WrongIdentityKind),
            }
        };
        let code = self
            .last_resort_idp
            .current_totp(&username)
            .expect("totp enrolled");
        let login = self
            .last_resort_idp
            .login_totp(&username, &password, code)
            .map_err(|e| {
                self.emit(
                    "fds/broker",
                    EventKind::AuthnFailure,
                    label,
                    format!("last-resort refused: {e}"),
                    Severity::Warning,
                );
                FlowError::ManagedIdp(e)
            })?;
        let session = self
            .broker
            .login_managed(&login, IdentitySource::LastResort)
            .map_err(FlowError::Broker)?;
        self.finish_login(label, &session);
        Ok(session)
    }

    /// Login through the administrator IdP (hardware-key ceremony).
    pub fn admin_login(&self, label: &str) -> Result<SessionInfo, FlowError> {
        let session = self.admin_session(label)?;
        self.record_login(label, &session);
        Ok(session)
    }

    /// [`Infrastructure::admin_login`] without recording the session as
    /// the user's, so a session the user already holds stays theirs. The
    /// live compliance probe logs in this way.
    pub(crate) fn admin_session(&self, label: &str) -> Result<SessionInfo, FlowError> {
        let _flow = dri_trace::flow(&self.tracer, label, "login.admin", Stage::Flow);
        let (username, password, hw_key) = {
            let users = self.users.read();
            let user = users
                .get(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
            match &user.kind {
                UserKind::Admin {
                    username,
                    password,
                    hw_key,
                } => (username.clone(), password.clone(), hw_key.clone()),
                _ => return Err(FlowError::WrongIdentityKind),
            }
        };
        let (challenge_id, nonce) = self
            .admin_idp
            .begin_hw_login(&username, &password)
            .map_err(|e| {
                self.emit(
                    "fds/broker",
                    EventKind::AuthnFailure,
                    label,
                    format!("admin idp refused: {e}"),
                    Severity::High,
                );
                FlowError::ManagedIdp(e)
            })?;
        let signature = hw_key.sign_challenge(&nonce);
        let login = self
            .admin_idp
            .finish_hw_login(&challenge_id, &signature)
            .map_err(FlowError::ManagedIdp)?;
        let session = self
            .broker
            .login_managed(&login, IdentitySource::AdminIdp)
            .map_err(FlowError::Broker)?;
        self.log_login(&session);
        Ok(session)
    }

    fn finish_login(&self, label: &str, session: &SessionInfo) {
        self.record_login(label, session);
        self.log_login(session);
    }

    /// Record `session` as `label`'s, the one its tokens are issued from.
    fn record_login(&self, label: &str, session: &SessionInfo) {
        if let Some(user) = self.users.write().get_mut(label) {
            user.session_id = Some(session.session_id.clone());
            user.subject = Some(session.subject.clone());
        }
    }

    /// Report a successful login to the SIEM.
    fn log_login(&self, session: &SessionInfo) {
        self.emit(
            "fds/broker",
            EventKind::AuthnSuccess,
            &session.subject,
            format!("session {} acr={}", session.session_id, session.acr),
            Severity::Info,
        );
    }

    /// Issue a token for a logged-in user, with extra claims.
    pub fn token_for(
        &self,
        label: &str,
        audience: &str,
        extra: Vec<(String, Value)>,
    ) -> Result<(String, Claims), FlowError> {
        self.token_for_shared(label, audience, extra)
            .map(|(token, claims)| (token, Arc::unwrap_or_clone(claims)))
    }

    /// [`Infrastructure::token_for`], returning the claims shared with
    /// the broker's token cache instead of a copy.
    pub(crate) fn token_for_shared(
        &self,
        label: &str,
        audience: &str,
        extra: Vec<(String, Value)>,
    ) -> Result<(String, Arc<Claims>), FlowError> {
        let session_id = {
            let users = self.users.read();
            users
                .get(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?
                .session_id
                .clone()
                .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?
        };
        let result = self.with_retry(
            "broker",
            label,
            |e: &dri_broker::broker::BrokerError| {
                matches!(e, dri_broker::broker::BrokerError::Unavailable)
            },
            || {
                self.broker
                    .issue_token_shared(&session_id, audience, extra.clone())
            },
        )?;
        self.emit(
            "fds/broker",
            EventKind::TokenIssued,
            &result.1.subject,
            format!("aud={audience} jti={}", result.1.token_id),
            Severity::Info,
        );
        Ok(result)
    }

    /// The subject of a user, if established.
    pub fn subject_of(&self, label: &str) -> Option<String> {
        self.users.read().get(label).and_then(|u| u.subject.clone())
    }

    // --- Telemetry --------------------------------------------------------------

    /// Emit a security event into the SIEM (the log-forwarder path):
    /// fire-and-forget onto the SIEM's pending buffer. Detection rules
    /// and the per-source rate-anomaly detector run when the buffer is
    /// flushed (any SIEM accessor, or [`dri_siem::siem::Siem::flush`]).
    pub fn emit(
        &self,
        source: &str,
        kind: EventKind,
        subject: &str,
        detail: impl Into<String>,
        severity: Severity,
    ) {
        let at_ms = self.clock.now_ms();
        self.siem.enqueue(SecurityEvent::new(
            at_ms, source, kind, subject, detail, severity,
        ));
    }

    /// Rate anomalies flagged so far (statistical detections, distinct
    /// from the SIEM's signature rules). Flushes the SIEM first so the
    /// answer reflects every event emitted before the call.
    pub fn rate_anomalies(&self) -> Vec<RateAnomaly> {
        self.siem.flush();
        self.anomaly.findings()
    }

    /// Forward the network fabric's connection log into the SIEM (the
    /// SWS log-gathering function). Returns events forwarded.
    pub fn pump_network_logs(&self) -> usize {
        let events = self.network.drain_log();
        let n = events.len();
        let mapped: Vec<SecurityEvent> = events
            .into_iter()
            .map(|e| {
                let kind = if e.allowed {
                    EventKind::ConnAllowed
                } else {
                    EventKind::ConnDenied
                };
                let severity = if e.allowed {
                    Severity::Info
                } else {
                    Severity::Warning
                };
                SecurityEvent::new(
                    e.at_ms,
                    e.src.clone(),
                    kind,
                    "",
                    format!("{} -> {} [{}]", e.src, e.dst, e.service),
                    severity,
                )
            })
            .collect();
        self.siem.ingest(mapped);
        n
    }

    /// Consult the PDP (tenet 4) and count the consultation. Every
    /// consultation — memo hit or full trust evaluation — opens a
    /// `policy.decide` span, so the SIEM's trace-shape audit can prove
    /// a flow was vetted before its credential issuance (an `sshca`
    /// span with no preceding `policy` span is a PDP bypass).
    pub fn pdp_decide(
        &self,
        req: &dri_policy::trust::AccessRequest,
    ) -> dri_policy::trust::AccessDecision {
        let _span = dri_trace::span_with(
            "policy.decide",
            Stage::Policy,
            &[("policy.resource", req.resource.as_str())],
        );
        self.pdp_consultations.fetch_add(1, Ordering::Relaxed);
        let decision = self.pdp.decide(req);
        dri_trace::add_attr(
            "policy.allow",
            if decision.allow { "true" } else { "false" },
        );
        decision
    }

    /// PDP consultations so far (tenet-audit evidence).
    pub fn pdp_consultation_count(&self) -> u64 {
        self.pdp_consultations.load(Ordering::Relaxed)
    }

    // --- E1: reachability -------------------------------------------------------

    /// The full reachability matrix: every `(src, dst, service)` triple
    /// with whether the fabric permits it. Uses the non-logging check.
    pub fn reachability_matrix(&self) -> Vec<(String, String, String, bool)> {
        let hosts = self.network.host_ids();
        let mut out = Vec::new();
        for src in &hosts {
            for dst in &hosts {
                if src == dst {
                    continue;
                }
                let services = self
                    .network
                    .host(dst)
                    .map(|h| h.services)
                    .unwrap_or_default();
                for service in services {
                    let allowed = self.network.check(src, dst, &service).is_ok();
                    out.push((src.clone(), dst.clone(), service, allowed));
                }
            }
        }
        out
    }
}

/// Build the Fig. 1 host + rule set.
fn build_fabric(net: &Network) {
    // Hosts.
    net.add_host("internet/user", Domain::Internet, Zone::Public, &[]);
    net.add_host("internet/attacker", Domain::Internet, Zone::Public, &[]);
    net.add_host("fds/broker", Domain::Fds, Zone::Access, &["https"]);
    net.add_host("fds/portal", Domain::Fds, Zone::Access, &["https"]);
    net.add_host("fds/ssh-ca", Domain::Fds, Zone::Access, &["https"]);
    net.add_host(
        "fds/zenith",
        Domain::Fds,
        Zone::Access,
        &["zenith", "https"],
    );
    net.add_host("sws/bastion", Domain::Sws, Zone::Access, &["ssh"]);
    net.add_host("sws/logs", Domain::Sws, Zone::Management, &["syslog"]);
    net.add_host(
        "mdc/login01",
        Domain::Mdc,
        Zone::Hpc,
        &["ssh", "jupyter-auth"],
    );
    net.add_host("mdc/compute01", Domain::Mdc, Zone::Hpc, &["slurmd"]);
    net.add_host("mdc/mgmt01", Domain::Mdc, Zone::Management, &["admin-api"]);
    net.add_host("mdc/storage01", Domain::Mdc, Zone::DataStorage, &["lustre"]);
    net.add_host(
        "sec/siem",
        Domain::Sec,
        Zone::Security,
        &["syslog", "siem-api"],
    );

    // Internet-facing: only FDS https (behind the edge) and the bastion's ssh.
    net.allow(
        "internet -> FDS https (via edge)",
        Selector::InDomain(Domain::Internet),
        Selector::DomainZone(Domain::Fds, Zone::Access),
        "https",
    );
    net.allow(
        "internet -> bastion ssh",
        Selector::InDomain(Domain::Internet),
        Selector::Host("sws/bastion".into()),
        "ssh",
    );
    // Bastion relays ssh into the HPC zone only.
    net.allow(
        "bastion -> HPC ssh",
        Selector::Host("sws/bastion".into()),
        Selector::DomainZone(Domain::Mdc, Zone::Hpc),
        "ssh",
    );
    // HPC zone dials outbound Zenith tunnels to FDS.
    net.allow(
        "HPC -> zenith (outbound reverse tunnel)",
        Selector::DomainZone(Domain::Mdc, Zone::Hpc),
        Selector::Host("fds/zenith".into()),
        "zenith",
    );
    // HPC zone talks to storage and compute internally.
    net.allow(
        "HPC -> storage lustre",
        Selector::DomainZone(Domain::Mdc, Zone::Hpc),
        Selector::DomainZone(Domain::Mdc, Zone::DataStorage),
        "lustre",
    );
    net.allow(
        "login -> compute slurmd",
        Selector::Host("mdc/login01".into()),
        Selector::Host("mdc/compute01".into()),
        "slurmd",
    );
    // Management zone may administer HPC hosts.
    net.allow(
        "mgmt -> HPC ssh",
        Selector::DomainZone(Domain::Mdc, Zone::Management),
        Selector::DomainZone(Domain::Mdc, Zone::Hpc),
        "ssh",
    );
    // Log forwarding: MDC/FDS -> SWS logs -> SEC; FDS also ships directly.
    net.allow(
        "MDC -> SWS syslog",
        Selector::InDomain(Domain::Mdc),
        Selector::Host("sws/logs".into()),
        "syslog",
    );
    net.allow(
        "SWS logs -> SEC syslog",
        Selector::Host("sws/logs".into()),
        Selector::Host("sec/siem".into()),
        "syslog",
    );
    net.allow(
        "FDS -> SEC syslog",
        Selector::InDomain(Domain::Fds),
        Selector::Host("sec/siem".into()),
        "syslog",
    );
}

/// Seed the SOC inventory with the deployment's software set and a small
/// vulnerability feed (E13 exercises the scan).
fn seed_inventory(inventory: &Inventory, bastion_instances: usize) {
    for i in 1..=bastion_instances {
        inventory.record(&format!("sws/bastion-{i}"), "openssh", Version(9, 8, 0));
    }
    inventory.record("mdc/login01", "openssh", Version(9, 8, 0));
    inventory.record("mdc/login01", "slurm", Version(23, 11, 4));
    inventory.record("mdc/mgmt01", "slurm", Version(23, 11, 4));
    inventory.record("fds/broker", "keycloak-like-broker", Version(1, 0, 0));
    inventory.record("fds/zenith", "zenith", Version(0, 9, 0));
    inventory.add_vulnerability(Vulnerability {
        id: "CVE-2024-6387".into(),
        software: "openssh".into(),
        fixed_in: Version(9, 8, 0),
        severity: dri_siem::events::Severity::Critical,
    });
    inventory.add_vulnerability(Vulnerability {
        id: "CVE-2023-49933".into(),
        software: "slurm".into(),
        fixed_in: Version(23, 11, 1),
        severity: dri_siem::events::Severity::High,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_netsim::topology::NetError as NE;

    #[test]
    fn builds_and_bootstraps() {
        let infra = Infrastructure::new(InfraConfig::default());
        assert_eq!(infra.registry.federation_count(), 2);
        assert!(infra.registry.lookup(PROXY_ENTITY).is_some());
        assert_eq!(infra.admin_idp.user_count(), 1); // ops
        assert!(infra.portal.is_authorized_subject("admin:ops"));
        assert_eq!(infra.network.host_ids().len(), 13);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Infrastructure::new(InfraConfig::default());
        let b = Infrastructure::new(InfraConfig::default());
        assert_eq!(
            a.ssh_ca.public_key().as_bytes(),
            b.ssh_ca.public_key().as_bytes()
        );
        assert_eq!(a.proxy.verifying_key(), b.proxy.verifying_key());
        let cfg = InfraConfig::builder().seed(43).build().unwrap();
        let c = Infrastructure::new(cfg);
        assert_ne!(
            a.ssh_ca.public_key().as_bytes(),
            c.ssh_ca.public_key().as_bytes()
        );
    }

    #[test]
    fn federated_login_requires_authorization_first() {
        let infra = Infrastructure::new(InfraConfig::default());
        infra.create_federated_user("alice", "pw");
        // MyAccessID registration succeeds …
        let (cuid, _) = infra.proxy_authenticate("alice").unwrap();
        assert!(cuid.starts_with("maid-"));
        // … but the broker refuses: no grants yet.
        assert!(matches!(
            infra.federated_login("alice"),
            Err(FlowError::Broker(
                dri_broker::broker::BrokerError::NotAuthorized
            ))
        ));
    }

    #[test]
    fn internet_cannot_reach_inside() {
        let infra = Infrastructure::new(InfraConfig::default());
        for (dst, svc) in [
            ("mdc/login01", "ssh"),
            ("mdc/mgmt01", "admin-api"),
            ("mdc/storage01", "lustre"),
            ("sec/siem", "siem-api"),
            ("sws/logs", "syslog"),
        ] {
            assert_eq!(
                infra.network.check("internet/attacker", dst, svc),
                Err(NE::Denied),
                "{dst}/{svc} must be unreachable from the internet"
            );
        }
        // Only the two designed entry points are open.
        assert!(infra
            .network
            .check("internet/user", "sws/bastion", "ssh")
            .is_ok());
        assert!(infra
            .network
            .check("internet/user", "fds/broker", "https")
            .is_ok());
    }

    #[test]
    fn reachability_matrix_covers_all_pairs() {
        let infra = Infrastructure::new(InfraConfig::default());
        let matrix = infra.reachability_matrix();
        // 13 hosts, each destination exposes its services.
        assert!(matrix.len() > 100);
        let allowed: Vec<_> = matrix.iter().filter(|(_, _, _, a)| *a).collect();
        let denied = matrix.len() - allowed.len();
        assert!(denied > allowed.len(), "default-deny: most pairs blocked");
    }

    #[test]
    fn network_logs_pump_into_siem() {
        let infra = Infrastructure::new(InfraConfig::default());
        // Drain construction-time traffic (the Zenith tunnel dial-out).
        let _ = infra.network.drain_log();
        let _ = infra
            .network
            .connect("internet/attacker", "mdc/mgmt01", "admin-api");
        let _ = infra.network.connect("internet/user", "sws/bastion", "ssh");
        let n = infra.pump_network_logs();
        assert_eq!(n, 2);
        assert_eq!(infra.siem.events_of_kind(EventKind::ConnDenied).len(), 1);
        assert_eq!(infra.siem.events_of_kind(EventKind::ConnAllowed).len(), 1);
    }

    #[test]
    fn inventory_scan_flags_seeded_vuln() {
        let infra = Infrastructure::new(InfraConfig::default());
        // zenith 0.9.0 and others are fine; slurm 23.11.4 is fixed; the
        // feed should currently be clean because everything is patched.
        let findings = infra.inventory.scan();
        assert!(
            findings.is_empty(),
            "deployment starts patched: {findings:?}"
        );
        // Downgrade a bastion; scan flags it.
        infra
            .inventory
            .record("sws/bastion-1", "openssh", Version(9, 3, 0));
        let findings = infra.inventory.scan();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].vuln_id, "CVE-2024-6387");
    }
}
