//! # dri-core — the federated SSO + zero-trust co-design
//!
//! This crate is the paper's contribution: it assembles every substrate
//! (federation, broker, portal, SSH CA, segmented network, cluster, SIEM,
//! policy engine) into the Fig. 1 architecture and exposes the workflows
//! of §IV as a typed API.
//!
//! ```
//! use dri_core::prelude::*;
//!
//! let infra = Infrastructure::new(InfraConfig::default());
//! // Provision a federated identity at the institutional IdP, then
//! // onboard them as a PI through the full allocator -> invite ->
//! // federated registration pipeline (user story 1). The outcome carries
//! // typed handles — a ProjectId, a Cuid, a SessionId — not bare strings:
//! infra.create_federated_user("alice", "correct-horse");
//! let pi: PiOutcome = infra.story1_onboard_pi("climate-llm", "alice", 1_000.0).unwrap();
//! let project: &ProjectId = &pi.project_id;
//! assert!(infra.portal.project(project).is_some());
//! assert!(pi.cuid.starts_with("maid-"));
//! ```
//!
//! Experiments that tune the deployment go through the validating
//! builder instead of mutating fields by hand:
//!
//! ```
//! use dri_core::prelude::*;
//!
//! let config = InfraConfig::builder()
//!     .broker_shards(32)      // power-of-two shard count
//!     .jupyter_capacity(512)
//!     .build()
//!     .unwrap();
//! let infra = Infrastructure::new(config);
//! assert_eq!(infra.broker.shard_count(), 32);
//! ```
//!
//! Key entry points:
//! * [`Infrastructure::new`] — build the whole co-design from a config;
//! * [`InfraConfig::builder`] — validated experiment configuration;
//! * `story1_…` to `story6_…` — the six user stories, end to end, over
//!   the typed handles in [`ids`];
//! * [`Infrastructure::kill_user`] — the coordinated kill switch;
//! * [`Infrastructure::reachability_matrix`] — the E1 segmentation map;
//! * [`Infrastructure::evidence`] — the one live compliance record that
//!   [`Infrastructure::tenet_audit`] (E15), [`Infrastructure::cis_report`]
//!   and [`Infrastructure::caf_assessment`] (E16) assess;
//! * [`dri_core::ablation`](ablation) — the perimeter-model baseline for E10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
pub mod compliance;
pub mod config;
pub mod flows;
pub mod ids;
pub mod infra;
pub mod killswitch;
pub mod metrics;
pub mod prelude;
pub mod resilience;
pub mod stories;
pub mod users;

pub use chaos::ChaosOutcome;
pub use config::{ConfigError, InfraConfig, InfraConfigBuilder};
pub use flows::FlowError;
pub use ids::{Cuid, ProjectId, SessionId, UserLabel};
pub use infra::{Infrastructure, BROKER_ENTITY, PROXY_ENTITY, UNIVERSITY_IDP};
pub use killswitch::KillReport;
pub use metrics::MetricsSnapshot;
pub use resilience::{FeedbackAction, FeedbackAdjustment, Resilience};
pub use stories::{
    AdminOutcome, JupyterOutcome, PiOutcome, PrivilegedOpOutcome, ResearcherOutcome, SshOutcome,
};
pub use users::{SimUser, UserKind};
