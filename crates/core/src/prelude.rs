//! One-line import for the public co-design API.
//!
//! ```
//! use dri_core::prelude::*;
//!
//! let infra = Infrastructure::new(
//!     InfraConfig::builder().broker_shards(4).build().unwrap(),
//! );
//! infra.create_federated_user("alice", "pw");
//! let pi: PiOutcome = infra.story1_onboard_pi("climate-llm", "alice", 10.0).unwrap();
//! let _cuid: &Cuid = &pi.cuid;
//! ```

pub use crate::chaos::ChaosOutcome;
pub use crate::config::{ConfigError, InfraConfig, InfraConfigBuilder};
pub use crate::flows::FlowError;
pub use crate::ids::{Cuid, ProjectId, SessionId, UserLabel};
pub use crate::infra::Infrastructure;
pub use crate::killswitch::KillReport;
pub use crate::metrics::MetricsSnapshot;
pub use crate::resilience::Resilience;
pub use crate::stories::{
    AdminOutcome, JupyterOutcome, PiOutcome, PrivilegedOpOutcome, ResearcherOutcome, SshOutcome,
};
