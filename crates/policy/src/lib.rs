//! # dri-policy — the zero-trust policy engine
//!
//! NIST SP 800-207 structures the control plane around a *policy decision
//! point* (PDP) fed by a *trust algorithm* over identity, device, and
//! environment signals, enforced per session at *policy enforcement
//! points*. The paper adopts the seven ZT tenets as design drivers; this
//! crate makes them executable:
//!
//! * [`trust`] — the trust algorithm and PDP: score an access request
//!   from identity assurance, authentication context, device posture,
//!   source zone, session age and resource sensitivity; decide against a
//!   per-sensitivity threshold.
//! * [`compliance`] — one assessment of the paper's three compliance
//!   claims: the seven tenets (E15), the CIS-style configuration checks
//!   and the NCSC CAF baseline profile the paper names as its next step
//!   (E16). Each is a rule table ([`TENETS`], [`CIS`], [`CAF`]) read by
//!   one [`assess`] over one [`Evidence`] record into an [`Assessment`]
//!   of [`Control`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod caf;
mod cis;
pub mod compliance;
mod tenets;
pub mod trust;

pub use compliance::{assess, Achievement, Assessment, Control, Evidence, Rule, CAF, CIS, TENETS};
pub use trust::{
    AccessDecision, AccessRequest, DevicePosture, MemoizedPdp, PolicyDecisionPoint, Sensitivity,
    SourceZone,
};
