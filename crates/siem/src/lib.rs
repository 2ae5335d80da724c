//! # dri-siem — the virtual Security Operations Centre
//!
//! §III-D of the paper: the SOC (1) aggregates and scans logs from every
//! domain to raise alerts, (2) inventories software to track
//! vulnerabilities, and (3) assesses configuration against best-practice
//! baselines (CIS). The first two are implemented here; the third is the
//! `CIS` rule table of `dri_policy::compliance`, judged on the same
//! evidence record as the zero-trust tenets and the CAF baseline:
//!
//! * [`events`] — the security-event vocabulary every domain forwards;
//! * [`siem`] — the ingestion pipeline and detection engine (windowed
//!   rules: credential stuffing, token abuse, lateral movement probes,
//!   expired-credential replay) plus alerts and kill-switch
//!   recommendations;
//! * [`inventory`] — asset/software inventory matched against a
//!   vulnerability feed;
//! * [`shape`] — trace-shape detection rules over the span tree itself
//!   (first rule: `sshca` span with no preceding `policy` span = PDP
//!   bypass).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod events;
pub mod inventory;
pub mod shape;
pub mod siem;

pub use anomaly::{AnomalyDetector, RateAnomaly};
pub use events::{EventKind, SecurityEvent, Severity};
pub use inventory::{Inventory, VulnFinding, Vulnerability};
pub use shape::{find_pdp_bypasses, pdp_bypass_events, PdpBypassFinding};
pub use siem::{Alert, DetectionConfig, Siem};
