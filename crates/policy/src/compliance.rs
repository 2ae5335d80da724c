//! One compliance assessment for the paper's three compliance claims:
//! the seven NIST SP 800-207 tenets (§II-C), the CIS-style configuration
//! checks (SOC task 3, §III-D) and the NCSC CAF baseline profile (§V,
//! the stated next step).
//!
//! Each framework is a rule table ([`TENETS`], [`CIS`], [`CAF`]) over one
//! [`Evidence`] record; [`assess`] reads any table into an
//! [`Assessment`]. A pass/fail check scores [`Achievement::Achieved`] or
//! [`Achievement::NotAchieved`] against an expected `Achieved`.

pub use crate::caf::CAF;
pub use crate::cis::CIS;
pub use crate::tenets::TENETS;

/// Ceiling for a "short-lived" credential (seconds): tenet 3 and DRI-06.
pub(crate) const CREDENTIAL_TTL_CEILING_SECS: u64 = 24 * 3600;

/// Achievement level of one control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Achievement {
    /// Not achieved.
    NotAchieved,
    /// Partially achieved.
    PartiallyAchieved,
    /// Achieved.
    Achieved,
}

impl Achievement {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Achievement::NotAchieved => "not-achieved",
            Achievement::PartiallyAchieved => "partially-achieved",
            Achievement::Achieved => "achieved",
        }
    }
}

/// A pass/fail check: `Achieved` or `NotAchieved`.
impl From<bool> for Achievement {
    fn from(passed: bool) -> Achievement {
        level(passed, false)
    }
}

/// Everything the rule tables read, gathered once from the deployment
/// (`dri-core`'s `Infrastructure::evidence`). A configuration claim and
/// a live probe of the same control are separate facts.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// Services discovered in the deployment.
    pub services_total: usize,
    /// Services registered with a token policy (managed as resources).
    pub services_with_policy: usize,
    /// Assets tracked in the inventory.
    pub assets_inventoried: usize,
    /// Configuration checks executed.
    pub config_checks_run: usize,
    /// External IdPs are trust-anchored via verified metadata.
    pub federation_metadata_verified: bool,
    /// Inter-zone channel classes audited.
    pub channels_total: usize,
    /// Channel classes carrying encrypted + authenticated traffic.
    pub channels_encrypted: usize,
    /// IAM flows encrypted end to end.
    pub iam_encrypted: bool,
    /// HPC interconnect / parallel FS encrypted (the paper admits this is
    /// not yet done).
    pub hpc_fabric_encrypted: bool,
    /// Network fabric is default-deny.
    pub default_deny: bool,
    /// Management zone reachable only via the admin overlay.
    pub mgmt_only_via_tailnet: bool,
    /// Roles (allocator / PI / researcher / admin) are separated.
    pub roles_separated: bool,
    /// MFA enforced for all interactive users.
    pub mfa_enforced: bool,
    /// Hardware-key MFA for administrators.
    pub admin_mfa_hardware: bool,
    /// Admin identities live in a dedicated IdP.
    pub separate_admin_idp: bool,
    /// Per-service RBAC; no global admin exists.
    pub no_global_admin: bool,
    /// All tokens and certificates are time-limited.
    pub credentials_time_limited: bool,
    /// Longest lifetime of any credential the deployment issues (seconds).
    pub longest_credential_ttl_secs: u64,
    /// Tokens are bound to sessions (sid claim) and audiences.
    pub tokens_session_bound: bool,
    /// Re-authentication is forced on session expiry.
    pub reauth_enforced: bool,
    /// Signal classes the PDP weighs (identity, device, environment, …).
    pub pdp_signals: usize,
    /// PDP consultations observed.
    pub pdp_consultations: u64,
    /// Security events collected.
    pub events_collected: u64,
    /// Distinct event sources feeding the SIEM.
    pub telemetry_sources: usize,
    /// Detection rules active in the SIEM.
    pub detection_rules_active: usize,
    /// Logs forwarded to a separate security domain.
    pub logs_shipped_to_sec: bool,
    /// Live probe: revocation cuts access before credential expiry.
    pub revocation_effective: bool,
    /// Kill switches exist for bastion / tailnet / tunnels.
    pub kill_switches_present: bool,
    /// Live probe: a kill switch was seen to refuse access.
    pub kill_switches_tested: bool,
    /// Live probe: access returned once the kill switch was lifted.
    pub reinstatement_tested: bool,
    /// HA bastion instances.
    pub bastion_instances: usize,
    /// Alerts feed back into configuration.
    pub lessons_loop: bool,
    /// DevSecOps culture established (the paper says it is still being
    /// grown).
    pub devsecops_established: bool,
}

/// One row of a rule table: a framework control and how evidence is
/// judged against it.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Framework id (`3`, `B6`, `DRI-12`).
    pub id: &'static str,
    /// The control's title or statement.
    pub title: &'static str,
    /// Level the framework expects.
    pub expected: Achievement,
    /// The level the evidence earns, with the evidence text behind it.
    pub judge: fn(&Evidence) -> (Achievement, String),
}

/// One assessed control.
#[derive(Debug, Clone)]
pub struct Control {
    /// Framework id.
    pub id: &'static str,
    /// Title or statement.
    pub title: &'static str,
    /// Level achieved.
    pub achieved: Achievement,
    /// Level expected.
    pub expected: Achievement,
    /// Evidence summary.
    pub evidence: String,
}

impl Control {
    /// Does the achieved level meet the expected one?
    pub fn met(&self) -> bool {
        self.achieved >= self.expected
    }
}

/// The outcome of one rule table over one evidence record.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Every control, in table order.
    pub controls: Vec<Control>,
}

impl Assessment {
    /// Controls met / total.
    pub fn score(&self) -> (usize, usize) {
        let met = self.controls.iter().filter(|c| c.met()).count();
        (met, self.controls.len())
    }

    /// Ids of the controls not met.
    pub fn gaps(&self) -> Vec<&'static str> {
        self.controls
            .iter()
            .filter(|c| !c.met())
            .map(|c| c.id)
            .collect()
    }

    /// True when every control is met.
    pub fn compliant(&self) -> bool {
        self.controls.iter().all(Control::met)
    }
}

/// Judge `evidence` against every rule of `table`.
pub fn assess(table: &[Rule], evidence: &Evidence) -> Assessment {
    let controls = table
        .iter()
        .map(|rule| {
            let (achieved, evidence) = (rule.judge)(evidence);
            Control {
                id: rule.id,
                title: rule.title,
                achieved,
                expected: rule.expected,
                evidence,
            }
        })
        .collect();
    Assessment { controls }
}

/// `Achieved` when `full`, else `PartiallyAchieved` when `partial`,
/// else `NotAchieved`.
pub(crate) fn level(full: bool, partial: bool) -> Achievement {
    if full {
        Achievement::Achieved
    } else if partial {
        Achievement::PartiallyAchieved
    } else {
        Achievement::NotAchieved
    }
}

/// A pass/fail judgement of one flag, with `name = value` as evidence.
pub(crate) fn flag(name: &str, value: bool) -> (Achievement, String) {
    (value.into(), format!("{name} = {value}"))
}

/// The deployed co-design as the paper describes it (§III–IV), for the
/// tables' unit tests: everything in place except HPC-fabric encryption
/// and an established DevSecOps culture.
#[cfg(test)]
pub(crate) fn deployed() -> Evidence {
    Evidence {
        services_total: 6,
        services_with_policy: 6,
        assets_inventoried: 12,
        config_checks_run: 12,
        federation_metadata_verified: true,
        channels_total: 5,
        channels_encrypted: 5,
        iam_encrypted: true,
        hpc_fabric_encrypted: false,
        default_deny: true,
        mgmt_only_via_tailnet: true,
        roles_separated: true,
        mfa_enforced: true,
        admin_mfa_hardware: true,
        separate_admin_idp: true,
        no_global_admin: true,
        credentials_time_limited: true,
        longest_credential_ttl_secs: 8 * 3600,
        tokens_session_bound: true,
        reauth_enforced: true,
        pdp_signals: 5,
        pdp_consultations: 100,
        events_collected: 5000,
        telemetry_sources: 6,
        detection_rules_active: 4,
        logs_shipped_to_sec: true,
        revocation_effective: true,
        kill_switches_present: true,
        kill_switches_tested: true,
        reinstatement_tested: true,
        bastion_instances: 3,
        lessons_loop: true,
        devsecops_established: false,
    }
}
