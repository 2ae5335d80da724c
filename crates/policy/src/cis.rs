//! The CIS-style configuration baseline (SOC task 3, §III-D) as a rule
//! table: twelve pass/fail checks, each expected `Achieved`.

use crate::compliance::{flag, Achievement::Achieved, Rule, CREDENTIAL_TTL_CEILING_SECS};

/// The twelve checks, `DRI-01`–`DRI-12`.
pub const CIS: &[Rule] = &[
    Rule {
        id: "DRI-01",
        title: "hardware-key MFA for administrators",
        expected: Achieved,
        judge: |e| flag("hardware-key admin MFA", e.admin_mfa_hardware),
    },
    Rule {
        id: "DRI-02",
        title: "MFA for all interactive users",
        expected: Achieved,
        judge: |e| flag("user MFA", e.mfa_enforced),
    },
    Rule {
        id: "DRI-03",
        title: "default-deny network segmentation",
        expected: Achieved,
        judge: |e| flag("default-deny fabric", e.default_deny),
    },
    Rule {
        id: "DRI-04",
        title: "management plane only via admin overlay",
        expected: Achieved,
        judge: |e| flag("management only via tailnet", e.mgmt_only_via_tailnet),
    },
    Rule {
        id: "DRI-05",
        title: "all credentials time-limited",
        expected: Achieved,
        judge: |e| flag("credentials time-limited", e.credentials_time_limited),
    },
    Rule {
        id: "DRI-06",
        title: "token TTL ceiling (≤ 24h)",
        expected: Achieved,
        judge: |e| {
            (
                (e.longest_credential_ttl_secs <= CREDENTIAL_TTL_CEILING_SECS).into(),
                format!("longest credential TTL {}s", e.longest_credential_ttl_secs),
            )
        },
    },
    Rule {
        id: "DRI-07",
        title: "logs shipped to isolated security domain",
        expected: Achieved,
        judge: |e| flag("logs shipped to security domain", e.logs_shipped_to_sec),
    },
    Rule {
        id: "DRI-08",
        title: "kill switches for access paths",
        expected: Achieved,
        judge: |e| flag("kill switches present", e.kill_switches_present),
    },
    Rule {
        id: "DRI-09",
        title: "dedicated administrator IdP",
        expected: Achieved,
        judge: |e| flag("separate admin IdP", e.separate_admin_idp),
    },
    Rule {
        id: "DRI-10",
        title: "IAM flows encrypted",
        expected: Achieved,
        judge: |e| flag("IAM encryption", e.iam_encrypted),
    },
    Rule {
        id: "DRI-11",
        title: "no global admin; per-service RBAC",
        expected: Achieved,
        judge: |e| flag("no global admin", e.no_global_admin),
    },
    Rule {
        id: "DRI-12",
        title: "HPC fabric / parallel FS encryption",
        expected: Achieved,
        judge: |e| flag("HPC fabric encryption", e.hpc_fabric_encrypted),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::{assess, deployed};

    #[test]
    fn paper_deployment_scores_11_of_12() {
        let report = assess(CIS, &deployed());
        assert_eq!(report.score(), (11, 12));
        // The one admitted shortcoming: HPC fabric encryption.
        assert_eq!(report.gaps(), ["DRI-12"]);
    }

    #[test]
    fn weakened_config_fails_more_checks() {
        let mut ev = deployed();
        ev.admin_mfa_hardware = false;
        ev.default_deny = false;
        ev.longest_credential_ttl_secs = 30 * 24 * 3600;
        let report = assess(CIS, &ev);
        assert_eq!(report.score(), (8, 12));
        let ids = report.gaps();
        assert!(ids.contains(&"DRI-01"));
        assert!(ids.contains(&"DRI-03"));
        assert!(ids.contains(&"DRI-06"));
    }

    #[test]
    fn perfect_config_scores_full() {
        let mut ev = deployed();
        ev.hpc_fabric_encrypted = true;
        let report = assess(CIS, &ev);
        assert_eq!(report.score(), (12, 12));
        assert!(report.gaps().is_empty());
    }
}
