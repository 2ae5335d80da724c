//! The NCSC Cyber Assessment Framework (CAF) baseline profile as a rule
//! table.
//!
//! §V: *"Our next steps is to achieve CAF compliance for the baseline
//! profile."* This is that next step made executable: the 14 CAF
//! principles (objectives A–D), each with the level the baseline profile
//! expects.

use crate::compliance::{
    flag, level,
    Achievement::{Achieved, PartiallyAchieved},
    Rule,
};

/// The 14 CAF principles, `A1`–`D2`.
pub const CAF: &[Rule] = &[
    Rule {
        id: "A1",
        title: "Governance",
        expected: PartiallyAchieved,
        judge: |e| flag("role separation", e.roles_separated),
    },
    Rule {
        id: "A2",
        title: "Risk management",
        expected: PartiallyAchieved,
        judge: |e| {
            (
                level(
                    e.assets_inventoried > 0 && e.config_checks_run > 0,
                    e.assets_inventoried > 0,
                ),
                format!(
                    "{} assets, {} config checks",
                    e.assets_inventoried, e.config_checks_run
                ),
            )
        },
    },
    Rule {
        id: "A3",
        title: "Asset management",
        expected: PartiallyAchieved,
        judge: |e| {
            (
                level(e.assets_inventoried >= 5, e.assets_inventoried > 0),
                format!("{} assets inventoried", e.assets_inventoried),
            )
        },
    },
    Rule {
        id: "A4",
        title: "Supply chain",
        expected: PartiallyAchieved,
        judge: |e| {
            flag(
                "federation metadata verified",
                e.federation_metadata_verified,
            )
        },
    },
    Rule {
        id: "B1",
        title: "Service protection policies and processes",
        expected: Achieved,
        judge: |e| {
            (
                level(
                    e.services_total > 0 && e.services_with_policy == e.services_total,
                    e.services_with_policy > 0,
                ),
                format!(
                    "{}/{} services under policy",
                    e.services_with_policy, e.services_total
                ),
            )
        },
    },
    Rule {
        id: "B2",
        title: "Identity and access control",
        expected: Achieved,
        judge: |e| {
            (
                level(e.mfa_enforced && e.no_global_admin, e.mfa_enforced),
                format!(
                    "mfa = {}, no global admin = {}",
                    e.mfa_enforced, e.no_global_admin
                ),
            )
        },
    },
    Rule {
        id: "B3",
        title: "Data security",
        expected: Achieved,
        judge: |e| flag("IAM encryption", e.iam_encrypted),
    },
    Rule {
        id: "B4",
        title: "System security",
        expected: Achieved,
        judge: |e| flag("default-deny fabric", e.default_deny),
    },
    Rule {
        id: "B5",
        title: "Resilient networks and systems",
        expected: PartiallyAchieved,
        judge: |e| {
            (
                level(e.bastion_instances >= 2, e.bastion_instances >= 1),
                format!("{} HA bastion instances", e.bastion_instances),
            )
        },
    },
    Rule {
        id: "B6",
        title: "Staff awareness and training",
        expected: PartiallyAchieved,
        judge: |e| {
            (
                level(e.devsecops_established, true),
                format!(
                    "DevSecOps culture established = {} (paper: in progress)",
                    e.devsecops_established
                ),
            )
        },
    },
    Rule {
        id: "C1",
        title: "Security monitoring",
        expected: Achieved,
        judge: |e| {
            (
                level(
                    e.telemetry_sources >= 3 && e.events_collected > 0,
                    e.events_collected > 0,
                ),
                format!(
                    "{} sources, {} events",
                    e.telemetry_sources, e.events_collected
                ),
            )
        },
    },
    Rule {
        id: "C2",
        title: "Proactive security event discovery",
        expected: PartiallyAchieved,
        judge: |e| {
            (
                level(e.detection_rules_active >= 3, e.detection_rules_active > 0),
                format!("{} detection rules", e.detection_rules_active),
            )
        },
    },
    Rule {
        id: "D1",
        title: "Response and recovery planning",
        expected: Achieved,
        judge: |e| {
            (
                level(
                    e.kill_switches_tested && e.reinstatement_tested,
                    e.kill_switches_tested,
                ),
                format!(
                    "kill switches tested = {}, reinstatement = {}",
                    e.kill_switches_tested, e.reinstatement_tested
                ),
            )
        },
    },
    Rule {
        id: "D2",
        title: "Lessons learned",
        expected: PartiallyAchieved,
        judge: |e| flag("alert->config feedback loop", e.lessons_loop),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::{assess, deployed, Achievement};

    #[test]
    fn deployed_codesign_meets_baseline() {
        let assessment = assess(CAF, &deployed());
        assert!(assessment.compliant(), "gaps: {:?}", assessment.gaps());
        assert_eq!(assessment.score(), (14, 14));
        // B6 is only partially achieved (DevSecOps in progress) but the
        // baseline only expects partial.
        let b6 = assessment.controls.iter().find(|c| c.id == "B6").unwrap();
        assert_eq!(b6.achieved, Achievement::PartiallyAchieved);
        assert!(b6.met());
    }

    #[test]
    fn missing_mfa_breaks_b2() {
        let mut ev = deployed();
        ev.mfa_enforced = false;
        let assessment = assess(CAF, &ev);
        assert!(!assessment.compliant());
        assert!(assessment.gaps().contains(&"B2"));
    }

    #[test]
    fn no_monitoring_breaks_c1() {
        let mut ev = deployed();
        ev.events_collected = 0;
        ev.telemetry_sources = 0;
        let assessment = assess(CAF, &ev);
        assert!(assessment.gaps().contains(&"C1"));
    }

    #[test]
    fn achievement_ordering() {
        assert!(Achievement::Achieved > Achievement::PartiallyAchieved);
        assert!(Achievement::PartiallyAchieved > Achievement::NotAchieved);
        assert_eq!(Achievement::Achieved.as_str(), "achieved");
    }

    #[test]
    fn single_bastion_is_partial_on_b5() {
        let mut ev = deployed();
        ev.bastion_instances = 1;
        let assessment = assess(CAF, &ev);
        let b5 = assessment.controls.iter().find(|c| c.id == "B5").unwrap();
        assert_eq!(b5.achieved, Achievement::PartiallyAchieved);
        assert!(b5.met(), "baseline expects partial for B5");
    }
}
