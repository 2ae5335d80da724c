//! The seven NIST zero-trust tenets (§II-C) as a rule table.
//!
//! The tenets are judged on live evidence, not configuration claims:
//! counts of registered resources, observed encryption, credential
//! lifetimes, PDP consultations, telemetry volumes. The E15 experiment
//! shows the full co-design passes all seven while ablated variants fail
//! specific tenets.

use crate::compliance::{Achievement::Achieved, Rule, CREDENTIAL_TTL_CEILING_SECS};

/// The seven tenets, ids `1`–`7`, each expected `Achieved`.
pub const TENETS: &[Rule] = &[
    Rule {
        id: "1",
        title: "all data sources and computing services are resources",
        expected: Achieved,
        judge: |e| {
            (
                (e.services_total > 0 && e.services_with_policy == e.services_total).into(),
                format!(
                    "{}/{} services under token policy",
                    e.services_with_policy, e.services_total
                ),
            )
        },
    },
    Rule {
        id: "2",
        title: "all communication secured regardless of network location",
        expected: Achieved,
        judge: |e| {
            (
                (e.channels_total > 0 && e.channels_encrypted == e.channels_total).into(),
                format!(
                    "{}/{} channels encrypted+authenticated",
                    e.channels_encrypted, e.channels_total
                ),
            )
        },
    },
    Rule {
        id: "3",
        title: "access granted per session",
        expected: Achieved,
        judge: |e| {
            (
                (e.tokens_session_bound
                    && e.longest_credential_ttl_secs > 0
                    && e.longest_credential_ttl_secs <= CREDENTIAL_TTL_CEILING_SECS)
                    .into(),
                format!(
                    "session-bound={}, max TTL {}s",
                    e.tokens_session_bound, e.longest_credential_ttl_secs
                ),
            )
        },
    },
    Rule {
        id: "4",
        title: "access determined by dynamic policy",
        expected: Achieved,
        judge: |e| {
            (
                (e.pdp_signals >= 3 && e.pdp_consultations > 0).into(),
                format!(
                    "{} signal classes, {} consultations",
                    e.pdp_signals, e.pdp_consultations
                ),
            )
        },
    },
    Rule {
        id: "5",
        title: "integrity and posture of assets monitored",
        expected: Achieved,
        judge: |e| {
            (
                (e.assets_inventoried > 0 && e.config_checks_run > 0).into(),
                format!(
                    "{} assets inventoried, {} config checks",
                    e.assets_inventoried, e.config_checks_run
                ),
            )
        },
    },
    Rule {
        id: "6",
        title: "authentication and authorization dynamic and strictly enforced",
        expected: Achieved,
        judge: |e| {
            (
                (e.reauth_enforced && e.revocation_effective).into(),
                format!(
                    "reauth={}, revocation={}",
                    e.reauth_enforced, e.revocation_effective
                ),
            )
        },
    },
    Rule {
        id: "7",
        title: "collect and use information to improve posture",
        expected: Achieved,
        judge: |e| {
            (
                (e.events_collected > 0 && e.telemetry_sources >= 3).into(),
                format!(
                    "{} events from {} sources",
                    e.events_collected, e.telemetry_sources
                ),
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::{assess, deployed, Evidence};

    #[test]
    fn full_codesign_passes_all_seven() {
        let audit = assess(TENETS, &deployed());
        assert!(audit.compliant(), "failing: {:?}", audit.gaps());
        assert_eq!(audit.score(), (7, 7));
    }

    #[test]
    fn unencrypted_channel_fails_tenet_2() {
        let mut ev = deployed();
        ev.channels_encrypted = 4;
        let audit = assess(TENETS, &ev);
        assert_eq!(audit.gaps(), ["2"]);
    }

    #[test]
    fn long_lived_credentials_fail_tenet_3() {
        let mut ev = deployed();
        ev.longest_credential_ttl_secs = 365 * 24 * 3600;
        assert_eq!(assess(TENETS, &ev).gaps(), ["3"]);
    }

    #[test]
    fn no_revocation_fails_tenet_6() {
        let mut ev = deployed();
        ev.revocation_effective = false;
        assert_eq!(assess(TENETS, &ev).gaps(), ["6"]);
    }

    #[test]
    fn no_telemetry_fails_tenet_7() {
        let mut ev = deployed();
        ev.events_collected = 0;
        assert_eq!(assess(TENETS, &ev).gaps(), ["7"]);
    }

    #[test]
    fn perimeter_model_fails_many_tenets() {
        // A classic "trusted network" HPC deployment: long-lived keys,
        // plaintext internal traffic, no PDP, no SIEM.
        let ev = Evidence {
            services_total: 6,
            services_with_policy: 1,
            channels_total: 5,
            channels_encrypted: 1,
            longest_credential_ttl_secs: 365 * 24 * 3600,
            pdp_signals: 1,
            ..Evidence::default()
        };
        let audit = assess(TENETS, &ev);
        let (passed, total) = audit.score();
        assert_eq!(total, 7);
        assert_eq!(passed, 0);
    }

    #[test]
    fn results_carry_evidence_strings() {
        let audit = assess(TENETS, &deployed());
        for c in &audit.controls {
            assert!(!c.evidence.is_empty());
            assert!(!c.title.is_empty());
        }
    }
}
