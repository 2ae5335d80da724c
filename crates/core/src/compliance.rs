//! Compliance surfaces: one live evidence record, assessed against the
//! seven-tenet table (E15), the CIS-style checks and the CAF baseline
//! (E16).

use dri_netsim::bastion::BastionError;
use dri_policy::compliance::{assess, Assessment, Evidence, CAF, CIS, TENETS};
use dri_sshca::cert::SshCertificate;

use crate::config::{
    ADMIN_TOKEN_TTL_SECS, JUPYTER_TOKEN_TTL_SECS, SSH_TOKEN_TTL_SECS, TAILNET_LEASE_SECS,
};
use crate::infra::{Infrastructure, MEMBER_AUDIENCES};

impl Infrastructure {
    /// Gather live evidence and assess the seven NIST tenets.
    pub fn tenet_audit(&self) -> Assessment {
        assess(TENETS, &self.evidence())
    }

    /// Gather live evidence and run the CIS-style configuration checks.
    pub fn cis_report(&self) -> Assessment {
        assess(CIS, &self.evidence())
    }

    /// Gather live evidence and run the NCSC CAF baseline assessment —
    /// the paper's stated next step, made executable.
    pub fn caf_assessment(&self) -> Assessment {
        assess(CAF, &self.evidence())
    }

    /// The evidence every assessment reads, each fact gathered once.
    ///
    /// Counters are read from the running components. Two facts are
    /// probed live: revocation against the broker (an admin login whose
    /// token and session are revoked) and the bastion's per-user kill
    /// switch (a synthetic key id blocked, then unblocked). The rest are
    /// the deployment's configuration as the paper describes it (§III–IV),
    /// HPC-fabric encryption (its admitted shortcoming) off.
    pub fn evidence(&self) -> Evidence {
        let revocation_effective = self.probe_revocation();
        let (kill_switches_tested, reinstatement_tested) = self.probe_kill_switch();
        // A token policy is registered in new() for each member audience
        // plus the two admin audiences.
        let services_total = MEMBER_AUDIENCES.len() + 2;
        Evidence {
            services_total,
            services_with_policy: services_total,
            assets_inventoried: self.inventory.asset_count(),
            config_checks_run: CIS.len(),
            federation_metadata_verified: self.registry.entity_count() > 0,
            // The five inter-zone channel classes, verified
            // cryptographically elsewhere in the suite: IdP->proxy
            // assertions, proxy->broker assertions, broker JWTs, tailnet
            // frames, tunnel frames.
            channels_total: 5,
            channels_encrypted: 5,
            iam_encrypted: true,
            hpc_fabric_encrypted: false,
            default_deny: true,
            mgmt_only_via_tailnet: true,
            roles_separated: true, // allocator / PI / researcher / admin
            mfa_enforced: true,
            admin_mfa_hardware: true,
            separate_admin_idp: true,
            no_global_admin: true,
            credentials_time_limited: true,
            longest_credential_ttl_secs: self
                .config
                .session_ttl_secs
                .max(self.config.cert_ttl_secs)
                .max(SSH_TOKEN_TTL_SECS)
                .max(JUPYTER_TOKEN_TTL_SECS)
                .max(ADMIN_TOKEN_TTL_SECS)
                .max(TAILNET_LEASE_SECS),
            tokens_session_bound: true, // sid + aud on every token
            reauth_enforced: self.config.session_ttl_secs < u64::MAX,
            pdp_signals: 5, // identity, authn, device, source, freshness
            pdp_consultations: self.pdp_consultation_count(),
            events_collected: self.siem.events_ingested(),
            telemetry_sources: self.telemetry_source_count(),
            detection_rules_active: 4, // the four windowed SIEM rules
            logs_shipped_to_sec: true,
            revocation_effective,
            kill_switches_present: true,
            kill_switches_tested,
            reinstatement_tested,
            bastion_instances: self.config.bastion_instances,
            lessons_loop: true, // respond_to_alert() closes the loop
            // The paper says the DevSecOps culture is still being grown;
            // CAF B6's baseline only expects partial.
            devsecops_established: false,
        }
    }

    /// Live probe: issue + revoke a token for a synthetic subject and
    /// check introspection turns false before expiry.
    fn probe_revocation(&self) -> bool {
        // Use the built-in ops admin who always exists, in a session of
        // the probe's own: a login ops holds stays theirs.
        let session = match self.admin_session("ops") {
            Ok(s) => s,
            Err(_) => return false,
        };
        let (_, claims) = match self.broker.issue_token(&session.session_id, "mgmt-tailnet") {
            Ok(t) => t,
            Err(_) => return false,
        };
        let active_before = self.broker.introspect(&claims.token_id);
        self.broker.revoke_token(&claims.token_id);
        let active_after = self.broker.introspect(&claims.token_id);
        self.broker.revoke_session(&session.session_id);
        active_before && !active_after
    }

    fn telemetry_source_count(&self) -> usize {
        use std::collections::HashSet;
        let mut sources: HashSet<String> = HashSet::new();
        for kind in [
            dri_siem::events::EventKind::AuthnSuccess,
            dri_siem::events::EventKind::AuthnFailure,
            dri_siem::events::EventKind::TokenIssued,
            dri_siem::events::EventKind::ConnAllowed,
            dri_siem::events::EventKind::ConnDenied,
            dri_siem::events::EventKind::CertIssued,
            dri_siem::events::EventKind::PrivilegedOp,
            dri_siem::events::EventKind::NotebookSpawned,
            dri_siem::events::EventKind::KillSwitch,
        ] {
            for e in self.siem.events_of_kind(kind) {
                sources.insert(e.source);
            }
        }
        sources.len()
    }

    /// Live probe: block a synthetic key id at the bastion and present a
    /// certificate carrying it, then unblock it and present it again.
    /// Returns whether the first relay was refused by the kill switch
    /// (`UserBlocked`) and whether the second was refused by anything
    /// else. The certificate is unsigned, so the second relay stops at
    /// the certificate gate and opens no session.
    fn probe_kill_switch(&self) -> (bool, bool) {
        const KEY_ID: &str = "caf-probe-subject";
        let cert = SshCertificate {
            public_key: [0; 32],
            serial: 0,
            key_id: KEY_ID.into(),
            principals: Vec::new(),
            valid_after: 0,
            valid_before: 0,
            critical_options: Vec::new(),
            extensions: Vec::new(),
            signature: [0; 64],
        };
        let relay = || {
            self.bastion
                .relay(&self.network, "internet/user", "mdc/login01", &cert, KEY_ID)
        };
        self.bastion.block_user(KEY_ID);
        let blocked = matches!(relay(), Err(BastionError::UserBlocked));
        self.bastion.unblock_user(KEY_ID);
        let reinstated = !matches!(relay(), Err(BastionError::UserBlocked));
        (blocked, reinstated)
    }
}

#[cfg(test)]
mod tests {
    use dri_policy::Achievement;

    use crate::config::InfraConfig;
    use crate::infra::Infrastructure;

    fn d1(infra: &Infrastructure) -> Achievement {
        let caf = infra.caf_assessment();
        caf.controls.iter().find(|c| c.id == "D1").unwrap().achieved
    }

    #[test]
    fn kill_switch_probe_observes_the_bastion() {
        let infra = Infrastructure::new(InfraConfig::default());
        assert_eq!(infra.probe_kill_switch(), (true, true));
        assert_eq!(
            infra.bastion.session_count(),
            0,
            "the probe opens no session"
        );

        // With the bastion down the relay answers `Unavailable`, so the
        // per-user kill switch cannot be seen to refuse anything.
        infra.kill_bastion();
        assert!(!infra.probe_kill_switch().0);
        assert_eq!(d1(&infra), Achievement::NotAchieved);

        infra.bastion.global_restore();
        assert_eq!(infra.probe_kill_switch(), (true, true));
        assert_eq!(d1(&infra), Achievement::Achieved);
    }
}
