//! Coordinated kill switches (E11).
//!
//! The paper places externally managed kill switches at the bastion, the
//! tailnets, and the tunnels, plus identity-layer revocation. This module
//! orchestrates them so one call severs *everything* a subject holds:
//! broker sessions and tokens, proxy account, bastion relays, tailnet
//! nodes, login-node shells, notebooks, and batch jobs. Every service that
//! accepts broker tokens (the SSH CA, Jupyter, the tailnet and the
//! management plane) introspects them, so a token minted before the kill
//! is refused everywhere after it.

use dri_broker::authz::AuthorizationSource;
use dri_siem::events::{EventKind, SecurityEvent, Severity};

use crate::infra::Infrastructure;

/// What a kill-switch activation cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KillReport {
    /// Subject acted on.
    pub subject: String,
    /// Broker sessions removed (plus the subject revocation itself).
    pub broker_revoked: bool,
    /// MyAccessID account suspended (federated identities only).
    pub proxy_suspended: bool,
    /// Bastion relay sessions severed.
    pub bastion_sessions_cut: usize,
    /// Tailnet nodes the subject enrolled, now disabled.
    pub tailnet_nodes_disabled: usize,
    /// Login-node shells severed.
    pub shells_cut: usize,
    /// Notebook sessions severed.
    pub notebooks_cut: usize,
    /// Batch jobs cancelled.
    pub jobs_cancelled: usize,
    /// Simulated time of activation (ms).
    pub at_ms: u64,
}

impl KillReport {
    /// Live footholds severed: bastion relays, tailnet nodes, shells
    /// and notebooks.
    pub fn footholds(&self) -> usize {
        self.bastion_sessions_cut
            + self.tailnet_nodes_disabled
            + self.shells_cut
            + self.notebooks_cut
    }
}

impl Infrastructure {
    /// Activate the full kill chain for one subject.
    pub fn kill_user(&self, subject: &str) -> KillReport {
        let at_ms = self.clock.now_ms();

        // Provenance: capture the trace id of the login flow that created
        // the access being severed, *before* revocation wipes the
        // sessions — the SOC can then pull the full originating trace.
        let origin_trace = self
            .broker
            .sessions_of_subject(subject)
            .into_iter()
            .rev()
            .find_map(|s| s.trace_id);

        // Policy layer first: invalidation leads caching — every
        // memoized allow is busted before access state changes, so no
        // decision cached under the pre-kill posture can be served.
        self.pdp.bump_epoch();
        // Identity layer: no new sessions, introspection fails (and the
        // broker bumps the verified-token cache epoch).
        self.broker.revoke_subject(subject);
        // Federation layer: suspend the community account if it is one.
        let proxy_suspended = self.proxy.set_suspended(subject, true).is_ok();
        // Access layer: cut bastion relays and block re-entry; disable
        // the subject's tailnet nodes.
        let bastion_sessions_cut = self.bastion.block_user(subject);
        let tailnet_nodes_disabled = self.tailnet.disable_subject(subject);
        // HPC layer: shells, notebooks, and the subject's project jobs.
        let shells_cut = self.login_node.sever_by_key_id(subject);
        let notebooks_cut = self.jupyter.sever_subject(subject);
        let mut jobs_cancelled = 0;
        for (_, account) in self.portal.unix_accounts(subject) {
            jobs_cancelled += self.scheduler.cancel_user_jobs(&account);
            self.login_node.set_locked(&account, true);
        }

        // The severed-session event carries the originating login's trace
        // id (not whatever flow the operator happens to be in).
        self.siem.enqueue(
            SecurityEvent::new(
                at_ms,
                "sec/siem",
                EventKind::KillSwitch,
                subject,
                format!(
                    "kill chain: bastion={bastion_sessions_cut} tailnet={tailnet_nodes_disabled} \
                     shells={shells_cut} notebooks={notebooks_cut} jobs={jobs_cancelled}"
                ),
                Severity::Critical,
            )
            .with_trace_id(origin_trace),
        );
        KillReport {
            subject: subject.to_string(),
            broker_revoked: true,
            proxy_suspended,
            bastion_sessions_cut,
            tailnet_nodes_disabled,
            shells_cut,
            notebooks_cut,
            jobs_cancelled,
            at_ms,
        }
    }

    /// Reverse a user kill (post-incident reinstatement). Disabled
    /// tailnet nodes stay disabled: the subject enrols them again.
    pub fn reinstate_user(&self, subject: &str) {
        self.broker.reinstate_subject(subject);
        let _ = self.proxy.set_suspended(subject, false);
        self.bastion.unblock_user(subject);
        for (_, account) in self.portal.unix_accounts(subject) {
            self.login_node.set_locked(&account, false);
        }
    }

    /// The extreme measure: shut down the entire bastion service.
    /// Returns severed session count.
    pub fn kill_bastion(&self) -> usize {
        let n = self.bastion.global_kill();
        self.emit(
            "sec/siem",
            EventKind::KillSwitch,
            "sws/bastion",
            format!("bastion global kill, {n} sessions severed"),
            Severity::Critical,
        );
        n
    }

    /// Shut down the admin tailnet.
    pub fn kill_tailnet(&self) {
        self.tailnet.kill();
        self.emit(
            "sec/siem",
            EventKind::KillSwitch,
            "tailnet",
            "management tailnet disabled",
            Severity::Critical,
        );
    }

    /// Close every Zenith tunnel. Returns closed tunnel count.
    pub fn kill_tunnels(&self) -> usize {
        let n = self.tunnel.close_all();
        self.emit(
            "sec/siem",
            EventKind::KillSwitch,
            "fds/zenith",
            format!("{n} tunnels closed"),
            Severity::Critical,
        );
        n
    }

    /// Apply a SIEM alert's recommendation automatically (the SOC
    /// response playbook). Returns a description of the action taken.
    pub fn respond_to_alert(&self, alert: &dri_siem::siem::Alert) -> String {
        match alert.recommendation {
            "suspend-subject" | "revoke-subject" => {
                let report = self.kill_user(&alert.subject);
                format!(
                    "killed subject {}: {} live footholds severed",
                    alert.subject,
                    report.footholds()
                )
            }
            "isolate-host" => match self.network.isolate(&alert.subject) {
                Ok(()) => format!("isolated host {}", alert.subject),
                Err(e) => format!("isolation of {} failed: {e}", alert.subject),
            },
            other => format!("no automated action for {other}"),
        }
    }
}
