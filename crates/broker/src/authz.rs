//! The authorisation hook the broker consults before establishing a
//! session or issuing a token.
//!
//! The paper inverts the usual order: *"identity registration is led by
//! authorisation"* — a user who authenticates perfectly at MyAccessID but
//! holds no grant in the portal is refused at registration time. The
//! portal crate implements this trait; tests use [`StaticAuthz`].

use std::collections::HashMap;

use parking_lot::RwLock;

/// Source of truth for who may access what, with which roles.
pub trait AuthorizationSource: Send + Sync {
    /// Roles the subject holds for the given audience (service), e.g.
    /// `["researcher"]` for `ssh-ca`. Empty = no access to that service.
    fn roles_for(&self, subject: &str, audience: &str) -> Vec<String>;

    /// Whether the subject holds *any* grant at all. Registration is
    /// refused when this is false (authorisation-led registration).
    fn is_authorized_subject(&self, subject: &str) -> bool;

    /// Project-scoped UNIX accounts for the subject (used by the SSH CA:
    /// one unique UNIX user per user-per-project, per the paper's ZTA
    /// requirement). Pairs of `(project_name, unix_account)`: the
    /// project's human name, not its id, which is what story 6 and the
    /// scheduler-outage drill match on.
    fn unix_accounts(&self, subject: &str) -> Vec<(String, String)>;
}

/// A fixed in-memory authorization table for tests and small examples.
#[derive(Default)]
pub struct StaticAuthz {
    grants: RwLock<HashMap<(String, String), Vec<String>>>,
    unix: RwLock<HashMap<String, Vec<(String, String)>>>,
}

impl StaticAuthz {
    /// Empty table.
    pub fn new() -> StaticAuthz {
        StaticAuthz::default()
    }

    /// Grant `roles` on `audience` to `subject`.
    pub fn grant(&self, subject: &str, audience: &str, roles: &[&str]) {
        self.grants.write().insert(
            (subject.to_string(), audience.to_string()),
            roles.iter().map(|r| r.to_string()).collect(),
        );
    }

    /// Revoke all roles on `audience` from `subject`.
    pub fn revoke(&self, subject: &str, audience: &str) {
        self.grants
            .write()
            .remove(&(subject.to_string(), audience.to_string()));
    }

    /// Record a project-scoped unix account.
    pub fn add_unix_account(&self, subject: &str, project: &str, account: &str) {
        self.unix
            .write()
            .entry(subject.to_string())
            .or_default()
            .push((project.to_string(), account.to_string()));
    }
}

impl AuthorizationSource for StaticAuthz {
    fn roles_for(&self, subject: &str, audience: &str) -> Vec<String> {
        self.grants
            .read()
            .get(&(subject.to_string(), audience.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn is_authorized_subject(&self, subject: &str) -> bool {
        self.grants.read().keys().any(|(s, _)| s == subject)
    }

    fn unix_accounts(&self, subject: &str) -> Vec<(String, String)> {
        self.unix.read().get(subject).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_authz_grant_revoke() {
        let a = StaticAuthz::new();
        assert!(!a.is_authorized_subject("maid-1"));
        a.grant("maid-1", "ssh-ca", &["researcher"]);
        assert!(a.is_authorized_subject("maid-1"));
        assert_eq!(a.roles_for("maid-1", "ssh-ca"), vec!["researcher"]);
        assert!(a.roles_for("maid-1", "jupyter").is_empty());
        a.revoke("maid-1", "ssh-ca");
        assert!(a.roles_for("maid-1", "ssh-ca").is_empty());
        assert!(!a.is_authorized_subject("maid-1"));
    }

    #[test]
    fn unix_accounts_tracked_per_project() {
        let a = StaticAuthz::new();
        a.add_unix_account("maid-1", "proj-a", "u.alice.proj-a");
        a.add_unix_account("maid-1", "proj-b", "u.alice.proj-b");
        assert_eq!(a.unix_accounts("maid-1").len(), 2);
        assert!(a.unix_accounts("maid-2").is_empty());
    }
}
