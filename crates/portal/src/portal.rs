//! The portal service: project lifecycle, invitations, role queries.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use dri_broker::authz::AuthorizationSource;
use dri_clock::{IdGen, SimClock};
use dri_crypto::hex;
use dri_crypto::sha2::sha256;
use parking_lot::RwLock;

use crate::invitations::{Invitation, InvitationError};
use crate::project::{Allocation, DataClass, Membership, Project, ProjectRole, ProjectStatus};

/// Default invitation lifetime (seconds): 14 days.
const INVITATION_TTL_SECS: u64 = 14 * 24 * 3600;

/// Portal failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortalError {
    /// Caller lacks the required portal role.
    Forbidden,
    /// No such project.
    UnknownProject(String),
    /// No such member.
    UnknownMember,
    /// Invitation problem.
    Invitation(InvitationError),
    /// The subject is already a member of the project.
    AlreadyMember,
}

impl std::fmt::Display for PortalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortalError::Forbidden => write!(f, "caller lacks the required role"),
            PortalError::UnknownProject(p) => write!(f, "unknown project {p}"),
            PortalError::UnknownMember => write!(f, "unknown member"),
            PortalError::Invitation(e) => write!(f, "invitation error: {e}"),
            PortalError::AlreadyMember => write!(f, "already a member"),
        }
    }
}

impl std::error::Error for PortalError {}

struct PortalState {
    /// Keyed by project id; ordered, so a walk visits projects in id
    /// order without sorting.
    projects: BTreeMap<String, Project>,
    invitations: HashMap<String, Invitation>,
    /// Portal-level allocator subjects (can create projects).
    allocators: Vec<String>,
    /// Non-project grants: subject -> audience -> roles. Used for admin
    /// audiences (mgmt-tailnet, sec-zone, portal-admin). Nested so a
    /// lookup borrows both keys; a subject's entry is removed with its
    /// last grant.
    admin_grants: HashMap<String, HashMap<String, Vec<String>>>,
}

impl PortalState {
    /// The subject's memberships in projects that grant access at `now`,
    /// in project-id order, borrowed: no project is cloned.
    fn active_memberships<'a>(
        &'a self,
        subject: &'a str,
        now: u64,
    ) -> impl Iterator<Item = (&'a Project, &'a Membership)> + 'a {
        self.projects
            .values()
            .filter(move |p| p.grants_access(now))
            .filter_map(move |p| p.member(subject).map(|m| (p, m)))
    }
}

/// The user & project management portal.
pub struct Portal {
    clock: SimClock,
    state: RwLock<PortalState>,
    project_ids: IdGen,
    invite_counter: AtomicU64,
    /// Audiences every active project member is authorised for.
    member_audiences: Vec<String>,
}

impl Portal {
    /// Create an empty portal. `member_audiences` lists the services that
    /// project membership unlocks (typically `ssh-ca`, `jupyter`, `slurm`).
    pub fn new(clock: SimClock, member_audiences: Vec<String>) -> Portal {
        Portal {
            clock,
            state: RwLock::new(PortalState {
                projects: BTreeMap::new(),
                invitations: HashMap::new(),
                allocators: Vec::new(),
                admin_grants: HashMap::new(),
            }),
            project_ids: IdGen::new("proj"),
            invite_counter: AtomicU64::new(0),
            member_audiences,
        }
    }

    /// Register an allocator subject (portal operations staff).
    pub fn add_allocator(&self, subject: &str) {
        self.state.write().allocators.push(subject.to_string());
    }

    /// Record a non-project (admin) grant, e.g.
    /// `grant_admin("admin:dave", "mgmt-tailnet", &["sysadmin"])`.
    pub fn grant_admin(&self, subject: &str, audience: &str, roles: &[&str]) {
        self.state
            .write()
            .admin_grants
            .entry(subject.to_string())
            .or_default()
            .insert(
                audience.to_string(),
                roles.iter().map(|r| r.to_string()).collect(),
            );
    }

    /// Remove an admin grant ("access is revoked when an individual
    /// leaves the group").
    pub fn revoke_admin(&self, subject: &str, audience: &str) {
        let mut state = self.state.write();
        if let Some(grants) = state.admin_grants.get_mut(subject) {
            grants.remove(audience);
            if grants.is_empty() {
                state.admin_grants.remove(subject);
            }
        }
    }

    fn is_allocator(&self, subject: &str) -> bool {
        self.state.read().allocators.iter().any(|a| a == subject)
    }

    fn next_invite_token(&self, email: &str) -> String {
        let n = self.invite_counter.fetch_add(1, Ordering::Relaxed);
        let digest = sha256(format!("invite:{n}:{email}").as_bytes());
        format!("inv-{}", hex::encode(&digest[..12]))
    }

    /// User story 1, step 1: an allocator creates a project and invites
    /// the PI by email. Returns `(project_id, invitation)`.
    pub fn create_project(
        &self,
        allocator: &str,
        name: &str,
        allocation: Allocation,
        starts_at: u64,
        ends_at: u64,
        pi_email: &str,
    ) -> Result<(String, Invitation), PortalError> {
        let _span = dri_trace::span("portal.create_project", dri_trace::Stage::Portal);
        if !self.is_allocator(allocator) {
            return Err(PortalError::Forbidden);
        }
        let id = self.project_ids.next();
        let project = Project {
            id: id.clone(),
            name: name.to_string(),
            allocation,
            usage: Default::default(),
            starts_at,
            ends_at,
            status: ProjectStatus::Active,
            services: self.member_audiences.clone(),
            data_class: DataClass::default(),
            members: Vec::new(),
        };
        let invitation = Invitation {
            token: self.next_invite_token(pi_email),
            email: pi_email.to_string(),
            project_id: id.clone(),
            role: ProjectRole::Pi,
            invited_by: allocator.to_string(),
            expires_at: self.clock.now_secs() + INVITATION_TTL_SECS,
            accepted_by: None,
        };
        let mut state = self.state.write();
        state.projects.insert(id.clone(), project);
        state
            .invitations
            .insert(invitation.token.clone(), invitation.clone());
        Ok((id, invitation))
    }

    /// User story 3, step 1: a PI invites a researcher. Researchers cannot
    /// invite (role check), and neither can non-members.
    pub fn invite_researcher(
        &self,
        pi_subject: &str,
        project_id: &str,
        email: &str,
    ) -> Result<Invitation, PortalError> {
        let _span = dri_trace::span("portal.invite_researcher", dri_trace::Stage::Portal);
        let mut state = self.state.write();
        let project = state
            .projects
            .get(project_id)
            .ok_or_else(|| PortalError::UnknownProject(project_id.to_string()))?;
        let is_pi = project
            .member(pi_subject)
            .map(|m| m.role == ProjectRole::Pi)
            .unwrap_or(false);
        if !is_pi {
            return Err(PortalError::Forbidden);
        }
        let invitation = Invitation {
            token: self.next_invite_token(email),
            email: email.to_string(),
            project_id: project_id.to_string(),
            role: ProjectRole::Researcher,
            invited_by: pi_subject.to_string(),
            expires_at: self.clock.now_secs() + INVITATION_TTL_SECS,
            accepted_by: None,
        };
        state
            .invitations
            .insert(invitation.token.clone(), invitation.clone());
        Ok(invitation)
    }

    /// Accept an invitation after authenticating: binds `subject` to the
    /// project with the invited role and mints the unique per-project UNIX
    /// account. Fails if terms were not accepted — the paper's login page
    /// requires accepting T&C and privacy policies.
    pub fn accept_invitation(
        &self,
        token: &str,
        subject: &str,
        accept_terms: bool,
    ) -> Result<Membership, PortalError> {
        let _span = dri_trace::span("portal.accept_invitation", dri_trace::Stage::Portal);
        if !accept_terms {
            return Err(PortalError::Invitation(InvitationError::TermsNotAccepted));
        }
        let now = self.clock.now_secs();
        let mut state = self.state.write();
        let invitation = state
            .invitations
            .get_mut(token)
            .ok_or(PortalError::Invitation(InvitationError::Unknown))?;
        if invitation.accepted_by.is_some() {
            return Err(PortalError::Invitation(InvitationError::AlreadyUsed));
        }
        if now >= invitation.expires_at {
            return Err(PortalError::Invitation(InvitationError::Expired));
        }
        invitation.accepted_by = Some(subject.to_string());
        let project_id = invitation.project_id.clone();
        let role = invitation.role;

        let project = state
            .projects
            .get_mut(&project_id)
            .ok_or_else(|| PortalError::UnknownProject(project_id.clone()))?;
        if project.member(subject).is_some() {
            return Err(PortalError::AlreadyMember);
        }
        // Unique UNIX account per (user, project): derived from both ids,
        // so the same human gets different accounts on different projects.
        let digest = sha256(format!("{subject}/{project_id}").as_bytes());
        let unix_account = format!("u{}", hex::encode(&digest[..4]));
        let membership = Membership {
            subject: subject.to_string(),
            role,
            unix_account,
            terms_accepted_at: now,
            joined_at: now,
        };
        project.members.push(membership.clone());
        Ok(membership)
    }

    /// A PI (or allocator) removes a member; their authorisation for the
    /// project vanishes immediately.
    pub fn remove_member(
        &self,
        caller: &str,
        project_id: &str,
        subject: &str,
    ) -> Result<(), PortalError> {
        let caller_is_allocator = self.is_allocator(caller);
        let mut state = self.state.write();
        let project = state
            .projects
            .get_mut(project_id)
            .ok_or_else(|| PortalError::UnknownProject(project_id.to_string()))?;
        let caller_is_pi = project
            .member(caller)
            .map(|m| m.role == ProjectRole::Pi)
            .unwrap_or(false);
        if !caller_is_pi && !caller_is_allocator {
            return Err(PortalError::Forbidden);
        }
        let before = project.members.len();
        project.members.retain(|m| m.subject != subject);
        if project.members.len() == before {
            return Err(PortalError::UnknownMember);
        }
        Ok(())
    }

    /// Revoke a project on demand — "Access is revoked after expiration or
    /// on-demand. All information related to the project ... is removed
    /// from the authorisation list."
    pub fn revoke_project(&self, caller: &str, project_id: &str) -> Result<(), PortalError> {
        if !self.is_allocator(caller) {
            return Err(PortalError::Forbidden);
        }
        let mut state = self.state.write();
        let project = state
            .projects
            .get_mut(project_id)
            .ok_or_else(|| PortalError::UnknownProject(project_id.to_string()))?;
        project.status = ProjectStatus::Revoked;
        Ok(())
    }

    /// Set a project's data classification (allocator action).
    pub fn set_data_class(
        &self,
        caller: &str,
        project_id: &str,
        class: DataClass,
    ) -> Result<(), PortalError> {
        if !self.is_allocator(caller) {
            return Err(PortalError::Forbidden);
        }
        let mut state = self.state.write();
        let project = state
            .projects
            .get_mut(project_id)
            .ok_or_else(|| PortalError::UnknownProject(project_id.to_string()))?;
        project.data_class = class;
        Ok(())
    }

    /// Record resource usage (from the scheduler). Exceeding the
    /// allocation suspends the project's authorisation.
    pub fn record_usage(&self, project_id: &str, gpu_hours: f64, cpu_hours: f64) {
        if let Some(p) = self.state.write().projects.get_mut(project_id) {
            p.usage.gpu_hours += gpu_hours;
            p.usage.cpu_hours += cpu_hours;
        }
    }

    /// Project snapshot.
    pub fn project(&self, project_id: &str) -> Option<Project> {
        self.state.read().projects.get(project_id).cloned()
    }

    /// Visit the subject's memberships in projects that currently grant
    /// access, in project-id order, under one read lock. Nothing is
    /// cloned: this is the walk behind every per-flow authorisation
    /// query. `f` runs under the lock, so it must not call back into the
    /// portal.
    pub fn for_each_active_membership(
        &self,
        subject: &str,
        mut f: impl FnMut(&Project, &Membership),
    ) {
        let now = self.clock.now_secs();
        let state = self.state.read();
        for (project, membership) in state.active_memberships(subject, now) {
            f(project, membership);
        }
    }

    /// Count of projects (metrics).
    pub fn project_count(&self) -> usize {
        self.state.read().projects.len()
    }
}

impl AuthorizationSource for Portal {
    fn roles_for(&self, subject: &str, audience: &str) -> Vec<String> {
        let now = self.clock.now_secs();
        let state = self.state.read();
        // Admin grants first.
        let mut roles: Vec<String> = state
            .admin_grants
            .get(subject)
            .and_then(|grants| grants.get(audience))
            .cloned()
            .unwrap_or_default();
        // Project-derived grants: audience must be a member service of an
        // active project the subject belongs to.
        if self.member_audiences.iter().any(|a| a == audience) {
            for (project, m) in state.active_memberships(subject, now) {
                if !project.services.iter().any(|s| s == audience) {
                    continue;
                }
                let role = m.role.as_str();
                if !roles.iter().any(|r| r == role) {
                    roles.push(role.to_string());
                }
            }
        }
        roles
    }

    fn is_authorized_subject(&self, subject: &str) -> bool {
        let state = self.state.read();
        if state.allocators.iter().any(|a| a == subject) {
            return true;
        }
        if state.admin_grants.contains_key(subject) {
            return true;
        }
        // Membership of any active project, or a pending invitation being
        // claimed, authorises registration. (Invitation claiming is
        // handled by the acceptance flow; here membership suffices.)
        let member = state
            .active_memberships(subject, self.clock.now_secs())
            .next()
            .is_some();
        member
    }

    fn unix_accounts(&self, subject: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.for_each_active_membership(subject, |p, m| {
            out.push((p.name.clone(), m.unix_account.clone()));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn portal() -> (Portal, SimClock) {
        let clock = SimClock::starting_at(1_000_000 * 1000);
        let portal = Portal::new(
            clock.clone(),
            vec!["ssh-ca".into(), "jupyter".into(), "slurm".into()],
        );
        portal.add_allocator("admin:ops");
        (portal, clock)
    }

    fn onboard_pi(portal: &Portal, clock: &SimClock) -> (String, String) {
        let now = clock.now_secs();
        let (project_id, invite) = portal
            .create_project(
                "admin:ops",
                "climate-llm",
                Allocation::gpu(1000.0),
                now,
                now + 90 * 24 * 3600,
                "pi@uni.example",
            )
            .unwrap();
        portal
            .accept_invitation(&invite.token, "maid-000001", true)
            .unwrap();
        (project_id, "maid-000001".to_string())
    }

    #[test]
    fn allocator_creates_project_pi_accepts() {
        let (portal, clock) = portal();
        let (project_id, pi) = onboard_pi(&portal, &clock);
        let project = portal.project(&project_id).unwrap();
        assert_eq!(project.members.len(), 1);
        assert_eq!(project.member(&pi).unwrap().role, ProjectRole::Pi);
        assert_eq!(portal.roles_for(&pi, "ssh-ca"), vec!["pi"]);
        assert!(portal.is_authorized_subject(&pi));
    }

    #[test]
    fn non_allocator_cannot_create_projects() {
        let (portal, clock) = portal();
        let now = clock.now_secs();
        assert_eq!(
            portal
                .create_project("maid-9", "x", Allocation::gpu(1.0), now, now + 10, "a@b")
                .unwrap_err(),
            PortalError::Forbidden
        );
    }

    #[test]
    fn terms_must_be_accepted() {
        let (portal, clock) = portal();
        let now = clock.now_secs();
        let (_, invite) = portal
            .create_project(
                "admin:ops",
                "p",
                Allocation::gpu(1.0),
                now,
                now + 100,
                "a@b",
            )
            .unwrap();
        assert_eq!(
            portal
                .accept_invitation(&invite.token, "maid-1", false)
                .unwrap_err(),
            PortalError::Invitation(InvitationError::TermsNotAccepted)
        );
        // The invitation is still claimable afterwards.
        assert!(portal
            .accept_invitation(&invite.token, "maid-1", true)
            .is_ok());
    }

    #[test]
    fn invitations_single_use_and_expiring() {
        let (portal, clock) = portal();
        let now = clock.now_secs();
        let (_, invite) = portal
            .create_project(
                "admin:ops",
                "p",
                Allocation::gpu(1.0),
                now,
                now + 10_000_000,
                "a@b",
            )
            .unwrap();
        portal
            .accept_invitation(&invite.token, "maid-1", true)
            .unwrap();
        assert_eq!(
            portal
                .accept_invitation(&invite.token, "maid-2", true)
                .unwrap_err(),
            PortalError::Invitation(InvitationError::AlreadyUsed)
        );
        assert_eq!(
            portal
                .accept_invitation("inv-nope", "maid-2", true)
                .unwrap_err(),
            PortalError::Invitation(InvitationError::Unknown)
        );

        let (project_id, _) = onboard_pi(&portal, &clock);
        let inv = portal
            .invite_researcher("maid-000001", &project_id, "r@uni")
            .unwrap();
        clock.advance_secs(INVITATION_TTL_SECS + 1);
        assert_eq!(
            portal
                .accept_invitation(&inv.token, "maid-3", true)
                .unwrap_err(),
            PortalError::Invitation(InvitationError::Expired)
        );
    }

    #[test]
    fn researcher_cannot_invite() {
        let (portal, clock) = portal();
        let (project_id, pi) = onboard_pi(&portal, &clock);
        let inv = portal.invite_researcher(&pi, &project_id, "r@uni").unwrap();
        portal
            .accept_invitation(&inv.token, "maid-000002", true)
            .unwrap();
        // The researcher tries to invite someone else.
        assert_eq!(
            portal
                .invite_researcher("maid-000002", &project_id, "friend@uni")
                .unwrap_err(),
            PortalError::Forbidden
        );
        // And a complete stranger cannot either.
        assert_eq!(
            portal
                .invite_researcher("maid-999", &project_id, "x@y")
                .unwrap_err(),
            PortalError::Forbidden
        );
    }

    #[test]
    fn pi_removes_researcher_revoking_authorisation() {
        let (portal, clock) = portal();
        let (project_id, pi) = onboard_pi(&portal, &clock);
        let inv = portal.invite_researcher(&pi, &project_id, "r@uni").unwrap();
        portal
            .accept_invitation(&inv.token, "maid-000002", true)
            .unwrap();
        assert_eq!(
            portal.roles_for("maid-000002", "jupyter"),
            vec!["researcher"]
        );
        portal
            .remove_member(&pi, &project_id, "maid-000002")
            .unwrap();
        assert!(portal.roles_for("maid-000002", "jupyter").is_empty());
        assert!(!portal.is_authorized_subject("maid-000002"));
        // Removing twice errors.
        assert_eq!(
            portal
                .remove_member(&pi, &project_id, "maid-000002")
                .unwrap_err(),
            PortalError::UnknownMember
        );
    }

    #[test]
    fn project_expiry_removes_all_authorisation() {
        let (portal, clock) = portal();
        let (_, pi) = onboard_pi(&portal, &clock);
        assert!(!portal.roles_for(&pi, "ssh-ca").is_empty());
        clock.advance_secs(91 * 24 * 3600);
        assert!(portal.roles_for(&pi, "ssh-ca").is_empty());
        assert!(!portal.is_authorized_subject(&pi));
    }

    #[test]
    fn project_revocation_removes_authorisation() {
        let (portal, clock) = portal();
        let (project_id, pi) = onboard_pi(&portal, &clock);
        portal.revoke_project("admin:ops", &project_id).unwrap();
        assert!(portal.roles_for(&pi, "ssh-ca").is_empty());
        // Only allocators can revoke.
        assert_eq!(
            portal.revoke_project(&pi, &project_id).unwrap_err(),
            PortalError::Forbidden
        );
    }

    #[test]
    fn over_allocation_suspends_access() {
        let (portal, clock) = portal();
        let (project_id, pi) = onboard_pi(&portal, &clock);
        portal.record_usage(&project_id, 999.0, 0.0);
        assert!(!portal.roles_for(&pi, "slurm").is_empty());
        portal.record_usage(&project_id, 2.0, 0.0);
        assert!(portal.roles_for(&pi, "slurm").is_empty());
    }

    #[test]
    fn unix_accounts_unique_per_project() {
        let (portal, clock) = portal();
        let (p1, pi) = onboard_pi(&portal, &clock);
        let now = clock.now_secs();
        let (_p2, invite2) = portal
            .create_project(
                "admin:ops",
                "genomics",
                Allocation::gpu(10.0),
                now,
                now + 1000,
                "pi@uni.example",
            )
            .unwrap();
        portal.accept_invitation(&invite2.token, &pi, true).unwrap();
        let accounts = portal.unix_accounts(&pi);
        assert_eq!(accounts.len(), 2);
        assert_ne!(
            accounts[0].1, accounts[1].1,
            "same user, different unix accounts"
        );
        let p1_account = portal
            .project(&p1)
            .unwrap()
            .member(&pi)
            .unwrap()
            .unix_account
            .clone();
        assert!(accounts.iter().any(|(_, a)| *a == p1_account));
    }

    #[test]
    fn admin_grants_flow_through_roles() {
        let (portal, _clock) = portal();
        portal.grant_admin("admin:dave", "mgmt-tailnet", &["sysadmin"]);
        assert_eq!(
            portal.roles_for("admin:dave", "mgmt-tailnet"),
            vec!["sysadmin"]
        );
        assert!(portal.is_authorized_subject("admin:dave"));
        portal.revoke_admin("admin:dave", "mgmt-tailnet");
        assert!(portal.roles_for("admin:dave", "mgmt-tailnet").is_empty());
    }
}
