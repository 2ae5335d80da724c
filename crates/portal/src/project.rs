//! Project, allocation and membership records.

/// Role inside a project.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectRole {
    /// Principal investigator / project owner.
    Pi,
    /// Ordinary project member.
    Researcher,
}

impl ProjectRole {
    /// Stable role name used in token claims.
    pub fn as_str(self) -> &'static str {
        match self {
            ProjectRole::Pi => "pi",
            ProjectRole::Researcher => "researcher",
        }
    }
}

/// GSCP-style data classification of a project's workloads.
///
/// The paper: only the Official (OFF) tier of the UK Government Security
/// Classifications Policy applies to the Isambard DRIs; Official projects
/// attract stricter dynamic-policy thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataClass {
    /// Open research data.
    #[default]
    Open,
    /// GSCP Official: handling requirements apply.
    Official,
}

impl DataClass {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            DataClass::Open => "open",
            DataClass::Official => "official",
        }
    }
}

/// Lifecycle state of a project.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectStatus {
    /// Active: members are authorised.
    Active,
    /// Past its end date: all authorisation lapsed.
    Expired,
    /// Revoked on demand (incident, policy breach).
    Revoked,
}

/// A time- and resource-limited compute allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// GPU-hours granted.
    pub gpu_hours: f64,
    /// CPU-core-hours granted.
    pub cpu_hours: f64,
    /// Storage quota in GiB.
    pub storage_gib: f64,
}

impl Allocation {
    /// An allocation with only GPU hours (typical Isambard-AI project).
    pub fn gpu(gpu_hours: f64) -> Allocation {
        Allocation {
            gpu_hours,
            cpu_hours: 0.0,
            storage_gib: 100.0,
        }
    }
}

/// Resource usage recorded against an allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// GPU-hours consumed.
    pub gpu_hours: f64,
    /// CPU-core-hours consumed.
    pub cpu_hours: f64,
}

impl Usage {
    /// True when usage exceeds the allocation on any axis.
    pub fn exceeds(&self, alloc: &Allocation) -> bool {
        self.gpu_hours > alloc.gpu_hours || self.cpu_hours > alloc.cpu_hours
    }
}

/// One user's membership of one project.
#[derive(Debug, Clone)]
pub struct Membership {
    /// Subject (community id) of the member.
    pub subject: String,
    /// Role held.
    pub role: ProjectRole,
    /// The unique per-project UNIX account minted for this member.
    pub unix_account: String,
    /// When the member accepted the terms & conditions (seconds).
    pub terms_accepted_at: u64,
    /// Join time (seconds).
    pub joined_at: u64,
}

/// A project record.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project id (`proj-000001`).
    pub id: String,
    /// Human name (also used as the SSH alias prefix).
    pub name: String,
    /// Allocation limits.
    pub allocation: Allocation,
    /// Usage against the allocation.
    pub usage: Usage,
    /// Start time (seconds).
    pub starts_at: u64,
    /// Hard end time (seconds) — "each project is time limited".
    pub ends_at: u64,
    /// Lifecycle state (expiry is also derived from the clock).
    pub status: ProjectStatus,
    /// Services enabled for this project (audiences, e.g. `ssh-ca`).
    pub services: Vec<String>,
    /// Data classification (drives PDP sensitivity).
    pub data_class: DataClass,
    /// Members.
    pub members: Vec<Membership>,
}

impl Project {
    /// Effective status at time `now`, accounting for the end date.
    pub fn status_at(&self, now_secs: u64) -> ProjectStatus {
        match self.status {
            ProjectStatus::Revoked => ProjectStatus::Revoked,
            _ if now_secs >= self.ends_at => ProjectStatus::Expired,
            s => s,
        }
    }

    /// Whether members still confer authorisation at `now`.
    pub fn grants_access(&self, now_secs: u64) -> bool {
        self.status_at(now_secs) == ProjectStatus::Active
            && now_secs >= self.starts_at
            && !self.usage.exceeds(&self.allocation)
    }

    /// Find a member by subject.
    pub fn member(&self, subject: &str) -> Option<&Membership> {
        self.members.iter().find(|m| m.subject == subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project() -> Project {
        Project {
            id: "proj-000001".into(),
            name: "climate-llm".into(),
            allocation: Allocation::gpu(1000.0),
            usage: Usage::default(),
            starts_at: 100,
            ends_at: 1000,
            status: ProjectStatus::Active,
            services: vec!["ssh-ca".into()],
            data_class: DataClass::Open,
            members: vec![],
        }
    }

    #[test]
    fn status_respects_end_date() {
        let p = project();
        assert_eq!(p.status_at(500), ProjectStatus::Active);
        assert_eq!(p.status_at(1000), ProjectStatus::Expired);
        assert!(p.grants_access(500));
        assert!(!p.grants_access(1000));
        // Before the start date there is no access either.
        assert!(!p.grants_access(50));
    }

    #[test]
    fn revocation_wins_over_activity() {
        let mut p = project();
        p.status = ProjectStatus::Revoked;
        assert_eq!(p.status_at(500), ProjectStatus::Revoked);
        assert!(!p.grants_access(500));
    }

    #[test]
    fn over_allocation_suspends_access() {
        let mut p = project();
        p.usage.gpu_hours = 1000.5;
        assert!(p.usage.exceeds(&p.allocation));
        assert!(!p.grants_access(500));
    }

    #[test]
    fn role_names_are_stable() {
        assert_eq!(ProjectRole::Pi.as_str(), "pi");
        assert_eq!(ProjectRole::Researcher.as_str(), "researcher");
    }
}
