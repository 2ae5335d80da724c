//! Population builder: projects, PIs and researchers at scale.

use dri_core::{FlowError, Infrastructure, ProjectId};

/// One onboarded project with its people.
#[derive(Debug, Clone)]
pub struct ProjectHandle {
    /// Portal project id.
    pub project_id: ProjectId,
    /// Project name.
    pub name: String,
    /// The PI's user label.
    pub pi_label: String,
    /// Researcher labels.
    pub researcher_labels: Vec<String>,
}

/// A fully onboarded population.
#[derive(Debug, Clone)]
pub struct Population {
    /// The projects.
    pub projects: Vec<ProjectHandle>,
}

impl Population {
    /// Every member as `(label, project name)`, project by project with
    /// the PI first: the user list storms and day simulations run over.
    pub fn members(&self) -> Vec<(String, String)> {
        self.projects
            .iter()
            .flat_map(|p| {
                std::iter::once(&p.pi_label)
                    .chain(&p.researcher_labels)
                    .map(|label| (label.clone(), p.name.clone()))
            })
            .collect()
    }

    /// Total humans.
    pub fn user_count(&self) -> usize {
        self.projects
            .iter()
            .map(|p| 1 + p.researcher_labels.len())
            .sum()
    }
}

/// Onboard `projects` projects, each with one PI and `researchers_per`
/// researchers, through the *full* user-story pipeline (stories 1 and 3
/// executed for real, not seeded behind the scenes).
pub fn build_population(
    infra: &Infrastructure,
    projects: usize,
    researchers_per: usize,
) -> Result<Population, FlowError> {
    let mut out = Vec::with_capacity(projects);
    for p in 0..projects {
        let name = format!("project-{p:03}");
        let pi_label = format!("pi-{p:03}");
        infra.create_federated_user(&pi_label, &format!("{pi_label}-pw"));
        let pi = infra.story1_onboard_pi(&name, &pi_label, 10_000.0)?;

        let mut researcher_labels = Vec::with_capacity(researchers_per);
        for r in 0..researchers_per {
            let label = format!("res-{p:03}-{r:03}");
            infra.create_federated_user(&label, &format!("{label}-pw"));
            infra.story3_onboard_researcher(&pi_label, &pi.project_id, &name, &label)?;
            researcher_labels.push(label);
        }
        out.push(ProjectHandle {
            project_id: pi.project_id,
            name,
            pi_label,
            researcher_labels,
        });
    }
    Ok(Population { projects: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_core::InfraConfig;

    #[test]
    fn builds_projects_with_members() {
        let infra = Infrastructure::new(InfraConfig::default());
        let pop = build_population(&infra, 3, 2).unwrap();
        assert_eq!(pop.projects.len(), 3);
        assert_eq!(pop.user_count(), 9);
        let members = pop.members();
        assert_eq!(members.len(), 9);
        assert_eq!(
            members[0],
            ("pi-000".to_string(), "project-000".to_string())
        );
        assert_eq!(
            members[1],
            ("res-000-000".to_string(), "project-000".to_string())
        );
        // Everyone is genuinely onboarded: portal knows all projects and
        // each project has 3 members.
        for p in &pop.projects {
            let project = infra.portal.project(&p.project_id).unwrap();
            assert_eq!(project.members.len(), 3);
        }
        assert_eq!(infra.portal.project_count(), 3);
    }
}
