//! The E10 ablation: the paper's co-design versus the "traditional"
//! perimeter-trust HPC deployment it replaces.
//!
//! §II-C: "Typically, supercomputing environments are not architected for
//! ZTA and instead focus on a trusted access and network domain." This
//! module builds that baseline — flat internal network, long-lived SSH
//! keys, no per-service tokens, no kill switches — and measures the
//! *blast radius* of one stolen credential under both models.

use dri_clock::SimClock;
use dri_netsim::topology::{Domain, Network, Selector, Zone};

use crate::infra::Infrastructure;

/// What an attacker with one stolen credential can reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastRadius {
    /// Distinct `(host, service)` pairs reachable.
    pub reachable_services: usize,
    /// Management-plane endpoints among them.
    pub management_reachable: usize,
    /// Storage endpoints among them.
    pub storage_reachable: usize,
    /// How long the credential stays usable, in seconds
    /// (`u64::MAX` = indefinitely).
    pub exposure_secs: u64,
    /// Projects whose data is exposed.
    pub projects_exposed: usize,
}

/// The perimeter-trust baseline deployment.
pub struct PerimeterBaseline {
    /// Its (flat) network.
    pub network: Network,
    /// Number of projects hosted (all share the cluster).
    pub project_count: usize,
}

impl PerimeterBaseline {
    /// Build the baseline with the same hosts as the co-design but a
    /// trusted internal network: once past the perimeter (the login
    /// node), everything inside is reachable.
    pub fn new(clock: SimClock, project_count: usize) -> PerimeterBaseline {
        let network = Network::new(clock);
        network.add_host("internet/user", Domain::Internet, Zone::Public, &[]);
        network.add_host("internet/attacker", Domain::Internet, Zone::Public, &[]);
        network.add_host(
            "mdc/login01",
            Domain::Mdc,
            Zone::Hpc,
            &["ssh", "jupyter-auth"],
        );
        network.add_host("mdc/compute01", Domain::Mdc, Zone::Hpc, &["slurmd"]);
        network.add_host(
            "mdc/mgmt01",
            Domain::Mdc,
            Zone::Management,
            &["admin-api", "ssh"],
        );
        network.add_host("mdc/storage01", Domain::Mdc, Zone::DataStorage, &["lustre"]);
        network.add_host("sws/logs", Domain::Sws, Zone::Management, &["syslog"]);
        // Perimeter: internet reaches the login node directly …
        network.allow(
            "internet -> login ssh (perimeter)",
            Selector::InDomain(Domain::Internet),
            Selector::Host("mdc/login01".into()),
            "ssh",
        );
        // … and the inside is one trusted domain: anything to anything.
        network.allow(
            "trusted interior (flat network)",
            Selector::InDomain(Domain::Mdc),
            Selector::InDomain(Domain::Mdc),
            "*",
        );
        network.allow(
            "trusted interior (to sws)",
            Selector::InDomain(Domain::Mdc),
            Selector::InDomain(Domain::Sws),
            "*",
        );
        PerimeterBaseline {
            network,
            project_count,
        }
    }

    /// Blast radius of one stolen long-lived SSH key: the attacker lands
    /// on the login node, then enumerates everything the flat network
    /// allows. Shared-group storage means every project is exposed.
    pub fn blast_radius(&self) -> BlastRadius {
        // Long-lived authorized_keys entry: usable until someone
        // notices — effectively unbounded. Flat POSIX groups: every
        // project's data is on the same FS.
        blast_radius_from_login(&self.network, u64::MAX, self.project_count)
    }
}

/// Walk everything an attacker on the login node can dial: every
/// non-internet `(host, service)` pair `network` allows from there.
fn blast_radius_from_login(
    network: &Network,
    exposure_secs: u64,
    projects_exposed: usize,
) -> BlastRadius {
    let foothold = "mdc/login01";
    let mut reachable = 0usize;
    let mut mgmt = 0usize;
    let mut storage = 0usize;
    for host in network.host_ids() {
        if host == foothold || host.starts_with("internet") {
            continue;
        }
        let services = network.host(&host).map(|h| h.services).unwrap_or_default();
        for service in services {
            if network.check(foothold, &host, &service).is_ok() {
                reachable += 1;
                if host.contains("mgmt") || service == "admin-api" {
                    mgmt += 1;
                }
                if service == "lustre" {
                    storage += 1;
                }
            }
        }
    }
    BlastRadius {
        reachable_services: reachable,
        management_reachable: mgmt,
        storage_reachable: storage,
        exposure_secs,
        projects_exposed,
    }
}

impl Infrastructure {
    /// Blast radius of one stolen *certificate* (with its private key)
    /// under the co-design: the attacker can reach exactly the HPC-zone
    /// ssh surface as the certified principals, until the certificate
    /// expires; segmentation stops everything else.
    pub fn zta_blast_radius(&self, stolen_cert_principals: usize) -> BlastRadius {
        // Unique per-project UNIX accounts: only the projects named as
        // principals on the stolen certificate.
        blast_radius_from_login(
            &self.network,
            self.config.cert_ttl_secs,
            stolen_cert_principals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfraConfig;

    #[test]
    fn perimeter_blast_radius_is_everything() {
        // The flat network exposes the whole interior from the login
        // node: 5 services, 2 of them management, 1 storage; the shared
        // FS exposes every hosted project; long-lived keys never expire.
        for hosted in [5, 20, 100] {
            let br = PerimeterBaseline::new(SimClock::new(), hosted).blast_radius();
            assert_eq!(
                br,
                BlastRadius {
                    reachable_services: 5,
                    management_reachable: 2,
                    storage_reachable: 1,
                    exposure_secs: u64::MAX,
                    projects_exposed: hosted,
                }
            );
        }
    }

    #[test]
    fn zta_blast_radius_is_contained() {
        // Segmentation leaves the HPC zone's 4 services (storage among
        // them) and no management endpoint; only the stolen cert's
        // project, only until the cert expires.
        let infra = Infrastructure::new(InfraConfig::default());
        assert_eq!(
            infra.zta_blast_radius(1),
            BlastRadius {
                reachable_services: 4,
                management_reachable: 0,
                storage_reachable: 1,
                exposure_secs: infra.config.cert_ttl_secs,
                projects_exposed: 1,
            }
        );
    }

    #[test]
    fn zta_beats_perimeter_on_every_axis() {
        let infra = Infrastructure::new(InfraConfig::default());
        let zta = infra.zta_blast_radius(1);
        let perimeter = PerimeterBaseline::new(SimClock::new(), 20).blast_radius();
        assert!(zta.reachable_services < perimeter.reachable_services);
        assert!(zta.management_reachable < perimeter.management_reachable);
        assert!(zta.projects_exposed < perimeter.projects_exposed);
        assert!(zta.exposure_secs < perimeter.exposure_secs);
    }
}
