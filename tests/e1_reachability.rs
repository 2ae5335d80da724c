//! E1 — Fig. 1 reproduced as an executable reachability matrix.
//!
//! Verifies that exactly the designed paths are open and everything else
//! is default-denied, including the properties the paper calls out:
//! only the Access zone is internet-facing, the Management zone is not
//! reachable from any user-facing path, and the Security zone only
//! accepts log shipping.

use isambard_dri::core::{InfraConfig, Infrastructure};

fn infra() -> Infrastructure {
    Infrastructure::new(InfraConfig::default())
}

#[test]
fn designed_entry_points_are_exactly_two() {
    let infra = infra();
    let matrix = infra.reachability_matrix();
    // All paths originating from the internet:
    let from_internet: Vec<_> = matrix
        .iter()
        .filter(|(src, _, _, allowed)| src.starts_with("internet") && *allowed)
        .collect();
    // Internet may reach: FDS https (4 hosts x 2 internet sources) and
    // the bastion's ssh (x2 sources). Zenith also exposes https.
    for (_, dst, service, _) in &from_internet {
        let ok = (dst.starts_with("fds/") && service == "https")
            || (dst == "sws/bastion" && service == "ssh");
        assert!(ok, "unexpected internet-reachable path: {dst} {service}");
    }
    assert!(!from_internet.is_empty());
}

#[test]
fn management_zone_unreachable_from_user_paths() {
    let infra = infra();
    for src in [
        "internet/user",
        "internet/attacker",
        "mdc/login01",
        "fds/broker",
    ] {
        assert!(
            infra.network.check(src, "mdc/mgmt01", "admin-api").is_err(),
            "{src} must not reach the management plane"
        );
    }
    // Only the management zone itself administers HPC hosts.
    assert!(infra
        .network
        .check("mdc/mgmt01", "mdc/login01", "ssh")
        .is_ok());
}

#[test]
fn security_zone_accepts_only_log_shipping() {
    let infra = infra();
    let matrix = infra.reachability_matrix();
    for (src, dst, service, allowed) in matrix {
        if dst == "sec/siem" && allowed {
            assert_eq!(service, "syslog", "{src} reached SEC via {service}");
            assert!(
                src == "sws/logs" || src.starts_with("fds/"),
                "only the log path may reach SEC, not {src}"
            );
        }
    }
}

#[test]
fn hpc_zone_cannot_originate_into_fds_except_zenith() {
    let infra = infra();
    let matrix = infra.reachability_matrix();
    for (src, dst, service, allowed) in matrix {
        if src.starts_with("mdc/") && dst.starts_with("fds/") && allowed {
            assert!(
                service == "zenith" || service == "syslog",
                "MDC may only dial out via reverse tunnels or logs: {src}->{dst} {service}"
            );
        }
    }
}

#[test]
fn matrix_shape_is_stable() {
    // The matrix is a deterministic artefact: same config, same matrix.
    let a = infra().reachability_matrix();
    let b = infra().reachability_matrix();
    assert_eq!(a, b);
    // Exact scale: 13 hosts, 168 (src, dst, service) entries, of which
    // the allow rules open 26 and default-deny closes 142.
    assert_eq!(infra().network.host_ids().len(), 13);
    assert_eq!(a.len(), 168, "matrix entries");
    let allowed = a.iter().filter(|(_, _, _, ok)| *ok).count();
    let denied = a.len() - allowed;
    assert_eq!((allowed, denied), (26, 142), "allowed / denied entries");
    assert!(
        denied as f64 / a.len() as f64 > 0.6,
        "default-deny: {denied}/{} denied",
        a.len()
    );
}

#[test]
fn storage_reachable_only_from_hpc() {
    let infra = infra();
    let matrix = infra.reachability_matrix();
    for (src, dst, _service, allowed) in matrix {
        if dst == "mdc/storage01" && allowed {
            assert!(
                src.starts_with("mdc/login") || src.starts_with("mdc/compute"),
                "storage reached from {src}"
            );
        }
    }
}
