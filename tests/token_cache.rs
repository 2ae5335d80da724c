//! Stale-allow regressions for the verification cache layer.
//!
//! The cache's one obligation: it may make the hot path cheaper, but it
//! must never make it *wronger*. Every security-state change — JWKS
//! rotation, token revocation, kill-switch — bumps the verifier epoch
//! *before* the state change lands ("invalidation leads caching"), so a
//! verification or policy decision cached under the old state can never
//! be served under the new one. These tests pin that property at the
//! integration level, plus the equivalence property: with the cache on
//! or off, serial or over 8 workers, the same seed yields the same
//! outcomes and byte-identical traces.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::crypto::jwt::JwtError;
use isambard_dri::federation::types::LevelOfAssurance;
use isambard_dri::policy::{AccessRequest, DevicePosture, Sensitivity, SourceZone};
use isambard_dri::trace::chrome_trace;
use isambard_dri::workload::{build_population, run_storm, StormMode};
use proptest::prelude::*;

fn onboarded() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    infra
}

#[test]
fn token_cached_before_rotation_cannot_outlive_the_old_key() {
    let infra = onboarded();
    let (token, _) = infra.token_for("alice", "jupyter", vec![]).unwrap();
    let now = infra.clock.now_secs();

    // Sign-time seeding: the very first validation is already a hit.
    assert!(infra.broker.jwks().validate(&token, "jupyter", now).is_ok());
    assert!(infra.broker.token_cache().hits() >= 1);

    // Rotation republishes the JWKS and bumps the verifier epoch, so the
    // cached verification is *not* trusted across the rotation: the next
    // validation busts the stale entry and re-verifies in full. The old
    // key is still published, so the re-verification legitimately
    // succeeds — but it is a fresh signature check, not a cache hit.
    let busts_before = infra.broker.token_cache().epoch_busts();
    infra.broker.rotate_keys([7u8; 32]);
    assert!(infra.broker.jwks().validate(&token, "jupyter", now).is_ok());
    assert!(infra.broker.token_cache().epoch_busts() > busts_before);

    // Once the old key is pruned, the token must fail outright — no
    // trace of the pre-rotation verification may survive.
    infra.broker.prune_keys(1);
    assert_eq!(
        infra.broker.jwks().validate(&token, "jupyter", now),
        Err(JwtError::BadSignature)
    );
}

#[test]
fn revoked_token_is_refused_despite_a_warm_cache() {
    let infra = onboarded();
    let (token, claims) = infra.token_for("alice", "jupyter", vec![]).unwrap();
    let now = infra.clock.now_secs();

    // Warm the cache and prove the token is live.
    assert!(infra.broker.jwks().validate(&token, "jupyter", now).is_ok());
    assert!(infra.broker.introspect(&claims.token_id));

    // Revocation bumps the verifier epoch before the token dies.
    let busts_before = infra.broker.token_cache().epoch_busts();
    infra.broker.revoke_token(&claims.token_id);

    // Introspection (the revocation authority) refuses, and the derived
    // credential path refuses with it.
    assert!(!infra.broker.introspect(&claims.token_id));
    assert!(infra
        .broker
        .exchange_token(&token, "jupyter", "slurm")
        .is_err());

    // The signature itself is still mathematically valid, so pure JWKS
    // validation re-verifies — but through a fresh signature check, not
    // the pre-revocation cache entry.
    assert!(infra.broker.jwks().validate(&token, "jupyter", now).is_ok());
    assert!(infra.broker.token_cache().epoch_busts() > busts_before);
}

#[test]
fn kill_switch_busts_both_caches_before_severing_access() {
    let infra = onboarded();
    infra.story4_ssh_connect("alice", "p").unwrap();
    infra.story6_jupyter("alice", "p", "198.51.100.9").unwrap();
    let subject = infra.subject_of("alice").unwrap();

    let token_epoch = infra.broker.token_cache().epoch();
    let pdp_epoch = infra.pdp.epoch();
    infra.kill_user(&subject);

    // Both epochs moved: nothing verified or decided pre-kill can be
    // served post-kill.
    assert!(infra.broker.token_cache().epoch() > token_epoch);
    assert!(infra.pdp.epoch() > pdp_epoch);

    // And the user is actually dead: a fresh flow fails.
    assert!(infra.story6_jupyter("alice", "p", "198.51.100.9").is_err());
}

#[test]
fn memoized_allow_does_not_survive_posture_downgrade_or_killswitch() {
    let infra = onboarded();
    let healthy = AccessRequest {
        subject: "maid-1".into(),
        loa: LevelOfAssurance::Medium,
        acr: "mfa-totp".into(),
        device: DevicePosture::healthy(),
        source: SourceZone::Access,
        session_age_secs: 60,
        resource: "jupyter".into(),
        sensitivity: Sensitivity::Standard,
        has_role: true,
    };

    // Decide twice: second consultation is a memo hit, same answer.
    let first = infra.pdp_decide(&healthy);
    assert!(first.allow);
    let hits_before = infra.pdp.hits();
    assert_eq!(infra.pdp_decide(&healthy), first);
    assert!(infra.pdp.hits() > hits_before);

    // Posture downgrade changes the memo key, so the compromised device
    // can never collide with the healthy device's cached allow.
    let mut downgraded = healthy.clone();
    downgraded.device.compromised = true;
    assert!(!infra.pdp_decide(&downgraded).allow);

    // Kill-switch bumps the memo epoch: the healthy allow must be
    // re-derived (epoch bust), not served from the pre-kill cache.
    let busts_before = infra.pdp.epoch_busts();
    infra.kill_user(&infra.subject_of("alice").unwrap());
    let after = infra.pdp_decide(&healthy);
    assert!(infra.pdp.epoch_busts() > busts_before);
    // "maid-1" held no session, so the fresh evaluation still allows —
    // the point is that it *was* a fresh evaluation.
    assert_eq!(after, first);
}

/// Mangle one character so the token fails verification: the last
/// signature character, or (`in_payload`) the middle payload character,
/// which keeps the signature segment and so finds the seeded entry.
fn tampered(token: &str, in_payload: bool) -> String {
    let mut t: Vec<char> = token.chars().collect();
    let at = if in_payload {
        let header = token.find('.').unwrap();
        let payload = token[header + 1..].find('.').unwrap();
        header + 1 + payload / 2
    } else {
        t.len() - 1
    };
    t[at] = if t[at] == 'A' { 'B' } else { 'A' };
    t.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached and uncached validation agree on everything: same `Ok`
    /// claims, same `Err` kind, across audiences, clock advances past
    /// token expiry, and tokens tampered in the signature or the payload.
    /// Same seed, so the two
    /// infrastructures issue byte-identical tokens.
    #[test]
    fn cached_and_uncached_validation_agree(
        aud_idx in 0usize..3,
        advance_secs in 0u64..5000,
        tamper in 0u8..3,
    ) {
        let warm = Infrastructure::new(InfraConfig::default());
        let cold = Infrastructure::new(
            InfraConfig::builder()
                .verification_cache(false)
                .build()
                .unwrap(),
        );
        for infra in [&warm, &cold] {
            infra.create_federated_user("alice", "pw");
            infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
        }
        let (warm_token, _) = warm.token_for("alice", "jupyter", vec![]).unwrap();
        let (cold_token, _) = cold.token_for("alice", "jupyter", vec![]).unwrap();
        // Same seed must yield byte-identical tokens from both infras.
        prop_assert_eq!(&warm_token, &cold_token);

        let token = match tamper {
            0 => warm_token,
            n => tampered(&warm_token, n == 2),
        };
        let audience = ["jupyter", "slurm", "portal"][aud_idx];
        warm.clock.advance_secs(advance_secs);
        cold.clock.advance_secs(advance_secs);

        let from_cache = warm
            .broker
            .jwks()
            .validate(&token, audience, warm.clock.now_secs());
        let from_verify = cold
            .broker
            .jwks()
            .validate(&token, audience, cold.clock.now_secs());
        prop_assert_eq!(&from_cache, &from_verify);

        // A second warm validation exercises the hit path (claim-time
        // checks re-run against the cached claims) — still identical.
        let from_hit = warm
            .broker
            .jwks()
            .validate(&token, audience, warm.clock.now_secs());
        prop_assert_eq!(&from_hit, &from_verify);
    }
}

fn storm_config(cache: bool) -> InfraConfig {
    InfraConfig::builder()
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .verification_cache(cache)
        .build()
        .unwrap()
}

/// Run a 16-user storm; return the deterministic outcome tuple plus the
/// exported chrome trace.
fn storm_outcome(cache: bool, mode: StormMode) -> (usize, Vec<(String, String)>, String) {
    let infra = Infrastructure::new(storm_config(cache));
    let users = build_population(&infra, 2, 7).unwrap().members();
    let r = run_storm(&infra, &users, mode);
    (
        r.completed,
        r.failures.clone(),
        chrome_trace(&infra.tracer.all_spans()),
    )
}

#[test]
fn storm_outcomes_and_traces_identical_cache_on_or_off_serial_or_parallel() {
    let baseline = storm_outcome(false, StormMode::Serial);
    assert_eq!(baseline.0, 16, "failures: {:?}", baseline.1);
    for (cache, mode) in [
        (false, StormMode::Parallel(8)),
        (true, StormMode::Serial),
        (true, StormMode::Parallel(8)),
    ] {
        let run = storm_outcome(cache, mode);
        assert_eq!(
            run, baseline,
            "cache={cache} mode={mode:?} diverged from the cold serial baseline"
        );
    }
}
