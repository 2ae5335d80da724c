//! The trust algorithm and policy decision point.
//!
//! Tenet 4: "Access to resources is determined by dynamic policy —
//! including the observable state of client identity, application/service,
//! and the requesting asset — and may include other behavioural and
//! environmental attributes." The PDP below scores those inputs
//! explicitly, so experiments can ablate individual signals and watch
//! decisions change. The session-age gate and the per-sensitivity
//! thresholds are fixed constants ([`MAX_SESSION_AGE_SECS`],
//! [`THRESHOLD_STANDARD`], [`THRESHOLD_ELEVATED`],
//! [`THRESHOLD_CRITICAL`]).

use std::sync::Arc;

use dri_federation::types::LevelOfAssurance;

/// Device posture signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePosture {
    /// Device is enrolled/managed (e.g. a tailnet node or known client).
    pub managed: bool,
    /// Known-patched (inventory says no critical vulns).
    pub patched: bool,
    /// Flagged compromised by the SIEM.
    pub compromised: bool,
}

impl DevicePosture {
    /// A healthy managed device.
    pub fn healthy() -> DevicePosture {
        DevicePosture {
            managed: true,
            patched: true,
            compromised: false,
        }
    }

    /// An unknown, unmanaged device (typical BYOD laptop).
    pub fn unknown() -> DevicePosture {
        DevicePosture {
            managed: false,
            patched: false,
            compromised: false,
        }
    }
}

/// Where the request originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceZone {
    /// Public internet.
    Internet,
    /// Inside the Access zone.
    Access,
    /// Inside the HPC zone.
    Hpc,
    /// Inside the Management zone (via tailnet).
    Management,
}

/// How sensitive the requested resource is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sensitivity {
    /// Ordinary research services (Jupyter, job submission).
    Standard,
    /// Data with handling requirements (GSCP Official).
    Elevated,
    /// Management-plane / security-plane resources.
    Critical,
}

/// An access request presented to the PDP.
#[derive(Debug, Clone)]
pub struct AccessRequest {
    /// Subject identifier.
    pub subject: String,
    /// Identity assurance.
    pub loa: LevelOfAssurance,
    /// Authentication context (`pwd`, `pwd+totp`, `mfa-totp`, `mfa-hw`).
    pub acr: String,
    /// Device posture.
    pub device: DevicePosture,
    /// Source zone.
    pub source: SourceZone,
    /// Seconds since interactive authentication.
    pub session_age_secs: u64,
    /// Resource identifier.
    pub resource: String,
    /// Resource sensitivity.
    pub sensitivity: Sensitivity,
    /// Whether the subject holds a role on the resource (from the portal).
    pub has_role: bool,
}

/// The PDP's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessDecision {
    /// Allowed?
    pub allow: bool,
    /// The computed trust score in `[0, 1]`.
    pub score: f64,
    /// Threshold that applied.
    pub threshold: f64,
    /// Human-readable contributing reasons (for audit). Shared, so a
    /// memoized decision is handed out without copying them.
    pub reasons: Arc<[String]>,
}

/// Maximum session age before re-authentication is forced (seconds).
pub const MAX_SESSION_AGE_SECS: u64 = 8 * 3600;
/// Score threshold for [`Sensitivity::Standard`].
pub const THRESHOLD_STANDARD: f64 = 0.55;
/// Score threshold for [`Sensitivity::Elevated`].
pub const THRESHOLD_ELEVATED: f64 = 0.70;
/// Score threshold for [`Sensitivity::Critical`].
pub const THRESHOLD_CRITICAL: f64 = 0.85;

/// The policy decision point.
#[derive(Debug, Clone, Default)]
pub struct PolicyDecisionPoint;

impl PolicyDecisionPoint {
    /// Score and decide an access request. Hard failures (no role,
    /// compromised device, stale session) bypass the score entirely —
    /// "never trust, always verify" means some signals are gates, not
    /// weights.
    pub fn decide(&self, req: &AccessRequest) -> AccessDecision {
        let mut reasons = Vec::with_capacity(5);

        // Gates.
        if !req.has_role {
            return AccessDecision {
                allow: false,
                score: 0.0,
                threshold: threshold(req.sensitivity),
                reasons: Arc::new(["no role on resource (authorisation-led)".to_string()]),
            };
        }
        if req.device.compromised {
            return AccessDecision {
                allow: false,
                score: 0.0,
                threshold: threshold(req.sensitivity),
                reasons: Arc::new(["device flagged compromised".to_string()]),
            };
        }
        if req.session_age_secs >= MAX_SESSION_AGE_SECS {
            return AccessDecision {
                allow: false,
                score: 0.0,
                threshold: threshold(req.sensitivity),
                reasons: Arc::new(["session stale; re-authentication required".to_string()]),
            };
        }

        // Weighted signals.
        let identity = match req.loa {
            LevelOfAssurance::High => 1.0,
            LevelOfAssurance::Medium => 0.7,
            LevelOfAssurance::Low => 0.3,
        };
        reasons.push(format!("identity assurance {:?} -> {identity:.2}", req.loa));

        let authn = match req.acr.as_str() {
            "mfa-hw" => 1.0,
            "mfa-totp" | "pwd+totp" => 0.8,
            "pwd" => 0.4,
            _ => 0.2,
        };
        reasons.push(format!("authn context {} -> {authn:.2}", req.acr));

        let device = match (req.device.managed, req.device.patched) {
            (true, true) => 1.0,
            (true, false) => 0.6,
            (false, _) => 0.5,
        };
        reasons.push(format!(
            "device managed={} patched={} -> {device:.2}",
            req.device.managed, req.device.patched
        ));

        let source = match req.source {
            SourceZone::Management => 1.0,
            SourceZone::Hpc => 0.9,
            SourceZone::Access => 0.8,
            SourceZone::Internet => 0.6,
        };
        reasons.push(format!("source {:?} -> {source:.2}", req.source));

        // Freshness decays linearly over the session lifetime.
        let freshness = 1.0 - (req.session_age_secs as f64 / MAX_SESSION_AGE_SECS as f64) * 0.5;
        reasons.push(format!(
            "session age {}s -> freshness {freshness:.2}",
            req.session_age_secs
        ));

        let score =
            0.30 * identity + 0.25 * authn + 0.15 * device + 0.15 * source + 0.15 * freshness;
        let threshold = threshold(req.sensitivity);
        AccessDecision {
            allow: score >= threshold,
            score,
            threshold,
            reasons: reasons.into(),
        }
    }
}

fn threshold(sensitivity: Sensitivity) -> f64 {
    match sensitivity {
        Sensitivity::Standard => THRESHOLD_STANDARD,
        Sensitivity::Elevated => THRESHOLD_ELEVATED,
        Sensitivity::Critical => THRESHOLD_CRITICAL,
    }
}

/// Width of the session-age buckets the memoizing PDP quantizes to, in
/// seconds. Divides [`MAX_SESSION_AGE_SECS`] (8h) exactly, so
/// the stale-session gate fires at precisely the same age with and
/// without quantization.
pub const SESSION_AGE_BUCKET_SECS: u64 = 60;

/// A [`PolicyDecisionPoint`] wrapper that memoizes decisions on the
/// quantized request feature tuple.
///
/// The PDP is a pure function of the request features; the only
/// continuously varying input is the session age, which the wrapper
/// quantizes to [`SESSION_AGE_BUCKET_SECS`] buckets — **in both the
/// memoized and unmemoized paths**, so enabling the memo never changes a
/// decision. The memo key deliberately excludes the subject (two users
/// with identical features share an entry) and includes every feature
/// `decide` reads, so a posture downgrade or zone change can never hit a
/// stale entry: it maps to a different key by construction.
///
/// Entries carry the **decision epoch**; [`MemoizedPdp::bump_epoch`]
/// (wired to the kill switch and posture-feed updates) invalidates every
/// cached decision at once — invalidation leads caching.
pub struct MemoizedPdp {
    enabled: std::sync::atomic::AtomicBool,
    epoch: std::sync::atomic::AtomicU64,
    memo: dri_sync::ShardMap<MemoEntry>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    epoch_busts: std::sync::atomic::AtomicU64,
}

struct MemoEntry {
    epoch: u64,
    decision: AccessDecision,
}

impl MemoizedPdp {
    /// A memo of `shards` shards (rounded to a power of two), enabled.
    pub fn new(shards: usize) -> MemoizedPdp {
        MemoizedPdp {
            enabled: std::sync::atomic::AtomicBool::new(true),
            epoch: std::sync::atomic::AtomicU64::new(0),
            memo: dri_sync::ShardMap::new(shards),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            epoch_busts: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Enable or disable memoization (decisions are identical either
    /// way; only the lookup work differs).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled
            .store(enabled, std::sync::atomic::Ordering::Release);
    }

    /// Whether memoization is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Current decision epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Invalidate every memoized decision (kill switch armed/fired,
    /// posture feed updated, policy changed). Returns the new epoch.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1
    }

    /// Memo hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Memo misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Entries found but discarded because their epoch was stale.
    pub fn epoch_busts(&self) -> u64 {
        self.epoch_busts.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Live memo entries.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Quantize the continuously varying feature (session age) so near-
    /// identical requests share a memo entry. Applied on every path.
    fn canonicalize(req: &AccessRequest) -> AccessRequest {
        let mut req = req.clone();
        req.session_age_secs =
            (req.session_age_secs / SESSION_AGE_BUCKET_SECS) * SESSION_AGE_BUCKET_SECS;
        req
    }

    /// Call `f` with the memo key of `req`: every feature
    /// `PolicyDecisionPoint::decide` reads, with the session age
    /// quantized, minus the subject — cross-user sharing is sound
    /// precisely because the decision never reads the subject. The key
    /// is formatted on the stack; only a miss copies it into the memo.
    fn with_memo_key<R>(req: &AccessRequest, f: impl FnOnce(&str) -> R) -> R {
        let age = (req.session_age_secs / SESSION_AGE_BUCKET_SECS) * SESSION_AGE_BUCKET_SECS;
        dri_sync::with_key(
            format_args!(
                "{}|{:?}|{}|{:?}|{}|{:?}|{}|{:?}",
                req.resource,
                req.sensitivity,
                req.has_role,
                req.loa,
                req.acr,
                req.device,
                age,
                req.source,
            ),
            f,
        )
    }

    /// Decide `req`, consulting the memo when enabled. Identical output
    /// to `PolicyDecisionPoint.decide(&canonicalized)` in all cases.
    pub fn decide(&self, req: &AccessRequest) -> AccessDecision {
        if !self.enabled() {
            return PolicyDecisionPoint.decide(&Self::canonicalize(req));
        }
        Self::with_memo_key(req, |key| self.decide_memoized(key, req))
    }

    fn decide_memoized(&self, key: &str, req: &AccessRequest) -> AccessDecision {
        let current = self.epoch();
        if let Some(entry) = self.memo.get_cloned(key) {
            if entry.epoch == current {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                dri_trace::add_attr("cache.pdp", "hit");
                return entry.decision;
            }
            // Callers racing on one stale entry: only the one that
            // removes it counts the bust.
            if self.memo.remove_if(key, |e| e.epoch < current).is_some() {
                self.epoch_busts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let decision = PolicyDecisionPoint.decide(&Self::canonicalize(req));
        let replaced = self.memo.insert(
            key.to_string(),
            MemoEntry {
                epoch: current,
                decision: decision.clone(),
            },
        );
        // Count from what the insert replaced, not from the lookup: when
        // concurrent callers miss on one key, the first insert is the
        // miss and the rest find its current-epoch entry and count hits,
        // so misses equal the distinct (key, epoch) insertions whatever
        // the interleaving.
        if matches!(replaced, Some(entry) if entry.epoch == current) {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            dri_trace::add_attr("cache.pdp", "hit");
        } else {
            self.misses
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            dri_trace::add_attr("cache.pdp", "miss");
        }
        decision
    }
}

impl Clone for MemoEntry {
    fn clone(&self) -> MemoEntry {
        MemoEntry {
            epoch: self.epoch,
            decision: self.decision.clone(),
        }
    }
}

impl std::fmt::Debug for MemoizedPdp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoizedPdp")
            .field("enabled", &self.enabled())
            .field("epoch", &self.epoch())
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_request() -> AccessRequest {
        AccessRequest {
            subject: "maid-1".into(),
            loa: LevelOfAssurance::Medium,
            acr: "mfa-totp".into(),
            device: DevicePosture::unknown(),
            source: SourceZone::Internet,
            session_age_secs: 60,
            resource: "jupyter".into(),
            sensitivity: Sensitivity::Standard,
            has_role: true,
        }
    }

    #[test]
    fn typical_researcher_allowed_on_standard() {
        let pdp = PolicyDecisionPoint;
        let d = pdp.decide(&base_request());
        assert!(d.allow, "score {} vs {}", d.score, d.threshold);
    }

    #[test]
    fn no_role_is_a_hard_gate() {
        let pdp = PolicyDecisionPoint;
        let mut req = base_request();
        req.has_role = false;
        // Even a perfect identity fails without authorisation.
        req.loa = LevelOfAssurance::High;
        req.acr = "mfa-hw".into();
        req.device = DevicePosture::healthy();
        let d = pdp.decide(&req);
        assert!(!d.allow);
        assert_eq!(d.score, 0.0);
    }

    #[test]
    fn compromised_device_is_a_hard_gate() {
        let pdp = PolicyDecisionPoint;
        let mut req = base_request();
        req.device.compromised = true;
        assert!(!pdp.decide(&req).allow);
    }

    #[test]
    fn stale_session_forces_reauth() {
        let pdp = PolicyDecisionPoint;
        let mut req = base_request();
        req.session_age_secs = 8 * 3600;
        let d = pdp.decide(&req);
        assert!(!d.allow);
        assert!(d.reasons[0].contains("re-authentication"));
    }

    #[test]
    fn critical_resources_need_strong_everything() {
        let pdp = PolicyDecisionPoint;
        // The researcher request, pointed at a critical resource: denied.
        let mut req = base_request();
        req.sensitivity = Sensitivity::Critical;
        assert!(!pdp.decide(&req).allow);
        // The admin profile: High LoA, hardware key, managed device,
        // arriving via the management overlay — allowed.
        req.loa = LevelOfAssurance::High;
        req.acr = "mfa-hw".into();
        req.device = DevicePosture::healthy();
        req.source = SourceZone::Management;
        let d = pdp.decide(&req);
        assert!(d.allow, "score {} vs {}", d.score, d.threshold);
    }

    #[test]
    fn password_only_fails_even_standard_from_internet() {
        let pdp = PolicyDecisionPoint;
        let mut req = base_request();
        req.acr = "pwd".into();
        req.loa = LevelOfAssurance::Low;
        let d = pdp.decide(&req);
        assert!(!d.allow, "score {}", d.score);
    }

    #[test]
    fn score_monotone_in_session_age() {
        let pdp = PolicyDecisionPoint;
        let mut prev = f64::INFINITY;
        for age in [0u64, 3600, 2 * 3600, 4 * 3600, 7 * 3600] {
            let mut req = base_request();
            req.session_age_secs = age;
            let d = pdp.decide(&req);
            assert!(d.score <= prev, "score should not increase with age");
            prev = d.score;
        }
    }

    #[test]
    fn decisions_carry_audit_reasons() {
        let pdp = PolicyDecisionPoint;
        let d = pdp.decide(&base_request());
        assert!(d.reasons.len() >= 5);
        assert!(d.reasons.iter().any(|r| r.contains("identity")));
        assert!(d.reasons.iter().any(|r| r.contains("source")));
    }

    #[test]
    fn memoized_and_plain_agree_on_and_off() {
        let memo = MemoizedPdp::new(16);
        let plain = PolicyDecisionPoint;
        let mut requests = Vec::new();
        for age in [0u64, 59, 60, 61, 3599, 7 * 3600, 8 * 3600, 9 * 3600] {
            for sens in [
                Sensitivity::Standard,
                Sensitivity::Elevated,
                Sensitivity::Critical,
            ] {
                let mut r = base_request();
                r.session_age_secs = age;
                r.sensitivity = sens;
                requests.push(r);
            }
        }
        let mut r = base_request();
        r.device.compromised = true;
        requests.push(r);
        let mut r = base_request();
        r.has_role = false;
        requests.push(r);
        for req in &requests {
            // Twice each: the second call is a memo hit and must agree too.
            let canonical = MemoizedPdp::canonicalize(req);
            assert_eq!(memo.decide(req), plain.decide(&canonical));
            assert_eq!(memo.decide(req), plain.decide(&canonical));
        }
        assert!(memo.hits() > 0);
        // Disabled memo still agrees.
        memo.set_enabled(false);
        for req in &requests {
            assert_eq!(
                memo.decide(req),
                plain.decide(&MemoizedPdp::canonicalize(req))
            );
        }
    }

    #[test]
    fn memo_shares_entries_across_subjects_not_features() {
        let memo = MemoizedPdp::new(16);
        let mut a = base_request();
        a.subject = "maid-1".into();
        let mut b = base_request();
        b.subject = "maid-2".into();
        memo.decide(&a);
        assert_eq!(memo.misses(), 1);
        memo.decide(&b); // different subject, same features: hit
        assert_eq!(memo.hits(), 1);
        // A posture downgrade is a different key — never a stale hit.
        let mut c = base_request();
        c.device.compromised = true;
        assert!(!memo.decide(&c).allow);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn epoch_bump_invalidates_memoized_decisions() {
        let memo = MemoizedPdp::new(16);
        let req = base_request();
        assert!(memo.decide(&req).allow);
        memo.decide(&req);
        assert_eq!(memo.hits(), 1);
        memo.bump_epoch();
        memo.decide(&req);
        // The stale entry was discarded, not served.
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.epoch_busts(), 1);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn concurrent_first_misses_count_one_miss_per_key() {
        // Workers released together onto each fresh key all miss the
        // lookup; only the first insert may count as a miss.
        const WORKERS: usize = 8;
        const KEYS: u64 = 64;
        let memo = MemoizedPdp::new(16);
        let barrier = std::sync::Barrier::new(WORKERS);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    for k in 0..KEYS {
                        let mut req = base_request();
                        req.session_age_secs = k * SESSION_AGE_BUCKET_SECS;
                        barrier.wait();
                        memo.decide(&req);
                    }
                });
            }
        });
        assert_eq!(memo.misses(), KEYS);
        assert_eq!(memo.hits(), KEYS * (WORKERS as u64 - 1));
        assert_eq!(memo.epoch_busts(), 0);
    }

    #[test]
    fn stale_gate_exact_under_quantization() {
        // 8h divides into 60s buckets exactly: the stale-session gate
        // must fire at >= 8h and not a bucket earlier.
        let memo = MemoizedPdp::new(4);
        let mut req = base_request();
        req.session_age_secs = 8 * 3600 - 1;
        assert!(memo.decide(&req).allow);
        req.session_age_secs = 8 * 3600;
        assert!(!memo.decide(&req).allow);
    }
}
