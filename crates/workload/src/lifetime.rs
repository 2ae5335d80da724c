//! The token/certificate lifetime trade-off (E12).
//!
//! Design principle 1 of §III: *"All authentication and access is based
//! on short-lived role-based access tokens."* Short lifetimes bound the
//! window a stolen credential stays usable, but cost interactive
//! re-authentications. This module computes both sides of the trade for
//! a working pattern, producing the curve whose knee justifies the
//! paper's minutes-to-hours choices.

/// One point of the lifetime sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimePoint {
    /// Credential lifetime (seconds).
    pub ttl_secs: u64,
    /// Interactive re-authentications per working day.
    pub reauths_per_day: u64,
    /// Expected usable window of a credential stolen at a uniformly
    /// random moment of its life (seconds): TTL/2.
    pub mean_exposure_secs: f64,
    /// Worst-case exposure (seconds): the full TTL.
    pub worst_exposure_secs: u64,
    /// Combined cost under the given exposure weight (lower is better):
    /// `reauths + weight * mean_exposure_hours`.
    pub combined_cost: f64,
}

/// Sweep credential lifetimes for a `work_secs`-long day.
///
/// `exposure_weight` converts an hour of mean exposure into the
/// equivalent annoyance of one re-authentication; E12 uses 2.0 (an
/// hour of stolen-credential exposure is twice as bad as one extra
/// login).
pub fn sweep_lifetimes(
    ttls_secs: &[u64],
    work_secs: u64,
    exposure_weight: f64,
) -> Vec<LifetimePoint> {
    ttls_secs
        .iter()
        .map(|&ttl| {
            assert!(ttl > 0, "lifetime must be positive");
            let reauths = work_secs.div_ceil(ttl);
            let mean_exposure = ttl as f64 / 2.0;
            LifetimePoint {
                ttl_secs: ttl,
                reauths_per_day: reauths,
                mean_exposure_secs: mean_exposure,
                worst_exposure_secs: ttl,
                combined_cost: reauths as f64 + exposure_weight * (mean_exposure / 3600.0),
            }
        })
        .collect()
}

/// The TTL with the lowest combined cost.
pub fn best_lifetime(points: &[LifetimePoint]) -> Option<&LifetimePoint> {
    points
        .iter()
        .min_by(|a, b| a.combined_cost.partial_cmp(&b.combined_cost).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 8 * 3600;

    #[test]
    fn reauth_count_decreases_with_ttl() {
        let ttls = [900, 3600, 4 * 3600, 8 * 3600, 24 * 3600];
        let points = sweep_lifetimes(&ttls, DAY, 2.0);
        let reauths: Vec<u64> = points.iter().map(|p| p.reauths_per_day).collect();
        assert_eq!(reauths, vec![32, 8, 2, 1, 1]);
    }

    #[test]
    fn exposure_increases_with_ttl() {
        let points = sweep_lifetimes(&[900, 3600, 86400], DAY, 2.0);
        assert!(points[0].mean_exposure_secs < points[1].mean_exposure_secs);
        assert!(points[1].mean_exposure_secs < points[2].mean_exposure_secs);
        assert_eq!(points[2].worst_exposure_secs, 86400);
    }

    #[test]
    fn crossover_favours_hours_not_extremes() {
        // The E12 sweep, 1 min to 30 days, with exposure weighted at 2
        // reauth-equivalents/hour: the knee is 4 h, neither 1 minute
        // (reauth hell) nor a week or a month (exposure).
        let ttls: Vec<u64> = vec![
            60,
            300,
            900,
            3600,
            4 * 3600,
            8 * 3600,
            24 * 3600,
            7 * 24 * 3600,
            30 * 24 * 3600,
        ];
        let points = sweep_lifetimes(&ttls, DAY, 2.0);
        assert_eq!(best_lifetime(&points).unwrap().ttl_secs, 4 * 3600);
    }

    #[test]
    fn heavier_exposure_weight_shortens_best_ttl() {
        let ttls: Vec<u64> = vec![900, 3600, 4 * 3600, 8 * 3600, 24 * 3600];
        let casual = best_lifetime(&sweep_lifetimes(&ttls, DAY, 0.5))
            .unwrap()
            .ttl_secs;
        let strict = best_lifetime(&sweep_lifetimes(&ttls, DAY, 50.0))
            .unwrap()
            .ttl_secs;
        assert!(strict <= casual);
    }
}
