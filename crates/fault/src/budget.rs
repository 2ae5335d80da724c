//! SRE-style error budgets over deterministic sim-time windows.
//!
//! Each dependency gets a per-window budget derived from a fixed SLO
//! target: with [`SLO_PER_MILLE`] = 900 ("90.0% of calls succeed"), a
//! window may spend up to `1000 - SLO_PER_MILLE` per-mille of its calls
//! on errors before the budget is **exhausted**.
//!
//! The accounting is a pure function of the event stream: windows are
//! indexed by `at_ms / WINDOW_MS` (sim time only — no wall clock), and
//! each window holds two commutative counters `(ok, err)`. Because
//! addition commutes, a serial run and an 8-worker run that observe the
//! same multiset of outcomes land on byte-identical budget state; the
//! [`ErrorBudgets::export`] timeline is sorted by `(dependency, window)`
//! so the rendering is totally ordered too. That is the determinism
//! contract the chaos tests assert.
//!
//! Burn rate is reported in per-mille of the window's calls:
//! `burn = err * 1000 / (ok + err)`, and the window is exhausted when
//! `err * 1000 > (ok + err) * (1000 - SLO_PER_MILLE)`.

use dri_sync::ShardMap;

/// Number of shards for the window-counter map. Budgets are touched on
/// every resilient call, so contention matters in parallel storms.
const BUDGET_SHARDS: usize = 16;

/// Width of one accounting window in simulated milliseconds.
pub const WINDOW_MS: u64 = 60_000;

/// Required success rate in per-mille of calls (90.0%). The error budget
/// of a window is `1000 - SLO_PER_MILLE` per-mille.
pub const SLO_PER_MILLE: u16 = 900;

/// One (dependency, window) row of the budget timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetWindow {
    /// Dependency the counters belong to (`"idp"`, `"slurm"`, …).
    pub dependency: String,
    /// Window index (`at_ms / WINDOW_MS`).
    pub window: u64,
    /// Window start in simulated milliseconds.
    pub start_ms: u64,
    /// Successful calls observed in the window.
    pub ok: u64,
    /// Failed calls observed in the window.
    pub err: u64,
    /// Burn rate in per-mille of the window's calls.
    pub burn_per_mille: u64,
    /// Whether the window has spent its error budget.
    pub exhausted: bool,
}

/// Per-dependency, per-window error-budget accounting.
///
/// State is held in a sharded map keyed `"{dependency}|{window}"`; the
/// counters commute, so recording order (and thread interleaving) does
/// not affect the final state.
pub struct ErrorBudgets {
    /// `"{dependency}|{window}"` → `(ok, err)`.
    windows: ShardMap<(u64, u64)>,
}

impl ErrorBudgets {
    /// New, empty budget plane.
    pub fn new() -> ErrorBudgets {
        ErrorBudgets {
            windows: ShardMap::new(BUDGET_SHARDS),
        }
    }

    /// Window index containing the given sim time.
    pub fn window_of(&self, at_ms: u64) -> u64 {
        at_ms / WINDOW_MS
    }

    /// Record one call outcome for `dependency` at sim time `at_ms`.
    pub fn record(&self, dependency: &str, at_ms: u64, success: bool) {
        let window = self.window_of(at_ms);
        dri_sync::with_key(format_args!("{dependency}|{window}"), |key| {
            self.windows.upsert(key, |counters| {
                if success {
                    counters.0 += 1;
                } else {
                    counters.1 += 1;
                }
            })
        });
    }

    /// `(ok, err)` counters for a (dependency, window) pair.
    pub fn counts(&self, dependency: &str, window: u64) -> (u64, u64) {
        dri_sync::with_key(format_args!("{dependency}|{window}"), |key| {
            self.windows.get_cloned(key)
        })
        .unwrap_or((0, 0))
    }

    fn burn_of(ok: u64, err: u64) -> u64 {
        (err * 1000).checked_div(ok + err).unwrap_or(0)
    }

    fn exhausted_of(ok: u64, err: u64) -> bool {
        let total = ok + err;
        total > 0 && err * 1000 > total * u64::from(1000 - SLO_PER_MILLE)
    }

    /// Burn rate (per-mille of calls spent on errors) for a window.
    pub fn burn_per_mille(&self, dependency: &str, window: u64) -> u64 {
        let (ok, err) = self.counts(dependency, window);
        Self::burn_of(ok, err)
    }

    /// Whether the (dependency, window) pair has spent its error budget.
    pub fn exhausted(&self, dependency: &str, window: u64) -> bool {
        let (ok, err) = self.counts(dependency, window);
        Self::exhausted_of(ok, err)
    }

    /// Whether the dependency's *current* window still has budget
    /// headroom — the admission check for budget-driven chaos drills.
    pub fn has_headroom(&self, dependency: &str, now_ms: u64) -> bool {
        !self.exhausted(dependency, self.window_of(now_ms))
    }

    /// All dependencies that have recorded at least one outcome, sorted.
    pub fn dependencies(&self) -> Vec<String> {
        let mut deps: Vec<String> = Vec::new();
        self.windows.for_each(|key, _| {
            if let Some((dep, _)) = key.rsplit_once('|') {
                if !deps.iter().any(|d| d == dep) {
                    deps.push(dep.to_string());
                }
            }
        });
        deps.sort();
        deps
    }

    /// The full budget timeline, sorted by `(dependency, window)` so two
    /// runs with identical budget state render identically.
    pub fn timeline(&self) -> Vec<BudgetWindow> {
        let mut rows: Vec<BudgetWindow> = Vec::new();
        self.windows.for_each(|key, &(ok, err)| {
            let Some((dep, win)) = key.rsplit_once('|') else {
                return;
            };
            let Ok(window) = win.parse::<u64>() else {
                return;
            };
            rows.push(BudgetWindow {
                dependency: dep.to_string(),
                window,
                start_ms: window * WINDOW_MS,
                ok,
                err,
                burn_per_mille: Self::burn_of(ok, err),
                exhausted: Self::exhausted_of(ok, err),
            });
        });
        rows.sort_by(|a, b| (&a.dependency, a.window).cmp(&(&b.dependency, b.window)));
        rows
    }

    /// Render the timeline as one line per window — the byte-comparable
    /// artifact the determinism tests diff between serial and parallel
    /// runs.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for row in self.timeline() {
            out.push_str(&format!(
                "{} window={} start_ms={} ok={} err={} burn={} exhausted={}\n",
                row.dependency,
                row.window,
                row.start_ms,
                row.ok,
                row.err,
                row.burn_per_mille,
                row.exhausted
            ));
        }
        out
    }

    /// Total outcomes recorded across all dependencies and windows.
    pub fn recorded(&self) -> u64 {
        let mut total = 0;
        self.windows.for_each(|_, &(ok, err)| total += ok + err);
        total
    }
}

impl Default for ErrorBudgets {
    fn default() -> ErrorBudgets {
        ErrorBudgets::new()
    }
}

impl std::fmt::Debug for ErrorBudgets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErrorBudgets")
            .field("windows", &self.windows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets() -> ErrorBudgets {
        ErrorBudgets::new()
    }

    #[test]
    fn counters_accumulate_per_window() {
        let b = budgets();
        b.record("idp", 1_000, true);
        b.record("idp", 2_000, false);
        b.record("idp", 61_000, true);
        assert_eq!(b.counts("idp", 0), (1, 1));
        assert_eq!(b.counts("idp", 1), (1, 0));
        assert_eq!(b.counts("broker", 0), (0, 0));
    }

    #[test]
    fn burn_and_exhaustion_follow_the_slo() {
        let b = budgets();
        // 20 ok: plenty of headroom.
        for i in 0..20 {
            b.record("slurm", i, true);
        }
        assert_eq!(b.burn_per_mille("slurm", 0), 0);
        assert!(b.has_headroom("slurm", 0));
        // SLO 900 ⇒ budget 100‰. err=2 of 22 ⇒ 90‰: still inside.
        b.record("slurm", 10, false);
        b.record("slurm", 11, false);
        assert!(!b.exhausted("slurm", 0));
        // err=3 of 23 ⇒ 130‰ > 100‰: exhausted.
        b.record("slurm", 12, false);
        assert!(b.exhausted("slurm", 0));
        assert!(!b.has_headroom("slurm", 30_000));
        // The next window starts fresh.
        assert!(b.has_headroom("slurm", 60_000));
    }

    #[test]
    fn empty_window_has_headroom() {
        let b = budgets();
        assert!(b.has_headroom("edge", 0));
        assert_eq!(b.burn_per_mille("edge", 0), 0);
    }

    #[test]
    fn a_single_failure_in_an_empty_window_exhausts_it() {
        // With no successes, burn is 1000‰ — any budget below 100% is
        // spent immediately. Drills therefore seed windows with healthy
        // traffic before injecting.
        let b = budgets();
        b.record("tailnet", 5, false);
        assert!(b.exhausted("tailnet", 0));
    }

    #[test]
    fn export_is_sorted_and_stable() {
        let b = budgets();
        b.record("idp", 61_000, false);
        b.record("broker", 1, true);
        b.record("idp", 1, true);
        let export = b.export();
        let lines: Vec<&str> = export.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("broker window=0 "));
        assert!(lines[1].starts_with("idp window=0 "));
        assert!(lines[2].starts_with("idp window=1 "));
        // Same outcomes in a different order ⇒ identical bytes.
        let c = budgets();
        c.record("broker", 1, true);
        c.record("idp", 1, true);
        c.record("idp", 61_000, false);
        assert_eq!(export, c.export());
    }

    #[test]
    fn recording_order_does_not_matter_across_threads() {
        let b = std::sync::Arc::new(budgets());
        crossbeam::thread::scope(|scope| {
            for worker in 0..8u64 {
                let b = std::sync::Arc::clone(&b);
                scope.spawn(move |_| {
                    for i in 0..100u64 {
                        b.record("broker", i * 500, (i + worker) % 3 != 0);
                    }
                });
            }
        })
        .expect("threads join");
        let serial = budgets();
        for worker in 0..8u64 {
            for i in 0..100u64 {
                serial.record("broker", i * 500, (i + worker) % 3 != 0);
            }
        }
        assert_eq!(b.export(), serial.export());
        assert_eq!(b.recorded(), 800);
    }

    #[test]
    fn dependencies_are_sorted_and_deduped() {
        let b = budgets();
        b.record("idp", 0, true);
        b.record("broker", 0, true);
        b.record("idp", 61_000, true);
        assert_eq!(b.dependencies(), vec!["broker", "idp"]);
    }
}
