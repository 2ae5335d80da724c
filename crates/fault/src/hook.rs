//! The one attachment point for the fault plane.
//!
//! A [`FaultHook`] is a cloneable handle to a single shared slot. The
//! owner (dri-core's resilience layer) hands a clone to every
//! instrumented component at construction; components consult it at the
//! top of their instrumented hops. One [`install`](FaultHook::install)
//! switches every hop at once, and the hook — which outlives every
//! plane installed into it — counts injected failures per component
//! category, so the counts are cumulative across plans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::plan::{FaultPlane, InjectedFault};

/// A shared, late-installed pointer to the fault plane.
#[derive(Clone, Default)]
pub struct FaultHook {
    slot: Arc<Slot>,
}

#[derive(Default)]
struct Slot {
    /// Set by the first install. Until then a hop costs this one
    /// relaxed load and takes no lock. The flag publishes nothing: the
    /// plane is read under the lock, and a hop that sees the flag before
    /// the lock shows the plane proceeds as if none were installed.
    installed: AtomicBool,
    plane: RwLock<Option<Arc<FaultPlane>>>,
    /// Failures injected per component category (`idp`, `slurm`, …)
    /// by every plane installed so far.
    failures: Mutex<BTreeMap<String, u64>>,
}

impl FaultHook {
    /// Install (or replace) the plane behind every clone of this hook.
    pub fn install(&self, plane: Arc<FaultPlane>) {
        *self.slot.plane.write() = Some(plane);
        self.slot.installed.store(true, Ordering::Relaxed);
    }

    /// The installed plane, if any.
    pub fn plane(&self) -> Option<Arc<FaultPlane>> {
        self.slot.plane.read().clone()
    }

    /// Consult the plane for a hop of `component`. `Ok(())` when no
    /// plane is installed.
    pub fn check(&self, component: &str) -> Result<(), InjectedFault> {
        if !self.slot.installed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let plane = self.slot.plane.read();
        let Some(plane) = plane.as_ref() else {
            return Ok(());
        };
        plane.apply(component).inspect_err(|_| {
            let category = component.split(':').next().unwrap_or(component);
            let mut failures = self.slot.failures.lock();
            match failures.get_mut(category) {
                Some(n) => *n += 1,
                None => {
                    failures.insert(category.to_string(), 1);
                }
            }
        })
    }

    /// Failures injected so far by every plane this hook has held,
    /// broken down by component category and sorted by name.
    pub fn failures_by_component(&self) -> Vec<(String, u64)> {
        let failures = self.slot.failures.lock();
        failures.iter().map(|(k, &n)| (k.clone(), n)).collect()
    }

    /// Total failures injected so far: the sum of
    /// [`failures_by_component`](Self::failures_by_component).
    pub fn failures_injected(&self) -> u64 {
        self.slot.failures.lock().values().sum()
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHook")
            .field("installed", &self.slot.installed.load(Ordering::Relaxed))
            .field("failures_injected", &self.failures_injected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use dri_clock::SimClock;

    #[test]
    fn empty_hook_is_transparent() {
        let hook = FaultHook::default();
        assert!(hook.check("broker").is_ok());
        assert!(hook.plane().is_none());
        assert_eq!(hook.failures_injected(), 0);
    }

    #[test]
    fn installed_plane_reaches_every_clone_and_counts_accumulate() {
        let hook = FaultHook::default();
        let component_side = hook.clone();
        let clock = SimClock::new();
        clock.advance(10);
        hook.install(Arc::new(FaultPlane::new(
            FaultPlan::new(1).outage("broker", 0, 1_000),
            clock.clone(),
        )));
        assert!(component_side.check("broker").is_err());
        assert!(component_side.check("edge").is_ok());
        hook.install(Arc::new(FaultPlane::new(
            FaultPlan::new(2).outage("edge", 0, 1_000),
            clock,
        )));
        assert!(component_side.check("broker").is_ok());
        assert!(component_side.check("edge:a").is_err());
        assert_eq!(
            hook.failures_by_component(),
            vec![("broker".to_string(), 1), ("edge".to_string(), 1)]
        );
        assert_eq!(hook.failures_injected(), 2);
    }
}
