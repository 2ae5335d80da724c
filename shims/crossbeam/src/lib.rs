//! Offline shim for the subset of `crossbeam` this workspace uses:
//! `crossbeam::thread::scope`, backed by `std::thread::scope`.
//!
//! The workspace builds without registry access, so it vendors this
//! minimal std-backed implementation.

pub mod thread {
    //! Scoped threads with crossbeam's `Result`-returning API.

    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Panic payload of a scoped thread.
    pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

    /// A scope handle; `spawn` closures receive a reference to it so
    /// they can spawn siblings (crossbeam convention).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Wait for the thread to finish, returning its panic payload on
        /// panic.
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread inside the scope. The closure receives the
        /// scope itself (ignored by most callers as `|_|`).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope; all spawned threads are joined before this
    /// returns. Returns `Err` with the panic payload if the closure or
    /// any spawned thread panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_returns() {
        let total = std::sync::atomic::AtomicUsize::new(0);
        let out = crate::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| {
                    total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
            7u32
        })
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn scope_propagates_panics_as_err() {
        let r = crate::thread::scope(|scope| {
            scope.spawn(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }
}
