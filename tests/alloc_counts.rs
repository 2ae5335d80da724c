//! Deterministic allocation-count gate.
//!
//! Wall-clock costs vary by host; the number of heap allocations a flow
//! makes does not. This gate pins allocations per flow with a counting
//! global allocator, the way `tests/crypto_op_counts.rs` pins Ed25519
//! operations, so a change that quietly puts a clone, a `format!` or a
//! JSON tree back on the warm story-6 path fails on any host.
//!
//! Only allocations made on the thread that opened the counting window
//! are counted (a serial storm runs entirely on that thread), so the test
//! harness's own threads cannot move the numbers. This file still holds
//! exactly one `#[test]`, so nothing else runs in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::workload::{build_population, run_storm, StormMode};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

const PROJECTS: usize = 4;
const USERS: u64 = PROJECTS as u64 * 8;

fn storm_infra(verification_cache: bool, tracing: bool) -> (Infrastructure, Vec<(String, String)>) {
    let config = InfraConfig::builder()
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .verification_cache(verification_cache)
        .tracing(tracing)
        .build()
        .expect("gate config is valid");
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, PROJECTS, 7)
        .expect("population")
        .members();
    (infra, users)
}

/// Allocations of one serial storm over the population.
fn storm_allocs(verification_cache: bool, tracing: bool) -> u64 {
    let (infra, users) = storm_infra(verification_cache, tracing);
    assert_eq!(users.len() as u64, USERS);
    counted(|| {
        let result = run_storm(&infra, &users, StormMode::Serial);
        assert_eq!(result.completed, users.len(), "{:?}", result.failures);
    })
}

/// The warm-flow budget: allocations per story-6 flow, averaged over the
/// storm.
const WARM_BUDGET_PER_FLOW: u64 = 170;

#[test]
fn allocations_per_flow_are_pinned() {
    // Storm totals over USERS flows, byte-stable run to run. A change that
    // moves one must update it here and say why in CHANGES.md; a rise
    // needs a reason. Per flow: warm 133.6, cold 198.6, tracing off 106.1.
    let per_flow = |total: u64| total as f64 / USERS as f64;
    let warm = storm_allocs(true, true);
    assert!(
        warm <= WARM_BUDGET_PER_FLOW * USERS,
        "warm storm: {:.1} allocations per flow, over the budget of {WARM_BUDGET_PER_FLOW}",
        per_flow(warm)
    );
    assert_eq!(warm, 4276, "warm storm ({:.1} per flow)", per_flow(warm));
    // Cold (verification caches off): the relying service decodes and
    // verifies the token instead of hitting the seeded cache entry.
    let cold = storm_allocs(false, true);
    assert_eq!(cold, 6355, "cold storm ({:.1} per flow)", per_flow(cold));
    // Tracing off: the seven spans and their attributes are not recorded.
    let untraced = storm_allocs(true, false);
    assert_eq!(
        untraced,
        3394,
        "untraced storm ({:.1} per flow)",
        per_flow(untraced)
    );

    // One federated login plus story 4 (SSH through CA and bastion). Its
    // count has moved by about ten between repetitions, so it gets a
    // ceiling a little above the 594 measured when it was set.
    let (infra, users) = storm_infra(true, true);
    let (label, project) = &users[1];
    let ssh = counted(|| {
        infra.federated_login(label).expect("federated login");
        infra
            .story4_ssh_connect(label.as_str(), project)
            .expect("story 4");
    });
    assert!(ssh <= 620, "federated login + story 4: {ssh} allocations");
}
