//! Deterministic allocation-count and retained-heap gate.
//!
//! Wall-clock costs vary by host; the number of heap allocations a flow
//! makes does not. This gate pins allocations per flow with a counting
//! global allocator, the way `tests/crypto_op_counts.rs` pins Ed25519
//! operations, so a change that quietly puts a clone, a `format!` or a
//! JSON tree back on the warm story-6 path fails on any host. The same
//! allocator tracks live bytes, so what a traced flow leaves behind in
//! the span store has a ceiling too.
//!
//! Only allocations made on the thread that opened the counting window
//! are counted (a serial storm runs entirely on that thread), so the test
//! harness's own threads cannot move the numbers. This file still holds
//! exactly one `#[test]`, so nothing else runs in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::fault::FaultPlan;
use isambard_dri::workload::{build_population, run_storm, StormMode};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Count one allocation of `grown` bytes (negative for a shrink).
fn note(grown: i64) {
    if counting() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to the heap on this thread: allocations (including
/// reallocations) and the net change in live bytes.
#[derive(Clone, Copy, Debug)]
struct Usage {
    allocs: u64,
    live_bytes: i64,
}

fn counted(f: impl FnOnce()) -> Usage {
    let (allocs, live) = (
        ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    Usage {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed) - live,
    }
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

/// Heap usage of one serial storm over the population. The
/// infrastructure outlives the window, so `live_bytes` is what the storm
/// left behind in it.
fn storm_usage(verification_cache: bool, tracing: bool) -> Usage {
    let (infra, users) = storm_infra(verification_cache, tracing);
    serial_storm_usage(&infra, &users)
}

/// Heap usage of one serial storm on a prepared infrastructure.
fn serial_storm_usage(infra: &Infrastructure, users: &[(String, String)]) -> Usage {
    assert_eq!(users.len() as u64, USERS);
    counted(|| {
        let result = run_storm(infra, users, StormMode::Serial);
        assert_eq!(result.completed, users.len(), "{:?}", result.failures);
    })
}

/// The warm-flow budget: allocations per story-6 flow, averaged over the
/// storm.
const WARM_BUDGET_PER_FLOW: u64 = 170;

/// What tracing may add to a warm flow: allocations per flow.
const TRACING_ALLOCS_PER_FLOW: u64 = 8;

/// What tracing may leave behind per flow: live bytes, traced minus
/// untraced, after the serial storm. The span store before append-only
/// logs left 3036.2 bytes per flow; this ceiling is 59 % of that.
const TRACING_RETAINED_BYTES_PER_FLOW: i64 = 1800;

#[test]
fn allocations_per_flow_are_pinned() {
    // Storm totals over USERS flows, byte-stable run to run. A change that
    // moves one must update it here and say why in CHANGES.md; a rise
    // needs a reason. Per flow: warm 101.7, cold 169.4, tracing off 94.3.
    let per_flow = |total: u64| total as f64 / USERS as f64;
    let warm = storm_usage(true, true);
    assert!(
        warm.allocs <= WARM_BUDGET_PER_FLOW * USERS,
        "warm storm: {:.1} allocations per flow, over the budget of {WARM_BUDGET_PER_FLOW}",
        per_flow(warm.allocs)
    );
    assert_eq!(
        warm.allocs,
        3254,
        "warm storm ({:.1} per flow)",
        per_flow(warm.allocs)
    );
    // Cold (verification caches off): the relying service decodes and
    // verifies the token instead of hitting the seeded cache entry.
    let cold = storm_usage(false, true);
    assert_eq!(
        cold.allocs,
        5422,
        "cold storm ({:.1} per flow)",
        per_flow(cold.allocs)
    );
    // Tracing off: the seven spans and their attributes are not recorded.
    let untraced = storm_usage(true, false);
    assert_eq!(
        untraced.allocs,
        3018,
        "untraced storm ({:.1} per flow)",
        per_flow(untraced.allocs)
    );

    // The cost of tracing a warm flow: 7.4 allocations (the frame's
    // buffers are reused and a flush appends to a shard log; this read
    // 5.6 while the AEAD's MAC-buffer copies reallocated more often on
    // the untraced flows' frames, which lack the traceparent header) and about
    // 1600 retained bytes (seven 56-byte span rows, the attribute rows and
    // text, and the logs' growth slack).
    let traced_allocs = warm.allocs - untraced.allocs;
    assert!(
        traced_allocs <= TRACING_ALLOCS_PER_FLOW * USERS,
        "tracing adds {:.1} allocations per warm flow, over {TRACING_ALLOCS_PER_FLOW}",
        per_flow(traced_allocs)
    );
    let retained = warm.live_bytes - untraced.live_bytes;
    assert!(
        retained <= TRACING_RETAINED_BYTES_PER_FLOW * USERS as i64,
        "tracing retains {:.1} bytes per flow, over {TRACING_RETAINED_BYTES_PER_FLOW}",
        retained as f64 / USERS as f64
    );

    // A disarmed fault plane costs a flow nothing: an installed plan
    // with no windows, and one whose windows cover the storm but is
    // switched off, each allocate exactly what no plan does. This is the
    // deterministic side of chaos_day's wall-clock guard (<= 2 %), which
    // runs only on 4 or more cores. The reference storm runs here, not
    // first, since the first storm on a thread also grows its reusable
    // trace buffers.
    let unplanned = storm_usage(true, true).allocs;
    let covering = FaultPlan::new(9)
        .outage("broker", 0, u64::MAX)
        .flaky("edge", 500, 0, u64::MAX)
        .latency("slurm", 2, 0, u64::MAX);
    for (label, plan, armed) in [
        ("windowless plan", FaultPlan::new(9), true),
        ("disarmed covering plan", covering, false),
    ] {
        let (infra, users) = storm_infra(true, true);
        infra.install_fault_plan(plan).set_enabled(armed);
        let usage = serial_storm_usage(&infra, &users);
        assert_eq!(usage.allocs, unplanned, "warm storm under a {label}");
    }

    // One federated login plus story 4 (SSH through CA and bastion). Its
    // count has moved by about ten between repetitions, so it gets a
    // ceiling a little above the 545 measured when it was last set.
    let (infra, users) = storm_infra(true, true);
    let (label, project) = &users[1];
    let ssh = counted(|| {
        infra.federated_login(label).expect("federated login");
        infra
            .story4_ssh_connect(label.as_str(), project)
            .expect("story 4");
    });
    assert!(
        ssh.allocs <= 570,
        "federated login + story 4: {} allocations",
        ssh.allocs
    );
}
