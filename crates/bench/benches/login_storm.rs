//! Login-storm benchmark for the verification cache layer.
//!
//! The zero-trust hot path re-verifies an Ed25519 token signature and
//! re-runs the trust algorithm on every request. This bench measures the
//! amortized path — sign-time-seeded verified-token cache, PDP decision
//! memo, and cached key decompression — against the cold baseline
//! (`verification_cache(false)`), serial and over 8 workers.
//!
//! Shape to hold: the warm parallel storm clears 2× the cold parallel
//! storm at N ≥ 256 (enforced only when the host has ≥ 4 cores), and the
//! same seed yields byte-identical chrome traces serial vs parallel and
//! cache on vs off.
//!
//! `print_report()` also writes `BENCH_login_storm.json` at the repo
//! root. The `deterministic` section (sim-step percentiles, cache
//! counters from a serial run, trace-equality verdicts) is byte-stable
//! across runs and hosts; the `wall_clock` section is measured and
//! varies.

use std::path::Path;

use criterion::{BatchSize, BenchmarkId, Criterion, Throughput};
use dri_core::{InfraConfig, Infrastructure};
use dri_crypto::json::Value;
use dri_trace::chrome_trace;
use dri_workload::{build_population, run_storm, StormMode};

fn storm_users(infra: &Infrastructure, n: usize) -> Vec<(String, String)> {
    let projects = n.div_ceil(8);
    let mut users = build_population(infra, projects, 7)
        .expect("population")
        .members();
    users.truncate(n);
    users
}

fn storm_config(warm: bool) -> InfraConfig {
    InfraConfig::builder()
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .verification_cache(warm)
        .build()
        .expect("bench config is valid")
}

/// One storm against a fresh infrastructure; returns
/// (flows/s, p50 µs, p99 µs) plus the infra for counter and trace
/// inspection.
fn storm_run(n: usize, mode: StormMode, warm: bool) -> (f64, u64, u64, Infrastructure) {
    let infra = Infrastructure::new(storm_config(warm));
    let users = storm_users(&infra, n);
    let result = run_storm(&infra, &users, mode);
    assert_eq!(result.completed, n, "failures: {:?}", result.failures);
    (
        result.throughput(),
        result.latency_quantile(0.50),
        result.latency_quantile(0.99),
        infra,
    )
}

/// Best-of-`k` throughput to damp scheduler noise.
fn best_throughput(k: usize, n: usize, mode: StormMode, warm: bool) -> f64 {
    (0..k)
        .map(|_| storm_run(n, mode, warm).0)
        .fold(0.0f64, f64::max)
}

fn print_report() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== login storm: verification cache cold vs warm ==");
    println!("cold = verification_cache(false): every request pays full Ed25519");
    println!("       verification + a fresh trust-algorithm evaluation");
    println!("warm = default: sign-time-seeded token cache + PDP memo, 8 workers");
    println!("host: {cores} core(s)");
    if cores < 4 {
        println!(
            "NOTE: <4 cores — the >=2x warm-vs-cold gate needs real \
             parallelism and is reported but not enforced here"
        );
    }
    println!();
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "users", "mode", "cold f/s", "warm f/s", "warm p50µs", "warm p99µs", "speedup"
    );
    let mut speedup_256_parallel = 0.0f64;
    for n in [45usize, 128, 256] {
        for (label, mode) in [
            ("serial", StormMode::Serial),
            ("par(8)", StormMode::Parallel(8)),
        ] {
            let cold_fps = best_throughput(3, n, mode, false);
            let (_, p50, p99, _) = storm_run(n, mode, true);
            let warm_fps = best_throughput(3, n, mode, true);
            let speedup = warm_fps / cold_fps.max(f64::MIN_POSITIVE);
            println!(
                "{:>6} {:>8} {:>12.0} {:>12.0} {:>12} {:>12} {:>7.2}x",
                n, label, cold_fps, warm_fps, p50, p99, speedup
            );
            if n == 256 && matches!(mode, StormMode::Parallel(_)) {
                speedup_256_parallel = speedup;
                if cores >= 4 {
                    assert!(
                        speedup >= 2.0,
                        "warm parallel storm must clear 2x the cold baseline at N={n} \
                         (got {speedup:.2}x: cold {cold_fps:.0} f/s, warm {warm_fps:.0} f/s)"
                    );
                }
            }
        }
    }

    // Cache effectiveness: counters from a serial warm run (a parallel
    // run counts the same: racing first misses count one miss per key).
    let (_, _, _, warm_infra) = storm_run(45, StormMode::Serial, true);
    let m = warm_infra.metrics();
    println!("\n-- cache counters, N=45 serial warm storm --");
    println!(
        "token cache: {} hits / {} misses / {} epoch busts",
        m.token_cache_hits, m.token_cache_misses, m.token_cache_epoch_busts
    );
    println!(
        "pdp memo:    {} hits / {} misses / {} epoch busts",
        m.pdp_memo_hits, m.pdp_memo_misses, m.pdp_memo_epoch_busts
    );
    assert!(
        m.token_cache_hits > 0,
        "sign-time seeding must turn storm validations into hits"
    );
    assert!(
        m.pdp_memo_hits > 0,
        "storm flows must share memoized decisions"
    );

    // Where does a warm flow spend its time?
    println!("\n-- per-stage latency attribution, N=45 warm storm --");
    println!(
        "{:>10} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "stage", "spans", "p50(steps)", "p99(steps)", "p50(µs)", "p99(µs)"
    );
    for s in warm_infra.tracer.stage_summaries() {
        println!(
            "{:>10} {:>8} {:>11} {:>11} {:>10} {:>10}",
            s.stage.as_str(),
            s.steps.count,
            s.steps.p50,
            s.steps.p99,
            s.wall_us.p50,
            s.wall_us.p99
        );
    }

    // Determinism: the same seed must yield byte-identical chrome traces
    // serial vs parallel and cache on vs off (cache observations ride in
    // reserved `cache.` attrs that the exporter excludes).
    let serial_warm = chrome_trace(&warm_infra.tracer.all_spans());
    let (_, _, _, par_infra) = storm_run(45, StormMode::Parallel(8), true);
    let parallel_warm = chrome_trace(&par_infra.tracer.all_spans());
    let (_, _, _, cold_infra) = storm_run(45, StormMode::Serial, false);
    let serial_cold = chrome_trace(&cold_infra.tracer.all_spans());
    let serial_vs_parallel = serial_warm == parallel_warm;
    let warm_vs_cold = serial_warm == serial_cold;
    println!("\n-- trace determinism, N=45 --");
    println!("serial == parallel(8): {serial_vs_parallel}");
    println!("cache on == cache off: {warm_vs_cold}");
    assert!(
        serial_vs_parallel,
        "storm traces must not depend on interleaving"
    );
    assert!(
        warm_vs_cold,
        "the cache must be invisible to the trace timeline"
    );

    // Persist the report (committed at the repo root).
    let stage_steps: Vec<Value> = warm_infra
        .tracer
        .stage_summaries()
        .into_iter()
        .map(|s| {
            Value::obj([
                ("stage", Value::s(s.stage.as_str())),
                ("spans", Value::u(s.steps.count)),
                ("p50_steps", Value::u(s.steps.p50)),
                ("p99_steps", Value::u(s.steps.p99)),
            ])
        })
        .collect();
    let wall = |n: usize, mode: StormMode, warm: bool| {
        let (fps, p50, p99, _) = storm_run(n, mode, warm);
        Value::obj([
            ("flows_per_sec", Value::u(fps.round() as u64)),
            ("p50_us", Value::u(p50)),
            ("p99_us", Value::u(p99)),
        ])
    };
    let report = Value::obj([
        ("bench", Value::s("login_storm")),
        (
            "deterministic",
            Value::obj([
                ("flows", Value::u(45)),
                ("stage_steps", Value::Arr(stage_steps)),
                (
                    "cache_serial_n45",
                    Value::obj([
                        ("token_hits", Value::u(m.token_cache_hits)),
                        ("token_misses", Value::u(m.token_cache_misses)),
                        ("token_epoch_busts", Value::u(m.token_cache_epoch_busts)),
                        ("pdp_memo_hits", Value::u(m.pdp_memo_hits)),
                        ("pdp_memo_misses", Value::u(m.pdp_memo_misses)),
                        ("pdp_memo_epoch_busts", Value::u(m.pdp_memo_epoch_busts)),
                    ]),
                ),
                (
                    "trace_identical_serial_vs_parallel",
                    Value::Bool(serial_vs_parallel),
                ),
                ("trace_identical_cache_on_vs_off", Value::Bool(warm_vs_cold)),
            ]),
        ),
        (
            "wall_clock",
            Value::obj([
                ("cores", Value::u(cores as u64)),
                ("cold_serial_n256", wall(256, StormMode::Serial, false)),
                (
                    "cold_parallel8_n256",
                    wall(256, StormMode::Parallel(8), false),
                ),
                ("warm_serial_n256", wall(256, StormMode::Serial, true)),
                (
                    "warm_parallel8_n256",
                    wall(256, StormMode::Parallel(8), true),
                ),
                (
                    "warm_over_cold_parallel_n256",
                    Value::s(format!("{speedup_256_parallel:.2}")),
                ),
                ("gate_enforced", Value::Bool(cores >= 4)),
            ]),
        ),
    ]);
    // `BENCH_LOGIN_STORM_JSON=0` runs the gates without refreshing the
    // committed report (used by scripts/check.sh to keep the tree clean).
    if std::env::var("BENCH_LOGIN_STORM_JSON").as_deref() != Ok("0") {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_login_storm.json");
        let mut body = report.to_json();
        body.push('\n');
        std::fs::write(&path, body).expect("write BENCH_login_storm.json");
        println!("\nwrote {}", path.display());
    }
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("login_storm");
    group.sample_size(10);
    for n in [45usize, 128] {
        group.throughput(Throughput::Elements(n as u64));
        for (label, warm) in [("cold", false), ("warm", true)] {
            group.bench_with_input(
                BenchmarkId::new(&format!("{label}_parallel"), n),
                &n,
                |b, &n| {
                    b.iter_batched(
                        || {
                            let infra = Infrastructure::new(storm_config(warm));
                            let users = storm_users(&infra, n);
                            (infra, users)
                        },
                        |(infra, users)| {
                            let r = run_storm(&infra, &users, StormMode::Parallel(8));
                            assert_eq!(r.completed, n);
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("{label}_serial"), n),
                &n,
                |b, &n| {
                    b.iter_batched(
                        || {
                            let infra = Infrastructure::new(storm_config(warm));
                            let users = storm_users(&infra, n);
                            (infra, users)
                        },
                        |(infra, users)| {
                            let r = run_storm(&infra, &users, StormMode::Serial);
                            assert_eq!(r.completed, n);
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    group.finish();
}

fn main() {
    print_report();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
