//! The repository benchmark. See README.md for the workloads, the metrics
//! and what each layer metric is predicted to move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <notebook_storm|ssh_login_mix|revocation_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output check passed and no step failed.

mod layers;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use dri_core::InfraConfig;
use dri_crypto::json::Value;

use layers::{layer_costs, ledger_terms, self_time_by_stage, Counters, STAGE_LAYERS};
use stats::{median, peak_rss_mb, Rng};
use workloads::{
    run_phase, workload_rng, Round, Shape, Slice, Tally, Workload, ALL_WORKLOADS, SLICE_FLOWS,
};

/// Rounds a run makes at least, whatever `--seconds` says, so set-up time
/// and the per-round figures have a median.
const MIN_ROUNDS: usize = 3;
/// Measured passes of the serial counts section.
const COUNT_PASSES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A run's verdict and metrics, as printed on the last line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        for e in &tally.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(msg);
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("{name} {value:.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Warm a fresh round with one pass whose latencies are not kept; its
/// outcomes still count.
fn warm_up(round: &Round, w: Workload, shape: &Shape, rng: &mut Rng, report: &mut Report) {
    let warm = run_phase(round, w, shape, 1, false, rng);
    report.absorb(&warm.tally);
}

/// `--trace 0`: rounds of set-up, warm-up and a fixed measured phase,
/// repeated for `seconds`; set-up time is the median over rounds, flow
/// figures the median over 1024-flow slices.
fn end_to_end(w: Workload, args: &Args, shape: &Shape) -> Report {
    let mut rng = workload_rng(w, args.seed);
    let mut report = Report::default();
    let (mut setup, mut slices, mut peak_mb) = (vec![], vec![], 0.0);
    let (mut flows, mut revoke_us) = (0u64, vec![]);
    let start = Instant::now();
    let mut last_round_s = 0.0;
    while setup.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_round_s <= args.seconds {
        let t_round = Instant::now();
        let round = match Round::new(InfraConfig::default(), shape, &mut rng) {
            Ok(r) => r,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        warm_up(&round, w, shape, &mut rng, &mut report);
        let m = run_phase(&round, w, shape, shape.passes, true, &mut rng);
        setup.push(round.setup_s);
        if setup.len() == 1 {
            // Rounds are fixed-size and each drops its infrastructure;
            // later rounds only add allocator fragmentation.
            peak_mb = peak_rss_mb();
        }
        let round_slices = m.slices();
        eprintln!(
            "round {}: setup {:.3} s, {:.0} flows/s, slice p50 {:.1} us, slice p95 {:.1}..{:.1} us, {} kills",
            setup.len(),
            round.setup_s,
            m.flows_per_s(),
            median(&round_slices.iter().map(|s| s.p50_us).collect::<Vec<_>>()),
            round_slices.iter().map(|s| s.p95_us).fold(f64::INFINITY, f64::min),
            round_slices.iter().map(|s| s.p95_us).fold(0.0, f64::max),
            m.tally.revoke_us.len(),
        );
        slices.extend(round_slices);
        flows += m.tally.flows();
        revoke_us.extend_from_slice(&m.tally.revoke_us);
        report.absorb(&m.tally);
        drop(round);
        last_round_s = t_round.elapsed().as_secs_f64();
    }
    if setup.is_empty() {
        return report;
    }
    println!(
        "workload {} seed {} cores {} clients {} users {} rounds {} flows/round {}",
        w.name(),
        args.seed,
        cores(),
        shape.clients,
        shape.users(),
        setup.len(),
        shape.users() * shape.passes,
    );
    println!(
        "samples: {flows} flows in {} slices of {SLICE_FLOWS}; flow figures are \
         medians over slices, setup_s over rounds",
        slices.len(),
    );
    let over_slices = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(&setup), "s");
    report.metric("flows_per_s", over_slices(|s| s.flows_per_s), "1/s");
    report.metric("flow_p50_us", over_slices(|s| s.p50_us), "us");
    report.metric("flow_p95_us", over_slices(|s| s.p95_us), "us");
    report.metric("peak_rss_mb", peak_mb, "MiB");
    // Printed, not gated: on a shared host, stolen CPU time and cache
    // contention move these by more than any usable bound (README.md).
    println!(
        "flow_p99_us {:.4} us (median over slices; not gated)",
        over_slices(|s| s.p99_us)
    );
    if !revoke_us.is_empty() {
        println!(
            "revoke_p50_us {:.4} us (median of {} kill_user calls; not gated)",
            median(&revoke_us),
            revoke_us.len()
        );
    }
    println!(
        "failed_frac {:.6} ({} of {} steps)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    report
}

/// The deterministic counts section: one client, traced, a fixed number
/// of passes at `seed`. Integer totals that repeat byte for byte.
fn counts_section(w: Workload, shape: &Shape, seed: u64, report: &mut Report) -> String {
    let serial = Shape {
        clients: 1,
        passes: COUNT_PASSES,
        ..*shape
    };
    let mut rng = workload_rng(w, seed);
    let round = match Round::new(InfraConfig::default(), &serial, &mut rng) {
        Ok(r) => r,
        Err(e) => {
            report.fail(e);
            return String::new();
        }
    };
    warm_up(&round, w, &serial, &mut rng, report);
    let before = Counters::read(&round.infra);
    let m = run_phase(&round, w, &serial, serial.passes, true, &mut rng);
    report.absorb(&m.tally);
    let delta = Counters::read(&round.infra).since(&before);
    format!(
        "counts workload={} seed={seed} users={} {}",
        w.name(),
        serial.users(),
        delta.counts_line(m.tally.flows())
    )
}

/// `--trace 1`: the counts section, then alternating untraced and traced
/// rounds for `seconds`, then per-call costs and the ledger.
fn per_layer(w: Workload, args: &Args, shape: &Shape) -> Report {
    let mut report = Report::default();
    let counts = counts_section(w, shape, args.seed, &mut report);
    println!("{counts}");

    let mut rng = workload_rng(w, args.seed ^ 0x7472_6163_6564);
    let untraced_cfg = InfraConfig::builder()
        .tracing(false)
        .build()
        .expect("tracing(false) is a valid config");
    let (mut fps_off, mut fps_on) = (vec![], vec![]);
    let mut counters = Counters::default();
    let mut self_us = [0.0; dri_trace::STAGE_COUNT];
    let (mut ops, mut busy_ns) = (0u64, 0.0f64);
    let mut kept: Option<Round> = None;
    let start = Instant::now();
    let mut last_pair_s = 0.0;
    while fps_on.len() < 2 || start.elapsed().as_secs_f64() + last_pair_s <= args.seconds {
        let t_pair = Instant::now();
        for traced in [false, true] {
            let cfg = if traced {
                InfraConfig::default()
            } else {
                untraced_cfg.clone()
            };
            let round = match Round::new(cfg, shape, &mut rng) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    return report;
                }
            };
            warm_up(&round, w, shape, &mut rng, &mut report);
            round.infra.tracer.clear_spans();
            let before = Counters::read(&round.infra);
            let m = run_phase(&round, w, shape, shape.passes, true, &mut rng);
            report.absorb(&m.tally);
            if traced {
                counters.add(&Counters::read(&round.infra).since(&before));
                let spans = round.infra.tracer.all_spans();
                for (acc, v) in self_us.iter_mut().zip(self_time_by_stage(&spans)) {
                    *acc += v;
                }
                ops += m.tally.flows();
                busy_ns += m.wall_s * shape.clients as f64 * 1e9;
                fps_on.push(m.flows_per_s());
            } else {
                fps_off.push(m.flows_per_s());
                kept = Some(round);
            }
        }
        last_pair_s = t_pair.elapsed().as_secs_f64();
    }
    let costs = match kept.as_ref().map(|r| layer_costs(r, &mut rng)) {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            report.fail(format!("layer costs: {e}"));
            return report;
        }
        None => unreachable!("the loop runs at least one untraced round"),
    };
    drop(kept);

    let opsf = ops.max(1) as f64;
    let per = |n: u64| n as f64 / opsf;
    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    println!(
        "per-layer workload {} seed {} cores {} traced rounds {} flows {}",
        w.name(),
        args.seed,
        cores(),
        fps_on.len(),
        ops
    );
    for (stage, layer) in STAGE_LAYERS {
        report.metric(
            format!("{layer}.self_us"),
            self_us[stage as usize] / opsf,
            "us",
        );
    }
    report.metric("broker.tokens_per_flow", per(counters.tokens), "count/op");
    report.metric(
        "broker.token_cache_hit_ratio",
        ratio(counters.token_cache_hits, counters.token_cache_misses),
        "ratio",
    );
    report.metric(
        "broker.token_cache_epoch_busts",
        per(counters.token_cache_busts),
        "count/op",
    );
    report.metric(
        "policy.consults_per_flow",
        per(counters.pdp_consults),
        "count/op",
    );
    report.metric(
        "policy.memo_hit_ratio",
        ratio(counters.memo_hits, counters.memo_misses),
        "ratio",
    );
    report.metric(
        "policy.memo_epoch_busts",
        per(counters.memo_busts),
        "count/op",
    );
    report.metric(
        "siem.events_per_flow",
        per(counters.siem_events),
        "count/op",
    );
    report.metric(
        "siem.alerts",
        counters.siem_alerts as f64 / fps_on.len().max(1) as f64,
        "count/round",
    );
    report.metric("core.retries_per_flow", per(counters.retries), "count/op");
    report.metric("trace.spans_per_flow", per(counters.spans), "count/op");
    for (name, ns) in &costs {
        report.metric(*name, *ns, "ns");
    }
    report.metric(
        "trace.overhead_frac",
        1.0 - median(&fps_on) / median(&fps_off),
        "ratio",
    );

    let op_ns = busy_ns / opsf;
    let terms = ledger_terms(&counters, opsf, &costs);
    let explained: f64 = terms.iter().map(|t| t.per_op * t.ns).sum();
    println!(
        "ledger workload {} cores {} (per flow, traced rounds)",
        w.name(),
        cores()
    );
    println!(
        "  {:<32} {:>10} {:>12} {:>12}",
        "call", "calls/op", "ns/call", "ns/op"
    );
    for t in &terms {
        println!(
            "  {:<32} {:>10.3} {:>12.0} {:>12.0}",
            t.call,
            t.per_op,
            t.ns,
            t.per_op * t.ns
        );
    }
    println!(
        "  {:<32} {:>10} {:>12} {:>12.0}",
        "explained", "", "", explained
    );
    println!(
        "  {:<32} {:>10} {:>12} {:>12.0}",
        "measured (busy time per flow)", "", "", op_ns
    );
    report.metric("ledger.unexplained_frac", 1.0 - explained / op_ns, "ratio");
    report
}

/// `--workload all`: each workload in its own process (so the memory
/// high-water mark belongs to it); one combined JSON line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in ALL_WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().and_then(|l| Value::parse(l).ok());
        let Some(result) = last else {
            eprintln!("{}: no result line", w.name());
            return ExitCode::from(2);
        };
        correct &=
            out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Obj(m)) = result.get("metrics") {
            for (name, v) in m {
                metrics.push(format!("\"{}.{name}\": {}", w.name(), v.to_json()));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let shape = Shape::standard(w);
    let report = if args.trace {
        per_layer(w, &args, &shape)
    } else {
        end_to_end(w, &args, &shape)
    };
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_cluster::jupyter::{JupyterError, NotebookSession};
    use workloads::check_refused;

    /// 16 users; 64 passes give each client enough flows for the churn
    /// cadences (kills, a forged-token burst, a key rotation).
    fn tiny() -> Shape {
        Shape {
            projects: 4,
            researchers_per: 3,
            clients: 2,
            passes: 64,
        }
    }

    fn args(w: Workload, trace: bool) -> Args {
        Args {
            workload: w.name().to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    /// `(name, unit)` of every metric a section of BENCHMARK.json declares.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let mut out: Vec<(String, String)> = doc
            .get(section)
            .and_then(Value::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect();
        out.sort();
        out
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn tiny_runs_emit_every_declared_metric_with_its_unit() {
        for w in ALL_WORKLOADS {
            let e2e = end_to_end(w, &args(w, false), &tiny());
            assert_eq!(e2e.failed, 0, "{}: {:?}", w.name(), e2e.errors);
            assert_eq!(emitted(&e2e), declared("end_to_end"), "{}", w.name());
            assert!(e2e.metrics.iter().all(|(_, v, _)| *v > 0.0), "{}", w.name());

            let layers = per_layer(w, &args(w, true), &tiny());
            assert_eq!(layers.failed, 0, "{}: {:?}", w.name(), layers.errors);
            assert_eq!(emitted(&layers), declared("per_layer"), "{}", w.name());
            let value = |name: &str| {
                layers
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .expect("metric")
                    .1
            };
            assert!(value("trace.spans_per_flow") > 0.0, "{}", w.name());
            assert!(value("broker.tokens_per_flow") > 0.0, "{}", w.name());
            let ssh = w == Workload::SshLoginMix;
            assert_eq!(value("sshca.self_us") > 0.0, ssh, "{}", w.name());
            if w == Workload::NotebookStorm {
                assert_eq!(value("federation.self_us"), 0.0);
            }
            if ssh {
                assert!(value("federation.self_us") > 0.0);
            }
        }
    }

    #[test]
    fn stale_allow_oracle_fails_on_a_stale_allow() {
        let stale = NotebookSession {
            id: "nb-1".into(),
            subject: "cuid-killed".into(),
            unix_account: "u0001".into(),
            project: "project-000".into(),
            job_id: "job-1".into(),
            token_id: "jti-1".into(),
            started_at_ms: 0,
        };
        assert!(check_refused("pre-kill token", Ok(stale)).is_err());
        assert!(check_refused("pre-kill token", Err(JupyterError::TokenRevoked)).is_ok());
    }

    #[test]
    fn counts_section_repeats_for_a_seed() {
        for w in ALL_WORKLOADS {
            let mut report = Report::default();
            let first = counts_section(w, &tiny(), 11, &mut report);
            let second = counts_section(w, &tiny(), 11, &mut report);
            assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.errors);
            assert!(first.contains("ops="), "{first}");
            assert_eq!(first, second, "{}", w.name());
        }
    }
}
