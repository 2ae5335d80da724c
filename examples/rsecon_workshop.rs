//! The RSECon24 workshop scenario (E9): 45 trainees log in and run
//! notebooks simultaneously, then the scale is swept upward.
//!
//! ```sh
//! cargo run --release --example rsecon_workshop
//! ```

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::workload::{build_population, run_storm, StormMode};

fn storm_users(infra: &Infrastructure, projects: usize, per: usize) -> Vec<(String, String)> {
    build_population(infra, projects, per)
        .expect("population")
        .members()
}

fn main() {
    println!("== RSECon24 workshop reproduction (user story 6 at scale) ==\n");

    // The historical run: 45 trainees (9 projects x 5 people).
    {
        let infra = Infrastructure::new(InfraConfig::default());
        let users = storm_users(&infra, 9, 4);
        assert_eq!(users.len(), 45);
        let result = run_storm(&infra, &users, StormMode::Parallel(8));
        println!(
            "45 trainees: {}/{} notebooks up, 0 authz errors = {}, \
             p50 {} µs, p99 {} µs, {:.0} flows/s",
            result.completed,
            result.attempted,
            result.failures.is_empty(),
            result.latency_quantile(0.50),
            result.latency_quantile(0.99),
            result.throughput()
        );
        assert_eq!(result.completed, 45, "{:?}", result.failures);
    }

    // The sweep: how far past 45 does the design hold?
    println!(
        "\n{:>6} {:>9} {:>10} {:>10} {:>12}",
        "users", "completed", "p50(µs)", "p99(µs)", "flows/s"
    );
    for n in [8usize, 16, 32, 45, 64, 128, 256] {
        let cfg = InfraConfig::builder()
            .jupyter_capacity(1024)
            .interactive_nodes(1024)
            .build()
            .expect("workshop config is valid");
        let infra = Infrastructure::new(cfg);
        // projects of 8 (1 PI + 7 researchers)
        let projects = n.div_ceil(8);
        let users: Vec<_> = storm_users(&infra, projects, 7)
            .into_iter()
            .take(n)
            .collect();
        let result = run_storm(&infra, &users, StormMode::Parallel(8));
        println!(
            "{:>6} {:>9} {:>10} {:>10} {:>12.0}",
            n,
            result.completed,
            result.latency_quantile(0.50),
            result.latency_quantile(0.99),
            result.throughput()
        );
    }

    println!("\nEvery flow does the same protocol steps regardless of load;");
    println!("latency grows only with lock contention, not with queueing in the design.");
}
