//! Experiment E7 — paper Figure 1: auditor's loss on Rea A (EMR access
//! alerts) across budgets 10..=100 for the proposed model (ε ∈
//! {0.1, 0.2, 0.3}) and the three baselines.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_fig1 [budgets] [samples] [repeats] [threads] [--scenario <key>]
//! ```
//!
//! `samples` overrides the Monte-Carlo sample count, `repeats` the
//! random-threshold baseline repetitions, `threads` how many budgets are
//! swept at once, each on one engine thread (default: the host's available
//! cores; the width never changes the numbers), and `--scenario` swaps the
//! base game (default `emr-reaa`, the laptop-scale Rea A configuration —
//! fewer simulated people, identical statistical structure, since the
//! full-scale world only changes simulation time, not the game).

use audit_bench::cli::{host_cores, parse_count, parse_list, refuse_unread, take_scenario_flag};
use audit_bench::defaults::{FIG_EPSILONS, RANDOM_THRESHOLD_REPEATS, REAL_SAMPLES, SEED};
use audit_bench::real_experiments::{budget_sweep, render_figure, SweepConfig};
use audit_bench::scenarios::resolve_base_spec;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    refuse_unread(&args, 4);
    let budgets = parse_list(
        args.first().cloned(),
        &audit_bench::defaults::fig1_budgets(),
    );
    let samples = parse_count(args.get(1).cloned(), REAL_SAMPLES);
    let repeats = parse_count(args.get(2).cloned(), RANDOM_THRESHOLD_REPEATS);
    let threads = parse_count(args.get(3).cloned(), host_cores());

    eprintln!("Figure 1 reproduction (Rea A budget sweep with baselines)");
    let t0 = std::time::Instant::now();
    let (_, spec) = resolve_base_spec(scenario, "emr-reaa", SEED);
    eprintln!(
        "per-type count-model means: {:?}",
        spec.distributions
            .iter()
            .map(|d| (d.mean() * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let sweep = SweepConfig {
        epsilons: FIG_EPSILONS.to_vec(),
        n_samples: samples,
        seed: SEED,
        random_threshold_repeats: repeats,
        threads,
    };
    let data = budget_sweep(&spec, &budgets, &sweep).expect("sweep solves");
    println!("{}", render_figure(&data));
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
