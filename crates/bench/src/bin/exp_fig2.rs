//! Experiment E8 — paper Figure 2: auditor's loss on Rea B (credit-card
//! applications) across budgets 10..=250 for the proposed model and the
//! three baselines.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_fig2 [budgets] [samples] [repeats] [threads] [--scenario <key>]
//! ```
//!
//! The arguments mean what they mean for `exp_fig1`; `--scenario`
//! defaults to `credit-reab`.

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
        &audit_bench::defaults::fig2_budgets(),
    );
    let samples = parse_count(args.get(1).cloned(), REAL_SAMPLES);
    let repeats = parse_count(args.get(2).cloned(), RANDOM_THRESHOLD_REPEATS);
    let threads = parse_count(args.get(3).cloned(), host_cores());

    eprintln!("Figure 2 reproduction (Rea B budget sweep with baselines)");
    let t0 = std::time::Instant::now();
    let (_, spec) = resolve_base_spec(scenario, "credit-reab", SEED);
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
