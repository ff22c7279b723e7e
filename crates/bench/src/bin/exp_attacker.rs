//! Experiment E11 — strategic attacker models beyond full rationality.
//!
//! Sweeps the quantal-response rationality parameter λ and reports, at
//! each λ, the ISHM-solved QR policy's loss next to the rational
//! best-response loss at the same thresholds (the "price of assuming
//! rationality"). Then solves the general-sum damage objective and
//! compares, under the scenario's damage model, the damage of the
//! damage-optimal policy with the damage of the zero-sum ISHM optimum.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_attacker \
//!     [--scenario <key>] [--samples <n>]
//! ```
//!
//! Both analyses enumerate the full `|T|!` order set, so the scenario's
//! game must have at most 5 alert types (the registry's conformance gate).

use audit_bench::cli::{parse_count, refuse_unread, take_scenario_flag, take_value_flag};
use audit_bench::report::{f4, Table};
use audit_game::attacker::AttackerModel;
use audit_game::detection::{DetectionEstimator, DetectionModel};
use audit_game::ishm::{ExactEvaluator, Ishm, IshmConfig, ThresholdEvaluator};
use audit_game::ordering::AuditOrder;
use audit_game::payoff::PayoffMatrix;
use audit_game::quantal::{solve_qr_thresholds, QuantalResponse};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario_key = take_scenario_flag(&mut args).unwrap_or_else(|| "syn-quantal".into());
    let n_samples = parse_count(take_value_flag(&mut args, "--samples"), 120);
    refuse_unread(&args, 0);

    let reg = alert_audit::scenario::registry();
    let scenario = reg
        .resolve(&scenario_key)
        .unwrap_or_else(|e| panic!("{e}"))
        .clone();
    let seed = scenario.default_seed();
    let spec = scenario.build_small(seed).expect("scenario builds");
    assert!(
        spec.n_types() <= 5,
        "{}: {} alert types — exact order enumeration needs at most 5",
        scenario.key(),
        spec.n_types()
    );
    eprintln!(
        "attacker models on scenario {}: {} ({} types, declared model: {})",
        scenario.key(),
        scenario.describe(),
        spec.n_types(),
        scenario.attacker_model().describe()
    );

    let bank = spec.sample_bank(n_samples, seed);
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
    let orders = AuditOrder::enumerate_all(spec.n_types());

    let mut table = Table::new(vec!["lambda", "qr loss", "rational loss", "delta"]);
    for lambda in [0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 16.0] {
        let out = solve_qr_thresholds(&spec, &est, QuantalResponse::new(lambda), 0.3)
            .expect("QR search solves");
        let matrix = PayoffMatrix::build(&spec, &est, orders.clone(), &out.thresholds);
        let rational = matrix.loss_under_mixture(&spec, &out.rational.p_orders);
        table.row(vec![
            format!("{lambda:.1}"),
            f4(out.value),
            f4(rational),
            f4(rational - out.value),
        ]);
    }
    println!("{}", table.render());

    // Both searches run at the same ε and are scored by one damage
    // evaluator, whose memo already holds the damage-optimal point.
    let model = scenario.attacker_model().damage_model();
    let ishm = Ishm::new(IshmConfig {
        epsilon: 0.3,
        ..Default::default()
    });
    let mut damage = ExactEvaluator::against(&spec, est, AttackerModel::GeneralSum(model));
    let damage_opt = ishm
        .solve(&spec, &mut damage)
        .expect("general-sum search solves");
    let zero_sum_opt = ishm
        .solve(&spec, &mut ExactEvaluator::new(&spec, est))
        .expect("zero-sum search solves");
    let mut damage_at = |thresholds: &[f64]| damage.evaluate(thresholds).expect("master solves");
    println!(
        "general-sum damage (R x {}, M x {}): damage-optimal {} vs zero-sum policy {}",
        f4(model.damage_per_reward),
        f4(model.recovery_per_penalty),
        f4(damage_at(&damage_opt.thresholds)),
        f4(damage_at(&zero_sum_opt.thresholds))
    );
}
