//! The experiment runners split their independent solves across a
//! parallel map and reassemble them by index, so their results must not
//! depend on the map's width. Each runner is run at widths 1 and 3 on a
//! grid with more budgets than one worker takes, and every number is
//! compared bit for bit: a cell put back in the wrong row or column, or
//! counters absorbed in another order, fails here.

use audit_bench::real_experiments::{budget_sweep, SweepConfig};
use audit_bench::syn_experiments::{ishm_grid, table3, Grid, GridCell, OptimalRow};
use audit_game::datasets::{random_game, syn_a, RandomGameConfig};
use audit_game::solver::InnerKind;

const WIDTHS: [usize; 2] = [1, 3];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn cell_key(c: &GridCell) -> (u64, u64, u64, Vec<u64>, usize) {
    (
        c.budget.to_bits(),
        c.epsilon.to_bits(),
        c.value.to_bits(),
        bits(&c.thresholds),
        c.explored,
    )
}

fn row_key(r: &OptimalRow) -> (u64, u64, Vec<u64>, Vec<String>, Vec<u64>, usize, u128) {
    (
        r.budget.to_bits(),
        r.value.to_bits(),
        bits(&r.thresholds),
        r.orders.iter().map(|o| o.to_string()).collect(),
        bits(&r.probs),
        r.explored,
        r.space_size,
    )
}

#[test]
fn ishm_grid_is_width_invariant_for_both_inner_solvers() {
    for inner in [InnerKind::Exact, InnerKind::Cggs] {
        let runs: Vec<_> = WIDTHS
            .iter()
            .map(|&threads| {
                let grid = Grid {
                    base: syn_a(),
                    budgets: vec![2.0, 6.0, 10.0, 14.0],
                    epsilons: vec![0.2, 0.5],
                    n_samples: 40,
                    seed: 7,
                    threads,
                };
                ishm_grid(&grid, inner).unwrap()
            })
            .collect();
        let (base_cells, base_stats) = &runs[0];
        assert_eq!(base_cells.len(), 4);
        for (row, &b) in base_cells.iter().zip(&[2.0, 6.0, 10.0, 14.0]) {
            let axes: Vec<(f64, f64)> = row.iter().map(|c| (c.budget, c.epsilon)).collect();
            assert_eq!(axes, vec![(b, 0.2), (b, 0.5)], "{inner:?}: row-major order");
        }
        for (cells, stats) in &runs[1..] {
            let keys = |g: &Vec<Vec<GridCell>>| -> Vec<Vec<_>> {
                g.iter().map(|r| r.iter().map(cell_key).collect()).collect()
            };
            assert_eq!(keys(base_cells), keys(cells), "{inner:?}: cells");
            assert_eq!(base_stats, stats, "{inner:?}: cache stats");
        }
    }
}

#[test]
fn table3_is_width_invariant() {
    let cfg = RandomGameConfig {
        n_types: 3,
        ..Default::default()
    };
    let base = random_game(&cfg, 5);
    let runs: Vec<Vec<_>> = WIDTHS
        .iter()
        .map(|&threads| {
            table3(&base, &[1.0, 3.0, 5.0, 7.0], 40, 7, threads)
                .unwrap()
                .iter()
                .map(row_key)
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    let budgets: Vec<u64> = runs[0].iter().map(|r| r.0).collect();
    assert_eq!(budgets, bits(&[1.0, 3.0, 5.0, 7.0]));
}

#[test]
fn budget_sweep_is_width_invariant() {
    let cfg = RandomGameConfig {
        allow_opt_out: true,
        ..Default::default()
    };
    let spec = random_game(&cfg, 2);
    let budgets = [2.0, 4.0, 6.0, 8.0];
    let runs: Vec<_> = WIDTHS
        .iter()
        .map(|&threads| {
            let sweep = SweepConfig {
                epsilons: vec![0.2, 0.4],
                n_samples: 60,
                random_threshold_repeats: 8,
                threads,
                ..Default::default()
            };
            budget_sweep(&spec, &budgets, &sweep).unwrap()
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(bits(&a.budgets), bits(&b.budgets));
    assert_eq!(bits(&a.epsilons), bits(&b.epsilons));
    assert_eq!(a.proposed.len(), 2);
    for (x, y) in a.proposed.iter().zip(&b.proposed) {
        assert_eq!(bits(x), bits(y), "proposed series");
    }
    assert_eq!(bits(&a.random_orders), bits(&b.random_orders));
    assert_eq!(bits(&a.random_thresholds), bits(&b.random_thresholds));
    assert_eq!(bits(&a.greedy_benefit), bits(&b.greedy_benefit));
}
