//! Shared experiment parameters: the paper's grids plus reproducible seeds.

/// Budget grid of Tables III–VII (Section IV.B).
pub const SYN_BUDGETS: [f64; 10] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0];

/// Step-size grid of Tables IV–VI.
pub const SYN_EPSILONS: [f64; 10] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50];

/// Step-size subset reported in Table VII.
pub const SYN_EPSILONS_T7: [f64; 5] = [0.10, 0.20, 0.30, 0.40, 0.50];

/// Budget grid of Figure 1 (Rea A): 10..=100 step 10.
pub fn fig1_budgets() -> Vec<f64> {
    (1..=10).map(|i| (i * 10) as f64).collect()
}

/// Budget grid of Figure 2 (Rea B): 10..=250 step 20.
pub fn fig2_budgets() -> Vec<f64> {
    (0..=12).map(|i| (10 + i * 20) as f64).collect()
}

/// ISHM step sizes plotted in Figures 1–2.
pub const FIG_EPSILONS: [f64; 3] = [0.1, 0.2, 0.3];

/// Monte-Carlo sample count for `Pal` estimation in the Syn A experiments.
pub const SYN_SAMPLES: usize = 1000;

/// Monte-Carlo sample count for the (larger) real-data experiments.
pub const REAL_SAMPLES: usize = 400;

/// Master seed for all experiment randomness.
pub const SEED: u64 = 20180422; // the paper's arXiv date

/// Random-order baseline: sampled orders (paper: 2000).
pub const RANDOM_ORDER_SAMPLES: usize = 2000;

/// Random-threshold baseline repetitions (paper: 5000; we default lower —
/// each repetition is a full CGGS solve — and report the count used).
pub const RANDOM_THRESHOLD_REPEATS: usize = 120;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_count;

    #[test]
    fn grids_match_paper() {
        assert_eq!(SYN_BUDGETS.len(), 10);
        assert_eq!(SYN_EPSILONS.len(), 10);
        assert_eq!(
            fig1_budgets(),
            vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        );
        let f2 = fig2_budgets();
        assert_eq!(f2.first(), Some(&10.0));
        assert_eq!(f2.last(), Some(&250.0));
        assert_eq!(f2.len(), 13);
    }

    #[test]
    fn parse_count_prefers_argument() {
        assert_eq!(parse_count(Some("7".into()), 3), 7);
        assert_eq!(parse_count(None, 3), 3);
    }

    #[test]
    #[should_panic]
    fn parse_count_rejects_zero() {
        parse_count(Some("0".into()), 1);
    }
}
