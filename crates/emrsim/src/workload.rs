//! Daily workload generation: alert-bearing accesses whose per-type counts
//! track Table VIII, benign bulk traffic, and same-day repeats.

use crate::world::Hospital;
use rand::seq::SliceRandom;
use rand::Rng;
use stochastics::normal::std_normal_quantile;
use stochastics::rng::stream_rng;
use tdmt::log::AuditLog;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Days to simulate (the paper observes 28 workdays).
    pub n_days: u32,
    /// Benign accesses per day. The real system sees ≈355k daily events;
    /// the default is scaled down 100× for tractability — benign volume
    /// does not enter the game model (only alert counts do), so the scale
    /// factor is cosmetic. Set higher to stress the TDMT pipeline.
    pub benign_per_day: usize,
    /// Fraction of *additional* duplicated events (same-day repeats) to
    /// emit, exercising the dedup filter (VUMC logs: 79.5% repeats).
    pub repeat_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            n_days: 28,
            benign_per_day: 3500,
            repeat_fraction: 0.6,
        }
    }
}

/// Generates day-partitioned access logs over a hospital world.
#[derive(Debug)]
pub struct WorkloadGenerator<'a> {
    hospital: &'a Hospital,
    config: WorkloadConfig,
}

impl<'a> WorkloadGenerator<'a> {
    /// Construct a generator.
    pub fn new(hospital: &'a Hospital, config: WorkloadConfig) -> Self {
        Self { hospital, config }
    }

    /// Simulate the full observation window into one audit log. The log
    /// includes repeats; run [`AuditLog::dedup_daily`] before counting, as
    /// the paper does.
    pub fn generate(&self, seed: u64) -> AuditLog {
        let mut log = AuditLog::new();
        for day in 0..self.config.n_days {
            self.generate_day(day, seed, &mut log);
        }
        log
    }

    /// Simulate a single day into `log`.
    pub fn generate_day(&self, day: u32, seed: u64, log: &mut AuditLog) {
        let mut rng = stream_rng(seed, 1000 + day as u64);
        let mut day_events: Vec<(u32, u32)> = Vec::new();

        // Alert-bearing accesses: counts per type follow the Table VIII
        // Gaussians, truncated to [0, pool size].
        for t in 0..crate::TABLE8_MEANS.len() {
            let pool = self.hospital.pool(t);
            let count = sample_gaussian_count(
                crate::TABLE8_MEANS[t],
                crate::TABLE8_STDS[t],
                pool.len(),
                &mut rng,
            );
            // Distinct pairs within the day: shuffle a prefix of the pool.
            let mut idx: Vec<usize> = (0..pool.len()).collect();
            idx.partial_shuffle(&mut rng, count);
            for &i in idx.iter().take(count) {
                day_events.push(pool[i]);
            }
        }

        // Benign bulk.
        for _ in 0..self.config.benign_per_day {
            day_events.push(self.hospital.sample_benign(&mut rng));
        }

        // Same-day repeats: re-emit a random sample of today's events.
        let n_repeats = (day_events.len() as f64 * self.config.repeat_fraction).round() as usize;
        for _ in 0..n_repeats {
            let &(e, p) = day_events.choose(&mut rng).expect("day has events");
            day_events.push((e, p));
        }

        day_events.shuffle(&mut rng);
        for (e, p) in day_events {
            log.push(self.hospital.event(e, p, day));
        }
    }
}

/// Draw `round(N(mean, std))` clamped to `[0, cap]` via inverse-CDF on a
/// uniform draw (cheap and deterministic per RNG stream).
fn sample_gaussian_count(mean: f64, std: f64, cap: usize, rng: &mut impl Rng) -> usize {
    let u: f64 = rng.gen_range(1e-9..1.0 - 1e-9);
    let z = std_normal_quantile(u);
    let x = (mean + std * z).round();
    x.clamp(0.0, cap as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::HospitalConfig;
    use stochastics::seeded_rng;

    fn hospital() -> Hospital {
        Hospital::generate(
            HospitalConfig {
                n_employees: 150,
                n_patients: 600,
                pool_size: 500,
                benign_pool_size: 800,
                ..Default::default()
            },
            3,
        )
    }

    #[test]
    fn gaussian_count_sampler_tracks_moments() {
        let mut rng = seeded_rng(5);
        let draws: Vec<f64> = (0..20_000)
            .map(|_| sample_gaussian_count(50.0, 10.0, 1000, &mut rng) as f64)
            .collect();
        let mean = stochastics::stats::mean(&draws);
        let std = stochastics::stats::std_dev(&draws);
        assert!((mean - 50.0).abs() < 0.5, "mean {mean}");
        assert!((std - 10.0).abs() < 0.5, "std {std}");
    }

    #[test]
    fn gaussian_count_respects_cap_and_floor() {
        let mut rng = seeded_rng(5);
        for _ in 0..2000 {
            let c = sample_gaussian_count(5.0, 20.0, 12, &mut rng);
            assert!(c <= 12);
        }
    }

    #[test]
    fn generated_day_counts_match_table8_statistics() {
        let h = hospital();
        let gen = WorkloadGenerator::new(
            &h,
            WorkloadConfig {
                n_days: 40,
                benign_per_day: 300,
                repeat_fraction: 0.5,
            },
        );
        let mut log = gen.generate(11);
        let dropped = log.dedup_daily();
        assert!(dropped > 0, "repeats must exist before dedup");

        let engine = Hospital::rule_engine();
        let series = log.per_type_series(&engine, |_, _| panic!("vocabulary gap"));
        for (t, obs) in series.iter().enumerate() {
            let xs: Vec<f64> = obs.iter().map(|&c| c as f64).collect();
            let mean = stochastics::stats::mean(&xs);
            let target = crate::TABLE8_MEANS[t].min(500.0); // pool cap truncation
            let tol = crate::TABLE8_STDS[t] * 0.75 + 6.0;
            assert!(
                (mean - target).abs() < tol,
                "type {t}: mean {mean} vs target {target} (tol {tol})"
            );
        }
    }

    #[test]
    fn repeats_are_same_day_duplicates() {
        let h = hospital();
        let gen = WorkloadGenerator::new(
            &h,
            WorkloadConfig {
                n_days: 2,
                benign_per_day: 100,
                repeat_fraction: 1.0,
            },
        );
        let mut log = gen.generate(1);
        let before = log.len();
        let dropped = log.dedup_daily();
        // repeat_fraction 1.0 doubles events modulo collisions; at least a
        // third must be repeats.
        assert!(
            dropped as f64 >= before as f64 / 3.0,
            "dropped {dropped} of {before}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let h = hospital();
        let gen = WorkloadGenerator::new(
            &h,
            WorkloadConfig {
                n_days: 3,
                benign_per_day: 50,
                repeat_fraction: 0.2,
            },
        );
        assert_eq!(gen.generate(9).events(), gen.generate(9).events());
    }
}
