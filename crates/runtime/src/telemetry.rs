//! Structured telemetry of the epoch loop.
//!
//! One [`EpochTelemetry`] record per epoch, collected into a
//! [`RuntimeReport`]. Everything except wall-clock latency is
//! deterministic given the service seed, and [`RuntimeReport::fingerprint`]
//! hashes exactly that deterministic subset — the property suite pins
//! "same config ⇒ same fingerprint" across reruns and thread counts.

use audit_game::detection::CacheStats;
use audit_game::solver::DegradeReason;
use stochastics::snapshot::Fnv;

/// Telemetry of one epoch of the service loop.
///
/// `objective` and `thresholds` describe the policy committed *at the end
/// of* the epoch (i.e. after any re-solve the epoch triggered);
/// `predicted_pal` belongs to the policy that was *executed* during the
/// epoch (the vector `pal_gap` was computed against — on a re-solve epoch
/// that is the superseded incumbent); `epochs_since_resolve` is the
/// incumbent's age as seen by the drift gate, before any reset.
#[derive(Debug, Clone)]
pub struct EpochTelemetry {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Periods executed this epoch.
    pub periods: usize,
    /// Benign alerts raised per type over the epoch.
    pub alerts_seen: Vec<u64>,
    /// Benign alerts audited per type over the epoch.
    pub alerts_audited: Vec<u64>,
    /// Mean budget spent per period.
    pub mean_spent: f64,
    /// Realized per-type audit rate `audited/seen` (0 where none seen) —
    /// the operational estimate of the detection probability an attack
    /// alert of that type would have faced this epoch.
    pub realized_rate: Vec<f64>,
    /// The executed policy's predicted mixture `Pal` per type.
    pub predicted_pal: Vec<f64>,
    /// Mean absolute gap between predicted `Pal` and realized rate — the
    /// per-epoch regret of trusting the model's detection forecast.
    pub pal_gap: f64,
    /// Worst-type KS distance of the recent window vs the committed model.
    pub max_ks: f64,
    /// Whether the drift gate tripped this epoch.
    pub drift: bool,
    /// Whether a re-solve was committed this epoch (drift or staleness).
    pub resolved: bool,
    /// Incumbent age in epochs when the gate ran.
    pub epochs_since_resolve: usize,
    /// Predicted loss of the committed policy.
    pub objective: f64,
    /// Committed per-type thresholds.
    pub thresholds: Vec<f64>,
    /// Simulated strategic attacks launched this epoch (0 for scenarios
    /// with the rational paper attacker — no attack traffic is injected).
    pub attacks_launched: u64,
    /// Of those, how many the executed policy caught.
    pub attacks_detected: u64,
    /// Realized total attacker utility over the epoch's attacks.
    pub attacker_utility: f64,
    /// Realized auditor damage under the scenario's damage model
    /// (negative contributions are recovered value on detection).
    pub auditor_damage: f64,
    /// Threshold vectors the re-solve explored (LP evaluations), when one
    /// ran — the deterministic cost measure of the solve.
    pub solve_explored: Option<usize>,
    /// Wall-clock milliseconds of the committed re-solve, when one ran.
    /// **Excluded from the fingerprint** (nondeterministic).
    pub solve_millis: Option<f64>,
    /// How the committed re-solve degraded under its work budget, when it
    /// did: ladder fallback ([`DegradeReason::Degraded`]), exhausted floor
    /// ([`DegradeReason::Truncated`]), or solve failure absorbed by
    /// keeping the incumbent ([`DegradeReason::KeptIncumbent`]). `None`
    /// on epochs with no re-solve or an undegraded one.
    pub degrade: Option<DegradeReason>,
    /// Whether the drift gate's KS statistic was clamped this epoch
    /// because a committed count model carried non-finite mass (see
    /// [`crate::online::OnlineFit::max_ks_guarded`]).
    pub ks_degenerate: bool,
}

/// The full telemetry log of one service run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Scenario key the service ran on.
    pub scenario: String,
    /// Service seed.
    pub seed: u64,
    /// Periods per epoch.
    pub periods_per_epoch: usize,
    /// Objective of the initial (cold) solve.
    pub initial_objective: f64,
    /// Wall-clock milliseconds of the initial solve. **Excluded from the
    /// fingerprint.**
    pub initial_solve_millis: f64,
    /// Detection-engine counters summed over the initial solve and every
    /// committed re-solve — the observability behind `exp_online
    /// --cache-stats`. Deterministic, but **excluded from the
    /// fingerprint**: the fingerprint pins observable behaviour (policies,
    /// audits, objectives), not evaluator internals, so engine tuning
    /// cannot shift recorded fingerprints.
    pub engine_cache: CacheStats,
    /// Per-epoch records.
    pub epochs: Vec<EpochTelemetry>,
}

impl RuntimeReport {
    /// Number of committed re-solves across the run.
    pub fn resolves(&self) -> usize {
        self.epochs.iter().filter(|e| e.resolved).count()
    }

    /// Number of epochs whose drift gate tripped.
    pub fn drift_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.drift).count()
    }

    /// Total periods executed.
    pub fn total_periods(&self) -> usize {
        self.epochs.iter().map(|e| e.periods).sum()
    }

    /// FNV-1a fingerprint of the deterministic telemetry content.
    ///
    /// Covers every field of every record **except** wall-clock latency
    /// (`*_millis`), so two runs of the same configuration — at any thread
    /// count — hash identically, and any behavioural difference (one extra
    /// audit, one shifted threshold, one missed drift) changes the hash.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.scenario.as_bytes());
        h.word(self.seed);
        h.word(self.periods_per_epoch as u64);
        h.word(self.initial_objective.to_bits());
        h.word(self.epochs.len() as u64);
        for e in &self.epochs {
            h.word(e.epoch as u64);
            h.word(e.periods as u64);
            for &z in &e.alerts_seen {
                h.word(z);
            }
            for &z in &e.alerts_audited {
                h.word(z);
            }
            h.word(e.mean_spent.to_bits());
            for &r in &e.realized_rate {
                h.word(r.to_bits());
            }
            for &p in &e.predicted_pal {
                h.word(p.to_bits());
            }
            h.word(e.pal_gap.to_bits());
            h.word(e.max_ks.to_bits());
            h.word(e.drift as u64);
            h.word(e.resolved as u64);
            h.word(e.epochs_since_resolve as u64);
            h.word(e.objective.to_bits());
            for &b in &e.thresholds {
                h.word(b.to_bits());
            }
            h.word(e.attacks_launched);
            h.word(e.attacks_detected);
            h.word(e.attacker_utility.to_bits());
            h.word(e.auditor_damage.to_bits());
            h.word(e.solve_explored.map(|n| n as u64 + 1).unwrap_or(0));
            // Three constant words where the removed shadow-cold-solve
            // fields (presence, objective, explored count) used to hash.
            // Every run without a shadow solve hashed exactly `0, 0, 0`
            // here, so recorded fingerprints stay valid; the versioned
            // fingerprint encoding (ROADMAP item 6) retires these words.
            h.word(0);
            h.word(0);
            h.word(0);
            // Robustness fields hash only when set: a fault-free,
            // unbudgeted run carries none of them and its fingerprint is
            // bit-identical to the pre-supervisor encoding.
            if let Some(d) = &e.degrade {
                h.word(0xDE64_4ADE);
                h.word(d.code());
            }
            if e.ks_degenerate {
                h.word(0x6B73_6E61);
            }
        }
        h.finish()
    }
}

/// Aggregate statistics over the re-solve epochs of a run.
#[derive(Debug, Clone)]
pub struct ResolveStats {
    /// Committed re-solves.
    pub resolves: usize,
    /// Mean wall-clock milliseconds of the committed re-solves.
    pub mean_solve_millis: f64,
}

impl RuntimeReport {
    /// Aggregate the re-solve epochs, or `None` if the run never re-solved.
    pub fn resolve_stats(&self) -> Option<ResolveStats> {
        let resolved: Vec<&EpochTelemetry> = self.epochs.iter().filter(|e| e.resolved).collect();
        if resolved.is_empty() {
            return None;
        }
        let millis: Vec<f64> = resolved.iter().filter_map(|e| e.solve_millis).collect();
        Some(ResolveStats {
            resolves: resolved.len(),
            mean_solve_millis: millis.iter().sum::<f64>() / millis.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: usize) -> EpochTelemetry {
        EpochTelemetry {
            epoch,
            periods: 5,
            alerts_seen: vec![10, 20],
            alerts_audited: vec![4, 8],
            mean_spent: 3.5,
            realized_rate: vec![0.4, 0.4],
            predicted_pal: vec![0.45, 0.38],
            pal_gap: 0.035,
            max_ks: 0.12,
            drift: false,
            resolved: false,
            epochs_since_resolve: epoch,
            objective: 7.25,
            thresholds: vec![3.0, 2.0],
            attacks_launched: 0,
            attacks_detected: 0,
            attacker_utility: 0.0,
            auditor_damage: 0.0,
            solve_explored: None,
            solve_millis: None,
            degrade: None,
            ks_degenerate: false,
        }
    }

    fn report() -> RuntimeReport {
        RuntimeReport {
            scenario: "syn-seasonal".into(),
            seed: 7,
            periods_per_epoch: 5,
            initial_objective: 7.25,
            initial_solve_millis: 12.0,
            engine_cache: CacheStats::default(),
            epochs: vec![record(0), record(1)],
        }
    }

    #[test]
    fn fingerprint_ignores_wall_clock_latency() {
        let a = report();
        let mut b = report();
        b.initial_solve_millis = 9999.0;
        b.epochs[1].solve_millis = Some(123.4);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_sees_behavioural_changes() {
        let a = report();
        for mutate in [
            |r: &mut RuntimeReport| r.epochs[0].alerts_audited[1] += 1,
            |r: &mut RuntimeReport| r.epochs[1].drift = true,
            |r: &mut RuntimeReport| r.epochs[1].resolved = true,
            |r: &mut RuntimeReport| r.epochs[0].thresholds[0] = 2.0,
            |r: &mut RuntimeReport| r.epochs[1].solve_explored = Some(0),
            |r: &mut RuntimeReport| r.seed = 8,
            |r: &mut RuntimeReport| r.epochs[0].attacks_launched = 1,
            |r: &mut RuntimeReport| r.epochs[0].attacks_detected = 1,
            |r: &mut RuntimeReport| r.epochs[1].attacker_utility = 2.5,
            |r: &mut RuntimeReport| r.epochs[1].auditor_damage = -1.0,
            |r: &mut RuntimeReport| {
                r.epochs[1].degrade = Some(DegradeReason::Degraded { tiers: 1 })
            },
            |r: &mut RuntimeReport| r.epochs[1].degrade = Some(DegradeReason::Truncated),
            |r: &mut RuntimeReport| r.epochs[1].degrade = Some(DegradeReason::KeptIncumbent),
            |r: &mut RuntimeReport| r.epochs[0].ks_degenerate = true,
        ] {
            let mut b = report();
            mutate(&mut b);
            assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Pins the hashed encoding: a change to the words the fingerprint
    /// feeds (order, constants, presence markers) fails here in-process
    /// instead of silently invalidating every recorded fingerprint.
    #[test]
    fn fixture_fingerprint_is_pinned() {
        assert_eq!(
            format!("{:016x}", report().fingerprint()),
            "381d51163255c695"
        );
    }

    #[test]
    fn counters_aggregate_records() {
        let mut r = report();
        r.epochs[1].resolved = true;
        r.epochs[1].drift = true;
        assert_eq!(r.resolves(), 1);
        assert_eq!(r.drift_epochs(), 1);
        assert_eq!(r.total_periods(), 10);
    }
}
