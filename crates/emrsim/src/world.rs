//! Hospital world model: people, departments, residences, and the planted
//! relationship pools that realize each combination alert type.
//!
//! Address-string equality and geographic proximity are modelled as
//! *independent* signals (geocoding noise, stale addresses, typos), which
//! is what makes all seven combinations of Table VIII — including "same
//! address but not neighbor" — realizable, just as they are in the real
//! VUMC data.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use stochastics::rng::stream_rng;
use tdmt::event::{AccessEvent, AttrValue, EntityId, RecordId};
use tdmt::rules::{Rule, RuleEngine};

/// A hospital employee.
#[derive(Debug, Clone)]
pub struct Employee {
    /// Employee id (also the event entity id).
    pub id: u32,
    /// Index into the surname pool.
    pub surname: usize,
    /// Department index.
    pub department: usize,
    /// Residence id (address-string identity).
    pub residence: u32,
    /// Geocoded residence, miles on the city grid.
    pub geo: (f64, f64),
}

/// A patient record.
#[derive(Debug, Clone)]
pub struct Patient {
    /// Patient id (also the event record id).
    pub id: u32,
    /// Index into the surname pool.
    pub surname: usize,
    /// Residence id.
    pub residence: u32,
    /// Geocoded residence.
    pub geo: (f64, f64),
    /// `Some(employee id)` when this patient is also an employee.
    pub employee_link: Option<u32>,
}

/// Ground-truth relationship between an employee and a patient: exactly the
/// four base signals the TDMT rules predicate on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairProfile {
    /// Same last name.
    pub same_last_name: bool,
    /// Patient is an employee of the same department.
    pub same_department: bool,
    /// Same residential address (string identity).
    pub same_address: bool,
    /// Geocoded distance in miles.
    pub distance_miles: f64,
}

impl PairProfile {
    /// The benign profile (no signals).
    pub fn benign(distance: f64) -> Self {
        Self {
            same_last_name: false,
            same_department: false,
            same_address: false,
            distance_miles: distance,
        }
    }

    /// Which base rules fire (0 name, 1 dept, 2 addr, 3 neighbor).
    pub fn firing(&self) -> Vec<usize> {
        let mut f = Vec::new();
        if self.same_last_name {
            f.push(0);
        }
        if self.same_department {
            f.push(1);
        }
        if self.same_address {
            f.push(2);
        }
        if self.distance_miles <= NEIGHBOR_MILES {
            f.push(3);
        }
        f
    }
}

/// Neighborhood threshold (Section V.A: "within a distance threshold";
/// Table VIII uses 0.5 miles).
pub const NEIGHBOR_MILES: f64 = 0.5;

/// World-generation parameters.
#[derive(Debug, Clone)]
pub struct HospitalConfig {
    /// Number of employees.
    pub n_employees: usize,
    /// Number of patients.
    pub n_patients: usize,
    /// Number of departments.
    pub n_departments: usize,
    /// Surname vocabulary size.
    pub n_surnames: usize,
    /// City grid side length in miles.
    pub city_miles: f64,
    /// Planted pairs per combination alert type (must exceed the largest
    /// daily count the workload generator will request).
    pub pool_size: usize,
    /// Pre-verified benign pairs for bulk traffic.
    pub benign_pool_size: usize,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        Self {
            n_employees: 800,
            n_patients: 3000,
            n_departments: 24,
            n_surnames: 240,
            city_miles: 12.0,
            pool_size: 700,
            benign_pool_size: 4000,
        }
    }
}

/// The generated world.
pub struct Hospital {
    /// Employees.
    pub employees: Vec<Employee>,
    /// Patients.
    pub patients: Vec<Patient>,
    config: HospitalConfig,
    /// Planted relationship overrides.
    planted: HashMap<(u32, u32), PairProfile>,
    /// Per-combination-type pair pools (employee idx, patient idx).
    pools: Vec<Vec<(u32, u32)>>,
    /// Verified benign pairs.
    benign_pool: Vec<(u32, u32)>,
}

impl std::fmt::Debug for Hospital {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hospital")
            .field("n_employees", &self.employees.len())
            .field("n_patients", &self.patients.len())
            .field("n_planted", &self.planted.len())
            .finish()
    }
}

impl Hospital {
    /// Generate a world deterministically from a seed.
    pub fn generate(config: HospitalConfig, seed: u64) -> Self {
        let mut rng = stream_rng(seed, 0);
        let city = config.city_miles;

        let employees: Vec<Employee> = (0..config.n_employees as u32)
            .map(|id| Employee {
                id,
                surname: rng.gen_range(0..config.n_surnames),
                department: rng.gen_range(0..config.n_departments),
                residence: id, // unique residence per employee by default
                geo: (rng.gen_range(0.0..city), rng.gen_range(0.0..city)),
            })
            .collect();

        // A slice of patients are employees themselves (they inherit the
        // employee's surname/residence and carry the link for the
        // department-co-worker rule).
        let n_linked = config.n_patients / 10;
        let mut patients: Vec<Patient> = Vec::with_capacity(config.n_patients);
        for id in 0..config.n_patients as u32 {
            if (id as usize) < n_linked {
                let emp = &employees[(id as usize) % employees.len()];
                patients.push(Patient {
                    id,
                    surname: emp.surname,
                    residence: emp.residence,
                    geo: emp.geo,
                    employee_link: Some(emp.id),
                });
            } else {
                patients.push(Patient {
                    id,
                    surname: rng.gen_range(0..config.n_surnames),
                    residence: 1_000_000 + id, // patient residences
                    geo: (rng.gen_range(0.0..city), rng.gen_range(0.0..city)),
                    employee_link: None,
                });
            }
        }

        let mut world = Self {
            employees,
            patients,
            config,
            planted: HashMap::new(),
            pools: vec![Vec::new(); crate::TABLE8_SUBSETS.len()],
            benign_pool: Vec::new(),
        };
        world.plant_pools(&mut stream_rng(seed, 1));
        world
    }

    /// Plant `pool_size` pairs per combination type with exactly the target
    /// base-rule subset, plus a verified benign pool.
    fn plant_pools(&mut self, rng: &mut impl Rng) {
        let n_emp = self.employees.len() as u32;
        let n_pat = self.patients.len() as u32;
        for (t, subset) in crate::TABLE8_SUBSETS.iter().enumerate() {
            let mut pool = Vec::with_capacity(self.config.pool_size);
            let mut guard = 0usize;
            while pool.len() < self.config.pool_size {
                guard += 1;
                assert!(guard < self.config.pool_size * 50, "pool planting stalled");
                let e = rng.gen_range(0..n_emp);
                // Department co-worker pairs need an employee-linked patient.
                let p = if subset.contains(&1) {
                    let linked = (self.config.n_patients / 10).max(1) as u32;
                    rng.gen_range(0..linked)
                } else {
                    rng.gen_range(0..n_pat)
                };
                if self.planted.contains_key(&(e, p)) {
                    continue;
                }
                let profile = self.profile_for_subset(subset, e, p, rng);
                self.planted.insert((e, p), profile);
                debug_assert_eq!(profile.firing(), *subset);
                pool.push((e, p));
            }
            self.pools[t] = pool;
        }
        // Benign pool: derived profiles with no firing rules, or planted
        // benign overrides when the natural pair accidentally matches.
        let mut guard = 0usize;
        while self.benign_pool.len() < self.config.benign_pool_size {
            guard += 1;
            assert!(
                guard < self.config.benign_pool_size * 50,
                "benign pool stalled"
            );
            let e = rng.gen_range(0..n_emp);
            let p = rng.gen_range(0..n_pat);
            if self.planted.contains_key(&(e, p)) {
                continue;
            }
            if !self.derived_profile(e, p).firing().is_empty() {
                // Accidental signal: plant an explicit benign override so
                // the pair is usable as bulk traffic.
                let far = rng.gen_range(1.0..self.config.city_miles);
                self.planted.insert((e, p), PairProfile::benign(far));
            }
            self.benign_pool.push((e, p));
        }
    }

    /// Construct a profile realizing exactly `subset` for pair `(e, p)`.
    fn profile_for_subset(
        &self,
        subset: &[usize],
        e: u32,
        p: u32,
        rng: &mut impl Rng,
    ) -> PairProfile {
        let neighbor = subset.contains(&3);
        let distance = if neighbor {
            rng.gen_range(0.0..NEIGHBOR_MILES)
        } else {
            rng.gen_range(NEIGHBOR_MILES + 0.3..self.config.city_miles)
        };
        let _ = (e, p);
        PairProfile {
            same_last_name: subset.contains(&0),
            same_department: subset.contains(&1),
            same_address: subset.contains(&2),
            distance_miles: distance,
        }
    }

    /// The relationship profile of any pair: the planted override when one
    /// exists, otherwise derived from person fields.
    pub fn profile(&self, e: u32, p: u32) -> PairProfile {
        self.planted
            .get(&(e, p))
            .copied()
            .unwrap_or_else(|| self.derived_profile(e, p))
    }

    fn derived_profile(&self, e: u32, p: u32) -> PairProfile {
        let emp = &self.employees[e as usize];
        let pat = &self.patients[p as usize];
        let same_department = pat
            .employee_link
            .map(|l| self.employees[l as usize].department == emp.department && l != emp.id)
            .unwrap_or(false);
        let dx = emp.geo.0 - pat.geo.0;
        let dy = emp.geo.1 - pat.geo.1;
        PairProfile {
            same_last_name: emp.surname == pat.surname,
            same_department,
            same_address: emp.residence == pat.residence,
            distance_miles: (dx * dx + dy * dy).sqrt(),
        }
    }

    /// Build the access event for a pair on a day, attaching the signal
    /// attributes the rule engine predicates on.
    pub fn event(&self, e: u32, p: u32, day: u32) -> AccessEvent {
        let profile = self.profile(e, p);
        AccessEvent::new(EntityId(e), RecordId(p), day)
            .with_attr("same_last_name", AttrValue::Bool(profile.same_last_name))
            .with_attr("same_department", AttrValue::Bool(profile.same_department))
            .with_attr("same_address", AttrValue::Bool(profile.same_address))
            .with_attr("distance_miles", AttrValue::Float(profile.distance_miles))
    }

    /// Pool of planted pairs for combination type `t`.
    pub fn pool(&self, t: usize) -> &[(u32, u32)] {
        &self.pools[t]
    }

    /// Verified benign pairs.
    pub fn benign_pool(&self) -> &[(u32, u32)] {
        &self.benign_pool
    }

    /// World configuration.
    pub fn config(&self) -> &HospitalConfig {
        &self.config
    }

    /// Draw a random benign pair.
    pub fn sample_benign(&self, rng: &mut impl Rng) -> (u32, u32) {
        *self
            .benign_pool
            .choose(rng)
            .expect("benign pool is non-empty")
    }

    /// The Rea A rule engine: four base rules and the seven registered
    /// combination types of Table VIII.
    pub fn rule_engine() -> RuleEngine {
        let rules = vec![
            Rule::flag("same-last-name", "same_last_name"),
            Rule::flag("department-co-worker", "same_department"),
            Rule::flag("same-address", "same_address"),
            Rule::new("neighbor", |ev: &AccessEvent| {
                ev.attr("distance_miles")
                    .and_then(AttrValue::as_float)
                    .map(|d| d <= NEIGHBOR_MILES)
                    .unwrap_or(false)
            }),
        ];
        let mut engine = RuleEngine::new(rules);
        for (name, subset) in crate::TABLE8_NAMES.iter().zip(crate::TABLE8_SUBSETS) {
            engine.register_combination(*name, subset.to_vec());
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hospital {
        Hospital::generate(
            HospitalConfig {
                n_employees: 120,
                n_patients: 400,
                pool_size: 40,
                benign_pool_size: 100,
                ..Default::default()
            },
            7,
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.pools, b.pools);
        assert_eq!(a.benign_pool, b.benign_pool);
    }

    #[test]
    fn pools_realize_their_subsets() {
        let h = small();
        let engine = Hospital::rule_engine();
        for t in 0..7 {
            assert_eq!(h.pool(t).len(), 40);
            for &(e, p) in h.pool(t) {
                let ev = h.event(e, p, 0);
                assert_eq!(
                    engine.label(&ev),
                    Ok(Some(t)),
                    "pool {t} pair ({e},{p}) labelled wrong"
                );
            }
        }
    }

    #[test]
    fn benign_pool_triggers_nothing() {
        let h = small();
        let engine = Hospital::rule_engine();
        for &(e, p) in h.benign_pool() {
            let ev = h.event(e, p, 0);
            assert_eq!(engine.label(&ev), Ok(None), "pair ({e},{p}) not benign");
        }
    }

    #[test]
    fn linked_patients_inherit_employee_identity() {
        let h = small();
        let linked = h
            .patients
            .iter()
            .filter(|p| p.employee_link.is_some())
            .count();
        assert_eq!(linked, 40); // n_patients / 10
        for p in h.patients.iter().filter(|p| p.employee_link.is_some()) {
            let e = &h.employees[p.employee_link.unwrap() as usize];
            assert_eq!(p.surname, e.surname);
            assert_eq!(p.residence, e.residence);
        }
    }

    #[test]
    fn derived_profile_is_symmetric_in_distance() {
        let h = small();
        let prof = h.profile(0, 399);
        assert!(prof.distance_miles >= 0.0);
        assert!(prof.distance_miles <= h.config().city_miles * 1.5);
    }

    #[test]
    fn rule_engine_has_seven_types() {
        let engine = Hospital::rule_engine();
        assert_eq!(engine.n_types(), 7);
        assert_eq!(engine.type_name(6), "Last Name; Same address; Neighbor");
    }
}
