//! Rule-based alert generation with combination alert types.
//!
//! Base rules are named predicates over [`AccessEvent`]s. Because one event
//! may satisfy several base rules (the paper's example: a husband accessing
//! his wife's record fires both *same last name* and *same address*), the
//! engine maps each **set** of co-firing base rules to a single combination
//! alert type — exactly how Table VIII's seven Rea A types arise from four
//! base rules.

use crate::event::AccessEvent;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A named predicate over events.
#[derive(Clone)]
pub struct Rule {
    name: String,
    predicate: Arc<dyn Fn(&AccessEvent) -> bool + Send + Sync>,
}

impl Rule {
    /// Build a rule from a closure.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&AccessEvent) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            predicate: Arc::new(predicate),
        }
    }

    /// Convenience: rule that fires when a boolean attribute is set.
    pub fn flag(name: impl Into<String>, attr: impl Into<String>) -> Self {
        let attr = attr.into();
        Self::new(name, move |ev| ev.flag(&attr))
    }

    /// Evaluate the rule.
    pub fn matches(&self, ev: &AccessEvent) -> bool {
        (self.predicate)(ev)
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule").field("name", &self.name).finish()
    }
}

/// Maps events to alert types through base rules + combination table.
///
/// Every non-empty subset of base rules that fires on an event must be a
/// registered combination type; an unregistered subset is an error at
/// labelling time. This is the Rea A setting, where the seven types of
/// Table VIII enumerate the subsets that actually occur.
pub struct RuleEngine {
    rules: Vec<Rule>,
    /// Registered combinations: sorted base-rule index set → alert type.
    combos: HashMap<Vec<usize>, usize>,
    /// Human-readable name per alert type.
    type_names: Vec<String>,
}

impl fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleEngine")
            .field("rules", &self.rules)
            .field("n_types", &self.type_names.len())
            .finish()
    }
}

impl RuleEngine {
    /// Start an engine with the given base rules and no alert types yet.
    pub fn new(rules: Vec<Rule>) -> Self {
        Self {
            rules,
            combos: HashMap::new(),
            type_names: Vec::new(),
        }
    }

    /// Register a combination alert type. `base_rules` are indices into
    /// the rule list; returns the new alert-type index.
    pub fn register_combination(
        &mut self,
        name: impl Into<String>,
        mut base_rules: Vec<usize>,
    ) -> usize {
        base_rules.sort_unstable();
        base_rules.dedup();
        assert!(
            !base_rules.is_empty(),
            "a combination needs at least one rule"
        );
        assert!(
            base_rules.iter().all(|&r| r < self.rules.len()),
            "combination references unknown base rule"
        );
        assert!(
            !self.combos.contains_key(&base_rules),
            "combination {base_rules:?} already registered"
        );
        let id = self.type_names.len();
        self.type_names.push(name.into());
        self.combos.insert(base_rules, id);
        id
    }

    /// Number of alert types.
    pub fn n_types(&self) -> usize {
        self.type_names.len()
    }

    /// Name of an alert type.
    pub fn type_name(&self, t: usize) -> &str {
        &self.type_names[t]
    }

    /// Indices of the base rules firing on an event.
    pub fn firing_rules(&self, ev: &AccessEvent) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.matches(ev))
            .map(|(i, _)| i)
            .collect()
    }

    /// Label an event: `Ok(None)` for benign, `Ok(Some(type))` for an
    /// alert, `Err` with the firing rules for an unregistered combination,
    /// which signals a gap in the alert vocabulary.
    pub fn label(&self, ev: &AccessEvent) -> Result<Option<usize>, Vec<usize>> {
        let firing = self.firing_rules(ev);
        if firing.is_empty() {
            return Ok(None);
        }
        self.combos.get(&firing).map(|&t| Some(t)).ok_or(firing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttrValue, EntityId, RecordId};

    fn ev(flags: &[&str]) -> AccessEvent {
        let mut e = AccessEvent::new(EntityId(1), RecordId(2), 0);
        for f in flags {
            e.set_attr(*f, AttrValue::Bool(true));
        }
        e
    }

    fn base_rules() -> Vec<Rule> {
        vec![
            Rule::flag("last-name", "same_last_name"),
            Rule::flag("department", "same_department"),
            Rule::flag("address", "same_address"),
            Rule::new("neighbor", |e: &AccessEvent| {
                e.attr("distance_miles")
                    .and_then(AttrValue::as_float)
                    .map(|d| d <= 0.5)
                    .unwrap_or(false)
            }),
        ]
    }

    #[test]
    fn registered_combinations_mirror_table_viii() {
        let mut engine = RuleEngine::new(base_rules());
        let t_name = engine.register_combination("Same Last Name", vec![0]);
        let t_dept = engine.register_combination("Department Co-worker", vec![1]);
        let t_both = engine.register_combination("Last Name; Same address", vec![0, 2]);
        assert_eq!((t_name, t_dept, t_both), (0, 1, 2));
        assert_eq!(engine.label(&ev(&["same_last_name"])), Ok(Some(0)));
        assert_eq!(engine.label(&ev(&["same_department"])), Ok(Some(1)));
        assert_eq!(
            engine.label(&ev(&["same_last_name", "same_address"])),
            Ok(Some(2))
        );
        assert_eq!(engine.type_name(2), "Last Name; Same address");
    }

    #[test]
    fn unregistered_combination_is_reported() {
        let mut engine = RuleEngine::new(base_rules());
        engine.register_combination("Same Last Name", vec![0]);
        // address alone was never registered.
        assert_eq!(engine.label(&ev(&["same_address"])), Err(vec![2]));
    }

    #[test]
    fn numeric_predicate_rule() {
        let mut engine = RuleEngine::new(base_rules());
        engine.register_combination("Neighbor", vec![3]);
        let near = AccessEvent::new(EntityId(1), RecordId(1), 0)
            .with_attr("distance_miles", AttrValue::Float(0.4));
        let far = AccessEvent::new(EntityId(1), RecordId(1), 0)
            .with_attr("distance_miles", AttrValue::Float(2.0));
        assert_eq!(engine.label(&near), Ok(Some(0)));
        assert_eq!(engine.label(&far), Ok(None));
    }

    #[test]
    fn firing_rules_are_sorted_and_deduplicated_by_construction() {
        let mut engine = RuleEngine::new(base_rules());
        engine.register_combination("triple", vec![2, 0, 0, 2]); // normalized
        assert_eq!(
            engine.label(&ev(&["same_last_name", "same_address"])),
            Ok(Some(0))
        );
    }

    #[test]
    #[should_panic]
    fn duplicate_combination_rejected() {
        let mut engine = RuleEngine::new(base_rules());
        engine.register_combination("a", vec![0]);
        engine.register_combination("b", vec![0]);
    }
}
