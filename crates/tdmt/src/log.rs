//! Day-partitioned audit logs: ingestion, repeated-access filtering and
//! alert counting.
//!
//! The Rea A pipeline (Section V.A) starts from 28 days of raw access
//! events, removes repeated accesses ("an access committed by the same
//! employee to the same patient's EMR on the same day"), labels the rest
//! with alert types, and derives per-day alert counts per type — the
//! empirical inputs to `F_t`.

use crate::event::AccessEvent;
use crate::rules::RuleEngine;
use std::collections::HashSet;

/// An append-only, day-partitioned access log.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Vec<AccessEvent>,
    n_days: u32,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub fn push(&mut self, ev: AccessEvent) {
        self.n_days = self.n_days.max(ev.day + 1);
        self.events.push(ev);
    }

    /// Bulk append.
    pub fn extend(&mut self, evs: impl IntoIterator<Item = AccessEvent>) {
        for ev in evs {
            self.push(ev);
        }
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of days spanned (1 + max day index).
    pub fn n_days(&self) -> u32 {
        self.n_days
    }

    /// Remove repeated accesses: keep the first event per
    /// `(day, entity, record)` key, preserving order. Returns the number of
    /// repeats dropped (the paper reports 79.5% on Rea A).
    pub fn dedup_daily(&mut self) -> usize {
        let before = self.events.len();
        let mut seen = HashSet::with_capacity(before);
        self.events.retain(|ev| seen.insert(ev.daily_key()));
        before - self.events.len()
    }

    /// Label every event with the engine and count alerts per day per type:
    /// `counts[day][type]`. Unregistered combinations are counted under the
    /// fallback handler (`on_gap`), letting callers either panic, skip, or
    /// log vocabulary gaps.
    pub fn daily_alert_counts(
        &self,
        engine: &RuleEngine,
        mut on_gap: impl FnMut(&AccessEvent, &[usize]),
    ) -> Vec<Vec<u64>> {
        let mut counts = vec![vec![0u64; engine.n_types()]; self.n_days as usize];
        for ev in &self.events {
            match engine.label(ev) {
                Ok(Some(t)) => counts[ev.day as usize][t] += 1,
                Ok(None) => {}
                Err(firing) => on_gap(ev, &firing),
            }
        }
        counts
    }

    /// Per-type observation series across days (transpose of
    /// [`AuditLog::daily_alert_counts`]): `obs[type][day]`.
    pub fn per_type_series(
        &self,
        engine: &RuleEngine,
        on_gap: impl FnMut(&AccessEvent, &[usize]),
    ) -> Vec<Vec<u64>> {
        let daily = self.daily_alert_counts(engine, on_gap);
        let n_types = engine.n_types();
        let mut out = vec![Vec::with_capacity(daily.len()); n_types];
        for day in &daily {
            for (t, &c) in day.iter().enumerate() {
                out[t].push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttrValue, EntityId, RecordId};
    use crate::rules::Rule;

    fn engine() -> RuleEngine {
        let mut engine = RuleEngine::new(vec![Rule::flag("flagged", "suspicious")]);
        engine.register_combination("flagged", vec![0]);
        engine
    }

    fn suspicious(e: u32, r: u32, day: u32) -> AccessEvent {
        AccessEvent::new(EntityId(e), RecordId(r), day)
            .with_attr("suspicious", AttrValue::Bool(true))
    }

    #[test]
    fn dedup_removes_same_day_repeats_only() {
        let mut log = AuditLog::new();
        log.push(suspicious(1, 1, 0));
        log.push(suspicious(1, 1, 0)); // repeat
        log.push(suspicious(1, 1, 1)); // next day: kept
        log.push(suspicious(2, 1, 0)); // different entity: kept
        let dropped = log.dedup_daily();
        assert_eq!(dropped, 1);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn daily_counts_partition_by_day() {
        let mut log = AuditLog::new();
        log.push(suspicious(1, 1, 0));
        log.push(suspicious(1, 2, 0));
        log.push(suspicious(1, 3, 2));
        log.push(AccessEvent::new(EntityId(9), RecordId(9), 1)); // benign
        let counts = log.daily_alert_counts(&engine(), |_, _| panic!("no gaps"));
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0][0], 2);
        assert_eq!(counts[1][0], 0);
        assert_eq!(counts[2][0], 1);
    }

    #[test]
    fn per_type_series_transposes() {
        let mut log = AuditLog::new();
        log.push(suspicious(1, 1, 0));
        log.push(suspicious(1, 2, 1));
        log.push(suspicious(1, 3, 1));
        let series = log.per_type_series(&engine(), |_, _| {});
        assert_eq!(series, vec![vec![1, 2]]);
    }

    #[test]
    fn gap_handler_sees_unregistered_combinations() {
        let mut eng = RuleEngine::new(vec![Rule::flag("a", "fa"), Rule::flag("b", "fb")]);
        eng.register_combination("only-a", vec![0]);
        let mut log = AuditLog::new();
        log.push(
            AccessEvent::new(EntityId(1), RecordId(1), 0)
                .with_attr("fa", AttrValue::Bool(true))
                .with_attr("fb", AttrValue::Bool(true)),
        );
        let mut gaps = 0;
        let counts = log.daily_alert_counts(&eng, |_, firing| {
            assert_eq!(firing, &[0, 1]);
            gaps += 1;
        });
        assert_eq!(gaps, 1);
        assert_eq!(counts[0][0], 0);
    }

    #[test]
    fn empty_log_is_well_behaved() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert_eq!(log.n_days(), 0);
        let counts = log.daily_alert_counts(&engine(), |_, _| {});
        assert!(counts.is_empty());
    }
}
