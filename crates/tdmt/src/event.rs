//! Access events: who touched what, when, with which contextual attributes.

/// Identifier of an acting entity (employee, applicant, service account).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Identifier of an accessed record (patient chart, application, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// Attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Boolean flag.
    Bool(bool),
    /// Integer quantity.
    Int(i64),
    /// Floating-point quantity (e.g. a distance in miles).
    Float(f64),
    /// Categorical/text value.
    Text(String),
}

impl AttrValue {
    /// Boolean view (`None` when the variant differs).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(f) => Some(*f),
            AttrValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// One database access event `⟨e, v⟩` at a given day, with contextual
/// attributes the rule engine predicates over (e.g. `"same_last_name"`,
/// `"distance_miles"`, `"purpose"`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessEvent {
    /// Acting entity.
    pub entity: EntityId,
    /// Accessed record.
    pub record: RecordId,
    /// Day index within the observation window.
    pub day: u32,
    /// Contextual attributes, sorted by key for deterministic iteration.
    attributes: Vec<(String, AttrValue)>,
}

impl AccessEvent {
    /// Construct a bare event.
    pub fn new(entity: EntityId, record: RecordId, day: u32) -> Self {
        Self {
            entity,
            record,
            day,
            attributes: Vec::new(),
        }
    }

    /// Attach (or replace) an attribute; builder style.
    pub fn with_attr(mut self, key: impl Into<String>, value: AttrValue) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attach (or replace) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: AttrValue) {
        let key = key.into();
        match self
            .attributes
            .binary_search_by(|(k, _)| k.as_str().cmp(&key))
        {
            Ok(i) => self.attributes[i].1 = value,
            Err(i) => self.attributes.insert(i, (key, value)),
        }
    }

    /// Look up an attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attributes
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.attributes[i].1)
    }

    /// Boolean attribute with a default of `false`.
    pub fn flag(&self, key: &str) -> bool {
        self.attr(key).and_then(AttrValue::as_bool).unwrap_or(false)
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Key identifying a unique daily entity→record relationship; the
    /// paper's "repeated access" filter deduplicates on this.
    pub fn daily_key(&self) -> (u32, EntityId, RecordId) {
        (self.day, self.entity, self.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_roundtrip_and_overwrite() {
        let mut ev = AccessEvent::new(EntityId(1), RecordId(2), 0)
            .with_attr("same_last_name", AttrValue::Bool(true))
            .with_attr("distance_miles", AttrValue::Float(0.3));
        assert!(ev.flag("same_last_name"));
        assert_eq!(ev.attr("distance_miles").unwrap().as_float(), Some(0.3));
        assert_eq!(ev.n_attributes(), 2);
        ev.set_attr("same_last_name", AttrValue::Bool(false));
        assert!(!ev.flag("same_last_name"));
        assert_eq!(ev.n_attributes(), 2);
    }

    #[test]
    fn missing_attributes_default_sanely() {
        let ev = AccessEvent::new(EntityId(1), RecordId(2), 0);
        assert!(ev.attr("absent").is_none());
        assert!(!ev.flag("absent"));
    }

    #[test]
    fn attr_value_coercions() {
        assert_eq!(AttrValue::Int(3).as_float(), Some(3.0));
        assert_eq!(AttrValue::Bool(true).as_int(), None);
        assert_eq!(AttrValue::Text("x".into()).as_text(), Some("x"));
        assert_eq!(AttrValue::Float(1.5).as_bool(), None);
    }

    #[test]
    fn daily_key_distinguishes_days_not_repeats() {
        let a = AccessEvent::new(EntityId(1), RecordId(2), 3);
        let b = AccessEvent::new(EntityId(1), RecordId(2), 3).with_attr("x", AttrValue::Int(1));
        let c = AccessEvent::new(EntityId(1), RecordId(2), 4);
        assert_eq!(a.daily_key(), b.daily_key());
        assert_ne!(a.daily_key(), c.daily_key());
    }
}
