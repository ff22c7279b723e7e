//! TDMT — a threat-detection and misuse-tracking substrate.
//!
//! The paper's auditing game sits on top of a TDMT module that watches
//! database access events and raises typed alerts ("the alert types are
//! specifically predefined by the administrator officials in ad hoc
//! applications", Section I). This crate implements that substrate:
//!
//! * [`event`] — access events `⟨e, v⟩` with typed attribute payloads;
//! * [`rules`] — predicate rules over events and a [`rules::RuleEngine`]
//!   that maps each event to at most one (possibly *combination*) alert
//!   type, mirroring how Rea A merges co-firing base rules ("we redefine
//!   the set of alert types to also consider combinations of alert
//!   categories", Section V.A);
//! * [`log`] — day-partitioned audit logs with repeated-access filtering
//!   (the paper drops 79.5% repeats) and per-day alert counting;
//! * [`profile`] — fitting per-type alert-count distributions `F_t` from a
//!   labelled log, the bridge into `audit-game`'s `GameSpec`;
//! * [`scenario`] — the `tdmt-insider` registry scenario: a synthetic
//!   event log labelled by a combination rule engine and compiled down to
//!   a solvable game.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod log;
pub mod profile;
pub mod rules;
pub mod scenario;

pub use event::{AccessEvent, EntityId, RecordId};
pub use log::AuditLog;
pub use profile::AlertProfile;
pub use rules::{Rule, RuleEngine};
pub use scenario::InsiderScenario;
