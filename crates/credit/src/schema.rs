//! Statlog-compatible application schema and the Table IX alert rules.

/// Checking-account status (Statlog attribute 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckingStatus {
    /// No checking account (A14).
    None,
    /// Balance below zero (A11).
    Negative,
    /// Balance in `[0, 200)` DM (A12).
    Low,
    /// Balance `≥ 200` DM or salary account (A13).
    High,
}

impl CheckingStatus {
    /// "Checking > 0" in the Table IX rule descriptions.
    pub fn is_positive(&self) -> bool {
        matches!(self, CheckingStatus::Low | CheckingStatus::High)
    }
}

/// Credit history (Statlog attribute 3, abridged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CreditHistory {
    /// All credits paid back duly.
    Paid,
    /// Existing credits paid back duly till now.
    Existing,
    /// Delay in paying off in the past.
    Delayed,
    /// Critical account / other credits existing (A34).
    Critical,
}

/// Job skill level (Statlog attribute 17, abridged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Skill {
    /// Unemployed / unskilled non-resident.
    UnskilledNonResident,
    /// Unskilled resident (A172).
    Unskilled,
    /// Skilled employee / official.
    Skilled,
    /// Management / self-employed / highly qualified.
    Management,
}

impl Skill {
    /// "Unskilled" in the Table IX rule descriptions.
    pub fn is_unskilled(&self) -> bool {
        matches!(self, Skill::Unskilled | Skill::UnskilledNonResident)
    }
}

/// The eight application purposes that act as the victims of the Rea B
/// audit game ("The 8 selected purposes of application are the 'victims'").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// New car.
    NewCar,
    /// Used car.
    UsedCar,
    /// Furniture / domestic appliance.
    Appliance,
    /// Radio / television.
    RadioTv,
    /// Education.
    Education,
    /// Business.
    Business,
    /// Repairs.
    Repairs,
    /// Retraining.
    Retraining,
}

impl Purpose {
    /// All eight purposes, in victim-index order.
    pub const ALL: [Purpose; 8] = [
        Purpose::NewCar,
        Purpose::UsedCar,
        Purpose::Appliance,
        Purpose::RadioTv,
        Purpose::Education,
        Purpose::Business,
        Purpose::Repairs,
        Purpose::Retraining,
    ];

    /// Victim index of this purpose.
    pub fn index(&self) -> usize {
        Purpose::ALL
            .iter()
            .position(|p| p == self)
            .expect("purpose is in ALL")
    }
}

/// One credit-card application.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Applicant id.
    pub id: u32,
    /// Checking-account status.
    pub checking: CheckingStatus,
    /// Credit history.
    pub history: CreditHistory,
    /// Job skill level.
    pub skill: Skill,
    /// Application purpose.
    pub purpose: Purpose,
    /// Requested amount (DM) — flavour attribute.
    pub amount: u32,
    /// Duration in months — flavour attribute.
    pub duration: u32,
    /// Applicant age — flavour attribute.
    pub age: u32,
}

impl Application {
    /// The Table IX alert type this application triggers, or `None` when
    /// the screening rules stay silent. Rules are evaluated in table order;
    /// by construction (disjoint checking-status and purpose guards) at
    /// most one rule can fire.
    pub fn alert_type(&self) -> Option<usize> {
        alert_for(self.checking, self.history, self.skill, self.purpose)
    }

    /// The alert the same applicant would trigger when filing under a
    /// different purpose — the attack calculus of the Rea B game, where an
    /// adversary picks the purpose ("victim") but keeps their profile.
    pub fn alert_type_with_purpose(&self, purpose: Purpose) -> Option<usize> {
        alert_for(self.checking, self.history, self.skill, purpose)
    }
}

/// Rule table of Table IX.
pub fn alert_for(
    checking: CheckingStatus,
    history: CreditHistory,
    skill: Skill,
    purpose: Purpose,
) -> Option<usize> {
    // 1: No checking account, any purpose.
    if checking == CheckingStatus::None {
        return Some(0);
    }
    // 2: Checking < 0, purpose ∈ {New car, Education}.
    if checking == CheckingStatus::Negative
        && matches!(purpose, Purpose::NewCar | Purpose::Education)
    {
        return Some(1);
    }
    if checking.is_positive() && skill.is_unskilled() {
        // 3: Checking > 0, unskilled, Education.
        if purpose == Purpose::Education {
            return Some(2);
        }
        // 4: Checking > 0, unskilled, Appliance.
        if purpose == Purpose::Appliance {
            return Some(3);
        }
    }
    // 5: Checking > 0, critical account, Business.
    if checking.is_positive() && history == CreditHistory::Critical && purpose == Purpose::Business
    {
        return Some(4);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(
        checking: CheckingStatus,
        history: CreditHistory,
        skill: Skill,
        purpose: Purpose,
    ) -> Application {
        Application {
            id: 0,
            checking,
            history,
            skill,
            purpose,
            amount: 1000,
            duration: 12,
            age: 35,
        }
    }

    #[test]
    fn rule1_fires_for_any_purpose() {
        for p in Purpose::ALL {
            let a = app(CheckingStatus::None, CreditHistory::Paid, Skill::Skilled, p);
            assert_eq!(a.alert_type(), Some(0));
        }
    }

    #[test]
    fn rule2_requires_negative_checking_and_car_or_education() {
        let a = app(
            CheckingStatus::Negative,
            CreditHistory::Paid,
            Skill::Skilled,
            Purpose::NewCar,
        );
        assert_eq!(a.alert_type(), Some(1));
        let a = app(
            CheckingStatus::Negative,
            CreditHistory::Paid,
            Skill::Skilled,
            Purpose::Education,
        );
        assert_eq!(a.alert_type(), Some(1));
        let a = app(
            CheckingStatus::Negative,
            CreditHistory::Paid,
            Skill::Skilled,
            Purpose::Repairs,
        );
        assert_eq!(a.alert_type(), None);
    }

    #[test]
    fn rules_3_and_4_need_positive_checking_and_unskilled() {
        let a = app(
            CheckingStatus::Low,
            CreditHistory::Paid,
            Skill::Unskilled,
            Purpose::Education,
        );
        assert_eq!(a.alert_type(), Some(2));
        let a = app(
            CheckingStatus::High,
            CreditHistory::Paid,
            Skill::Unskilled,
            Purpose::Appliance,
        );
        assert_eq!(a.alert_type(), Some(3));
        let a = app(
            CheckingStatus::High,
            CreditHistory::Paid,
            Skill::Skilled,
            Purpose::Appliance,
        );
        assert_eq!(a.alert_type(), None);
        let a = app(
            CheckingStatus::Negative,
            CreditHistory::Paid,
            Skill::Unskilled,
            Purpose::Appliance,
        );
        assert_eq!(a.alert_type(), None);
    }

    #[test]
    fn rule5_critical_business() {
        let a = app(
            CheckingStatus::Low,
            CreditHistory::Critical,
            Skill::Skilled,
            Purpose::Business,
        );
        assert_eq!(a.alert_type(), Some(4));
        let a = app(
            CheckingStatus::Low,
            CreditHistory::Paid,
            Skill::Skilled,
            Purpose::Business,
        );
        assert_eq!(a.alert_type(), None);
    }

    #[test]
    fn purpose_switching_changes_the_alert() {
        let a = app(
            CheckingStatus::Low,
            CreditHistory::Critical,
            Skill::Unskilled,
            Purpose::Repairs,
        );
        assert_eq!(a.alert_type(), None);
        assert_eq!(a.alert_type_with_purpose(Purpose::Education), Some(2));
        assert_eq!(a.alert_type_with_purpose(Purpose::Appliance), Some(3));
        assert_eq!(a.alert_type_with_purpose(Purpose::Business), Some(4));
    }

    #[test]
    fn purpose_indices_are_stable() {
        assert_eq!(Purpose::NewCar.index(), 0);
        assert_eq!(Purpose::Retraining.index(), 7);
        for (i, p) in Purpose::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
