//! The simulation event log: a queryable record of every demographic
//! event the world generated.
//!
//! The log is ground-truth provenance — it explains *why* two censuses
//! differ (who died, who married whom, which household split), which
//! turns debugging a linkage miss from archaeology into a lookup, and
//! enables evaluations beyond record linkage (e.g. "did the evolution
//! analysis find the household split the simulator actually performed?").

use census_model::PersonId;
use serde::{Deserialize, Serialize};

/// One demographic event, stamped with the year it happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifeEvent {
    /// A child was born (and survived infancy — stillbirths are not
    /// simulated).
    Birth {
        /// Year of birth.
        year: i32,
        /// The newborn.
        person: PersonId,
        /// Mother.
        mother: PersonId,
        /// Father.
        father: PersonId,
    },
    /// A person died.
    Death {
        /// Year of death (resolution: the census decade).
        year: i32,
        /// The deceased.
        person: PersonId,
    },
    /// A marriage; the wife takes the husband's surname.
    Marriage {
        /// Year of marriage.
        year: i32,
        /// Husband.
        husband: PersonId,
        /// Wife.
        wife: PersonId,
        /// World household id the couple lives in afterwards.
        household: u64,
    },
    /// A co-resident married sub-family left to found its own household.
    SubfamilyDeparture {
        /// Year of the move.
        year: i32,
        /// Household they left.
        from_household: u64,
        /// Household they founded.
        new_household: u64,
        /// Everyone who moved.
        members: Vec<PersonId>,
    },
    /// An unmarried adult left the parental household.
    LeftHome {
        /// Year of the move.
        year: i32,
        /// Who moved.
        person: PersonId,
        /// Household they left.
        from_household: u64,
        /// Household they joined or founded.
        to_household: u64,
    },
    /// A whole household merged into another.
    HouseholdMerged {
        /// Year of the merge.
        year: i32,
        /// The dissolved household.
        from_household: u64,
        /// The receiving household.
        into_household: u64,
        /// Everyone who moved.
        members: Vec<PersonId>,
    },
    /// A whole household left the region.
    HouseholdEmigrated {
        /// Year of departure.
        year: i32,
        /// The household.
        household: u64,
        /// Its members at departure.
        members: Vec<PersonId>,
    },
    /// A single person left the region.
    PersonEmigrated {
        /// Year of departure.
        year: i32,
        /// Who left.
        person: PersonId,
    },
    /// A new household arrived in the region.
    HouseholdImmigrated {
        /// Year of arrival (start year for founders).
        year: i32,
        /// The household.
        household: u64,
        /// Its members at arrival.
        members: Vec<PersonId>,
    },
}

impl LifeEvent {
    /// The year the event happened.
    #[must_use]
    pub fn year(&self) -> i32 {
        match *self {
            LifeEvent::Birth { year, .. }
            | LifeEvent::Death { year, .. }
            | LifeEvent::Marriage { year, .. }
            | LifeEvent::SubfamilyDeparture { year, .. }
            | LifeEvent::LeftHome { year, .. }
            | LifeEvent::HouseholdMerged { year, .. }
            | LifeEvent::HouseholdEmigrated { year, .. }
            | LifeEvent::PersonEmigrated { year, .. }
            | LifeEvent::HouseholdImmigrated { year, .. } => year,
        }
    }

    /// Whether the event directly involves the given person.
    #[must_use]
    pub fn involves(&self, p: PersonId) -> bool {
        match self {
            LifeEvent::Birth {
                person,
                mother,
                father,
                ..
            } => *person == p || *mother == p || *father == p,
            LifeEvent::Death { person, .. } | LifeEvent::PersonEmigrated { person, .. } => {
                *person == p
            }
            LifeEvent::Marriage { husband, wife, .. } => *husband == p || *wife == p,
            LifeEvent::LeftHome { person, .. } => *person == p,
            LifeEvent::SubfamilyDeparture { members, .. }
            | LifeEvent::HouseholdMerged { members, .. }
            | LifeEvent::HouseholdEmigrated { members, .. }
            | LifeEvent::HouseholdImmigrated { members, .. } => members.contains(&p),
        }
    }
}

/// The full event log of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<LifeEvent>,
}

impl EventLog {
    /// Append an event.
    pub fn push(&mut self, event: LifeEvent) {
        self.events.push(event);
    }

    /// All events, in generation order.
    #[must_use]
    pub fn all(&self) -> &[LifeEvent] {
        &self.events
    }

    /// Events involving one person, in order.
    pub fn of_person(&self, person: PersonId) -> impl Iterator<Item = &LifeEvent> + '_ {
        self.events.iter().filter(move |e| e.involves(person))
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_and_involvement() {
        let e = LifeEvent::Marriage {
            year: 1866,
            husband: PersonId(1),
            wife: PersonId(2),
            household: 9,
        };
        assert_eq!(e.year(), 1866);
        assert!(e.involves(PersonId(1)));
        assert!(e.involves(PersonId(2)));
        assert!(!e.involves(PersonId(3)));
    }

    #[test]
    fn log_queries() {
        let mut log = EventLog::default();
        log.push(LifeEvent::Death {
            year: 1860,
            person: PersonId(5),
        });
        log.push(LifeEvent::Birth {
            year: 1865,
            person: PersonId(6),
            mother: PersonId(2),
            father: PersonId(1),
        });
        log.push(LifeEvent::PersonEmigrated {
            year: 1875,
            person: PersonId(2),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.of_person(PersonId(2)).count(), 2);
        assert_eq!(log.of_person(PersonId(9)).count(), 0);
    }
}
