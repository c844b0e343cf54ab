//! Household roles and unified relationship types.
//!
//! Census forms record each member's relationship *to the head of
//! household* ([`Role`]). Because headship is not stable over time, the
//! group-enrichment phase (§3.1 of the paper) replaces head-relative roles
//! by unified, symmetric relationship types ([`RelType`]) between member
//! pairs, which are comparable across censuses.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Relationship of a household member to the head of household, as written
/// on the census form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// The head of the household (exactly one per household).
    Head,
    /// Wife or husband of the head.
    Spouse,
    /// Son of the head.
    Son,
    /// Daughter of the head.
    Daughter,
    /// Father of the head.
    Father,
    /// Mother of the head.
    Mother,
    /// Brother of the head.
    Brother,
    /// Sister of the head.
    Sister,
    /// Grandchild of the head.
    Grandchild,
    /// Husband of a daughter of the head.
    SonInLaw,
    /// Wife of a son of the head.
    DaughterInLaw,
    /// Domestic servant living in the household.
    Servant,
    /// Lodger or boarder.
    Lodger,
    /// Visitor present on census night.
    Visitor,
}

impl Role {
    /// All role variants, in a stable order.
    pub const ALL: [Role; 14] = [
        Role::Head,
        Role::Spouse,
        Role::Son,
        Role::Daughter,
        Role::Father,
        Role::Mother,
        Role::Brother,
        Role::Sister,
        Role::Grandchild,
        Role::SonInLaw,
        Role::DaughterInLaw,
        Role::Servant,
        Role::Lodger,
        Role::Visitor,
    ];

    /// Whether this role makes the member part of the head's family (as
    /// opposed to servants, lodgers and visitors).
    #[must_use]
    pub fn is_family(self) -> bool {
        !matches!(self, Role::Servant | Role::Lodger | Role::Visitor)
    }

    /// The unified relationship type between a member holding this role and
    /// the head of household.
    #[must_use]
    pub fn rel_to_head(self) -> RelType {
        match self {
            Role::Head => RelType::SamePerson,
            Role::Spouse => RelType::Spouse,
            Role::Son | Role::Daughter => RelType::ParentChild,
            Role::Father | Role::Mother => RelType::ChildParent,
            Role::Brother | Role::Sister => RelType::Sibling,
            Role::Grandchild => RelType::GrandparentGrandchild,
            Role::SonInLaw | Role::DaughterInLaw => RelType::CoResident,
            Role::Servant | Role::Lodger | Role::Visitor => RelType::CoResident,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Head => "head",
            Role::Spouse => "spouse",
            Role::Son => "son",
            Role::Daughter => "daughter",
            Role::Father => "father",
            Role::Mother => "mother",
            Role::Brother => "brother",
            Role::Sister => "sister",
            Role::Grandchild => "grandchild",
            Role::SonInLaw => "son-in-law",
            Role::DaughterInLaw => "daughter-in-law",
            Role::Servant => "servant",
            Role::Lodger => "lodger",
            Role::Visitor => "visitor",
        };
        f.write_str(s)
    }
}

/// Every spelling [`Role::from_str`] accepts, in lowercase; matching
/// ignores ASCII case.
const ROLE_SPELLINGS: [(&str, Role); 19] = [
    ("head", Role::Head),
    ("spouse", Role::Spouse),
    ("wife", Role::Spouse),
    ("husband", Role::Spouse),
    ("son", Role::Son),
    ("daughter", Role::Daughter),
    ("father", Role::Father),
    ("mother", Role::Mother),
    ("brother", Role::Brother),
    ("sister", Role::Sister),
    ("grandchild", Role::Grandchild),
    ("grandson", Role::Grandchild),
    ("granddaughter", Role::Grandchild),
    ("son-in-law", Role::SonInLaw),
    ("daughter-in-law", Role::DaughterInLaw),
    ("servant", Role::Servant),
    ("lodger", Role::Lodger),
    ("boarder", Role::Lodger),
    ("visitor", Role::Visitor),
];

impl FromStr for Role {
    type Err = String;

    /// A role from any ASCII case of its spellings, with surrounding
    /// whitespace ignored; the error names the value lowercased.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        ROLE_SPELLINGS
            .iter()
            .find(|(spelling, _)| s.eq_ignore_ascii_case(spelling))
            .map(|&(_, role)| role)
            .ok_or_else(|| format!("unknown role: {:?}", s.to_ascii_lowercase()))
    }
}

/// Unified, head-independent relationship type between two household
/// members. Directed variants are normalised so that the edge always runs
/// from the *older generation / first endpoint* to the second; the
/// [`RelType::inverse`] method flips direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelType {
    /// Placeholder produced when relating a head role to itself; never
    /// appears on an edge between two distinct members.
    SamePerson,
    /// Married couple (symmetric).
    Spouse,
    /// First endpoint is a parent of the second.
    ParentChild,
    /// First endpoint is a child of the second (inverse of `ParentChild`).
    ChildParent,
    /// Siblings (symmetric).
    Sibling,
    /// First endpoint is a grandparent of the second.
    GrandparentGrandchild,
    /// First endpoint is a grandchild of the second.
    GrandchildGrandparent,
    /// Generic co-residence: servants, lodgers, visitors, or pairs whose
    /// family relation cannot be derived (symmetric).
    CoResident,
}

impl RelType {
    /// The relationship seen from the opposite endpoint.
    #[must_use]
    pub fn inverse(self) -> RelType {
        match self {
            RelType::ParentChild => RelType::ChildParent,
            RelType::ChildParent => RelType::ParentChild,
            RelType::GrandparentGrandchild => RelType::GrandchildGrandparent,
            RelType::GrandchildGrandparent => RelType::GrandparentGrandchild,
            sym => sym,
        }
    }

    /// Canonical form used on undirected edges: directed variants are
    /// mapped to their older-generation-first representative together with
    /// a flag that says whether the endpoints must be swapped.
    #[must_use]
    pub fn canonical(self) -> (RelType, bool) {
        match self {
            RelType::ChildParent => (RelType::ParentChild, true),
            RelType::GrandchildGrandparent => (RelType::GrandparentGrandchild, true),
            other => (other, false),
        }
    }
}

impl fmt::Display for RelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelType::SamePerson => "same-person",
            RelType::Spouse => "spouse",
            RelType::ParentChild => "parent-child",
            RelType::ChildParent => "child-parent",
            RelType::Sibling => "sibling",
            RelType::GrandparentGrandchild => "grandparent-grandchild",
            RelType::GrandchildGrandparent => "grandchild-grandparent",
            RelType::CoResident => "co-resident",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_round_trip_via_str() {
        for role in Role::ALL {
            let parsed: Role = role.to_string().parse().unwrap();
            assert_eq!(parsed, role);
        }
    }

    #[test]
    fn role_aliases_parse() {
        assert_eq!("wife".parse::<Role>().unwrap(), Role::Spouse);
        assert_eq!("Boarder".parse::<Role>().unwrap(), Role::Lodger);
        assert_eq!("GRANDSON".parse::<Role>().unwrap(), Role::Grandchild);
        assert!("cousin".parse::<Role>().is_err());
    }

    #[test]
    fn family_classification() {
        assert!(Role::Daughter.is_family());
        assert!(Role::Head.is_family());
        assert!(!Role::Servant.is_family());
        assert!(!Role::Visitor.is_family());
    }

    #[test]
    fn rel_to_head_directions() {
        // A son's edge head→son is ParentChild seen from the head.
        assert_eq!(Role::Son.rel_to_head(), RelType::ParentChild);
        // The head's mother: edge head→mother is ChildParent from the head.
        assert_eq!(Role::Mother.rel_to_head(), RelType::ChildParent);
    }

    #[test]
    fn inverse_is_involution() {
        for rel in [
            RelType::Spouse,
            RelType::ParentChild,
            RelType::ChildParent,
            RelType::Sibling,
            RelType::GrandparentGrandchild,
            RelType::GrandchildGrandparent,
            RelType::CoResident,
        ] {
            assert_eq!(rel.inverse().inverse(), rel);
        }
    }

    #[test]
    fn symmetric_types() {
        assert_eq!(RelType::Spouse.inverse(), RelType::Spouse);
        assert_eq!(RelType::Sibling.inverse(), RelType::Sibling);
        assert_eq!(RelType::CoResident.inverse(), RelType::CoResident);
        assert_ne!(RelType::ParentChild.inverse(), RelType::ParentChild);
    }

    #[test]
    fn canonicalisation() {
        assert_eq!(
            RelType::ChildParent.canonical(),
            (RelType::ParentChild, true)
        );
        assert_eq!(
            RelType::ParentChild.canonical(),
            (RelType::ParentChild, false)
        );
        assert_eq!(RelType::Spouse.canonical(), (RelType::Spouse, false));
    }
}
