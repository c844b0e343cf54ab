//! Person records and their linkage attributes.

use crate::{HouseholdId, PersonId, RecordId, Role};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// Sex as recorded on the census form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sex {
    /// Male.
    Male,
    /// Female.
    Female,
}

impl Sex {
    /// Single-letter census-form code.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Sex::Male => "m",
            Sex::Female => "f",
        }
    }
}

impl fmt::Display for Sex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for Sex {
    type Err = String;

    /// A sex from any ASCII case of its spellings, with surrounding
    /// whitespace ignored; the error names the value lowercased.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let is = |spelling: &str| s.eq_ignore_ascii_case(spelling);
        if is("m") || is("male") {
            Ok(Sex::Male)
        } else if is("f") || is("female") {
            Ok(Sex::Female)
        } else {
            Err(format!("unknown sex: {:?}", s.to_ascii_lowercase()))
        }
    }
}

/// The linkage-relevant attributes of a [`PersonRecord`], used to configure
/// similarity functions (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attribute {
    /// Given name.
    FirstName,
    /// Family name.
    Surname,
    /// Sex.
    Sex,
    /// Street address of the household.
    Address,
    /// Occupation as written on the form.
    Occupation,
    /// Age in years at census time.
    Age,
}

impl Attribute {
    /// The five string-comparable attributes of the paper's `Sim_func`
    /// (Table 2), in table order.
    pub const SIM_FUNC_SET: [Attribute; 5] = [
        Attribute::FirstName,
        Attribute::Sex,
        Attribute::Surname,
        Attribute::Address,
        Attribute::Occupation,
    ];
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Attribute::FirstName => "first_name",
            Attribute::Surname => "surname",
            Attribute::Sex => "sex",
            Attribute::Address => "address",
            Attribute::Occupation => "occupation",
            Attribute::Age => "age",
        };
        f.write_str(s)
    }
}

/// One row of a census dataset: a person observed in a household at one
/// point in time.
///
/// String attributes use the empty string to represent *missing* values —
/// the similarity layer treats empties as never matching. `age` is optional
/// for the same reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersonRecord {
    /// Snapshot-local record id (dense, usable as index).
    pub id: RecordId,
    /// Household this record belongs to (exactly one).
    pub household: HouseholdId,
    /// Ground-truth person identity (evaluation only; `None` for real data
    /// without truth). Linkage algorithms must not read this field.
    pub truth: Option<PersonId>,
    /// Given name; empty if missing.
    pub first_name: String,
    /// Family name; empty if missing.
    pub surname: String,
    /// Sex; `None` if missing.
    pub sex: Option<Sex>,
    /// Age in completed years; `None` if missing.
    pub age: Option<u32>,
    /// Street address; empty if missing.
    pub address: String,
    /// Occupation; empty if missing.
    pub occupation: String,
    /// Relationship to the head of household.
    pub role: Role,
}

impl PersonRecord {
    /// A record with all attributes missing — useful as a builder seed.
    #[must_use]
    pub fn empty(id: RecordId, household: HouseholdId, role: Role) -> Self {
        Self {
            id,
            household,
            truth: None,
            first_name: String::new(),
            surname: String::new(),
            sex: None,
            age: None,
            address: String::new(),
            occupation: String::new(),
            role,
        }
    }

    /// String form of an attribute (ages and sex are rendered to strings;
    /// missing values render as the empty string). This is the value the
    /// attribute-level string similarity functions see.
    #[must_use]
    pub fn attribute_value(&self, attr: Attribute) -> String {
        self.attribute_into(attr, &mut String::new()).to_owned()
    }

    /// [`attribute_value`](Self::attribute_value) without allocating: the
    /// text attributes are borrowed as stored, sex as its static code, and
    /// an age is formatted into `buf` (cleared first).
    pub fn attribute_into<'a>(&'a self, attr: Attribute, buf: &'a mut String) -> &'a str {
        match attr {
            Attribute::FirstName => &self.first_name,
            Attribute::Surname => &self.surname,
            Attribute::Sex => self.sex.map_or("", Sex::code),
            Attribute::Address => &self.address,
            Attribute::Occupation => &self.occupation,
            Attribute::Age => {
                buf.clear();
                if let Some(age) = self.age {
                    // writing to a String cannot fail
                    let _ = write!(buf, "{age}");
                }
                buf
            }
        }
    }

    /// Borrowed form for the string attributes (`None` for `Sex`/`Age`,
    /// which have no stable borrowed representation).
    #[must_use]
    pub fn attribute_str(&self, attr: Attribute) -> Option<&str> {
        match attr {
            Attribute::FirstName => Some(&self.first_name),
            Attribute::Surname => Some(&self.surname),
            Attribute::Address => Some(&self.address),
            Attribute::Occupation => Some(&self.occupation),
            Attribute::Sex | Attribute::Age => None,
        }
    }

    /// Whether the given attribute is missing on this record.
    #[must_use]
    pub fn is_missing(&self, attr: Attribute) -> bool {
        match attr {
            Attribute::Sex => self.sex.is_none(),
            Attribute::Age => self.age.is_none(),
            other => self
                .attribute_str(other)
                .is_some_and(|s| s.trim().is_empty()),
        }
    }

    /// Number of missing values among the attributes of
    /// [`Attribute::SIM_FUNC_SET`] — feeds the Table 1 missing-value ratio.
    #[must_use]
    pub fn missing_count(&self) -> usize {
        Attribute::SIM_FUNC_SET
            .iter()
            .filter(|&&a| self.is_missing(a))
            .count()
    }

    /// `"first surname"` key used for the Table 1 `|fn+sn|` ambiguity
    /// statistic (lower-cased; missing parts keep their empty string).
    #[must_use]
    pub fn name_key(&self) -> String {
        format!(
            "{} {}",
            self.first_name.to_lowercase(),
            self.surname.to_lowercase()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PersonRecord {
        PersonRecord {
            id: RecordId(1),
            household: HouseholdId(0),
            truth: Some(PersonId(99)),
            first_name: "John".into(),
            surname: "Ashworth".into(),
            sex: Some(Sex::Male),
            age: Some(39),
            address: "4 Mill Lane".into(),
            occupation: "weaver".into(),
            role: Role::Head,
        }
    }

    #[test]
    fn sex_parsing() {
        assert_eq!("M".parse::<Sex>().unwrap(), Sex::Male);
        assert_eq!("female".parse::<Sex>().unwrap(), Sex::Female);
        assert!("x".parse::<Sex>().is_err());
    }

    #[test]
    fn attribute_values() {
        let r = sample();
        assert_eq!(r.attribute_value(Attribute::FirstName), "John");
        assert_eq!(r.attribute_value(Attribute::Sex), "m");
        assert_eq!(r.attribute_value(Attribute::Age), "39");
        // the borrowing form clears a reused buffer before formatting
        let mut buf = String::from("stale");
        assert_eq!(r.attribute_into(Attribute::Age, &mut buf), "39");
        let mut r = r;
        r.age = None;
        assert_eq!(r.attribute_into(Attribute::Age, &mut buf), "");
    }

    #[test]
    fn missing_detection() {
        let mut r = sample();
        assert_eq!(r.missing_count(), 0);
        r.occupation.clear();
        r.sex = None;
        assert!(r.is_missing(Attribute::Occupation));
        assert!(r.is_missing(Attribute::Sex));
        assert!(!r.is_missing(Attribute::FirstName));
        assert_eq!(r.missing_count(), 2);
        r.age = None;
        assert!(r.is_missing(Attribute::Age));
        // Age is not part of the SIM_FUNC_SET ratio
        assert_eq!(r.missing_count(), 2);
    }

    #[test]
    fn empty_record_is_fully_missing() {
        let r = PersonRecord::empty(RecordId(0), HouseholdId(0), Role::Lodger);
        assert_eq!(r.missing_count(), Attribute::SIM_FUNC_SET.len());
    }

    #[test]
    fn name_key_lowercases() {
        assert_eq!(sample().name_key(), "john ashworth");
    }

    #[test]
    fn attribute_str_for_strings_only() {
        let r = sample();
        assert_eq!(r.attribute_str(Attribute::Surname), Some("Ashworth"));
        assert_eq!(r.attribute_str(Attribute::Age), None);
        assert_eq!(r.attribute_str(Attribute::Sex), None);
    }
}
