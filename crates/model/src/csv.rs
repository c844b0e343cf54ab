//! Minimal CSV persistence for census snapshots.
//!
//! The format is one row per person record:
//!
//! ```text
//! record_id,household_id,first_name,surname,sex,age,address,occupation,role[,person_id]
//! ```
//!
//! Fields containing commas or quotes are quoted with `"` and inner quotes
//! doubled (RFC 4180 subset, no embedded newlines). Households are implied
//! by the `household_id` column; member order follows row order. The
//! optional trailing `person_id` column carries ground truth. Readers
//! skip a leading UTF-8 byte-order mark, which spreadsheet exports add.

use crate::{
    CensusDataset, GroupMapping, Household, HouseholdId, ModelError, PersonId, PersonRecord,
    RecordId, RecordMapping, Role,
};
use std::collections::HashMap;
use std::io::{BufRead, Write};

const HEADER: &str =
    "record_id,household_id,first_name,surname,sex,age,address,occupation,role,person_id";

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Split one CSV line into fields, honouring the quoting rules above.
fn split_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => return Err("unexpected quote mid-field".into()),
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quote".into());
    }
    fields.push(cur);
    Ok(fields)
}

/// Write a snapshot as CSV.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dataset<W: Write>(ds: &CensusDataset, mut w: W) -> Result<(), ModelError> {
    writeln!(w, "{HEADER}")?;
    // rows in household order, members in form order, so round-trips
    // preserve grouping structure exactly
    for h in ds.households() {
        for r in ds.members(h.id) {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{}",
                r.id.raw(),
                r.household.raw(),
                escape(&r.first_name),
                escape(&r.surname),
                r.sex.map(|s| s.code()).unwrap_or(""),
                r.age.map(|a| a.to_string()).unwrap_or_default(),
                escape(&r.address),
                escape(&r.occupation),
                r.role,
                r.truth.map(|p| p.raw().to_string()).unwrap_or_default(),
            )?;
        }
    }
    Ok(())
}

/// Check line 1 against `header`. A leading UTF-8 byte-order mark is
/// skipped: spreadsheet tools often prepend one when exporting CSV.
fn check_header(line: &str, header: &str) -> Result<(), ModelError> {
    if line.strip_prefix('\u{FEFF}').unwrap_or(line).trim() != header {
        return Err(ModelError::Parse {
            line: 1,
            message: format!("expected header {header:?}"),
        });
    }
    Ok(())
}

/// Read a snapshot from CSV produced by [`write_dataset`].
///
/// # Errors
///
/// Returns a parse error with the offending 1-based line number (bytes
/// that are not UTF-8 and a repeated record id included), or any other
/// structural error from [`CensusDataset::new`].
pub fn read_dataset<R: BufRead>(year: i32, r: R) -> Result<CensusDataset, ModelError> {
    let mut records = Vec::new();
    let mut record_index: HashMap<RecordId, usize> = HashMap::new();
    let mut household_members: HashMap<HouseholdId, Vec<RecordId>> = HashMap::new();
    let mut household_order: Vec<HouseholdId> = Vec::new();
    for (lineno, bytes) in r.split(b'\n').enumerate() {
        let n = lineno + 1;
        let mut bytes = bytes?;
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        let line = String::from_utf8(bytes).map_err(|e| ModelError::Parse {
            line: n,
            message: format!("invalid UTF-8 ({})", e.utf8_error()),
        })?;
        if n == 1 {
            check_header(&line, HEADER)?;
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(&line).map_err(|message| ModelError::Parse { line: n, message })?;
        if fields.len() != 10 {
            return Err(ModelError::Parse {
                line: n,
                message: format!("expected 10 fields, got {}", fields.len()),
            });
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, ModelError> {
            s.trim().parse().map_err(|_| ModelError::Parse {
                line: n,
                message: format!("bad {what}: {s:?}"),
            })
        };
        let id = RecordId(parse_u64(&fields[0], "record_id")?);
        let household = HouseholdId(parse_u64(&fields[1], "household_id")?);
        let sex = if fields[4].trim().is_empty() {
            None
        } else {
            Some(fields[4].parse().map_err(|e| ModelError::Parse {
                line: n,
                message: e,
            })?)
        };
        let age = if fields[5].trim().is_empty() {
            None
        } else {
            let age = parse_u64(&fields[5], "age")?;
            Some(u32::try_from(age).map_err(|_| ModelError::Parse {
                line: n,
                message: format!("bad age: {:?} exceeds {}", fields[5], u32::MAX),
            })?)
        };
        let role: Role = fields[8].parse().map_err(|e| ModelError::Parse {
            line: n,
            message: e,
        })?;
        let truth = if fields[9].trim().is_empty() {
            None
        } else {
            Some(PersonId(parse_u64(&fields[9], "person_id")?))
        };
        if record_index.insert(id, records.len()).is_some() {
            return Err(ModelError::Parse {
                line: n,
                message: format!("duplicate record id {id}"),
            });
        }
        records.push(PersonRecord {
            id,
            household,
            truth,
            first_name: fields[2].clone(),
            surname: fields[3].clone(),
            sex,
            age,
            address: fields[6].clone(),
            occupation: fields[7].clone(),
            role,
        });
        let members = household_members.entry(household).or_insert_with(|| {
            household_order.push(household);
            Vec::new()
        });
        members.push(id);
    }
    let households = household_order
        .into_iter()
        .map(|id| Household::new(id, household_members.remove(&id).unwrap_or_default()))
        .collect();
    CensusDataset::indexed(year, records, households, record_index)
}

const RECORD_MAPPING_HEADER: &str = "old_record_id,new_record_id";
const GROUP_MAPPING_HEADER: &str = "old_household_id,new_household_id";

/// Write a record mapping as two-column CSV, sorted by old id.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_record_mapping<W: Write>(m: &RecordMapping, mut w: W) -> Result<(), ModelError> {
    writeln!(w, "{RECORD_MAPPING_HEADER}")?;
    let mut pairs: Vec<_> = m.iter().collect();
    pairs.sort();
    for (o, n) in pairs {
        writeln!(w, "{},{}", o.raw(), n.raw())?;
    }
    Ok(())
}

/// Read a record mapping written by [`write_record_mapping`].
///
/// # Errors
///
/// Returns a parse error (with line number) on malformed input or on a
/// 1:1 violation.
pub fn read_record_mapping<R: BufRead>(r: R) -> Result<RecordMapping, ModelError> {
    let mut m = RecordMapping::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let n = lineno + 1;
        if n == 1 {
            check_header(&line, RECORD_MAPPING_HEADER)?;
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let (a, b) = line.split_once(',').ok_or_else(|| ModelError::Parse {
            line: n,
            message: "expected two comma-separated ids".into(),
        })?;
        let parse = |s: &str| -> Result<u64, ModelError> {
            s.trim().parse().map_err(|_| ModelError::Parse {
                line: n,
                message: format!("bad id {s:?}"),
            })
        };
        let (o, nw) = (RecordId(parse(a)?), RecordId(parse(b)?));
        if !m.insert(o, nw) {
            return Err(ModelError::Parse {
                line: n,
                message: format!("1:1 violation at pair {o},{nw}"),
            });
        }
    }
    Ok(m)
}

/// Write a group mapping as two-column CSV, sorted.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_group_mapping<W: Write>(m: &GroupMapping, mut w: W) -> Result<(), ModelError> {
    writeln!(w, "{GROUP_MAPPING_HEADER}")?;
    for (o, n) in m.iter() {
        writeln!(w, "{},{}", o.raw(), n.raw())?;
    }
    Ok(())
}

/// Read a group mapping written by [`write_group_mapping`].
///
/// # Errors
///
/// Returns a parse error (with line number) on malformed input.
pub fn read_group_mapping<R: BufRead>(r: R) -> Result<GroupMapping, ModelError> {
    let mut m = GroupMapping::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let n = lineno + 1;
        if n == 1 {
            check_header(&line, GROUP_MAPPING_HEADER)?;
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let (a, b) = line.split_once(',').ok_or_else(|| ModelError::Parse {
            line: n,
            message: "expected two comma-separated ids".into(),
        })?;
        let parse = |s: &str| -> Result<u64, ModelError> {
            s.trim().parse().map_err(|_| ModelError::Parse {
                line: n,
                message: format!("bad id {s:?}"),
            })
        };
        m.insert(HouseholdId(parse(a)?), HouseholdId(parse(b)?));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sex;

    fn sample() -> CensusDataset {
        let records = vec![
            PersonRecord {
                id: RecordId(0),
                household: HouseholdId(0),
                truth: Some(PersonId(7)),
                first_name: "John".into(),
                surname: "Ashworth".into(),
                sex: Some(Sex::Male),
                age: Some(39),
                address: "4, Mill Lane".into(),
                occupation: "cotton \"weaver\"".into(),
                role: Role::Head,
            },
            PersonRecord {
                id: RecordId(1),
                household: HouseholdId(0),
                truth: None,
                first_name: "Alice".into(),
                surname: "Ashworth".into(),
                sex: None,
                age: None,
                address: String::new(),
                occupation: String::new(),
                role: Role::Daughter,
            },
        ];
        let households = vec![Household::new(
            HouseholdId(0),
            vec![RecordId(0), RecordId(1)],
        )];
        CensusDataset::new(1871, records, households).unwrap()
    }

    #[test]
    fn round_trip() {
        let ds = sample();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(1871, buf.as_slice()).unwrap();
        assert_eq!(back.record_count(), 2);
        let r0 = back.record(RecordId(0)).unwrap();
        assert_eq!(r0.address, "4, Mill Lane");
        assert_eq!(r0.occupation, "cotton \"weaver\"");
        assert_eq!(r0.truth, Some(PersonId(7)));
        let r1 = back.record(RecordId(1)).unwrap();
        assert_eq!(r1.sex, None);
        assert_eq!(r1.age, None);
        assert!(r1.first_name == "Alice");
        assert_eq!(back.household(HouseholdId(0)).unwrap().size(), 2);
    }

    #[test]
    fn split_line_quoting() {
        assert_eq!(split_line("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_line("\"a,b\",c").unwrap(), vec!["a,b", "c"]);
        assert_eq!(
            split_line("\"say \"\"hi\"\"\",x").unwrap(),
            vec!["say \"hi\"", "x"]
        );
        assert!(split_line("\"open").is_err());
        assert!(split_line("ab\"cd").is_err());
    }

    /// `bytes` with a UTF-8 byte-order mark in front.
    fn with_bom(bytes: &[u8]) -> Vec<u8> {
        let mut out = "\u{FEFF}".as_bytes().to_vec();
        out.extend_from_slice(bytes);
        out
    }

    #[test]
    fn dataset_reader_skips_a_leading_bom() {
        let mut buf = Vec::new();
        write_dataset(&sample(), &mut buf).unwrap();
        let plain = read_dataset(1871, buf.as_slice()).unwrap();
        let bom = read_dataset(1871, with_bom(&buf).as_slice()).unwrap();
        assert_eq!(bom.records(), plain.records());
        // a BOM only counts at the very start of the file
        let e = read_dataset(1871, format!("x\u{FEFF}{HEADER}\n").as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 1, .. }));
    }

    #[test]
    fn record_mapping_reader_skips_a_leading_bom() {
        let data = "old_record_id,new_record_id\n1,10\n";
        let back = read_record_mapping(with_bom(data.as_bytes()).as_slice()).unwrap();
        assert_eq!(back, read_record_mapping(data.as_bytes()).unwrap());
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn group_mapping_reader_skips_a_leading_bom() {
        let data = "old_household_id,new_household_id\n5,6\n";
        let back = read_group_mapping(with_bom(data.as_bytes()).as_slice()).unwrap();
        assert_eq!(back, read_group_mapping(data.as_bytes()).unwrap());
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        let e = read_dataset(1871, "nope\n".as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_field_count_rejected() {
        let data = format!("{HEADER}\n1,2,3\n");
        let e = read_dataset(1871, data.as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 2, .. }));
    }

    #[test]
    fn bad_age_rejected() {
        let data = format!("{HEADER}\n0,0,a,b,m,xx,addr,occ,head,\n");
        let e = read_dataset(1871, data.as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 2, .. }));
    }

    #[test]
    fn age_beyond_u32_rejected_not_truncated() {
        let row = |age: &str| format!("{HEADER}\n0,0,a,b,m,{age},addr,occ,head,\n");
        let d = read_dataset(1871, row("4294967295").as_bytes()).unwrap();
        assert_eq!(d.records()[0].age, Some(u32::MAX));
        for age in ["4294967296", "99999999999999999999"] {
            let e = read_dataset(1871, row(age).as_bytes()).unwrap_err();
            assert!(
                matches!(e, ModelError::Parse { line: 2, .. }),
                "{age}: {e:?}"
            );
        }
    }

    #[test]
    fn record_mapping_round_trip() {
        let m =
            RecordMapping::from_pairs([(RecordId(3), RecordId(30)), (RecordId(1), RecordId(10))])
                .unwrap();
        let mut buf = Vec::new();
        write_record_mapping(&m, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        // sorted by old id
        assert!(text.find("1,10").unwrap() < text.find("3,30").unwrap());
        let back = read_record_mapping(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn record_mapping_rejects_one_to_one_violation() {
        let data = "old_record_id,new_record_id\n1,10\n1,11\n";
        let e = read_record_mapping(data.as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 3, .. }));
    }

    #[test]
    fn group_mapping_round_trip() {
        let m: GroupMapping = [
            (HouseholdId(1), HouseholdId(10)),
            (HouseholdId(1), HouseholdId(11)),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_group_mapping(&m, &mut buf).unwrap();
        let back = read_group_mapping(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn mapping_bad_header_rejected() {
        assert!(read_record_mapping("x\n".as_bytes()).is_err());
        assert!(read_group_mapping("y\n".as_bytes()).is_err());
    }

    #[test]
    fn mapping_malformed_id_reports_offending_line() {
        let e = read_record_mapping("old_record_id,new_record_id\n1,abc\n".as_bytes()).unwrap_err();
        match e {
            ModelError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("\"abc\""), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        let e = read_group_mapping("old_household_id,new_household_id\n5,6\nx,2\n".as_bytes())
            .unwrap_err();
        match e {
            ModelError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("\"x\""), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // a missing comma is also attributed to its line
        let e = read_record_mapping("old_record_id,new_record_id\n7\n".as_bytes()).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 2, .. }));
    }

    #[test]
    fn blank_lines_skipped() {
        let mut buf = Vec::new();
        write_dataset(&sample(), &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n\n");
        let back = read_dataset(1871, text.as_bytes()).unwrap();
        assert_eq!(back.record_count(), 2);
    }
}
