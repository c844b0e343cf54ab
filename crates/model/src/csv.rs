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
use std::borrow::Cow;
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

/// Split a line that holds a quote into fields, by the quoting rules in
/// the module docs. A field that opens with a quote is unescaped into an
/// owned string; any other field is borrowed from `line`, and a quote
/// inside it is an error. Errors come in left-to-right order.
fn split_quoted(line: &str) -> Result<Vec<Cow<'_, str>>, String> {
    let mut fields = Vec::with_capacity(FIELDS);
    let mut rest = line;
    loop {
        let Some(quoted) = rest.strip_prefix('"') else {
            let end = rest.find(',').unwrap_or(rest.len());
            if rest[..end].contains('"') {
                return Err("unexpected quote mid-field".into());
            }
            fields.push(Cow::Borrowed(&rest[..end]));
            match rest.get(end + 1..) {
                Some(next) => rest = next,
                None => return Ok(fields),
            }
            continue;
        };
        // the quoted section: `""` is one quote, a lone quote closes it
        let mut field = String::new();
        let mut body = quoted;
        loop {
            let Some(q) = body.find('"') else {
                return Err("unterminated quote".into());
            };
            field.push_str(&body[..q]);
            if body[q + 1..].starts_with('"') {
                field.push('"');
                body = &body[q + 2..];
            } else {
                body = &body[q + 1..];
                break;
            }
        }
        // anything after the closing quote, up to the comma, is literal
        let end = body.find(',').unwrap_or(body.len());
        if body[..end].contains('"') {
            return Err("unexpected quote mid-field".into());
        }
        field.push_str(&body[..end]);
        fields.push(Cow::Owned(field));
        match body.get(end + 1..) {
            Some(next) => rest = next,
            None => return Ok(fields),
        }
    }
}

/// Split a line without quotes on its commas: its first [`FIELDS`]
/// fields, borrowed, and how many it has.
fn split_plain(line: &str) -> ([&str; FIELDS], usize) {
    let mut fields = [""; FIELDS];
    let (mut count, mut start) = (0, 0);
    let ends = line.bytes().enumerate().filter(|&(_, b)| b == b',');
    for end in ends.map(|(at, _)| at).chain([line.len()]) {
        if let Some(field) = fields.get_mut(count) {
            *field = &line[start..end];
        }
        count += 1;
        start = end + 1;
    }
    (fields, count)
}

/// Fields per dataset row.
const FIELDS: usize = 10;

/// Read a snapshot from CSV produced by [`write_dataset`].
///
/// The input is read into one buffer and walked line by line as byte
/// slices, each checked for UTF-8 on its own. A line without a quote is
/// split on commas into borrowed fields, and only the four text fields
/// are copied out; a line holding a quote goes through the quoting
/// rules. The buffer is dropped before this returns.
///
/// # Errors
///
/// Returns a parse error with the offending 1-based line number (bytes
/// that are not UTF-8 and a repeated record id included). The households
/// are grouped from the records' own fields, so no other structural
/// error of [`CensusDataset::new`] can arise. A read error is returned
/// before any line is parsed.
pub fn read_dataset<R: BufRead>(year: i32, mut r: R) -> Result<CensusDataset, ModelError> {
    let mut text = Vec::new();
    r.read_to_end(&mut text)?;
    // at most one record per line after the header
    let rows = text.iter().filter(|&&b| b == b'\n').count();
    let mut records = Vec::with_capacity(rows);
    let mut record_index: HashMap<RecordId, usize> = HashMap::with_capacity(rows);
    // households in first-sight order, grouped from the records' own
    // fields, with the slot of each id; rows of one household usually
    // follow each other, so the last slot is tried before the map
    let mut households: Vec<(HouseholdId, Vec<RecordId>)> = Vec::new();
    let mut household_slot: HashMap<HouseholdId, usize> = HashMap::new();
    for (n, bytes) in lines(&text) {
        let line = utf8_line(n, bytes)?;
        if n == 1 {
            check_header(line, HEADER)?;
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let record = if line.contains('"') {
            let fields =
                split_quoted(line).map_err(|message| ModelError::Parse { line: n, message })?;
            let fields: Vec<&str> = fields.iter().map(|f| f.as_ref()).collect();
            let fields = fields
                .try_into()
                .map_err(|f: Vec<&str>| field_count(n, f.len()))?;
            parse_record(n, fields)?
        } else {
            let (fields, count) = split_plain(line);
            if count != FIELDS {
                return Err(field_count(n, count));
            }
            parse_record(n, fields)?
        };
        let (id, household) = (record.id, record.household);
        if record_index.insert(id, records.len()).is_some() {
            return Err(ModelError::Parse {
                line: n,
                message: format!("duplicate record id {id}"),
            });
        }
        records.push(record);
        let slot = match households.last() {
            Some((last, _)) if *last == household => households.len() - 1,
            _ => *household_slot.entry(household).or_insert_with(|| {
                households.push((household, Vec::new()));
                households.len() - 1
            }),
        };
        households[slot].1.push(id);
    }
    drop(text);
    let households = households
        .into_iter()
        .map(|(id, members)| Household::new(id, members))
        .collect();
    Ok(CensusDataset::grouped(
        year,
        records,
        households,
        record_index,
        household_slot,
    ))
}

/// The lines of `text` as `BufRead::split(b'\n')` yields them, numbered
/// from 1, each without one trailing `\r`: no line follows a final
/// newline, and empty input has none.
fn lines(text: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let body = text.strip_suffix(b"\n").unwrap_or(text);
    body.split(|&b| b == b'\n')
        .take(if text.is_empty() { 0 } else { usize::MAX })
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .zip(1..)
        .map(|(line, n)| (n, line))
}

/// Line `n` as text, or its parse error when it is not UTF-8.
fn utf8_line(n: usize, bytes: &[u8]) -> Result<&str, ModelError> {
    std::str::from_utf8(bytes).map_err(|e| ModelError::Parse {
        line: n,
        message: format!("invalid UTF-8 ({e})"),
    })
}

/// The error of data line `n` when it has `count` fields.
fn field_count(n: usize, count: usize) -> ModelError {
    ModelError::Parse {
        line: n,
        message: format!("expected {FIELDS} fields, got {count}"),
    }
}

/// The record of data line `n`, from its fields.
fn parse_record(n: usize, fields: [&str; FIELDS]) -> Result<PersonRecord, ModelError> {
    let [id, household, first_name, surname, sex, age, address, occupation, role, truth] = fields;
    let parse_u64 = |s: &str, what: &str| -> Result<u64, ModelError> {
        s.trim().parse().map_err(|_| ModelError::Parse {
            line: n,
            message: format!("bad {what}: {s:?}"),
        })
    };
    let parse_err = |message: String| ModelError::Parse { line: n, message };
    let id = RecordId(parse_u64(id, "record_id")?);
    let household = HouseholdId(parse_u64(household, "household_id")?);
    let sex = if sex.trim().is_empty() {
        None
    } else {
        Some(sex.parse().map_err(parse_err)?)
    };
    let age = if age.trim().is_empty() {
        None
    } else {
        let value = parse_u64(age, "age")?;
        Some(
            u32::try_from(value)
                .map_err(|_| parse_err(format!("bad age: {age:?} exceeds {}", u32::MAX)))?,
        )
    };
    let role: Role = role.parse().map_err(parse_err)?;
    let truth = if truth.trim().is_empty() {
        None
    } else {
        Some(PersonId(parse_u64(truth, "person_id")?))
    };
    Ok(PersonRecord {
        id,
        household,
        truth,
        first_name: first_name.to_owned(),
        surname: surname.to_owned(),
        sex,
        age,
        address: address.to_owned(),
        occupation: occupation.to_owned(),
        role,
    })
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
/// Returns a parse error (with line number) on malformed input, bytes
/// that are not UTF-8 included, or on a 1:1 violation.
pub fn read_record_mapping<R: BufRead>(r: R) -> Result<RecordMapping, ModelError> {
    let mut m = RecordMapping::new();
    read_pairs(r, RECORD_MAPPING_HEADER, |line, o, n| {
        let (o, n) = (RecordId(o), RecordId(n));
        if m.insert(o, n) {
            return Ok(());
        }
        let message = format!("1:1 violation at pair {o},{n}");
        Err(ModelError::Parse { line, message })
    })?;
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
/// Returns a parse error (with line number) on malformed input, bytes
/// that are not UTF-8 included.
pub fn read_group_mapping<R: BufRead>(r: R) -> Result<GroupMapping, ModelError> {
    let mut m = GroupMapping::new();
    read_pairs(r, GROUP_MAPPING_HEADER, |_, o, n| {
        m.insert(HouseholdId(o), HouseholdId(n));
        Ok(())
    })?;
    Ok(m)
}

/// Read a two-column id CSV whose line 1 is `header`, walking lines as
/// [`read_dataset`] does, and pass each data line's number and ids to
/// `insert` in file order.
fn read_pairs<R: BufRead>(
    mut r: R,
    header: &str,
    mut insert: impl FnMut(usize, u64, u64) -> Result<(), ModelError>,
) -> Result<(), ModelError> {
    let mut text = Vec::new();
    r.read_to_end(&mut text)?;
    for (n, bytes) in lines(&text) {
        let line = utf8_line(n, bytes)?;
        if n == 1 {
            check_header(line, header)?;
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
        insert(n, parse(a)?, parse(b)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sex;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The reader's former per-line splitter, char by char into owned
    /// fields: the oracle for [`split_quoted`].
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

    /// The reader's former loop: one owned `String` per line through
    /// `BufRead::split`, every line through [`split_line`].
    fn oracle_read<R: BufRead>(year: i32, r: R) -> Result<CensusDataset, ModelError> {
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
            let fields =
                split_line(&line).map_err(|message| ModelError::Parse { line: n, message })?;
            let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
            let fields: [&str; FIELDS] = fields
                .try_into()
                .map_err(|f: Vec<&str>| field_count(n, f.len()))?;
            let record = parse_record(n, fields)?;
            let id = record.id;
            if record_index.insert(id, records.len()).is_some() {
                return Err(ModelError::Parse {
                    line: n,
                    message: format!("duplicate record id {id}"),
                });
            }
            let household = record.household;
            records.push(record);
            household_members
                .entry(household)
                .or_insert_with(|| {
                    household_order.push(household);
                    Vec::new()
                })
                .push(id);
        }
        let households = household_order
            .into_iter()
            .map(|id| Household::new(id, household_members.remove(&id).unwrap_or_default()))
            .collect();
        CensusDataset::new(year, records, households)
    }

    /// A text field as a writer or a careless hand would put it: quoted
    /// commas, doubled quotes, non-ASCII names, stray and open quotes.
    fn text_field() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            Just("john".to_owned()),
            Just("Zoë Ōsaka".to_owned()),
            Just(" cotton weaver ".to_owned()),
            Just(escape("12, bank street")),
            Just(escape("say \"hi\", twice")),
            Just(escape("\"")),
            Just("\"\"".to_owned()),
            Just("\"quoted\" tail".to_owned()),
            Just("ab\"cd".to_owned()),
            Just("\"open, never closed".to_owned()),
            Just("\"\"\"".to_owned()),
        ]
    }

    /// One of `options`, uniformly.
    fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
        (0..options.len()).prop_map(move |i| options[i])
    }

    /// One data row: mostly well-formed, sometimes a blank line, a row
    /// with a field missing or one too many, or bytes that are not UTF-8.
    fn row() -> impl Strategy<Value = Vec<u8>> {
        let fields = (
            (0u64..40, 0u64..4),
            (text_field(), text_field(), text_field(), text_field()),
            one_of(&["m", "F", "Male", " female ", "", "x", "É"]),
            one_of(&["40", "", " 7 ", "-5", "4294967295", "4294967296"]),
            one_of(&["head", "WIFE", " Lodger ", "son-in-law", "stranger"]),
            one_of(&["", "7", "x"]),
        );
        (fields, 0u8..12).prop_map(|(f, shape)| {
            let ((id, hh), (first, last, address, occupation), sex, age, role, truth) = f;
            let mut row = format!(
                "{id},{hh},{first},{last},{sex},{age},{address},{occupation},{role},{truth}"
            );
            match shape {
                8 => row.truncate(row.rfind(',').unwrap_or(0)),
                9 => row.push_str(",extra"),
                10 => row = [" ", "", "\t"][id as usize % 3].to_owned(),
                _ => {}
            }
            let mut bytes = row.into_bytes();
            if shape == 11 {
                bytes.insert(bytes.len() / 2, 0xff);
            }
            bytes
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reader and its former char-by-char loop agree on every
        /// file: equal datasets, or equal errors on the same line.
        #[test]
        fn prop_reader_equals_the_split_line_oracle(
            rows in proptest::collection::vec(row(), 0..10),
            crlf in any::<bool>(),
            bom in any::<bool>(),
            trailing_eol in any::<bool>(),
        ) {
            let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            let mut text = Vec::new();
            if bom {
                text.extend_from_slice("\u{FEFF}".as_bytes());
            }
            text.extend_from_slice(HEADER.as_bytes());
            for row in &rows {
                text.extend_from_slice(eol);
                text.extend_from_slice(row);
            }
            if trailing_eol {
                text.extend_from_slice(eol);
            }
            match (read_dataset(1871, text.as_slice()), oracle_read(1871, text.as_slice())) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.records(), want.records());
                    prop_assert_eq!(got.households(), want.households());
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => prop_assert!(false, "reader {:?}, oracle {:?}", got.err(), want.err()),
            }
        }

        /// The quoted-line splitter and the oracle agree on any line of
        /// commas, quotes and letters.
        #[test]
        fn prop_split_quoted_equals_split_line(line in "[a\",é ]{0,16}") {
            let got = split_quoted(&line).map(|f| f.into_iter().map(Cow::into_owned).collect());
            prop_assert_eq!(got, split_line(&line));
        }
    }

    #[test]
    fn empty_input_and_lone_newlines_read_as_before() {
        for text in ["", "\n", "\r\n", "\n\n"] {
            let got = read_dataset(1871, text.as_bytes()).map(|d| d.record_count());
            let want = oracle_read(1871, text.as_bytes()).map(|d| d.record_count());
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text:?}");
        }
    }

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
        for split in [split_line, |l: &str| {
            split_quoted(l).map(|f| f.into_iter().map(Cow::into_owned).collect())
        }] {
            assert_eq!(split("a,b,c").unwrap(), vec!["a", "b", "c"]);
            assert_eq!(split("\"a,b\",c").unwrap(), vec!["a,b", "c"]);
            assert_eq!(
                split("\"say \"\"hi\"\"\",x").unwrap(),
                vec!["say \"hi\"", "x"]
            );
            assert!(split("\"open").is_err());
            assert!(split("ab\"cd").is_err());
        }
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
        // and so is a byte that is not UTF-8, in either mapping
        let e = read_record_mapping(&b"old_record_id,new_record_id\n1,2\n3,\xff4\n"[..]);
        assert!(matches!(e, Err(ModelError::Parse { line: 3, .. })), "{e:?}");
        let e = read_group_mapping(&b"old_household_id,new_household_id\n\xff1,2\n"[..]);
        assert!(matches!(e, Err(ModelError::Parse { line: 2, .. })), "{e:?}");
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
