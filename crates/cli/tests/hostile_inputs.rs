//! Hostile-input corpus: snapshots a real archive or a hand-edited
//! spreadsheet could send, each linked through `run_cli`. Malformed input
//! must come back as a typed error (naming the line where the format has
//! one); degenerate but well-formed input must link. No case may panic.

use census_cli::run_cli;
use std::path::{Path, PathBuf};

const HEADER: &str =
    "record_id,household_id,first_name,surname,sex,age,address,occupation,role,person_id";

/// The rows of the small valid 1851 snapshot every malformed case edits.
const OLD_ROWS: [&str; 4] = [
    "1,1,john,ashworth,m,40,mill lane,weaver,head,",
    "2,1,mary,ashworth,f,38,mill lane,,wife,",
    "3,1,james,ashworth,m,12,mill lane,scholar,son,",
    "4,2,alice,pilkington,f,67,bank street,,head,",
];

/// The same town ten years on.
const NEW_ROWS: [&str; 4] = [
    "1,1,john,ashworth,m,50,mill lane,weaver,head,",
    "2,1,mary,ashworth,f,48,mill lane,,wife,",
    "3,1,james,ashworth,m,22,mill lane,spinner,son,",
    "4,2,alice,pilkington,f,77,bank street,,head,",
];

/// A snapshot file: the header, then `rows`, each ended by `eol`.
fn snapshot(rows: &[&str], eol: &str) -> Vec<u8> {
    let mut text = format!("{HEADER}{eol}");
    for row in rows {
        text.push_str(row);
        text.push_str(eol);
    }
    text.into_bytes()
}

/// The valid 1851 rows followed by `extra` (row 6 of the file is the
/// first extra row).
fn old_with(extra: &[&str]) -> Vec<u8> {
    let rows: Vec<&str> = OLD_ROWS.iter().chain(extra).copied().collect();
    snapshot(&rows, "\n")
}

enum Outcome {
    /// `link` fails with an error that contains every fragment.
    Error(&'static [&'static str]),
    /// `link` succeeds and writes both mapping files.
    Links,
    /// `link` succeeds with the mappings, byte for byte, of linking this
    /// plain old/new pair.
    LinksLike(Vec<u8>, Vec<u8>),
}

struct Case {
    name: &'static str,
    old: Vec<u8>,
    new: Vec<u8>,
    /// Options added to the `link` command line.
    args: Vec<String>,
    outcome: Outcome,
}

fn cli(args: &[&str]) -> Result<String, String> {
    run_cli(args.iter().map(|a| (*a).to_owned()).collect())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("census-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    dir
}

/// Write `old`/`new` into `dir` and link them into `dir/out`, with the
/// extra `args`.
fn link(dir: &Path, old: &[u8], new: &[u8], args: &[&str]) -> Result<String, String> {
    std::fs::create_dir_all(dir).expect("creating the case directory");
    let (old_path, new_path) = (dir.join("old.csv"), dir.join("new.csv"));
    std::fs::write(&old_path, old).expect("writing the old snapshot");
    std::fs::write(&new_path, new).expect("writing the new snapshot");
    let out = dir.join("out");
    let mut command = vec![
        "link",
        old_path.to_str().unwrap(),
        new_path.to_str().unwrap(),
        "--old-year",
        "1851",
        "--new-year",
        "1861",
        "--out",
        out.to_str().unwrap(),
    ];
    command.extend_from_slice(args);
    cli(&command)
}

/// Every malformed and degenerate input, with the outcome it must have.
fn corpus(generated: &Path) -> Vec<Case> {
    let new = snapshot(&NEW_ROWS, "\n");
    let error = |name, extra: &str, fragments| Case {
        name,
        old: old_with(&[extra]),
        new: new.clone(),
        args: Vec::new(),
        outcome: Outcome::Error(fragments),
    };
    let mut non_utf8 = old_with(&[]);
    non_utf8.extend_from_slice(b"5,2,ann\xff\xfe,smith,f,30,bank street,,lodger,\n");
    let mut cases = vec![
        // the pool starts up to one OS thread per task; the count is
        // refused while the options are checked, before any thread starts
        Case {
            name: "unbounded --threads",
            old: old_with(&[]),
            new: new.clone(),
            args: vec!["--threads".into(), "100000".into()],
            outcome: Outcome::Error(&["--threads must be at most 256", "100000"]),
        },
        error(
            "unknown sex",
            "5,2,ann,smith,x,30,bank street,,lodger,",
            &["line 6", "unknown sex", "\"x\""],
        ),
        error(
            "unknown role",
            "5,2,ann,smith,f,30,bank street,,stranger,",
            &["line 6", "unknown role", "\"stranger\""],
        ),
        error(
            "negative age",
            "5,2,ann,smith,f,-5,bank street,,lodger,",
            &["line 6", "bad age", "\"-5\""],
        ),
        error(
            "age beyond u32",
            "5,2,ann,smith,f,4294967296,bank street,,lodger,",
            &["line 6", "bad age", "4294967296"],
        ),
        error(
            "duplicate record id",
            "1,2,ann,smith,f,30,bank street,,lodger,",
            &["line 6", "duplicate record id"],
        ),
        error(
            "truncated row",
            "5,2,ann,smith",
            &["line 6", "expected 10 fields, got 4"],
        ),
        Case {
            name: "non-UTF-8 bytes",
            old: non_utf8,
            new: new.clone(),
            args: Vec::new(),
            outcome: Outcome::Error(&["line 6", "valid UTF-8"]),
        },
        Case {
            name: "header-only old side",
            old: snapshot(&[], "\n"),
            new: new.clone(),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            name: "header-only new side",
            old: old_with(&[]),
            new: snapshot(&[], "\n"),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            name: "household without a head",
            old: old_with(&[
                "5,3,ann,smith,f,30,king street,,lodger,",
                "6,3,tom,smith,m,3,king street,,son,",
            ]),
            new: new.clone(),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            // 2^31 and u32::MAX do not fit an i32: the age differences of
            // the household's edges must be exact, not overflow or wrap
            name: "ages 0, 200, 2^31 and u32::MAX",
            old: old_with(&[
                "5,2,ann,smith,f,0,bank street,,lodger,",
                "6,2,tom,smith,m,200,bank street,,lodger,",
                "7,2,kit,smith,m,4294967295,bank street,,lodger,",
                "8,2,sam,smith,m,2147483648,bank street,,lodger,",
            ]),
            new: new.clone(),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            name: "quoted commas",
            old: old_with(&["5,2,ann,smith,f,30,\"12, bank street\",\"weaver, cotton\",lodger,"]),
            new: new.clone(),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            name: "CRLF line ends",
            old: snapshot(&OLD_ROWS, "\r\n"),
            new: snapshot(&NEW_ROWS, "\r\n"),
            args: Vec::new(),
            outcome: Outcome::Links,
        },
        Case {
            name: "u64::MAX record and household ids",
            old: old_with(&[
                "18446744073709551615,18446744073709551615,ann,smith,f,30,king street,,head,",
            ]),
            new,
            args: Vec::new(),
            outcome: Outcome::Links,
        },
    ];

    // ground truth is read like a snapshot: a stray byte in a truth
    // mapping names its file and line, not just the stream
    let truth = generated.join("hostile_truth_");
    let truth_file = |kind: &str| generated.join(format!("hostile_truth_{kind}_1851_1861.csv"));
    std::fs::write(
        truth_file("records"),
        b"old_record_id,new_record_id\n1,\xff1\n",
    )
    .expect("writing the truth records");
    std::fs::write(
        truth_file("groups"),
        b"old_household_id,new_household_id\n1,1\n",
    )
    .expect("writing the truth groups");
    cases.push(Case {
        name: "non-UTF-8 truth mapping",
        old: old_with(&[]),
        new: snapshot(&NEW_ROWS, "\n"),
        args: vec!["--truth".into(), truth.to_str().unwrap().into()],
        outcome: Outcome::Error(&[
            "hostile_truth_records_1851_1861.csv",
            "line 2",
            "invalid UTF-8",
        ]),
    });

    // spreadsheet exports often start with a UTF-8 byte-order mark
    let old = std::fs::read(generated.join("census_1851.csv")).expect("reading 1851");
    let new = std::fs::read(generated.join("census_1861.csv")).expect("reading 1861");
    let mut bom_old = "\u{FEFF}".as_bytes().to_vec();
    bom_old.extend_from_slice(&old);
    cases.push(Case {
        name: "BOM-prefixed snapshot",
        old: bom_old,
        new: new.clone(),
        args: Vec::new(),
        outcome: Outcome::LinksLike(old, new),
    });
    cases
}

#[test]
fn hostile_inputs_are_typed_errors_or_link() {
    let dir = tmp_dir("hostile");
    let generated = dir.join("generated");
    cli(&[
        "generate",
        "--scale",
        "small",
        "--seed",
        "41",
        "--out",
        generated.to_str().unwrap(),
    ])
    .expect("generate succeeds");

    let mut failures = Vec::new();
    for (i, case) in corpus(&generated).into_iter().enumerate() {
        let case_dir = dir.join(format!("case{i}"));
        let args: Vec<&str> = case.args.iter().map(String::as_str).collect();
        let result = link(&case_dir, &case.old, &case.new, &args);
        let name = case.name;
        match (case.outcome, result) {
            (Outcome::Error(fragments), Err(e)) => {
                for fragment in fragments {
                    if !e.contains(fragment) {
                        failures.push(format!("{name}: error {e:?} lacks {fragment:?}"));
                    }
                }
            }
            (Outcome::Error(_), Ok(summary)) => {
                failures.push(format!("{name}: linked, expected an error: {summary}"));
            }
            (Outcome::Links, Ok(_)) => {
                for file in ["record_mapping.csv", "group_mapping.csv"] {
                    if !case_dir.join("out").join(file).exists() {
                        failures.push(format!("{name}: linked without writing {file}"));
                    }
                }
            }
            (Outcome::LinksLike(old, new), Ok(_)) => {
                let plain = case_dir.join("plain");
                link(&plain, &old, &new, &[]).expect("the plain pair links");
                for file in ["record_mapping.csv", "group_mapping.csv"] {
                    assert_eq!(
                        std::fs::read(plain.join("out").join(file)).unwrap(),
                        std::fs::read(case_dir.join("out").join(file)).unwrap(),
                        "{file} changed by the {name}"
                    );
                }
            }
            (Outcome::Links | Outcome::LinksLike(..), Err(e)) => {
                failures.push(format!("{name}: expected a link, got error {e:?}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
