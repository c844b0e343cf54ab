//! Hostile-input gate: a town where every surname is the same puts each
//! record in one giant blocking bucket with the whole other census, so
//! the blocked pairs far outnumber what a small memory budget admits.
//! Linking it under `--mem-budget` must refuse the pair-score cache,
//! stay inside the budget — blocked pairs stream into the scoring
//! kernel, so no structure grows with their count — and still produce
//! the mappings of an unbudgeted run byte for byte.
//!
//! Lives in its own test binary because it installs the counting
//! allocator (`#[global_allocator]` is per binary) and reads the
//! process-global peak it measures.

use census_cli::run_cli;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::system();

const BUDGET: u64 = 24 << 20;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("census-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    dir
}

/// Copy a generated snapshot with its surname column set to `smith`.
fn smith_town(from: &Path, to: &Path) {
    let text = std::fs::read_to_string(from).expect("reading a generated snapshot");
    let mut lines = text.lines();
    let header = lines.next().expect("snapshot header");
    let surname = header
        .split(',')
        .position(|c| c == "surname")
        .expect("surname column");
    let mut out = format!("{header}\n");
    for line in lines {
        assert!(!line.contains('"'), "generated rows carry no quoted fields");
        let mut fields: Vec<&str> = line.split(',').collect();
        fields[surname] = "smith";
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    std::fs::write(to, out).expect("writing the one-surname snapshot");
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

/// Link the one-surname pair into `dir/out`.
fn link(dir: &Path, out: &str, extra: &[&str]) {
    let path = |name: &str| dir.join(name).display().to_string();
    let (old, new, out) = (path("smith_1851.csv"), path("smith_1861.csv"), path(out));
    let mut args = strings(&[
        "link",
        &old,
        &new,
        "--old-year",
        "1851",
        "--new-year",
        "1861",
    ]);
    args.extend(strings(&["--out", &out]));
    args.extend(strings(extra));
    run_cli(args).expect("link succeeds");
}

#[test]
fn one_surname_town_links_within_its_memory_budget() {
    let dir = tmp_dir("one-surname");
    let town = dir.display().to_string();
    run_cli(strings(&[
        "generate", "--scale", "medium", "--seed", "2718", "--out", &town,
    ]))
    .expect("generate succeeds");
    for year in [1851, 1861] {
        smith_town(
            &dir.join(format!("census_{year}.csv")),
            &dir.join(format!("smith_{year}.csv")),
        );
    }

    let trace_path = dir.join("budget.json");
    let trace_arg = trace_path.display().to_string();
    link(
        &dir,
        "budget",
        &[
            "--mem-budget",
            "24M",
            "--trace-mem",
            "--trace-out",
            &trace_arg,
        ],
    );
    link(&dir, "plain", &[]);

    let trace: obs::RunTrace =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).expect("reading the trace"))
            .expect("trace is JSON");
    let peak = trace
        .memory
        .as_ref()
        .expect("the trace carries memory data")
        .peak_live_bytes;
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes exceeds the {BUDGET}-byte budget"
    );
    assert_eq!(trace.counter("mem_fallback_pair_cache"), 1);
    for file in ["record_mapping.csv", "group_mapping.csv"] {
        let read = |run: &str| std::fs::read(dir.join(run).join(file)).expect("mapping written");
        assert!(
            read("budget") == read("plain"),
            "{file} differs between the budgeted and the unbudgeted run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
