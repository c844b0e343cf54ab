//! Hostile-input gate: real archives list a workhouse, barracks or ship
//! as one household of hundreds of people. Every member pair of such a
//! household is an enriched edge, and its common subgraph with the same
//! institution ten years on has thousands of vertices, so any structure
//! that stores edges grows with the fourth power of its size. Linking a
//! 1,000-member institution under `--mem-budget` must stay inside the
//! budget and still link the institution to itself.
//!
//! Lives in its own test binary because it installs the counting
//! allocator (`#[global_allocator]` is per binary) and reads the
//! process-global peak it measures.

use census_cli::run_cli;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::system();

const BUDGET: u64 = 64 << 20;

/// Members of the institution.
const MEMBERS: usize = 1_000;

/// Every `STRIDE`-th row of the generated snapshot becomes a member.
const STRIDE: usize = 4;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("census-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    dir
}

/// Write one institution snapshot: every `STRIDE`-th row of the
/// generated snapshot `from`, the first `MEMBERS` of them, renumbered
/// from 0, all in household 0 at the address `workhouse`, the first the
/// head and the rest lodgers, each age raised by `years`.
fn institution(from: &Path, to: &Path, years: u32) {
    let text = std::fs::read_to_string(from).expect("reading a generated snapshot");
    let mut lines = text.lines();
    let header = lines.next().expect("snapshot header");
    let column = |name: &str| {
        header
            .split(',')
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("{name} column"))
    };
    let (id, household, age, address, role) = (
        column("record_id"),
        column("household_id"),
        column("age"),
        column("address"),
        column("role"),
    );
    let mut out = format!("{header}\n");
    for (k, line) in lines.step_by(STRIDE).take(MEMBERS).enumerate() {
        assert!(!line.contains('"'), "generated rows carry no quoted fields");
        let mut fields: Vec<String> = line.split(',').map(str::to_owned).collect();
        fields[id] = k.to_string();
        fields[household] = "0".into();
        fields[address] = "workhouse".into();
        fields[role] = if k == 0 { "head" } else { "lodger" }.into();
        if let Ok(a) = fields[age].parse::<u32>() {
            fields[age] = (a + years).to_string();
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    std::fs::write(to, out).expect("writing the institution snapshot");
}

#[test]
fn institution_links_within_its_memory_budget() {
    let dir = tmp_dir("institution");
    let path = |name: &str| dir.join(name).display().to_string();
    let town = path("town");
    let args = [
        "generate", "--scale", "medium", "--seed", "2718", "--out", &town,
    ];
    run_cli(args.map(str::to_owned).to_vec()).expect("generate succeeds");
    let census_1851 = dir.join("town").join("census_1851.csv");
    institution(&census_1851, &dir.join("inst_1851.csv"), 0);
    institution(&census_1851, &dir.join("inst_1861.csv"), 10);

    let (old, new, out, trace) = (
        path("inst_1851.csv"),
        path("inst_1861.csv"),
        path("linked"),
        path("trace.json"),
    );
    let args = [
        "link",
        &old,
        &new,
        "--old-year",
        "1851",
        "--new-year",
        "1861",
        "--out",
        &out,
        "--mem-budget",
        "64M",
        "--trace-mem",
        "--trace-out",
        &trace,
    ];
    run_cli(args.map(str::to_owned).to_vec()).expect("link succeeds");

    let trace: obs::RunTrace =
        serde_json::from_str(&std::fs::read_to_string(&trace).expect("reading the trace"))
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
    let groups = std::fs::read_to_string(dir.join("linked").join("group_mapping.csv"))
        .expect("group mapping written");
    assert!(
        groups.lines().skip(1).any(|l| l == "0,0"),
        "the institution does not link to itself:\n{groups}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
