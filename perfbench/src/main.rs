//! The repository benchmark: one command that generates a workload from
//! a seed, runs the linkage operation on it, checks every output, and
//! prints end-to-end metrics (tracing off) or per-layer metrics (a
//! separate traced run). See `README.md` beside this crate for the
//! workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pair-paper --seed 1851 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare A.json B.json
//! ```
//!
//! Run it from the repository root. Inputs, outputs and one result file
//! per run go under `.perfbench/`; the last line of standard output is
//! the result as one JSON object.

mod measure;
mod ops;
mod workload;

use measure::{median, tail_percentile, Metric, Tally};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

// The shipped `census-linkage` binary installs the same allocator, so
// the timed operation runs on the allocator users get. It stays dormant
// until the memory-tracked run switches tracking on.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::system();

/// Everything the benchmark writes goes under this directory of the
/// working directory.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload pair-paper|pair-districts|series-evolve \
--seed N --seconds S --trace 0|1\n       perfbench compare RESULT_A.json RESULT_B.json";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse_args(mut args: Vec<String>) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => Ok(Cmd::Compare(a.into(), b.into())),
            _ => Err("compare takes two result files".into()),
        };
    }
    let mut take = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(value)
    };
    let name = take("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(Cmd::Run(RunArgs {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    }))
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1).collect()).and_then(|cmd| match cmd {
        Cmd::Run(args) => run(&args),
        Cmd::Compare(a, b) => compare(&a, &b),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &RunArgs) -> Result<(), String> {
    let workload = args.workload;
    let commit = commit();
    let host = host_block(workload, args.seed, &commit);
    println!("host {}", to_json(&host)?);
    let dir = Path::new(WORK_DIR).join(format!("{}-seed{}", workload.name(), args.seed));
    let inputs_dir = dir.join("inputs");
    let set_up = || -> Result<(workload::Inputs, f64), String> {
        let start = Instant::now();
        let inputs = workload::set_up(workload, args.seed, &inputs_dir)?;
        Ok((inputs, start.elapsed().as_secs_f64()))
    };
    let (inputs, first_setup_s) = set_up()?;
    let (descriptor, blocking) = workload::describe(workload, args.seed, &inputs);
    let descriptor_text = to_json(&descriptor)?;
    std::fs::write(dir.join("descriptor.json"), &descriptor_text)
        .map_err(|e| format!("writing the workload descriptor: {e}"))?;
    println!("workload {descriptor_text}");

    let out = dir.join("out");
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let metrics: Vec<Metric> = if args.trace {
        measure::per_layer(workload, &inputs, &blocking, &out, args.seconds, &mut tally)
    } else {
        let e2e = measure::end_to_end(
            workload,
            &inputs,
            &out,
            args.seconds,
            first_setup_s,
            || set_up().map(|(_, seconds)| seconds),
            &mut tally,
        )?;
        println!("setup_s samples {:?}", e2e.setups);
        walls = e2e.walls;
        let tail = match tail_percentile(&walls) {
            Some((p, v)) => format!("p{p:.0} {v:.4} s (ten samples beyond it)"),
            None => "no tail percentile (needs 11 samples)".to_owned(),
        };
        println!(
            "wall_s median {:.4} s over {} samples, {tail}",
            median(&walls),
            walls.len()
        );
        e2e.metrics
    };

    let metrics_json = Value::Map(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    Value::Str(name.to_owned()),
                    json!({"value": value, "unit": unit}),
                )
            })
            .collect(),
    );
    let correct = tally.failed == 0 && tally.reference.is_some() && !metrics.is_empty();
    let record = json!({
        "host": host,
        "trace": (args.trace),
        "workload": descriptor,
        "digest": (format!("{:016x}", tally.digest().unwrap_or(0))),
        "wall_samples_s": walls,
        "attempted": (tally.attempted),
        "failed": (tally.failed),
        "metrics": (metrics_json.clone())
    });
    let results = Path::new(WORK_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("creating results dir: {e}"))?;
    // the commit is part of the name, so that runs of two commits on one
    // seed sit side by side for `compare`
    let file = results.join(format!(
        "{}-seed{}-trace{}-{commit}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, to_json(&record)?).map_err(|e| format!("writing result: {e}"))?;
    println!("result written to {}", file.display());

    let line = json!({
        "correct": correct,
        "attempted": (tally.attempted),
        "failed": (tally.failed),
        "metrics": metrics_json
    });
    println!("{}", to_json(&line)?);
    Ok(())
}

fn to_json(v: &Value) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| format!("serializing: {e}"))
}

/// Where a result came from. `compare` refuses two results whose blocks
/// differ in anything but the commit, which is what a comparison varies.
fn host_block(workload: Workload, seed: u64, commit: &str) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    json!({
        "cores": cores,
        "threads": (ops::THREADS),
        "commit": commit,
        "rustc": (command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        "profile": (if cfg!(debug_assertions) { "debug" } else { "release" }),
        "workload": (workload.name()),
        "seed": seed
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The git commit when the working directory is the top of a clean git
/// checkout. A checkout with changes gets `-dirty-` and a digest of the
/// sources the benchmark builds from; outside git the digest stands
/// alone.
fn commit() -> String {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| Path::new(&t).canonicalize().ok());
    let tree = || format!("tree-{:016x}", source_digest());
    if here.is_some() && top == here {
        if let Some(head) = command_output("git", &["rev-parse", "HEAD"]) {
            let clean =
                command_output("git", &["status", "--porcelain"]).is_some_and(|s| s.is_empty());
            return if clean {
                head
            } else {
                format!("{head}-dirty-{}", tree())
            };
        }
    }
    tree()
}

fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut digest = ops::Fnv::new();
    for f in &files {
        digest.write(f.to_string_lossy().as_bytes());
        digest.write(&std::fs::read(f).unwrap_or_default());
    }
    digest.finish()
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    match std::fs::read_dir(path) {
        Ok(entries) => {
            for entry in entries.flatten() {
                collect_files(&entry.path(), out);
            }
        }
        Err(_) if path.is_file() => out.push(path.to_owned()),
        Err(_) => {}
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// Compare two result files metric by metric, refusing results that did
/// not come from the same host, toolchain, workload, seed and mode.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        serde_json::parse(&text).map_err(|e| format!("parsing {}: {e}", p.display()))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    // the host block without its commit, and the mode
    let settings = |r: &Value| -> Option<String> {
        let host = field(r, "host")?.as_map()?;
        let host: Vec<(Value, Value)> = host
            .iter()
            .filter(|(k, _)| k.as_str() != Some("commit"))
            .cloned()
            .collect();
        to_json(&json!({"host": (Value::Map(host)), "trace": (field(r, "trace")?.clone())})).ok()
    };
    let (sa, sb) = (settings(&ra), settings(&rb));
    if sa.is_none() || sa != sb {
        return Err(format!(
            "refusing to compare results from different hosts or settings:\n  {}: {}\n  {}: {}",
            a.display(),
            sa.unwrap_or_default(),
            b.display(),
            sb.unwrap_or_default()
        ));
    }
    let metric = |r: &Value, name: &str| -> Option<f64> {
        match field(field(field(r, "metrics")?, name)?, "value")? {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        }
    };
    println!("{:<34} {:>16} {:>16} {:>9}", "metric", "A", "B", "B/A-1");
    for (name, _) in field(&ra, "metrics").and_then(Value::as_map).unwrap_or(&[]) {
        let name = name.as_str().unwrap_or("?");
        let (Some(x), Some(y)) = (metric(&ra, name), metric(&rb, name)) else {
            continue;
        };
        let change = if x == 0.0 { 0.0 } else { (y / x - 1.0) * 100.0 };
        println!("{name:<34} {x:>16.6} {y:>16.6} {change:>8.2}%");
    }
    Ok(())
}
