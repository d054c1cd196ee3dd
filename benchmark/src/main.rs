//! The layered benchmark for dcqx.  One binary, three verbs:
//!
//! * `run [--workload W] [--seed S] [--seconds N]` — the end-to-end metrics,
//!   one process per workload, tracing off;
//! * `trace [--workload W] [--seed S] [--seconds N]` — the separate traced
//!   run behind the per-layer metrics; spans go to `benchmark/out/`;
//! * `selfcheck [--seed S] [--seconds N]` — two `run` sets of the same binary
//!   compared against the bounds (A/A).
//!
//! `run --trace 1` is `trace`: the driver appends `--workload`, `--seed`,
//! `--seconds` and `--trace` to one command.  See `README.md`.

mod alloc;
mod catalog;
mod openloop;
mod report;
mod selfcheck;
mod sizes;
mod spans;
mod stats;
mod sut;
mod trace;
mod workloads;

use catalog::{Workload, END_TO_END, WORKLOADS};
use report::{host_json, metrics_json, table, Json, Measured};
use sizes::{Sizes, RUN_SECONDS};
use spans::SpanLog;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where traces, per-run documents and the service's WAL go: `benchmark/out/`
/// of the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Clone)]
pub struct Args {
    pub verb: String,
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: usize,
    pub traced: bool,
    pub tiny: bool,
    /// `selfcheck --seeds N`: spread over N seeds instead of A/A.
    pub seeds: usize,
}

impl Args {
    pub fn sizes(&self) -> Sizes {
        if self.tiny {
            Sizes::tiny()
        } else {
            Sizes::full(self.seconds)
        }
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        verb: raw.first().cloned().ok_or("missing verb")?,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        tiny: false,
        seeds: 0,
    };
    let mut rest = raw[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(catalog::workload(&name).ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds takes 1 to 60".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--seeds" => args.seeds = value()?.parse().map_err(|e| format!("--seeds: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: dcq-benchmark <run|trace|selfcheck|describe|emit-benchmark-json> \
                     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--tiny] [--seeds N]";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.verb.as_str() {
        "emit-benchmark-json" => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        "describe" => {
            print!("{}", catalog::glossary());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    if cfg!(debug_assertions) && !args.tiny {
        eprintln!("refusing to measure a debug build: use `cargo run --release`, or `--tiny` to smoke-test");
        return ExitCode::from(2);
    }
    if args.verb == "trace" {
        args.verb = "run".to_string();
        args.traced = true;
    }
    let ok = match (args.verb.as_str(), args.workload) {
        ("run", Some(workload)) => run_one(workload, &args),
        ("run", None) => run_all(&args),
        ("selfcheck", _) => selfcheck::selfcheck(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The file a single-workload run leaves its full document in.
pub fn document_path(workload: &Workload, traced: bool, seed: u64) -> PathBuf {
    let kind = if traced { "trace" } else { "run" };
    out_dir().join(format!("{kind}-{}-seed{seed}.json", workload.name))
}

/// Did the run behind this document produce one, and pass its checks?
pub fn is_correct(document: &Option<Json>) -> bool {
    document
        .as_ref()
        .and_then(|d| d.get("correct"))
        .and_then(Json::as_bool)
        == Some(true)
}

/// One workload in this process.  Prints the table on stderr, writes the full
/// document under `out/`, and ends stdout with the one-line result.
fn run_one(workload: &'static Workload, args: &Args) -> bool {
    let sizes = args.sizes();
    std::fs::create_dir_all(out_dir()).expect("benchmark/out is writable");
    let (metrics, outcome, extra) = if args.traced {
        let traced = trace::trace(workload, &sizes, args.seed, &out_dir());
        let spans = out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::write(&spans, traced.spans.to_json().render()).expect("span file is writable");
        eprintln!("spans: {}", spans.display());
        (
            traced.metrics,
            traced.outcome,
            vec![("cells".to_string(), Json::Obj(traced.cells))],
        )
    } else {
        let outcome = workloads::run(workload, &sizes, args.seed, &mut SpanLog::off(), &out_dir());
        (gated_metrics(workload, &outcome), outcome, Vec::new())
    };
    let correct = outcome.failed == 0;
    for failure in &outcome.failures {
        eprintln!("FAILED {}: {failure}", workload.name);
    }
    let title = format!(
        "{} seed {} ({})",
        workload.name,
        args.seed,
        if args.traced { "traced" } else { "end to end" }
    );
    let shown = if args.traced {
        &metrics
    } else {
        &outcome.native
    };
    eprint!("{}", table(&title, shown));
    for (name, count) in &outcome.samples {
        eprintln!("  {name} = {count}");
    }

    let mut document = vec![
        ("workload".to_string(), Json::str(workload.name)),
        ("why".to_string(), Json::str(workload.why)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds as f64)),
        ("traced".to_string(), Json::Bool(args.traced)),
        ("host".to_string(), host_json()),
        ("sizes".to_string(), Json::str(format!("{sizes:?}"))),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        (
            "failures".to_string(),
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("metrics".to_string(), metrics_json(&outcome.native)),
        (
            if args.traced { "per_layer" } else { "gated" }.to_string(),
            metrics_json(&metrics),
        ),
        (
            "samples".to_string(),
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        ("detail".to_string(), Json::Obj(outcome.detail.clone())),
    ];
    document.extend(extra);
    let path = document_path(workload, args.traced, args.seed);
    std::fs::write(path, Json::Obj(document).pretty()).expect("document is writable");

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics_json(&metrics)),
        ])
        .render()
    );
    correct
}

/// The gated end-to-end metrics of one outcome: each stands for the native
/// metric the catalogue names for this kind of workload.
fn gated_metrics(workload: &Workload, outcome: &workloads::Outcome) -> Vec<Measured> {
    END_TO_END
        .iter()
        .map(|gated| {
            let native = gated.native_on(workload.kind);
            let value = outcome
                .value(native)
                .unwrap_or_else(|| panic!("{} did not report {native}", workload.name));
            Measured::new(gated.name, value, gated.unit)
        })
        .collect()
}

/// Spawn this binary once per workload and collect the documents.
pub fn run_set(args: &Args, order: &[&'static Workload]) -> Vec<(&'static Workload, Option<Json>)> {
    let exe = std::env::current_exe().expect("own path is known");
    order
        .iter()
        .map(|workload| {
            let mut child = std::process::Command::new(&exe);
            child
                .arg("run")
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stdout(std::process::Stdio::null());
            if args.tiny {
                child.arg("--tiny");
            }
            let path = document_path(workload, args.traced, args.seed);
            let _ = std::fs::remove_file(&path);
            let status = child.status().expect("child process starts");
            let document = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            if !status.success() {
                eprintln!("{}: exited with {status}", workload.name);
            }
            (*workload, document)
        })
        .collect()
}

/// Every workload, each in a process of its own so that peak RSS and
/// allocator state never leak from one into the next.  Prints one JSON
/// document on stdout.
fn run_all(args: &Args) -> bool {
    let order: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let results = run_set(args, &order);
    let ok = results.iter().all(|(_, doc)| is_correct(doc));
    let document = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("traced", Json::Bool(args.traced)),
        ("host", host_json()),
        (
            "workloads",
            Json::Obj(
                results
                    .into_iter()
                    .map(|(w, doc)| (w.name.to_string(), doc.unwrap_or(Json::Null)))
                    .collect(),
            ),
        ),
    ]);
    print!("{}", document.pretty());
    ok
}
