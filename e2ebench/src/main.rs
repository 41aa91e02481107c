//! End-to-end benchmark of the CoSPARSE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sim_traverse|sim_pagerank|host_serve> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --compare <base.json> <candidate.json>
//! ```
//!
//! A run generates its inputs from the seed, computes reference answers
//! outside the timed region, drives the public API (`SharedGraph`,
//! sessions, `GraphService`) for the given seconds, checks every answer
//! and prints each metric with its unit. The last line of standard
//! output is the JSON result. With `--trace 0` it holds the end-to-end
//! metrics; with `--trace 1` the per-layer metrics of a traced replay.
//! Each run also saves its report, with the host fingerprint, under
//! `out/`; `--compare` compares two saved reports and refuses reports
//! made on different hosts.

mod calib;
mod check;
mod inputs;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::{Fingerprint, Report, PER_LAYER};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sim_traverse", "sim_pagerank", "host_serve"];

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// A whole run (inputs, set-up, measurement, checks) must end within
/// this time, or the process reports the stall and exits non-zero.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Set when a query got no answer: a worker may be stuck, so the run
/// fails and the process exits without joining it.
static WEDGED: AtomicBool = AtomicBool::new(false);

/// Marks the run wedged and returns the failure to count.
fn fail_wedged(message: &str) -> Result<(), String> {
    WEDGED.store(true, Ordering::SeqCst);
    Err(message.to_string())
}

/// Whether a query of this run got no answer.
fn wedged() -> bool {
    WEDGED.load(Ordering::SeqCst)
}

/// Sets every per-layer metric the workload did not exercise to 0.
fn set_unexercised(out: &mut Report) {
    for &(name, _, _) in &PER_LAYER {
        out.values.entry(name).or_insert(0.0);
    }
}

/// Directory the reports and span dumps are written to.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Writes the traced run's spans as JSON lines.
fn save_spans(out: &mut Report, spans: &[trace::Span]) {
    let path = out_dir().join(format!("spans-{}-{}.jsonl", out.workload, out.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| trace::write_jsonl(spans, std::io::BufWriter::new(f)));
    match written {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(a)
}

fn compare(base: &str, candidate: &str) -> Result<String, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::parse_saved(&text).ok_or(format!("{p}: not a saved report"))
    };
    report::compare(&load(base)?, &load(candidate)?)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        match args
            .get(1..3)
            .ok_or("--compare needs two reports".to_string())
            .and_then(|p| compare(&p[0], &p[1]))
        {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // The watchdog is never joined: it either finds the run over its
    // deadline and ends the process, or the process ends first.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("e2ebench: run exceeded its {RUN_DEADLINE:?} deadline");
        std::process::exit(3);
    });

    let mut out = Report::new(&a.workload, a.seed, a.trace);
    match a.workload.as_str() {
        "sim_traverse" => sim::run(&sim::traverse(a.seed), a.seconds, a.trace, &mut out),
        "sim_pagerank" => sim::run(&sim::pagerank(a.seed), a.seconds, a.trace, &mut out),
        _ => serve::run(&serve::host_serve(a.seed), a.seconds, a.trace, &mut out),
    }
    let fingerprint = Fingerprint::current();
    out.note(format!("host: {fingerprint:?}"));
    let path = out_dir().join(format!(
        "report-{}-{}-trace{}.json",
        a.workload, a.seed, a.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, out.saved(&fingerprint)))
    {
        eprintln!("e2ebench: report not saved to {}: {e}", path.display());
    }
    print!("{}", out.human());
    println!("{}", out.result_line());
    if wedged() {
        std::process::exit(1);
    }
}
