//! Metric definitions, the host fingerprint and the report formats.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run: `(name, unit,
/// better)`.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("iters_per_s", "1/s", Higher),
    ("sim_cycles", "cycles", Lower),
    ("sim_energy_uj", "uJ", Lower),
    ("serve_qps", "1/s", Higher),
    ("serve_p50_ms", "ms", Lower),
    ("serve_p99_ms", "ms", Lower),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reports 0. Decision counts are descriptive; their
/// direction is nominal.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("shared.new_ms", "ms", Lower),
    ("shared.plan_builds", "count", Lower),
    ("shared.plan_hits", "count", Higher),
    ("shared.dense_program_builds", "count", Lower),
    ("shared.dense_program_hits", "count", Higher),
    ("shared.scratch_program_builds", "count", Lower),
    ("shared.scratch_program_hits", "count", Higher),
    ("shared.conversion_builds", "count", Lower),
    ("shared.format_builds", "count", Lower),
    ("shared.reorder_builds", "count", Lower),
    ("heuristics.decide_us", "us", Lower),
    ("heuristics.iters_ip", "count", Lower),
    ("heuristics.iters_op", "count", Lower),
    ("heuristics.iters_sc", "count", Lower),
    ("heuristics.iters_scs", "count", Lower),
    ("heuristics.iters_pc", "count", Lower),
    ("heuristics.iters_ps", "count", Lower),
    ("heuristics.iters_bitmap", "count", Lower),
    ("heuristics.iters_bcsr", "count", Lower),
    ("heuristics.iters_reordered", "count", Lower),
    ("heuristics.dataflow_switches", "count", Lower),
    ("runtime.execute_ms", "ms", Lower),
    ("runtime.execute_share", "ratio", Lower),
    ("machine.sim_ops", "count", Lower),
    ("machine.host_ns_per_sim_op", "ns", Lower),
    ("machine.memo_hits", "count", Higher),
    ("machine.memo_misses", "count", Lower),
    ("machine.memo_hit_ratio", "ratio", Higher),
    ("machine.epochs_proven", "count", Higher),
    ("machine.epochs_replayed", "count", Lower),
    ("machine.epochs_rolled_back", "count", Lower),
    ("machine.epoch_commit_ratio", "ratio", Higher),
    ("machine.l1_misses", "count", Lower),
    ("machine.l2_misses", "count", Lower),
    ("machine.conflict_cycles", "cycles", Lower),
    ("machine.mem_stall_cycles", "cycles", Lower),
    ("machine.barrier_stall_cycles", "cycles", Lower),
    ("machine.hbm_line_reads", "count", Lower),
    ("machine.reconfig_cycles", "cycles", Lower),
    ("ops.apply_ms", "ms", Lower),
    ("graph.loop_ms", "ms", Lower),
    ("host.step_ms", "ms", Lower),
    ("serve.queue_wait_ms_p50", "ms", Lower),
    ("serve.queue_wait_ms_p99", "ms", Lower),
    ("serve.service_ms_p50", "ms", Lower),
    ("serve.service_ms_p99", "ms", Lower),
    ("serve.service_ms_p50_bfs", "ms", Lower),
    ("serve.service_ms_p50_sssp", "ms", Lower),
    ("serve.service_ms_p50_pr", "ms", Lower),
    ("serve.service_ms_p99_bfs", "ms", Lower),
    ("serve.service_ms_p99_sssp", "ms", Lower),
    ("serve.service_ms_p99_pr", "ms", Lower),
    ("serve.cache_hit_ratio", "ratio", Higher),
    ("serve.batch_mean", "count", Higher),
    ("serve.rejected", "count", Lower),
    ("serve.epoch_bumps", "count", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
    ("trace.accounted_ratio", "ratio", Higher),
];

/// Where and how a report was made; reports whose fingerprints differ
/// are not compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism of the host.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Source revision, "unknown" outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// The fingerprint of this process's host and build.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("E2EBENCH_RUSTC").to_string(),
            git_rev: env!("E2EBENCH_GIT_REV").to_string(),
        }
    }

    /// Whether timings from hosts with these fingerprints may be
    /// compared: same core count, CPU model and compiler. The revision
    /// is what a comparison varies, so it may differ.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc && self.cpu == other.cpu && self.rustc == other.rustc
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that returned an error, a wrong answer or timed out.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form context lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one query, and its failure if `outcome` is an error.
    pub fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Sets metric `name`, which must be one of the defined metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name),
            "undefined metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metric set this run reports.
    fn defined(&self) -> &'static [(&'static str, &'static str, Better)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Metrics of this run's set that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defined()
            .iter()
            .filter(|m| !self.values.contains_key(m.0))
            .map(|m| m.0)
            .collect()
    }

    /// Whether the run is correct: no failed query and every metric set
    /// to a finite value.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing().is_empty() && self.values.values().all(|v| v.is_finite())
    }

    /// Human-readable lines: each metric with its unit and direction.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} trace {}",
            self.workload, self.seed, self.trace as u8
        );
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<32} {:>16} {:<8} (lower is better; {} of {} queries)",
            "failed_frac", failed_frac, "ratio", self.failed, self.attempted
        );
        for &(name, unit, better) in self.defined() {
            let v = self.values.get(name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "  {name:<32} {v:>16.6} {unit:<8} ({} is better)",
                better.as_str()
            );
        }
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric of this run's set with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .defined()
            .iter()
            .filter_map(|&(name, unit, _)| {
                self.values.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(*v)
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The saved report: fingerprint, seed, and every metric with its
    /// unit and direction.
    pub fn saved(&self, fp: &Fingerprint) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let metrics: Vec<String> = self
            .defined()
            .iter()
            .filter_map(|&(name, unit, better)| {
                self.values.get(name).map(|v| {
                    format!(
                        "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                        json_num(*v),
                        better.as_str()
                    )
                })
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \
             \"fingerprint\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            esc(&self.workload),
            self.seed,
            self.trace,
            fp.nproc,
            esc(&fp.cpu),
            esc(&fp.rustc),
            esc(&fp.git_rev),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }
}

/// A finite number as JSON. JSON has no NaN or infinity; a run with one
/// reports 0 in its place and is not correct.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A saved report read back for comparison: fingerprint and metric
/// values.
#[derive(Debug)]
pub struct Saved {
    /// The host fingerprint the report was made on.
    pub fingerprint: Fingerprint,
    /// Workload name.
    pub workload: String,
    /// Metric values with their direction.
    pub metrics: Vec<(String, f64, String)>,
}

/// The string value of `"key": "..."` in `text`.
fn str_field(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let rest = &text[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The numeric value of `"key": <number>` in `text`.
fn num_field(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &text[at..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses a report written by [`Report::saved`].
pub fn parse_saved(text: &str) -> Option<Saved> {
    let fingerprint = Fingerprint {
        nproc: num_field(text, "nproc")? as usize,
        cpu: str_field(text, "cpu")?,
        rustc: str_field(text, "rustc")?,
        git_rev: str_field(text, "git_rev")?,
    };
    let body = &text[text.find("\"metrics\": {")? + 12..];
    let metrics = body
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            let name = l.strip_prefix('"')?.split('"').next()?.to_string();
            Some((name, num_field(l, "value")?, str_field(l, "better")?))
        })
        .collect();
    Some(Saved {
        fingerprint,
        workload: str_field(text, "workload")?,
        metrics,
    })
}

/// Compares two saved reports, metric by metric, as `candidate ÷ base`
/// with a verdict by each metric's direction. Refuses reports made on
/// hosts whose fingerprints differ, or on different workloads.
pub fn compare(base: &Saved, candidate: &Saved) -> Result<String, String> {
    if !base.fingerprint.comparable(&candidate.fingerprint) {
        return Err(format!(
            "refusing to compare across hosts: {:?} vs {:?}",
            base.fingerprint, candidate.fingerprint
        ));
    }
    if base.workload != candidate.workload {
        return Err(format!(
            "refusing to compare workloads {} and {}",
            base.workload, candidate.workload
        ));
    }
    let mut out = String::new();
    for (name, b, better) in &base.metrics {
        if let Some((_, c, _)) = candidate.metrics.iter().find(|m| &m.0 == name) {
            let ratio = c / b;
            let verdict = match (better.as_str(), ratio) {
                (_, r) if r == 1.0 || !r.is_finite() => "same",
                ("higher", r) if r > 1.0 => "better",
                ("lower", r) if r < 1.0 => "better",
                _ => "worse",
            };
            let _ = writeln!(
                out,
                "{name:<32} {b:>16.6} {c:>16.6} {ratio:>8.4}x {verdict}"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu: "cpu".to_string(),
            rustc: "rustc 1".to_string(),
            git_rev: "abc".to_string(),
        }
    }

    #[test]
    fn saved_report_round_trips_and_compares() {
        let mut r = Report::new("sim_traverse", 7, false);
        r.count(Ok(()));
        r.set("iters_per_s", 80.0);
        r.set("sim_cycles", 1000.0);
        let text = r.saved(&fingerprint());
        let base = parse_saved(&text).expect("parses");
        assert_eq!(base.fingerprint, fingerprint());
        assert_eq!(
            base.metrics[0],
            ("iters_per_s".to_string(), 80.0, "higher".to_string())
        );

        r.set("iters_per_s", 100.0);
        let cand = parse_saved(&r.saved(&fingerprint())).expect("parses");
        let table = compare(&base, &cand).expect("same host");
        assert!(table.contains("1.2500x better"), "{table}");
        assert!(table.contains("sim_cycles") && table.contains("same"));
    }

    #[test]
    fn reports_from_other_hosts_are_refused() {
        let r = Report::new("host_serve", 1, false);
        let a = parse_saved(&r.saved(&fingerprint())).expect("parses");
        let other = Fingerprint {
            nproc: 8,
            ..fingerprint()
        };
        let b = parse_saved(&r.saved(&other)).expect("parses");
        assert!(compare(&a, &b).is_err());
    }

    #[test]
    fn missing_metrics_make_a_run_incorrect() {
        let mut r = Report::new("sim_traverse", 1, false);
        r.count(Ok(()));
        assert!(!r.correct());
        for (name, _, _) in END_TO_END {
            r.set(name, 1.0);
        }
        assert!(r.correct());
        r.set("setup_s", f64::NAN);
        assert!(!r.correct());
        r.set("setup_s", 1.0);
        r.count(Err("wrong".to_string()));
        assert!(!r.correct());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
