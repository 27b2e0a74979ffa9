//! `selfcheck` and `compare`: the benchmark judging its own steadiness, and
//! two sets of result files judged against the bounds `BENCHMARK.json`
//! fixes. Both apply the acceptance rule: medians, quartiles as Python's
//! `statistics.quantiles(n=4)` gives them, spread = (q3 − q1) / median.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub workloads: Vec<String>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Spec {
    /// Reads `BENCHMARK.json` from the repository root (the working
    /// directory).
    pub fn load() -> io::Result<Spec> {
        Spec::parse(&std::fs::read_to_string("BENCHMARK.json")?)
    }

    pub fn parse(text: &str) -> io::Result<Spec> {
        let doc = Json::parse(text).map_err(|e| invalid(format!("BENCHMARK.json: {e}")))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| invalid(format!("BENCHMARK.json: no `{key}` list")))
        };
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("BENCHMARK.json: entry without `{key}`")))
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            end_to_end.push(Declared {
                name: text(m, "name")?,
                lower_is_better: text(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| invalid("BENCHMARK.json: metric without `bound`"))?,
            });
        }
        let mut workloads = Vec::new();
        for w in list("workloads")? {
            workloads.push(text(w, "name")?);
        }
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| invalid("BENCHMARK.json: no `run_seconds`"))?,
            end_to_end,
            workloads,
        })
    }
}

/// Metric values by (workload, metric), one per run.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Adds the metrics of one result object (`{"correct":…, "metrics":{…}}`).
fn collect(samples: &mut Samples, workload: &str, result: &Json) -> io::Result<()> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| invalid("result without `metrics`"))?;
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| invalid(format!("metric `{name}` without a value")))?;
        samples
            .entry((workload.to_string(), name.clone()))
            .or_default()
            .push(value);
    }
    Ok(())
}

/// Runs this binary once as a child process (its own peak RSS, its own
/// page cache warm-up — exactly what the acceptance harness does) and
/// returns the result object of its last stdout line.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> io::Result<Json> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        invalid(format!(
            "{workload} seed {seed}: exit {}, no result line ({e})",
            out.status
        ))
    })?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(invalid(format!(
            "{workload} seed {seed}: exit {}, result {last}",
            out.status
        )));
    }
    Ok(result)
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("[{q1:.4} {q3:.4}]"),
        None => "[n/a]".into(),
    }
}

/// `(b − a) / a`, signed so that positive means *worse*.
fn worsening(d: &Declared, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if d.lower_is_better {
        change
    } else {
        -change
    }
}

/// `vebo-perf selfcheck`: runs the untraced suite in `sets` sets of `runs`
/// runs (a fresh seed each) and compares the sets with each other.
/// Returns whether every pair of sets agrees within the metric's bound and
/// every set's spread (set-up time excepted) stays within it too.
pub fn selfcheck(sets: usize, runs: usize, seconds: Option<f64>, smoke: bool) -> io::Result<bool> {
    let spec = Spec::load()?;
    let seconds = seconds.unwrap_or(spec.run_seconds);
    let mut per_set: Vec<Samples> = vec![Samples::new(); sets];
    for (set, samples) in per_set.iter_mut().enumerate() {
        for run in 0..runs {
            for workload in &spec.workloads {
                let seed = 1000 + (set * runs + run) as u64;
                eprintln!("selfcheck: set {set} run {run} {workload} (seed {seed})");
                let result = run_child(workload, seed, seconds, false, smoke)?;
                collect(samples, workload, &result)?;
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<13} {:<19} {:>6}  per set: median [q1 q3] spread | worst set-to-set difference",
        "workload", "metric", "bound"
    );
    for workload in &spec.workloads {
        for d in &spec.end_to_end {
            let key = (workload.clone(), d.name.clone());
            let sets: Vec<&[f64]> = per_set
                .iter()
                .map(|s| s.get(&key).map_or(&[][..], Vec::as_slice))
                .collect();
            let mut row = String::new();
            for values in &sets {
                let sp = spread(values).map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
                row += &format!("{:.4} {} {sp}  ", median(values), quartile_text(values));
            }
            let medians: Vec<f64> = sets.iter().map(|v| median(v)).collect();
            let mut worst = 0.0f64;
            for (i, &a) in medians.iter().enumerate() {
                for &b in &medians[i + 1..] {
                    worst = worst.max(worsening(d, a, b).abs());
                }
            }
            // The acceptance rule also wants each set's own spread within
            // the bound (set-up time excepted).
            let noisy =
                d.name != "setup_s" && sets.iter().any(|v| spread(v).is_some_and(|s| s > d.bound));
            let verdict = match (worst > d.bound, noisy) {
                (true, _) => "DISAGREE",
                (false, true) => "SPREAD",
                (false, false) => "ok",
            };
            ok &= verdict == "ok";
            println!(
                "{workload:<13} {:<19} {:>5.0}%  {row}| {:.1}% {verdict}",
                d.name,
                d.bound * 100.0,
                worst * 100.0
            );
        }
    }
    Ok(ok)
}

/// Reads result files written with `--out` into samples.
fn read_files(paths: &[String]) -> io::Result<Samples> {
    let mut samples = Samples::new();
    for path in paths {
        let doc = Json::parse(&std::fs::read_to_string(Path::new(path))?)
            .map_err(|e| invalid(format!("{path}: {e}")))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid(format!("{path}: no `workload`")))?;
        let result = doc
            .get("result")
            .ok_or_else(|| invalid(format!("{path}: no `result`")))?;
        collect(&mut samples, workload, result)?;
    }
    Ok(samples)
}

/// The verdict on one metric of one workload, `a` → `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Run-to-run spread exceeds the bound: the data cannot tell.
    Unresolved,
    Regressed,
    Improved,
    Unchanged,
}

pub fn judge(d: &Declared, a: &[f64], b: &[f64]) -> Verdict {
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let worse = worsening(d, median(a), median(b));
    if noise > d.bound {
        Verdict::Unresolved
    } else if worse > d.bound {
        Verdict::Regressed
    } else if -worse > noise.max(f64::EPSILON) && -worse > d.bound / 3.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `vebo-perf compare a… -- b…`: one row per workload × end-to-end metric.
/// Returns whether nothing regressed.
pub fn compare(a_files: &[String], b_files: &[String]) -> io::Result<bool> {
    let spec = Spec::load()?;
    let (a, b) = (read_files(a_files)?, read_files(b_files)?);
    let mut ok = true;
    println!(
        "{:<13} {:<19} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "spread", "bound"
    );
    for workload in &spec.workloads {
        for d in &spec.end_to_end {
            let key = (workload.clone(), d.name.clone());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(d, av, bv);
            ok &= verdict != Verdict::Regressed;
            let noise = spread(av).unwrap_or(0.0).max(spread(bv).unwrap_or(0.0));
            println!(
                "{workload:<13} {:<19} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>5.0}%  {}",
                d.name,
                median(av),
                median(bv),
                worsening(d, median(av), median(bv)) * 100.0,
                noise * 100.0,
                d.bound * 100.0,
                match verdict {
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "run_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [1.0, 1.3, 0.8, 1.25, 0.9, 1.1];
        assert_eq!(judge(&lower(0.05), &noisy, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn steady_sets_resolve_in_both_directions() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.005];
        let slower = [1.10, 1.11, 1.09, 1.10, 1.105];
        let faster = [0.90, 0.91, 0.89, 0.90, 0.905];
        assert_eq!(judge(&lower(0.05), &a, &slower), Verdict::Regressed);
        assert_eq!(judge(&lower(0.05), &a, &faster), Verdict::Improved);
        assert_eq!(judge(&lower(0.05), &a, &a), Verdict::Unchanged);
        // For a higher-is-better metric the same numbers read the other way.
        let higher = Declared {
            lower_is_better: false,
            ..lower(0.05)
        };
        assert_eq!(judge(&higher, &a, &slower), Verdict::Improved);
        assert_eq!(judge(&higher, &a, &faster), Verdict::Regressed);
    }

    #[test]
    fn benchmark_json_loads_with_bounds_within_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = spec
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better);
        assert!(spec.end_to_end.iter().all(|d| d.bound <= setup.bound));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
