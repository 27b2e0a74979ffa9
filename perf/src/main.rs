//! `vebo-perf` — the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! vebo-perf                                   the whole suite: every workload, untraced then traced
//! vebo-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! vebo-perf selfcheck [--sets 2] [--runs N] [--seconds S] [--smoke]
//! vebo-perf compare A.json… -- B.json…
//! vebo-perf worker ADDR FIXTURE               (internal: a cluster-bsp worker process)
//! ```
//!
//! A single-workload run prints every metric by name with its unit, then —
//! as the last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod fixtures;
mod json;
mod loadgen;
mod metrics;
mod script;
mod sink;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunConfig;

const USAGE: &str = "usage: vebo-perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--smoke]\n       vebo-perf selfcheck [--sets 2] [--runs N] [--seconds S] [--smoke]\n       \
vebo-perf compare A.json... -- B.json...";

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        sets: 2,
        runs: 10,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 600]"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--sets" => o.sets = num::<usize>(flag, value()?)?.max(2),
            "--runs" => o.runs = num::<usize>(flag, value()?)?.max(1),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn seconds_list(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&s| Json::Num(s)).collect())
}

/// Runs one workload in this process and prints its result.
fn run_one(o: &Options, workload: &str) -> io::Result<bool> {
    // Engine parallelism is pinned whatever the host offers, so the numbers
    // measure the program and not the scheduler.
    rayon::ThreadPoolBuilder::new()
        .num_threads(sink::SHARDS)
        .build_global()
        .expect("the thread-count policy cannot fail to install");
    let seconds = match o.seconds {
        Some(s) => s,
        None => check::Spec::load()?.run_seconds,
    };
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: o.seed,
        seconds,
        trace: o.trace,
        smoke: o.smoke,
    };
    let mut tracer = trace::Tracer::new(cfg.trace);
    let mut measured = workloads::run(&cfg, &mut tracer)?;
    let (values, list): (_, &[(&str, &str)]) = if cfg.trace {
        measured.finish_layer();
        (measured.layer.clone(), &metrics::PER_LAYER)
    } else {
        (measured.end_to_end(), &metrics::END_TO_END)
    };

    let out_dir = fixtures::out_dir()?;
    if cfg.trace {
        let path = out_dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, tracer.to_json().render())?;
        println!("{} spans -> {}", tracer.spans().len(), path.display());
    }
    println!(
        "{workload}: seed {} | {} rounds, {} operations timed, {} set-ups | {} attempted, {} failed",
        cfg.seed,
        measured.rounds.all.len(),
        measured.ops.len(),
        measured.setup_s.len(),
        measured.attempted,
        measured.failed,
    );
    for &(name, unit) in list {
        println!("  {name:<32} {:>16.6} {unit}", values.get(name));
    }
    let result = Json::obj([
        ("correct", Json::Bool(measured.correct())),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", values.to_json(list)),
    ]);
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("host", sys::host_info()),
        (
            "samples",
            Json::obj([
                ("operations", Json::Num(measured.ops.len() as f64)),
                (
                    "tail_percentile",
                    Json::Num(stats::tail(&measured.ops).map_or(0.0, |t| t.percentile)),
                ),
                ("spans", Json::Num(tracer.spans().len() as f64)),
                ("measured_s", Json::Num(measured.rounds.wall_s)),
                ("round_s", seconds_list(&measured.rounds.all)),
                ("setup_s", seconds_list(&measured.setup_s)),
            ]),
        ),
        ("result", result.clone()),
    ]);
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("{workload}.{}.json", u8::from(cfg.trace))));
    std::fs::write(&out, doc.render())?;
    println!("{}", result.render());
    Ok(measured.correct())
}

/// The whole suite: every workload as a child process, untraced for the
/// end-to-end metrics and traced for the per-layer metrics.
fn run_suite(o: &Options) -> io::Result<bool> {
    let spec = check::Spec::load()?;
    let seconds = o.seconds.unwrap_or(spec.run_seconds);
    println!("host: {}", sys::host_info().render());
    for workload in &spec.workloads {
        for trace in [false, true] {
            let result = check::run_child(workload, o.seed, seconds, trace, o.smoke)?;
            println!(
                "{workload} ({}): {} attempted, {} failed",
                if trace {
                    "traced, per-layer"
                } else {
                    "untraced, end-to-end"
                },
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            );
            for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                println!(
                    "  {name:<32} {:>16.6} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                );
            }
        }
    }
    Ok(true)
}

fn dispatch(args: &[String]) -> io::Result<bool> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    match args.first().map(String::as_str) {
        Some("worker") => match args {
            [_, addr, fixture] => {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build_global()
                    .expect("the thread-count policy cannot fail to install");
                workloads::cluster_bsp::worker_main(addr, fixture.as_ref()).map(|()| true)
            }
            _ => Err(bad("usage: vebo-perf worker ADDR FIXTURE".into())),
        },
        Some("selfcheck") => {
            let o = parse_options(&args[1..]).map_err(bad)?;
            check::selfcheck(o.sets, o.runs, o.seconds, o.smoke)
        }
        Some("compare") => {
            let mut halves = args[1..].split(|a| a == "--");
            match (halves.next(), halves.next(), halves.next()) {
                (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => check::compare(a, b),
                _ => Err(bad("usage: vebo-perf compare A.json... -- B.json...".into())),
            }
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let o = parse_options(args).map_err(bad)?;
            match &o.workload {
                Some(w) => run_one(&o, w),
                None => run_suite(&o),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vebo-perf: {e}");
            if e.kind() == io::ErrorKind::InvalidInput {
                eprintln!("{USAGE}");
            }
            ExitCode::from(2)
        }
    }
}
