//! Runs the real binary at `--smoke` size: every workload, untraced and
//! traced, through the same code paths as a full run — fixture generation,
//! repeated set-up, the round loop, the correctness gates, the result line.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "reorder-run",
    "frontier-run",
    "serve-mutate",
    "net-serve",
    "cluster-bsp",
];

fn perf(args: &[&str]) -> (bool, String) {
    // From the repository root, like `run.sh` and the acceptance harness.
    let out = Command::new(env!("CARGO_BIN_EXE_vebo-perf"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(args)
        .output()
        .expect("vebo-perf starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_runs_clean_at_smoke_size() {
    // One after the other: the workloads pin two shards each and time
    // themselves, so running them side by side would only add noise.
    for workload in WORKLOADS {
        for (trace, expect) in [
            ("0", "\"time_to_solution_s\""),
            ("1", "\"perf.trace_overhead_share\""),
        ] {
            let (ok, stdout) = perf(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = stdout.lines().last().unwrap_or("");
            assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace {trace}: {last}"
            );
            assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
            assert!(last.contains(expect), "{workload} trace {trace}: {last}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload", "--smoke"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["compare", "only-one-side.json"],
    ] {
        let (ok, stdout) = perf(args);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}
