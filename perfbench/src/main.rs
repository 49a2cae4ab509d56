//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <offline_vgg16|stream_open|gateway_http|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--ledger <file>]
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). The
//! last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}` carrying every
//! `end_to_end` metric of `BENCHMARK.json` (`--trace 0`) or every
//! `per_layer` metric (`--trace 1`). The line before it carries the
//! workload's detail metrics (per-engine, per-rate, per-layer of the
//! serving stack). `--ledger` appends both to a JSON-lines file that
//! `bench_diff` compares. See `perfbench/README.md`.

mod common;
mod gateway;
mod offline;
mod stream;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use perfbench::{json, metrics_json, Metric, Spec};

/// Every workload this binary implements. `BENCHMARK.json` lists the
/// ones the contract measures; `offline_vgg16` is kept out of it (see
/// README.md) but runs by name.
const WORKLOADS: [&str; 3] = ["offline_vgg16", "stream_open", "gateway_http"];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Optional JSON-lines ledger to append to.
    pub ledger: Option<String>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        ledger: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--ledger" => args.ledger = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let spec = match Spec::load("BENCHMARK.json") {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&spec, &args);
    }
    let report = match args.workload.as_str() {
        "offline_vgg16" => offline::run(&args),
        "stream_open" => match spec.workload("stream_open") {
            Some(w) => stream::run(&args, w),
            None => {
                eprintln!("perfbench: BENCHMARK.json does not list stream_open and its ladder");
                return ExitCode::from(2);
            }
        },
        "gateway_http" => gateway::run(&args),
        other => {
            eprintln!("perfbench: workload `{other}` is listed but not implemented");
            return ExitCode::from(2);
        }
    };

    // The result line carries exactly the contract's metrics; everything
    // else measured is detail.
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut result = Vec::new();
    for m in wanted {
        match report.metrics.iter().find(|r| r.name == m.name) {
            Some(r) if r.unit == m.unit && r.value.is_finite() => result.push(r.clone()),
            Some(r) => {
                eprintln!(
                    "perfbench: {} measured {} {} but BENCHMARK.json expects unit {}",
                    m.name, r.value, r.unit, m.unit
                );
                return ExitCode::from(3);
            }
            None => {
                eprintln!("perfbench: {} did not measure {}", args.workload, m.name);
                return ExitCode::from(3);
            }
        }
    }
    let detail: Vec<Metric> = report
        .metrics
        .iter()
        .filter(|m| !result.iter().any(|r| r.name == m.name))
        .cloned()
        .collect();
    let correct = report.failed == 0;
    let detail_line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"detail\": {}}}",
        json::quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        metrics_json(&detail)
    );
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics_json(&result)
    );
    summarize(&args.workload, &report.metrics);
    if let Some(path) = &args.ledger {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            json::quote(&args.workload),
            args.seed,
            u8::from(args.trace),
            report.attempted,
            report.failed,
            metrics_json(&report.metrics)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: could not append to {path}: {e}");
            return ExitCode::from(3);
        }
    }
    println!("{detail_line}");
    println!("{result_line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prints every measured metric as an aligned table on stderr.
fn summarize(workload: &str, metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    eprintln!("# {workload}");
    for m in metrics {
        eprintln!("  {:width$}  {:>14.6}  {}", m.name, m.value, m.unit);
    }
}

/// Runs every workload in its own process (peak RSS is per process) and
/// folds their result lines into one, metrics prefixed `<workload>/`.
fn run_all(spec: &Spec, args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut ok) = (0.0, 0.0, true);
    for w in &spec.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(ledger) = &args.ledger {
            cmd.args(["--ledger", ledger]);
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: could not start {}: {e}", w.name);
                return ExitCode::from(2);
            }
        };
        std::io::stderr().write_all(&out.stderr).ok();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let Some(result) = parsed.filter(|_| out.status.success() || out.status.code() == Some(1))
        else {
            eprintln!(
                "perfbench: {} exited with {} and no result",
                w.name, out.status
            );
            return ExitCode::from(2);
        };
        for line in stdout.lines() {
            println!("{line}");
        }
        ok &= result.get("correct").and_then(json::Value::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0);
        failed += result
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0);
        for m in perfbench::metrics_from_json(result.get("metrics").unwrap_or(&json::Value::Null)) {
            metrics.push(Metric {
                name: format!("{}/{}", w.name, m.name),
                ..m
            });
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
