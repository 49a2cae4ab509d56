//! Compares two benchmark ledgers (the JSON-lines files `perfbench
//! --ledger` appends to) metric by metric.
//!
//! ```text
//! bench_diff <base.jsonl> <new.jsonl>        # run from the repository root
//! ```
//!
//! For every (workload, metric) it prints both sides' median, quartiles
//! and run count, the ratio new/base with its base, and a verdict:
//!
//! * `better` — the median improved by more than the wider of the two
//!   sides' quartile spreads (as a share of their medians);
//! * `worse` — it worsened by more than that spread and, for metrics
//!   with a bound in `BENCHMARK.json`, by more than the bound;
//! * `same` — the change and both spreads sit within the bound;
//! * `unresolved` — anything else: the noise is too wide to tell.
//!
//! Metrics outside `BENCHMARK.json` take their direction from the unit
//! (times, memory and energy lower; `1/s` higher) and have no bound.
//! Exact counts (`*.syn_ops_per_img`, `*.out_spikes_per_img`,
//! `energy_uj_per_img.exact` and the offline energies) are also compared per seed: any difference between
//! runs of one seed is reported as `COUNT CHANGED`. Exits 1 when a
//! metric is worse or a count changed.

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::json::{self, Value};
use perfbench::stats::{median, quartiles};
use perfbench::{metrics_from_json, Spec};

/// `(workload, metric)` → `(unit, [(seed, value)])`.
type Ledger = BTreeMap<(String, String), (String, Vec<(u64, f64)>)>;

fn load(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut ledger = Ledger::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        for m in metrics_from_json(v.get("metrics").unwrap_or(&Value::Null)) {
            ledger
                .entry((workload.to_string(), m.name))
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push((seed, m.value));
        }
    }
    Ok(ledger)
}

fn is_exact_count(workload: &str, metric: &str) -> bool {
    metric.ends_with(".syn_ops_per_img")
        || metric.ends_with(".out_spikes_per_img")
        || metric == "energy_uj_per_img.exact"
        || (workload == "offline_vgg16" && metric.starts_with("energy_uj_per_img"))
}

/// `Some(true)` when lower is better, `None` when the unit has no
/// direction.
fn lower_is_better(spec: &Spec, metric: &str, unit: &str) -> Option<bool> {
    if let Some(m) = spec.metric(metric) {
        return Some(m.lower_is_better);
    }
    match unit {
        "ms" | "us" | "s" | "MB" | "uJ" => Some(true),
        "1/s" => Some(false),
        _ => None,
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!(
            "{:.4} [{q1:.4}, {q3:.4}] n={}",
            median(values),
            values.len()
        ),
        None => format!("{:.4} n={}", median(values), values.len()),
    }
}

/// Relative quartile spread of `values` (infinite below two runs).
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        Some((q1, q3)) if q1 == q3 => 0.0,
        _ => f64::INFINITY,
    }
}

fn verdict(base: &[f64], new: &[f64], lower: Option<bool>, bound: Option<f64>) -> &'static str {
    let (b, n) = (median(base), median(new));
    let Some(lower) = lower else {
        return if b == n { "same" } else { "changed" };
    };
    if b == 0.0 {
        return if n == 0.0 { "same" } else { "unresolved" };
    }
    // Relative worsening: positive is worse.
    let worse = if lower { n / b - 1.0 } else { 1.0 - n / b };
    let noise = spread(base).max(spread(new));
    if -worse > noise {
        "better"
    } else if worse > noise && worse > bound.unwrap_or(0.0) {
        "worse"
    } else if bound.is_some_and(|bound| noise <= bound && worse <= bound) {
        "same"
    } else {
        "unresolved"
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <base.jsonl> <new.jsonl>   (run from the repository root)");
        return ExitCode::from(2);
    };
    let loaded =
        Spec::load("BENCHMARK.json").and_then(|spec| Ok((spec, load(base_path)?, load(new_path)?)));
    let (spec, base, new) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failing = false;
    let mut workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    for (w, _) in base.keys().chain(new.keys()) {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    for workload in workloads {
        let rows: Vec<_> = base
            .iter()
            .filter(|((w, _), _)| w == workload)
            .filter_map(|((_, metric), (unit, b))| {
                let (_, n) = new.get(&(workload.to_string(), metric.clone()))?;
                Some((metric, unit, b, n))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("## {workload}");
        println!(
            "{:<40} {:>6}  {:<40} {:<40} {:>8}  {:<10} base",
            "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "new/base", "verdict",
        );
        // Contract metrics first, in BENCHMARK.json order.
        let rank = |m: &str| {
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .position(|s| s.name == m)
                .unwrap_or(usize::MAX)
        };
        let mut rows = rows;
        rows.sort_by_key(|(m, ..)| (rank(m), (*m).clone()));
        for (metric, unit, b, n) in rows {
            let bv: Vec<f64> = b.iter().map(|(_, v)| *v).collect();
            let nv: Vec<f64> = n.iter().map(|(_, v)| *v).collect();
            let spec_metric = spec.metric(metric);
            let mut verdict = verdict(
                &bv,
                &nv,
                lower_is_better(&spec, metric, unit),
                spec_metric.and_then(|m| m.bound),
            )
            .to_string();
            if is_exact_count(workload, metric) {
                let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for (seed, v) in b.iter().chain(n.iter()) {
                    by_seed.entry(*seed).or_default().push(*v);
                }
                let changed = by_seed
                    .values()
                    .any(|vs| vs.iter().any(|v| v.to_bits() != vs[0].to_bits()));
                if changed {
                    verdict = "COUNT CHANGED".into();
                    failing = true;
                } else {
                    verdict = format!("{verdict}, exact");
                }
            }
            if verdict == "worse" && spec_metric.is_some_and(|m| m.bound.is_some()) {
                failing = true;
            }
            let (bm, nm) = (median(&bv), median(&nv));
            let ratio = if bm == 0.0 { f64::NAN } else { nm / bm };
            println!(
                "{metric:<40} {unit:>6}  {:<40} {:<40} {ratio:>8.4}  {verdict:<10} base {bm:.4} {unit}",
                summary(&bv),
                summary(&nv)
            );
        }
        println!();
    }
    if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
