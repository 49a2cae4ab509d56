//! Shared pieces of the benchmark binaries: a std-only JSON reader, the
//! `BENCHMARK.json` contract, result lines and order statistics.

pub mod json;
pub mod stats;

use json::Value;

/// One metric as the contract names it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name, unique across the file.
    pub name: String,
    /// Unit string (`ms`, `s`, `1/s`, ...).
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Worst tolerated relative regression of the median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// One workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name (`--workload <name>`).
    pub name: String,
    /// One-line reason; stream ladders are written into it as
    /// `ladder=a,b,c light=a heavy=b` tokens.
    pub why: String,
}

impl WorkloadSpec {
    /// The value of a `key=value` token in `why`, if present.
    pub fn token(&self, key: &str) -> Option<&str> {
        self.why
            .split(|c: char| c.is_whitespace() || ";:()".contains(c))
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }
}

/// The parsed `BENCHMARK.json` contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// How long one run measures, seconds.
    pub run_seconds: u64,
    /// Workloads in file order.
    pub workloads: Vec<WorkloadSpec>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and validates `BENCHMARK.json` at `path`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is missing or malformed.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let root = json::parse(&text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{path}: `{key}` must be an array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{path}: {key} entry lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: `workloads` must be an array"))?
            .iter()
            .map(|w| {
                let text = |k: &str| {
                    w.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{path}: workload entry lacks `{k}`"))
                };
                Ok(WorkloadSpec {
                    name: text("name")?,
                    why: text("why")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: `run_seconds` must be a number"))?
                as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The workload named `name`.
    pub fn workload(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The metric named `name` in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Reads a `{"name": {"value": v, "unit": "u"}}` object back.
pub fn metrics_from_json(value: &Value) -> Vec<Metric> {
    value
        .as_object()
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(name, m)| {
                    Some(Metric {
                        name: name.clone(),
                        value: m.get("value")?.as_f64()?,
                        unit: m.get("unit")?.as_str()?.to_string(),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}
