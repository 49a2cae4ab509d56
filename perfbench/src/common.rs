//! Model construction, input generation, engine passes and the result
//! accumulator shared by the three workloads.

use std::sync::Arc;
use std::time::Instant;

use perfbench::Metric;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::models::vgg16_scaled;
use snn_nn::{
    ActivationLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu, Sequential,
};
use snn_runtime::{quantize_model, CsrEngine, InferenceBackend, QuantConfig, QuantEngine};
use snn_sim::{EventSnn, RunStats};
use snn_tensor::{Conv2dSpec, Tensor};
use snn_trace::{push_context, TraceCollector, TraceTarget};
use ttfs_core::{convert, normalize_output_layer, Base2Kernel, SnnModel};

/// Model weights are fixed; only the workload seed's images vary.
const MODEL_SEED: u64 = 7;
/// TTFS window (timesteps) of every benchmark model.
const WINDOW: u32 = 24;
/// Per-sample input geometry of every benchmark model (CIFAR-10 shape).
pub const INPUT_DIMS: [usize; 3] = [3, 32, 32];
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// What one workload measured: the outcome counts plus every metric,
/// contract names and workload-specific detail alike.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed, were refused, timed out or
    /// mismatched their expected output.
    pub failed: u64,
    /// Measured metrics in insertion order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Counts one checked operation, printing the reason when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }
}

/// The converted VGG-16 model at channel divisor `width_div` (floored at
/// four channels) with the output layer normalized, as the deployment
/// pipeline builds it.
pub fn build_model(width_div: usize) -> SnnModel {
    build_with(|rng| vgg16_scaled(INPUT_DIMS[1], 10, width_div, rng))
}

/// VGG-16 geometry — 13 convolutions in five max-pooled stages, then
/// three dense layers — at 1, 2, 4, 4, 4 channels per stage and eight
/// features per hidden dense layer: every stage of the real network,
/// little of its work. (At one channel throughout, no spike reaches the
/// later stages of this random-weight network.)
pub fn build_tiny_model() -> SnnModel {
    build_with(|rng| {
        let mut layers = Vec::new();
        let mut in_c = INPUT_DIMS[0];
        for (convs, out_c) in [(2, 1), (2, 2), (3, 4), (3, 4), (3, 4)] {
            for _ in 0..convs {
                layers.push(Layer::Conv2d(Conv2dLayer::new(
                    Conv2dSpec::new(in_c, out_c, 3, 1, 1),
                    rng,
                )));
                layers.push(Layer::Activation(ActivationLayer::new(Box::new(Relu))));
                in_c = out_c;
            }
            layers.push(Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)));
        }
        layers.push(Layer::Flatten(Flatten::new()));
        for (i, o) in [(4, 8), (8, 8)] {
            layers.push(Layer::Dense(DenseLayer::new(i, o, rng)));
            layers.push(Layer::Activation(ActivationLayer::new(Box::new(Relu))));
        }
        layers.push(Layer::Dense(DenseLayer::new(8, 10, rng)));
        Sequential::new(layers)
    })
}

fn build_with(net: impl FnOnce(&mut StdRng) -> Sequential) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let net = net(&mut rng);
    let mut model = convert(&net, Base2Kernel::paper_default(), WINDOW).expect("model converts");
    let calib = snn_tensor::uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    normalize_output_layer(&mut model, &calib).expect("output normalization");
    model
}

/// `n` input images drawn from the workload seed.
pub fn images(seed: u64, n: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    snn_tensor::uniform(&[n, 3, 32, 32], 0.0, 1.0, &mut rng)
}

/// Image `i` of a `[N, C, H, W]` batch as a `[C, H, W]` tensor.
pub fn image(batch: &Tensor, i: usize) -> Tensor {
    let len: usize = INPUT_DIMS.iter().product();
    Tensor::from_vec(
        batch.as_slice()[i * len..(i + 1) * len].to_vec(),
        &INPUT_DIMS,
    )
    .expect("image slice")
}

/// Row `i` of a `[N, classes]` logits tensor.
pub fn row(logits: &Tensor, i: usize) -> &[f32] {
    let classes = logits.dims()[1];
    &logits.as_slice()[i * classes..(i + 1) * classes]
}

/// Bit-for-bit equality of two f32 slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The f32 CSR engine and the paper's 5-bit log-quantized engine over
/// one shared model, with what compiling each cost.
pub struct Engines {
    /// f32 CSR engine at its default lane count.
    pub f32: CsrEngine,
    /// Packed 5-bit log codes with LUT decode, default lane count.
    pub quant5: QuantEngine,
    /// Wall time of the f32 compile, ms.
    pub compile_f32_ms: f64,
    /// Wall time of the quantized compile, ms.
    pub compile_quant5_ms: f64,
}

impl Engines {
    /// Compiles both engines over `model`.
    pub fn compile(model: &Arc<SnnModel>) -> Self {
        let t = Instant::now();
        let f32 = CsrEngine::compile_shared(Arc::clone(model), &INPUT_DIMS).expect("CSR compile");
        let compile_f32_ms = secs(t) * 1e3;
        let t = Instant::now();
        let quant5 =
            QuantEngine::compile_shared(Arc::clone(model), &INPUT_DIMS, QuantConfig::default())
                .expect("quant compile");
        Self {
            f32,
            quant5,
            compile_f32_ms,
            compile_quant5_ms: secs(t) * 1e3,
        }
    }

    /// Engine `k` (0 = f32, 1 = quant5) as a backend.
    pub fn engine(&self, k: usize) -> &dyn InferenceBackend {
        if k == 0 {
            &self.f32
        } else {
            &self.quant5
        }
    }
}

/// Checks both engines against the reference event simulator over
/// `held` — f32 against `EventSnn`, quant5 against `EventSnn` over the
/// per-layer quantized weights — and one lane against the default lane
/// count over `batch`, logits and every `RunStats` counter bit for bit.
pub fn verify_engines(engines: &Engines, held: &Tensor, batch: &Tensor, report: &mut Report) {
    let model = engines.f32.model_shared();
    let config = QuantConfig::default();
    let (qmodel, _) = quantize_model(&model, config.base, config.bits).expect("quantize");
    let reference = [
        EventSnn::new(&model).run(held).expect("event f32"),
        EventSnn::new(&qmodel).run(held).expect("event quant5"),
    ];
    let one_lane: [&dyn InferenceBackend; 2] = [
        &engines.f32.clone().with_max_lanes(1),
        &engines.quant5.clone().with_max_lanes(1),
    ];
    for (k, engine) in ENGINE.iter().enumerate() {
        let run = |e: &dyn InferenceBackend, x: &Tensor| e.run_batch(x).expect("engine run");
        let same = |(a, sa): &(Tensor, RunStats), (b, sb): &(Tensor, RunStats)| {
            same_bits(a.as_slice(), b.as_slice()) && sa == sb
        };
        report.check(same(&reference[k], &run(engines.engine(k), held)), || {
            format!("{engine} held sample differs from EventSnn")
        });
        report.check(
            same(&run(engines.engine(k), batch), &run(one_lane[k], batch)),
            || format!("{engine} at 1 lane differs from its default lane count"),
        );
    }
}

/// Suffix naming engine `k` in metric names.
pub const ENGINE: [&str; 2] = ["f32", "quant5"];

/// What repeated interleaved passes of both engines over one batch
/// measured.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Wall seconds of each `run_batch` call, per engine.
    pub call_s: [Vec<f64>; 2],
    /// Per engine, per weighted stage: summed `stage.exec` self time of
    /// each traced call, µs.
    pub stage_us: [Vec<Vec<f64>>; 2],
    /// Per engine: summed `encode` time of each traced call, µs.
    pub encode_us: [Vec<f64>; 2],
    /// The first pass's output per engine.
    pub first: [Option<(Tensor, RunStats)>; 2],
}

impl PassLog {
    /// Wall time of each pass (one call per engine), ms.
    pub fn pass_ms(&self) -> Vec<f64> {
        self.call_s[0]
            .iter()
            .zip(&self.call_s[1])
            .map(|(a, b)| (a + b) * 1e3)
            .collect()
    }

    /// Appends `other`'s samples, checking that its first outputs equal
    /// this log's bit for bit.
    pub fn absorb(&mut self, other: PassLog, report: &mut Report) {
        for (k, engine) in ENGINE.iter().enumerate() {
            self.call_s[k].extend(&other.call_s[k]);
            self.encode_us[k].extend(&other.encode_us[k]);
            if self.stage_us[k].len() < other.stage_us[k].len() {
                self.stage_us[k].resize(other.stage_us[k].len(), Vec::new());
            }
            for (mine, theirs) in self.stage_us[k].iter_mut().zip(&other.stage_us[k]) {
                mine.extend(theirs);
            }
            match (&self.first[k], &other.first[k]) {
                (None, _) => self.first[k] = other.first[k].clone(),
                (Some((a, sa)), Some((b, sb))) => report
                    .check(same_bits(a.as_slice(), b.as_slice()) && sa == sb, || {
                        format!("{engine} output differs between segments")
                    }),
                (Some(_), None) => {}
            }
        }
    }
}

/// Tracing overhead from interleaved segments: `rounds` pairs of one
/// untraced and one traced `measure`, the order flipping each round so
/// drift hits both sides alike. Returns the median over pairs of
/// traced over untraced `cost` (time per item), minus one; each traced
/// segment's result goes to `keep`.
pub fn paired_overhead<T>(
    rounds: usize,
    mut measure: impl FnMut(bool) -> T,
    cost: impl Fn(&T) -> f64,
    mut keep: impl FnMut(T),
) -> f64 {
    let ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            let (untraced, traced) = if round % 2 == 0 {
                let u = measure(false);
                (u, measure(true))
            } else {
                let t = measure(true);
                (measure(false), t)
            };
            let ratio = cost(&traced) / cost(&untraced);
            keep(traced);
            ratio
        })
        .collect();
    perfbench::stats::median(&ratios) - 1.0
}

/// Runs both engines over `batch` in alternating order until `seconds`
/// have passed (at least three passes), checking every pass against the
/// first bit for bit. With a collector, each call runs under a pushed
/// trace context and the engine's `stage.exec` / `encode` spans are
/// folded into per-stage self times.
pub fn run_passes(
    engines: &Engines,
    batch: &Tensor,
    seconds: f64,
    trace: Option<&Arc<TraceCollector>>,
    report: &mut Report,
) -> PassLog {
    let mut log = PassLog::default();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 3 || secs(start) < seconds {
        for step in 0..2 {
            let k = (pass + step) % 2;
            let traced = trace.map(|c| {
                let id = c.mint_trace();
                let root = c.span(id, 0, "bench.run_batch");
                let guard = push_context(
                    Arc::clone(c),
                    vec![TraceTarget {
                        trace: id,
                        parent: root.id(),
                    }],
                );
                (id, root, guard)
            });
            let t = Instant::now();
            let out = engines.engine(k).run_batch(batch).expect("engine run");
            log.call_s[k].push(secs(t));
            if let Some((id, root, guard)) = traced {
                drop(guard);
                drop(root);
                fold_spans(&trace.expect("traced").trace(id), &mut log, k);
            }
            match &log.first[k] {
                None => log.first[k] = Some(out),
                Some((logits, stats)) => report.check(
                    same_bits(logits.as_slice(), out.0.as_slice()) && *stats == out.1,
                    || format!("{} pass {pass} differs from the first pass", ENGINE[k]),
                ),
            }
        }
        pass += 1;
    }
    log
}

/// Folds one traced call's spans into per-weighted-stage and encode
/// times. Stage spans hang under their chunk span in execution order.
fn fold_spans(spans: &[snn_trace::SpanSnapshot], log: &mut PassLog, k: usize) {
    let mut chunks: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "csr.chunk")
        .map(|s| s.span_id)
        .collect();
    chunks.sort_unstable();
    let mut stage_us: Vec<f64> = Vec::new();
    let mut encode_us = 0.0;
    for chunk in chunks {
        let mut stages: Vec<_> = spans
            .iter()
            .filter(|s| s.parent_id == chunk && s.name == "stage.exec")
            .filter(|s| matches!(s.attr("kind"), Some(snn_trace::AttrValue::Str("weighted"))))
            .collect();
        stages.sort_by_key(|s| s.start_us);
        for (i, s) in stages.iter().enumerate() {
            if stage_us.len() <= i {
                stage_us.resize(i + 1, 0.0);
            }
            stage_us[i] += s.dur_us as f64;
        }
        encode_us += spans
            .iter()
            .filter(|s| s.parent_id == chunk && s.name == "encode")
            .map(|s| s.dur_us as f64)
            .sum::<f64>();
    }
    if log.stage_us[k].len() < stage_us.len() {
        log.stage_us[k].resize(stage_us.len(), Vec::new());
    }
    for (i, us) in stage_us.into_iter().enumerate() {
        log.stage_us[k][i].push(us);
    }
    log.encode_us[k].push(encode_us);
}

/// Per-layer engine metrics of a traced pass log over `images` images:
/// self time per weighted stage and encode per engine (medians over
/// calls), and the exact per-image synaptic-op and output-spike counts
/// of the f32 engine's `RunStats`.
pub fn engine_layer_metrics(log: &PassLog, images: usize, report: &mut Report) {
    let n = images as f64;
    for (k, engine) in ENGINE.iter().enumerate() {
        for (i, us) in log.stage_us[k].iter().enumerate() {
            report.push(
                format!("stage.{i:02}.us_per_img.{engine}"),
                perfbench::stats::median(us) / n,
                "us",
            );
        }
        report.push(
            format!("encode.us_per_img.{engine}"),
            perfbench::stats::median(&log.encode_us[k]) / n,
            "us",
        );
    }
    if let Some((_, stats)) = &log.first[0] {
        for (i, layer) in stats.layers.iter().enumerate() {
            report.push(
                format!("stage.{i:02}.syn_ops_per_img"),
                layer.synaptic_ops as f64 / n,
                "count",
            );
            report.push(
                format!("stage.{i:02}.out_spikes_per_img"),
                layer.output_spikes as f64 / n,
                "count",
            );
        }
    }
}

/// Median wall time of one `EnergyPricer::price_per_image_uj` call, µs.
pub fn price_us(pricer: &snn_runtime::energy::EnergyPricer, stats: &RunStats) -> f64 {
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        let mut sink = 0.0;
        for _ in 0..16 {
            sink += pricer.price_per_image_uj(std::hint::black_box(stats));
        }
        std::hint::black_box(sink);
        samples.push(secs(t) * 1e6 / 16.0);
    }
    perfbench::stats::median(&samples)
}

/// Writes the collector's ring as Chrome-trace JSON to
/// `perfbench/out/trace-<workload>-seed<seed>.json`.
pub fn write_trace(collector: &TraceCollector, workload: &str, seed: u64) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, collector.chrome_trace_json()));
    match result {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
