//! `offline_vgg16`: batch inference over VGG-16/w8 through the f32 CSR
//! engine and the 5-bit log-quantized engine, interleaved, one pass loop
//! per core, with no batcher or wire in the way.

use std::sync::Arc;
use std::time::Instant;

use perfbench::stats::{median, tail};
use snn_runtime::energy::EnergyPricer;
use snn_trace::TraceCollector;

use crate::common::{
    build_model, engine_layer_metrics, images, paired_overhead, peak_rss_mb, price_us, run_passes,
    secs, verify_engines, write_trace, Engines, PassLog, Report, ENGINE, INPUT_DIMS, SETUPS,
};
use crate::Args;

/// VGG-16 channel divisor: w8 makes the widest `[lanes, out]`
/// accumulator outgrow L2.
const WIDTH_DIV: usize = 8;
/// Images per `run_batch` call.
const BATCH: usize = 8;
/// Images of the held sample checked against the reference simulator.
const HELD: usize = 2;
/// Untraced/traced segment pairs of the traced run.
const TRACE_ROUNDS: usize = 6;

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let held = images(args.seed ^ 0x5eed, HELD);

    // Set-up: convert, compile both engines, answer the held sample.
    let mut setup_s = Vec::new();
    let mut convert_ms = Vec::new();
    let mut compile_ms = [Vec::new(), Vec::new()];
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take()); // free the previous set-up's model before building
        let t0 = Instant::now();
        let model = Arc::new(build_model(WIDTH_DIV));
        convert_ms.push(secs(t0) * 1e3);
        let engines = Engines::compile(&model);
        let answers: Vec<_> = (0..2)
            .map(|k| engines.engine(k).run_batch(&held).expect("held sample"))
            .collect();
        setup_s.push(secs(t0));
        std::hint::black_box(answers);
        compile_ms[0].push(engines.compile_f32_ms);
        compile_ms[1].push(engines.compile_quant5_ms);
        kept = Some((model, engines));
    }
    let (model, engines) = kept.expect("at least one set-up");
    let batch = images(args.seed, BATCH);

    // One pass loop per core, as an offline batch job would run. One
    // loop alone swung by 0.4 (quartile spread over median) between 30 s
    // runs on a shared 2-vCPU host; two loops halved that.
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let runs: Vec<(PassLog, Report)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut counts = Report::default();
                    let log = run_passes(&engines, &batch, args.seconds, None, &mut counts);
                    (log, counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pass thread"))
            .collect()
    });
    let mut log = PassLog::default();
    for (run, counts) in runs {
        report.attempted += counts.attempted;
        report.failed += counts.failed;
        log.absorb(run, &mut report);
    }

    verify_engines(&engines, &held, &batch, &mut report);

    let pricer = EnergyPricer::new(&model, &INPUT_DIMS).expect("pricer");
    let stats = |k: usize| &log.first[k].as_ref().expect("first pass").1;
    let pass_ms = log.pass_ms();
    let (tail_ms, tail_pct, passes) = tail(&pass_ms).unwrap_or((f64::NAN, 0.0, pass_ms.len()));
    let n = BATCH as f64;

    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report.push(
        "energy_uj_per_img",
        pricer.price_per_image_uj(stats(1)),
        "uJ",
    );
    let workers = threads as f64;
    report.push(
        "rate_per_s",
        workers * 2.0 * n / (median(&pass_ms) / 1e3),
        "1/s",
    );
    report.push("p50_ms", median(&pass_ms), "ms");
    report.push("p99_ms", tail_ms, "ms");

    for (k, engine) in ENGINE.iter().enumerate() {
        report.push(
            format!("img_per_s.{engine}"),
            workers * n / median(&log.call_s[k]),
            "1/s",
        );
    }
    report.push(
        "energy_uj_per_img.f32",
        pricer.price_per_image_uj(stats(0)),
        "uJ",
    );
    report.push("p99_ms.percentile", tail_pct, "%");
    report.push("passes", passes as f64, "count");
    report.push("images_per_call", n, "count");
    report.push("lanes", engines.f32.max_lanes() as f64, "count");

    report.push("setup.convert_ms", median(&convert_ms), "ms");
    report.push("setup.compile_ms.f32", median(&compile_ms[0]), "ms");
    report.push("setup.compile_ms.quant5", median(&compile_ms[1]), "ms");
    report.push("energy.price_us", price_us(&pricer, stats(1)), "us");

    if args.trace {
        let collector = Arc::new(TraceCollector::new(16_384));
        // Seeded with the untraced run's outputs, so every traced segment
        // is checked against them: tracing must not change a bit.
        let mut traced = PassLog {
            first: log.first.clone(),
            ..PassLog::default()
        };
        let segment = args.seconds / (2 * TRACE_ROUNDS) as f64;
        let mut counts = Report::default();
        let overhead = paired_overhead(
            TRACE_ROUNDS,
            |on| {
                let c = on.then_some(&collector);
                run_passes(&engines, &batch, segment, c, &mut counts)
            },
            |log| median(&log.pass_ms()),
            |log| traced.absorb(log, &mut report),
        );
        report.attempted += counts.attempted;
        report.failed += counts.failed;
        report.push("trace.overhead_frac", overhead, "frac");
        engine_layer_metrics(&traced, BATCH, &mut report);
        write_trace(&collector, &args.workload, args.seed);
    }
    report
}
