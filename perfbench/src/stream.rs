//! `stream_open`: an open-loop fixed-rate schedule into an in-process
//! `StreamingServer` (f32 CSR, VGG-16/w16). One generator thread submits
//! on schedule, one thread waits on tickets; latency runs from each
//! request's due time, so a stalled generator shows as latency.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::stats::{median, tail};
use perfbench::WorkloadSpec;
use snn_runtime::energy::EnergyPricer;
use snn_runtime::{CsrEngine, InferenceBackend, StreamingConfig, StreamingServer, SubmitOptions};
use snn_sim::RunStats;
use snn_tensor::Tensor;
use snn_trace::TraceCollector;

use crate::common::{
    build_model, engine_layer_metrics, image, images, paired_overhead, peak_rss_mb, price_us, row,
    run_passes, same_bits, secs, verify_engines, write_trace, Engines, Report, INPUT_DIMS, SETUPS,
};
use crate::Args;

/// VGG-16 channel divisor of the served model.
const WIDTH_DIV: usize = 16;
/// Distinct images cycled through by the generator.
const POOL: usize = 64;
/// Latency limit a sustained rate must meet at its tail percentile, ms.
const LIMIT_MS: f64 = 20.0;
/// Times the whole ladder is walked per run; samples of one rate pool
/// across walks, so slow drift hits every rate alike.
const WALKS: usize = 2;
/// Untraced/traced heavy-walk pairs of the traced run.
const TRACE_ROUNDS: usize = 2;

/// The rate ladder, written into the workload's `why` in
/// `BENCHMARK.json` as `ladder=a,b,... light=a heavy=b`.
struct Ladder {
    rates: Vec<f64>,
    light: f64,
    heavy: f64,
}

impl Ladder {
    fn from_spec(spec: &WorkloadSpec) -> Self {
        let rate = |s: &str| s.parse::<f64>().expect("ladder rates are numbers");
        let ladder = Self {
            rates: spec
                .token("ladder")
                .expect("stream_open's why names its ladder=...")
                .split(',')
                .map(rate)
                .collect(),
            light: rate(spec.token("light").expect("why names light=...")),
            heavy: rate(spec.token("heavy").expect("why names heavy=...")),
        };
        assert!(
            ladder.rates.contains(&ladder.light) && ladder.rates.contains(&ladder.heavy),
            "light and heavy must be ladder rates"
        );
        ladder
    }
}

/// Everything one rate measured, pooled over walks.
#[derive(Default)]
struct Rung {
    /// Due-to-result latency, ms.
    latency_ms: Vec<f64>,
    /// How late the generator submitted, ms.
    late_ms: Vec<f64>,
    /// Wall time of `submit_with`, µs.
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    batch: Vec<f64>,
    /// Priced energy of each response's batch, µJ per image.
    energy_uj: Vec<f64>,
    /// `pending()` after each submit.
    pending: Vec<f64>,
    batches: u64,
    edf_flushes: u64,
    /// Walks whose backlog grew or outlived the schedule.
    backlog_walks: u64,
    attempted: u64,
    failed: u64,
}

impl Rung {
    fn sustained(&self) -> bool {
        self.failed == 0
            && self.backlog_walks == 0
            && tail(&self.latency_ms).is_some_and(|(ms, _, _)| ms <= LIMIT_MS)
    }
}

/// What every walk drives and checks against.
struct Target<'a> {
    server: &'a StreamingServer,
    pool: &'a [Tensor],
    /// Offline-engine logits of `pool`, one row per image.
    expected: &'a Tensor,
    pricer: &'a EnergyPricer,
}

/// One resolved request as the waiter thread saw it.
struct Sample {
    latency_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    batch: f64,
    energy_uj: f64,
}

impl Target<'_> {
    /// Drives one walk of `rate` for `seconds` into `rung`.
    fn walk(
        &self,
        rate: f64,
        seconds: f64,
        trace: Option<&Arc<TraceCollector>>,
        rung: &mut Rung,
        report: &mut Report,
    ) {
        let server = self.server;
        let before = server.metrics();
        let n = (rate * seconds).round().max(1.0) as usize;
        let period = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + period * n as u32;
        // A ticket still open this long after the schedule ends is a failure.
        let give_up = end + Duration::from_secs(30);
        let (tx, rx) = mpsc::channel::<(snn_runtime::Ticket, Instant, usize, u64)>();
        let mut pending = Vec::with_capacity(n);
        let mut backlog_end = 0usize;
        let results = std::thread::scope(|s| {
            // The waiter checks and condenses each response as it lands, so
            // nothing large is held for the whole walk.
            let waiter = s.spawn(move || {
                let mut out = Vec::with_capacity(n);
                for (mut ticket, due, idx, span) in rx {
                    let waited = Instant::now();
                    let result = ticket.wait_timeout(give_up.saturating_duration_since(waited));
                    let done = Instant::now();
                    if let (Some(c), Some(id)) = (trace, snn_trace::TraceId::from_raw(span)) {
                        c.record_span(id, 0, "bench.ticket_wait", waited, done, vec![]);
                    }
                    let sample = match result {
                        Ok(Some(r)) if same_bits(r.logits.as_slice(), row(self.expected, idx)) => {
                            Ok(Sample {
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                queue_ms: r.queue_wait.as_secs_f64() * 1e3,
                                exec_ms: r.exec_time.as_secs_f64() * 1e3,
                                batch: r.batch_size as f64,
                                energy_uj: self.pricer.price_per_image_uj(&r.batch_stats),
                            })
                        }
                        Ok(Some(_)) => Err(format!(
                            "image {idx}: logits differ from the offline engine"
                        )),
                        Ok(None) => Err(format!("image {idx}: no answer 30 s after the schedule")),
                        Err(e) => Err(format!("image {idx}: {e}")),
                    };
                    out.push(sample);
                }
                out
            });
            for i in 0..n {
                let due = start + period * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                let idx = i % self.pool.len();
                let id = trace.map(|c| c.mint_trace());
                let submitted = server.submit_with(&self.pool[idx], SubmitOptions::default());
                let t_end = Instant::now();
                if let (Some(c), Some(id)) = (trace, id) {
                    c.record_span(id, 0, "bench.submit", t, t_end, vec![]);
                }
                rung.late_ms.push((t - due).as_secs_f64() * 1e3);
                rung.submit_us.push((t_end - t).as_secs_f64() * 1e6);
                pending.push(server.pending() as f64);
                match submitted {
                    Ok(ticket) => tx
                        .send((ticket, due, idx, id.map_or(0, |id| id.raw())))
                        .expect("waiter alive"),
                    Err(e) => {
                        rung.attempted += 1;
                        rung.failed += 1;
                        report.check(false, || format!("submit at {rate} req/s refused: {e}"));
                    }
                }
            }
            drop(tx);
            // Requests not resolved one latency limit after the schedule
            // ended mean the server did not keep up.
            let settle = end + Duration::from_secs_f64(LIMIT_MS / 1e3);
            std::thread::sleep(settle.saturating_duration_since(Instant::now()));
            backlog_end = server.pending();
            waiter.join().expect("waiter thread")
        });
        for result in results {
            rung.attempted += 1;
            match result {
                Ok(sample) => {
                    rung.latency_ms.push(sample.latency_ms);
                    rung.queue_ms.push(sample.queue_ms);
                    rung.exec_ms.push(sample.exec_ms);
                    rung.batch.push(sample.batch);
                    rung.energy_uj.push(sample.energy_uj);
                    report.check(true, String::new);
                }
                Err(e) => {
                    rung.failed += 1;
                    report.check(false, || format!("at {rate} req/s: {e}"));
                }
            }
        }
        let after = server.metrics();
        rung.batches += after.batches - before.batches;
        rung.edf_flushes += after.flushes_edf_deadline - before.flushes_edf_deadline;
        // Growing backlog: the last tenth of submissions saw clearly more
        // admitted-but-unresolved requests than the first tenth.
        let tenth = (pending.len() / 10).max(1);
        let grew = median(&pending[pending.len() - tenth..])
            > median(&pending[..tenth]) + server.max_batch() as f64;
        rung.backlog_walks += u64::from(grew || backlog_end > 0);
        rung.pending.extend(pending);
    }
}

fn ms_tail(v: &[f64]) -> f64 {
    tail(v).map_or(f64::NAN, |(x, _, _)| x)
}

pub fn run(args: &Args, spec: &WorkloadSpec) -> Report {
    let ladder = Ladder::from_spec(spec);
    let mut report = Report::default();
    let pool_batch = images(args.seed, POOL);
    let pool: Vec<Tensor> = (0..POOL).map(|i| image(&pool_batch, i)).collect();

    // Set-up: convert, compile, start the server, get the first answer.
    let mut setup_s = Vec::new();
    let mut convert_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut start_ms = Vec::new();
    let mut expected: Option<(Tensor, RunStats)> = None;
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let model = Arc::new(build_model(WIDTH_DIV));
        convert_ms.push(secs(t0) * 1e3);
        let t = Instant::now();
        let engine =
            Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &INPUT_DIMS).expect("compile"));
        compile_ms.push(secs(t) * 1e3);
        let t = Instant::now();
        let server = StreamingServer::new(
            Arc::clone(&engine) as Arc<dyn InferenceBackend>,
            StreamingConfig::default(),
        );
        start_ms.push(secs(t) * 1e3);
        let first = server
            .submit(&pool[0])
            .map_err(|e| e.to_string())
            .and_then(|ticket| ticket.wait().map_err(|e| e.to_string()));
        setup_s.push(secs(t0));
        let (expected, _) =
            expected.get_or_insert_with(|| engine.run_batch(&pool_batch).expect("expected logits"));
        report.check(
            first.is_ok_and(|r| same_bits(r.logits.as_slice(), row(expected, 0))),
            || "first streamed answer differs from the offline engine".into(),
        );
        kept = Some((model, server));
    }
    let (model, server) = kept.expect("at least one set-up");
    let (expected, expected_stats) = expected.expect("expected logits");
    let pricer = EnergyPricer::new(&model, &INPUT_DIMS).expect("pricer");
    // The served f32 engine and its quantized twin against the reference
    // simulator, and one lane against the default lane count.
    let engines = Engines::compile(&model);
    let held = images(args.seed ^ 0x5eed, 2);
    verify_engines(&engines, &held, &pool_batch, &mut report);
    let target = Target {
        server: &server,
        pool: &pool,
        expected: &expected,
        pricer: &pricer,
    };

    // Each rate gets time in proportion to itself, so the heavier rates,
    // whose tails matter most, get the most samples.
    let total_rate: f64 = ladder.rates.iter().sum();
    let walk_s = |rate: f64| args.seconds * rate / total_rate / WALKS as f64;
    let mut rungs: Vec<Rung> = ladder.rates.iter().map(|_| Rung::default()).collect();
    for _ in 0..WALKS {
        for (rung, &rate) in rungs.iter_mut().zip(&ladder.rates) {
            target.walk(rate, walk_s(rate), None, rung, &mut report);
        }
    }

    let energy: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.energy_uj.iter().copied())
        .collect();
    let at = |rate: f64| {
        let i = ladder
            .rates
            .iter()
            .position(|&r| r == rate)
            .expect("ladder rate");
        &rungs[i]
    };
    let max_rate = ladder
        .rates
        .iter()
        .zip(&rungs)
        .filter(|(_, r)| r.sustained())
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);

    let heavy = at(ladder.heavy);
    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report.push(
        "energy_uj_per_img",
        energy.iter().sum::<f64>() / energy.len().max(1) as f64,
        "uJ",
    );
    report.push("rate_per_s", max_rate, "1/s");
    report.push("p50_ms", median(&heavy.latency_ms), "ms");

    report.push("max_rate_rps", max_rate, "1/s");
    let attempted: u64 = rungs.iter().map(|r| r.attempted).sum();
    let failed: u64 = rungs.iter().map(|r| r.failed).sum();
    report.push("fail_frac", failed as f64 / attempted.max(1) as f64, "frac");
    for (&rate, rung) in ladder.rates.iter().zip(&rungs) {
        let (tail_ms, pct, n) = tail(&rung.latency_ms).unwrap_or((f64::NAN, 0.0, 0));
        report.push(
            format!("rung.{rate}.p50_ms"),
            median(&rung.latency_ms),
            "ms",
        );
        report.push(format!("rung.{rate}.tail_ms"), tail_ms, "ms");
        report.push(format!("rung.{rate}.tail_pct"), pct, "%");
        report.push(format!("rung.{rate}.samples"), n as f64, "count");
        report.push(
            format!("rung.{rate}.sustained"),
            f64::from(u8::from(rung.sustained())),
            "bool",
        );
    }
    for (label, rate) in [("light", ladder.light), ("heavy", ladder.heavy)] {
        let r = at(rate);
        report.push(format!("p50_ms.{label}"), median(&r.latency_ms), "ms");
        report.push(format!("p99_ms.{label}"), ms_tail(&r.latency_ms), "ms");
        report.push(
            format!("batcher.queue_wait_p50_ms.{label}"),
            median(&r.queue_ms),
            "ms",
        );
        report.push(
            format!("batcher.queue_wait_p99_ms.{label}"),
            ms_tail(&r.queue_ms),
            "ms",
        );
        report.push(
            format!("batcher.batch_mean.{label}"),
            r.batch.iter().sum::<f64>() / r.batch.len().max(1) as f64,
            "count",
        );
        report.push(
            format!("batcher.deadline_flush_frac.{label}"),
            r.edf_flushes as f64 / r.batches.max(1) as f64,
            "frac",
        );
        report.push(
            format!("worker.exec_p50_ms.{label}"),
            median(&r.exec_ms),
            "ms",
        );
        report.push(
            format!("worker.exec_p99_ms.{label}"),
            ms_tail(&r.exec_ms),
            "ms",
        );
        report.push(
            format!("server.submit_p99_us.{label}"),
            ms_tail(&r.submit_us),
            "us",
        );
        report.push(
            format!("server.backlog_max.{label}"),
            r.pending.iter().copied().fold(0.0, f64::max),
            "count",
        );
        report.push(
            format!("gen.late_p99_ms.{label}"),
            ms_tail(&r.late_ms),
            "ms",
        );
    }
    report.push("setup.convert_ms", median(&convert_ms), "ms");
    report.push("setup.compile_ms.f32", median(&compile_ms), "ms");
    report.push("setup.server_start_ms", median(&start_ms), "ms");
    report.push("energy.price_us", price_us(&pricer, &expected_stats), "us");
    // The pool priced as one offline batch: a count, exact for a seed.
    report.push(
        "energy_uj_per_img.exact",
        pricer.price_per_image_uj(&expected_stats),
        "uJ",
    );

    if args.trace {
        // Heavy-rate walks with and without the benchmark's own spans
        // around submit and wait, interleaved.
        let collector = Arc::new(TraceCollector::new(65_536));
        let overhead = paired_overhead(
            TRACE_ROUNDS,
            |on| {
                let mut rung = Rung::default();
                let c = on.then_some(&collector);
                target.walk(
                    ladder.heavy,
                    walk_s(ladder.heavy),
                    c,
                    &mut rung,
                    &mut report,
                );
                rung
            },
            |rung| median(&rung.latency_ms),
            drop,
        );
        report.push("trace.overhead_frac", overhead, "frac");
        // Engine attribution on this workload's model: the engines run on
        // the server's worker threads, so their stage spans are taken
        // from direct calls on this thread.
        report.push("setup.compile_ms.quant5", engines.compile_quant5_ms, "ms");
        let log = run_passes(
            &engines,
            &pool_batch,
            args.seconds / 4.0,
            Some(&collector),
            &mut report,
        );
        engine_layer_metrics(&log, POOL, &mut report);
        write_trace(&collector, &args.workload, args.seed);
    }
    server.shutdown();
    report
}
