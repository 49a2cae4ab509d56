//! `gateway_http`: a closed loop of `nproc` keep-alive loopback clients
//! against `Gateway::start` in its deployed defaults (telemetry and
//! logging on). The model has every stage of the VGG-16 geometry at one
//! to four channels, so the engine does little while each request still
//! carries a full `[3, 32, 32]` JSON body. Every client also scrapes
//! `GET /metrics` and `GET /v1/stats` at a fixed share beside its POSTs.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::stats::{median, tail};
use snn_gateway::client::HttpClient;
use snn_gateway::http::{parse_request, Limits};
use snn_gateway::{Gateway, GatewayConfig, InferRequest, InferResponse};
use snn_runtime::energy::EnergyPricer;
use snn_runtime::{CsrEngine, InferenceBackend, StreamingConfig, StreamingServer};
use snn_tensor::Tensor;
use snn_trace::TraceCollector;

use crate::common::{
    build_tiny_model, engine_layer_metrics, images, paired_overhead, peak_rss_mb, price_us, row,
    run_passes, same_bits, secs, write_trace, Engines, Report, INPUT_DIMS, SETUPS,
};
use crate::Args;

/// Distinct request bodies cycled through by the clients.
const POOL: usize = 16;
/// Each client's request cycle: one `/metrics` and one `/v1/stats`
/// scrape per this many requests, the rest inference POSTs.
const CYCLE: usize = 16;
/// Untraced/traced segment pairs of the traced run.
const TRACE_ROUNDS: usize = 4;

/// One client's observations.
#[derive(Default)]
struct ClientLog {
    post_ms: Vec<f64>,
    wire_us: Vec<f64>,
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
    energy_uj: Vec<f64>,
    metrics_us: Vec<f64>,
    stats_us: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

fn post_body(pool: &Tensor, i: usize) -> String {
    let len: usize = INPUT_DIMS.iter().product();
    let pixels = pool.as_slice()[i * len..(i + 1) * len].to_vec();
    serde_json::to_string(&InferRequest::new(INPUT_DIMS.to_vec(), pixels)).expect("encode request")
}

/// Checks one POST answer against its expected logits row.
fn check_post(status: u16, body: &[u8], want: &[f32]) -> Result<InferResponse, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let response: InferResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if same_bits(&response.logits, want) {
        Ok(response)
    } else {
        Err("logits differ from the offline engine".into())
    }
}

/// Runs the closed loop from one client until `until`.
fn client_loop(
    addr: SocketAddr,
    client: usize,
    bodies: &[String],
    expected: &Tensor,
    until: Instant,
    trace: Option<&Arc<TraceCollector>>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut http = match HttpClient::connect(addr) {
        Ok(http) => http,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut i = client * 7;
    while Instant::now() < until {
        let op = i % CYCLE;
        let idx = i % bodies.len();
        i += 1;
        log.attempted += 1;
        let t = Instant::now();
        let sent = match op {
            5 => http.get("/metrics"),
            13 => http.get("/v1/stats"),
            _ => http.post_json("/v1/infer", &bodies[idx]),
        };
        let t_end = Instant::now();
        let took = (t_end - t).as_secs_f64();
        if let Some(c) = trace {
            let name = if matches!(op, 5 | 13) {
                "bench.http_get"
            } else {
                "bench.http_post"
            };
            c.record_span(c.mint_trace(), 0, name, t, t_end, vec![]);
        }
        let response = match sent {
            Ok(r) => r,
            Err(e) => {
                log.failures.push(format!("transport: {e}"));
                match HttpClient::connect(addr) {
                    Ok(fresh) => http = fresh,
                    Err(_) => return log,
                }
                continue;
            }
        };
        match op {
            5 | 13 if response.status == 200 => {
                if op == 5 {
                    &mut log.metrics_us
                } else {
                    &mut log.stats_us
                }
                .push(took * 1e6);
            }
            5 | 13 => log
                .failures
                .push(format!("scrape answered {}", response.status)),
            _ => match check_post(response.status, &response.body, row(expected, idx)) {
                Ok(r) => {
                    log.post_ms.push(took * 1e3);
                    log.wire_us.push(took * 1e6 - r.e2e_us);
                    log.queue_us.push(r.queue_wait_us);
                    log.exec_us.push(r.exec_us);
                    log.energy_uj.push(r.energy_uj);
                }
                Err(e) => log.failures.push(format!("POST image {idx}: {e}")),
            },
        }
    }
    log
}

/// Runs `clients` closed-loop clients for `seconds`; returns the merged
/// log and the measured wall time.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    bodies: &[String],
    expected: &Tensor,
    seconds: f64,
    trace: Option<&Arc<TraceCollector>>,
) -> (ClientLog, f64) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client_loop(addr, c, bodies, expected, until, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = secs(start);
    let mut all = ClientLog::default();
    for log in logs {
        all.post_ms.extend(log.post_ms);
        all.wire_us.extend(log.wire_us);
        all.queue_us.extend(log.queue_us);
        all.exec_us.extend(log.exec_us);
        all.energy_uj.extend(log.energy_uj);
        all.metrics_us.extend(log.metrics_us);
        all.stats_us.extend(log.stats_us);
        all.attempted += log.attempted;
        all.failures.extend(log.failures);
    }
    (all, wall)
}

/// Median µs per call of `f` over `reps` calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t) * 1e6
        })
        .collect();
    median(&samples)
}

fn record(report: &mut Report, log: &ClientLog) {
    report.attempted += log.attempted;
    report.failed += log.failures.len() as u64;
    for failure in &log.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let pool = images(args.seed, POOL);
    let bodies: Vec<String> = (0..POOL).map(|i| post_body(&pool, i)).collect();

    // Set-up: convert, compile, start server and gateway, first answer.
    let mut setup_s = Vec::new();
    let mut convert_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut gateway_ms = Vec::new();
    let mut expected: Option<Tensor> = None;
    let mut answer = None;
    let mut kept: Option<(Arc<_>, Arc<StreamingServer>, Gateway)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server, mut gateway)) = kept.take() {
            gateway.shutdown();
            server.shutdown();
        }
        let t0 = Instant::now();
        let model = Arc::new(build_tiny_model());
        convert_ms.push(secs(t0) * 1e3);
        let t = Instant::now();
        let engine =
            Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &INPUT_DIMS).expect("compile"));
        compile_ms.push(secs(t) * 1e3);
        let t = Instant::now();
        let server = Arc::new(StreamingServer::new(
            Arc::clone(&engine) as Arc<dyn InferenceBackend>,
            StreamingConfig {
                max_batch: clients,
                max_delay: Duration::ZERO,
                ..StreamingConfig::default()
            },
        ));
        let gateway = Gateway::start(Arc::clone(&server), GatewayConfig::for_dims(&INPUT_DIMS))
            .expect("gateway starts");
        gateway_ms.push(secs(t) * 1e3);
        let first = HttpClient::connect(gateway.local_addr())
            .and_then(|mut c| c.post_json("/v1/infer", &bodies[0]));
        setup_s.push(secs(t0));
        let expected =
            expected.get_or_insert_with(|| engine.run_batch(&pool).expect("expected logits").0);
        let checked = first
            .map_err(|e| e.to_string())
            .and_then(|r| check_post(r.status, &r.body, row(expected, 0)));
        match checked {
            Ok(response) => {
                report.check(true, String::new);
                answer = Some(response);
            }
            Err(e) => report.check(false, || format!("first HTTP answer: {e}")),
        }
        kept = Some((model, server, gateway));
    }
    let (model, server, mut gateway) = kept.expect("at least one set-up");
    let expected = expected.expect("expected logits");
    let addr = gateway.local_addr();

    let (log, wall) = closed_loop(addr, clients, &bodies, &expected, args.seconds, None);
    record(&mut report, &log);
    let (tail_ms, pct, n) = tail(&log.post_ms).unwrap_or((f64::NAN, 0.0, log.post_ms.len()));
    let req_per_s = log.post_ms.len() as f64 / wall;

    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report.push(
        "energy_uj_per_img",
        log.energy_uj.iter().sum::<f64>() / log.energy_uj.len().max(1) as f64,
        "uJ",
    );
    report.push("rate_per_s", req_per_s, "1/s");
    report.push("p50_ms", median(&log.post_ms), "ms");
    report.push("p99_ms", tail_ms, "ms");

    report.push("req_per_s", req_per_s, "1/s");
    report.push("p99_ms.percentile", pct, "%");
    report.push("posts", n as f64, "count");
    report.push("clients", clients as f64, "count");
    report.push(
        "fail_frac",
        log.failures.len() as f64 / log.attempted.max(1) as f64,
        "frac",
    );
    report.push("gateway.wire_p50_us", median(&log.wire_us), "us");
    report.push(
        "gateway.wire_p99_us",
        tail(&log.wire_us).map_or(f64::NAN, |t| t.0),
        "us",
    );
    report.push("gateway.queue_wait_p50_us", median(&log.queue_us), "us");
    report.push("gateway.exec_p50_us", median(&log.exec_us), "us");
    report.push("metrics.scrape_p50_us", median(&log.metrics_us), "us");
    report.push("stats.scrape_p50_us", median(&log.stats_us), "us");

    // Wire codecs on the exact bytes a client sends.
    let wire = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        bodies[0].len(),
        bodies[0]
    );
    let limits = Limits::default();
    report.push(
        "http.parse_us",
        time_us(200, || {
            let parsed = parse_request(std::hint::black_box(wire.as_bytes()), &limits);
            assert!(matches!(parsed, Ok(Some(_))), "request bytes parse");
        }),
        "us",
    );
    report.push(
        "json.decode_us",
        time_us(200, || {
            let r: InferRequest =
                serde_json::from_str(std::hint::black_box(&bodies[0])).expect("decode");
            std::hint::black_box(r);
        }),
        "us",
    );
    if let Some(answer) = &answer {
        report.push(
            "json.encode_us",
            time_us(2000, || {
                std::hint::black_box(
                    serde_json::to_string(std::hint::black_box(answer)).expect("encode"),
                );
            }),
            "us",
        );
    }
    report.push("setup.convert_ms", median(&convert_ms), "ms");
    report.push("setup.compile_ms.f32", median(&compile_ms), "ms");
    report.push("setup.gateway_start_ms", median(&gateway_ms), "ms");

    if args.trace {
        // Closed-loop segments with and without the benchmark's own span
        // around each HTTP call, interleaved.
        let collector = Arc::new(TraceCollector::new(65_536));
        let segment = args.seconds / (2 * TRACE_ROUNDS) as f64;
        let overhead = paired_overhead(
            TRACE_ROUNDS,
            |on| {
                let c = on.then_some(&collector);
                let run = closed_loop(addr, clients, &bodies, &expected, segment, c);
                record(&mut report, &run.0);
                run
            },
            |(log, wall)| wall / log.post_ms.len().max(1) as f64,
            drop,
        );
        report.push("trace.overhead_frac", overhead, "frac");
        write_trace(&collector, &args.workload, args.seed);
    }
    gateway.shutdown();
    server.shutdown();

    if args.trace {
        // Engine attribution on this workload's model: the engine runs on
        // the server's worker threads, so its stage spans come from direct
        // calls on this thread.
        let engines = Engines::compile(&model);
        report.push("setup.compile_ms.quant5", engines.compile_quant5_ms, "ms");
        let collector = Arc::new(TraceCollector::new(16_384));
        let log = run_passes(
            &engines,
            &pool,
            args.seconds / 4.0,
            Some(&collector),
            &mut report,
        );
        let pricer = EnergyPricer::new(&model, &INPUT_DIMS).expect("pricer");
        let (_, stats) = log.first[0].as_ref().expect("first pass");
        report.push("energy.price_us", price_us(&pricer, stats), "us");
        engine_layer_metrics(&log, POOL, &mut report);
    }
    report
}
