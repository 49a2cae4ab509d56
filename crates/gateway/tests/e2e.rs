//! End-to-end serving guarantees through the full network stack:
//! HTTP/1.1 wire → JSON codec → `SubmitOptions` → EDF queue → worker →
//! engine → JSON response.
//!
//! * **Equivalence property**: N concurrent HTTP clients with random
//!   per-request deadlines and priorities receive logits **bit-identical**
//!   to `EventSnn` over the same samples — batching composition, EDF
//!   reordering and two float↔text trips must all be invisible.
//! * **Backpressure on the wire**: with `max_pending` forced to 1, the
//!   gateway sheds with `429` while every `200` response stays correct —
//!   shedding must never corrupt an in-flight response.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_gateway::{
    client::HttpClient, run_closed_loop, Gateway, GatewayConfig, InferRequest, LoadGenConfig,
};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{BackendChoice, InferenceBackend, StreamingConfig, StreamingServer};
use snn_sim::EventSnn;
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel, SnnModel};

#[path = "../../runtime/tests/support/gate.rs"]
mod gate;
use gate::GatedBackend;

const DIMS: [usize; 3] = [1, 2, 4];
const SAMPLE_LEN: usize = 8;
const CLASSES: usize = 3;

fn dense_model(seed: u64) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(SAMPLE_LEN, 6, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(6, CLASSES, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

proptest! {
    // Each case spins up a real TCP server and threads; keep cases few.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: concurrent HTTP clients, random arrival
    /// interleavings, random deadlines (including server-default) and
    /// random priorities — every returned logit row equals the reference
    /// event simulator's bit for bit.
    #[test]
    fn concurrent_http_clients_match_event_snn_bit_for_bit(
        seed in 0u64..256,
        clients in 2usize..5,
        max_batch in 1usize..6,
        delay_us in 0u64..2_000,
        deadline_hi_ms in 1.0f64..6.0,
        max_priority in 0u8..4,
    ) {
        let model = Arc::new(dense_model(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let n = 10usize;
        let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
        let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

        let server = Arc::new(
            StreamingServer::new(BackendChoice::Csr.build(Arc::clone(&model), &DIMS).expect("streaming stack"), StreamingConfig {
                        threads: 2,
                        max_batch,
                        max_delay: Duration::from_micros(delay_us),
                        max_pending: 0,
                        brownout: None,
                    }),
        );
        let mut gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: clients,
                poll_interval: Duration::from_millis(5),
                ..GatewayConfig::for_dims(&DIMS)
            },
        )
        .expect("gateway start");

        let report = run_closed_loop(
            gateway.local_addr(),
            &x,
            Some(&expected),
            &LoadGenConfig {
                clients,
                passes: 2,
                deadline_ms: Some((0.0, deadline_hi_ms)),
                max_priority,
                seed,
                ..LoadGenConfig::default()
            },
        );
        let metrics = gateway.shutdown();
        let streaming = server.shutdown();

        prop_assert_eq!(report.transport_errors, 0, "no dropped connections");
        prop_assert_eq!(report.ok_200, report.requests, "every request served");
        prop_assert_eq!(report.mismatches, 0,
            "HTTP-served logits must be bit-identical to EventSnn");
        prop_assert_eq!(metrics.parse_errors, 0);
        prop_assert_eq!(streaming.requests, report.requests);
        prop_assert!(streaming.max_batch_occupancy as usize <= max_batch.max(1));
    }
}

/// Backpressure end-to-end: `max_pending = 1` forces `QueueFull` sheds;
/// the wire must show `429`s, the shed counter must see them, and no
/// `200` may carry corrupted logits.
#[test]
fn forced_backpressure_yields_429_without_corrupting_responses() {
    let model = Arc::new(dense_model(42));
    let mut rng = StdRng::seed_from_u64(99);
    let n = 8usize;
    let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

    let server = Arc::new(StreamingServer::new(
        BackendChoice::Csr
            .build(Arc::clone(&model), &DIMS)
            .expect("streaming stack"),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            // A wide window: one admitted request parks here while
            // concurrent submitters bounce off max_pending.
            max_delay: Duration::from_millis(15),
            max_pending: 1,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 4,
            poll_interval: Duration::from_millis(5),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");

    // Retry until sheds appear (they essentially always do on the first
    // round; the loop hardens against a pathological scheduler).
    let mut report = None;
    for round in 0..3 {
        let r = run_closed_loop(
            gateway.local_addr(),
            &x,
            Some(&expected),
            &LoadGenConfig {
                clients: 4,
                passes: 4,
                deadline_ms: None,
                max_priority: 0,
                seed: 1234 + round,
                ..LoadGenConfig::default()
            },
        );
        let saw_sheds = r.shed_429 > 0;
        report = Some(r);
        if saw_sheds {
            break;
        }
    }
    let report = report.expect("at least one round ran");
    let metrics = gateway.shutdown();
    let streaming = server.shutdown();

    assert!(
        report.shed_429 > 0,
        "max_pending=1 must shed on the wire: {report:?}"
    );
    assert!(report.ok_200 > 0, "some requests are admitted: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "sheds must not corrupt in-flight responses"
    );
    assert_eq!(report.transport_errors, 0);
    assert_eq!(
        metrics.shed_429, report.shed_429,
        "gateway counts every shed"
    );
    assert_eq!(
        streaming.shed_requests, report.shed_429,
        "StreamingMetrics::shed_requests sees the same sheds"
    );
    assert_eq!(streaming.requests, report.ok_200, "only 200s completed");
}

/// The Prometheus endpoint reflects real traffic, including sheds.
#[test]
fn metrics_endpoint_reports_traffic_and_sheds() {
    let model = Arc::new(dense_model(7));
    let server = Arc::new(StreamingServer::new(
        BackendChoice::Csr.build(Arc::clone(&model), &DIMS).unwrap(),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.4; SAMPLE_LEN])).unwrap();
    for _ in 0..3 {
        assert_eq!(client.post_json("/v1/infer", &body).unwrap().status, 200);
    }
    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).unwrap();
    assert!(
        text.contains("snn_gateway_route_requests_total{route=\"infer\"} 3"),
        "{text}"
    );
    assert!(text.contains("snn_streaming_requests_total 3"), "{text}");
    assert!(
        text.contains("snn_streaming_shed_requests_total 0"),
        "{text}"
    );
    gateway.shutdown();
    server.shutdown();
}

/// An absurd client-supplied deadline is clamped to the gateway's
/// handler timeout: it must not park in the EDF window for a
/// client-chosen duration (which would stall co-batched requests and,
/// under tight `max_pending`, wedge admission into pure 429s).
#[test]
fn huge_client_deadline_is_clamped_to_handler_timeout() {
    let model = Arc::new(dense_model(33));
    let server = Arc::new(StreamingServer::new(
        BackendChoice::Csr.build(Arc::clone(&model), &DIMS).unwrap(),
        StreamingConfig {
            threads: 1,
            max_batch: 64, // count flush unreachable
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            handler_timeout: Duration::from_millis(100),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let mut wire = InferRequest::new(DIMS.to_vec(), vec![0.2; SAMPLE_LEN]);
    wire.deadline_ms = Some(3_600_000.0); // one hour, as sent by the client
    let body = serde_json::to_string(&wire).unwrap();
    let started = std::time::Instant::now();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    // Clamped to half the 100 ms handler budget, the EDF deadline flushes
    // the window at ~50 ms and the request completes 200 inside the
    // handler timeout — nowhere near the requested hour.
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline must be clamped, not honored verbatim"
    );
    gateway.shutdown();
    server.shutdown();
}

/// A tight-deadline request that lands behind a relaxed one while the
/// worker is busy overtakes it: the next free worker takes both in EDF
/// order — observed end to end through HTTP.
#[test]
fn tight_deadline_overtakes_a_relaxed_request_over_http() {
    let model = Arc::new(dense_model(21));
    let gate = GatedBackend::new(BackendChoice::Csr.build(Arc::clone(&model), &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new(
        Arc::clone(&gate) as Arc<dyn InferenceBackend>,
        StreamingConfig {
            threads: 1,
            max_batch: 64, // count flush unreachable
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            handler_timeout: Duration::from_secs(10),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    // Hold the only worker, then queue the relaxed request and the tight
    // one behind it, in that order.
    let blocker = server.submit(&Tensor::full(&DIMS, 0.9)).unwrap();
    gate.wait_entered(1);
    let post = |deadline_ms: f64, value: f32, priority: u8| {
        let mut r = InferRequest::new(DIMS.to_vec(), vec![value; SAMPLE_LEN]);
        r.deadline_ms = Some(deadline_ms);
        r.priority = priority;
        let body = serde_json::to_string(&r).unwrap();
        let addr = gateway.local_addr();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/v1/infer", &body).unwrap()
        })
    };
    let wait_queued = |n: usize| {
        while server.pending() < n {
            std::thread::yield_now();
        }
    };
    let relaxed_thread = post(25_000.0, 0.3, 0);
    wait_queued(2);
    let tight_thread = post(1.0, 0.6, 3);
    wait_queued(3);
    gate.open();
    blocker.wait().unwrap();
    let tight_response = tight_thread.join().unwrap();
    let relaxed_response = relaxed_thread.join().unwrap();
    assert_eq!(tight_response.status, 200);
    assert_eq!(relaxed_response.status, 200);
    let streaming = server.metrics();
    assert_eq!(streaming.requests, 3);
    assert_eq!(
        streaming.max_batch_occupancy, 2,
        "both queued requests rode one batch"
    );
    assert_eq!(gate.batches()[1], vec![0.6, 0.3], "tight first (EDF)");
    gateway.shutdown();
    server.shutdown();
}
