//! Edge-case coverage for the streaming front-end: deadline-only flushes,
//! count flushes with no deadline slack, graceful shutdown with work still
//! queued, submissions after shutdown, and ticket polling.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    CsrEngine, InferenceBackend, StreamingConfig, StreamingServer, SubmitError, SubmitOptions,
    Ticket,
};
use snn_sim::RunStats;
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel, ConvertError, SnnModel};

fn dense_model(seed: u64) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

fn engine(seed: u64) -> Arc<CsrEngine> {
    Arc::new(CsrEngine::compile(&dense_model(seed), &[1, 3, 4]).unwrap())
}

fn sample(value: f32) -> Tensor {
    Tensor::full(&[1, 3, 4], value)
}

/// A backend that sleeps before delegating, so shutdown reliably finds
/// requests still queued behind a busy worker.
struct SlowBackend {
    inner: CsrEngine,
    delay: Duration,
}

impl InferenceBackend for SlowBackend {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.inner)
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        std::thread::sleep(self.delay);
        self.inner.run_batch(images)
    }
}

#[test]
fn single_request_flushes_on_deadline_alone() {
    // max_batch is far from reached: only the deadline can flush.
    let server = StreamingServer::new(
        engine(1),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            max_pending: 0,
            brownout: None,
        },
    );
    let response = server.submit(&sample(0.5)).unwrap().wait().unwrap();
    assert_eq!(response.batch_size, 1, "flushed alone, by deadline");
    assert_eq!(response.logits.dims(), &[3]);
    // The request waited out (at least) its deadline before executing.
    assert!(response.queue_wait >= Duration::from_millis(5));
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 1);
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.max_batch_occupancy, 1);
}

#[test]
fn count_flush_fills_to_max_batch_before_deadline() {
    // Deadline is far away: only the count flush can trigger, so every
    // batch holds exactly max_batch requests.
    let server = StreamingServer::new(
        engine(2),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| server.submit(&sample(i as f32 / 8.0)).unwrap())
        .collect();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert_eq!(response.batch_size, 4, "count flush at max_batch");
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 8);
    assert_eq!(metrics.batches, 2);
    assert!((metrics.mean_batch_occupancy - 4.0).abs() < 1e-9);
}

#[test]
fn max_batch_flush_with_zero_remaining_deadline() {
    // max_delay == 0: every pending window is already expired the moment
    // it forms. Count and deadline flushes race; every request must still
    // be answered exactly once and no batch may exceed max_batch.
    let server = StreamingServer::new(
        engine(3),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..16)
        .map(|i| server.submit(&sample(i as f32 / 16.0)).unwrap())
        .collect();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert!(response.batch_size >= 1 && response.batch_size <= 4);
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 16);
    let histogram_total: u64 = metrics
        .occupancy_histogram
        .iter()
        .map(|bucket| bucket.size * bucket.batches)
        .sum();
    assert_eq!(histogram_total, 16, "histogram accounts for every request");
}

#[test]
fn shutdown_drains_queued_requests() {
    // One slow worker, per-request batches: most submissions are still on
    // the worker queue when shutdown starts. Every ticket must resolve.
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(4), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(20),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..5)
        .map(|i| server.submit(&sample(i as f32 / 5.0)).unwrap())
        .collect();
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 5, "shutdown drained every request");
    for ticket in tickets {
        let response = ticket.wait().expect("drained, not dropped");
        assert_eq!(response.batch_size, 1);
    }
}

#[test]
fn submit_after_shutdown_returns_error() {
    let server = StreamingServer::new(
        engine(5),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    server.submit(&sample(0.3)).unwrap().wait().unwrap();
    server.shutdown();
    let err = server.submit(&sample(0.3)).unwrap_err();
    assert!(
        err.to_string().contains("shut down"),
        "structured shutdown error, got: {err}"
    );
    // Shutdown stays idempotent and keeps reporting the drained state.
    assert_eq!(server.shutdown().requests, 1);
}

#[test]
fn try_wait_polls_until_the_result_lands() {
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(6), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(30),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server.submit(&sample(0.7)).unwrap();
    // The backend sleeps 30 ms, so early polls come back `Ok(None)`; no
    // assertion on the first poll, since a descheduled test thread could
    // legitimately see the result already landed.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let response = loop {
        if let Some(response) = ticket.try_wait().unwrap() {
            break response;
        }
        assert!(std::time::Instant::now() < deadline, "result never landed");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(response.logits.dims(), &[3]);
}

#[test]
fn wait_timeout_returns_none_then_the_result() {
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(12), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(100),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server.submit(&sample(0.4)).unwrap();
    // The backend sleeps 100 ms: a 5 ms wait must time out cleanly and
    // leave the ticket usable.
    assert!(
        ticket
            .wait_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none(),
        "result cannot be ready yet"
    );
    let response = ticket
        .wait_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("result lands within the bound");
    assert_eq!(response.logits.dims(), &[3]);
    // A consumed ticket's channel is empty but alive semantics are moot —
    // the server keeps serving.
    server.submit(&sample(0.5)).unwrap().wait().unwrap();
    server.shutdown();
}

#[test]
fn wait_timeout_surfaces_backend_panic_as_error() {
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(13))),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server.submit(&sample(0.5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    // Depending on timing we see Ok(None) ticks first, then the error.
    loop {
        match ticket.wait_timeout(Duration::from_millis(5)) {
            Ok(None) => assert!(std::time::Instant::now() < deadline, "never resolved"),
            Ok(Some(_)) => panic!("panicking backend cannot produce a response"),
            Err(e) => {
                // The panic is isolated: a solo retry panics again, so the
                // request is quarantined with a typed error — not a
                // dropped channel.
                assert!(e.to_string().contains("quarantined"), "got: {e}");
                break;
            }
        }
    }
    server.shutdown();
}

#[test]
fn shed_requests_metric_counts_queue_full_rejections() {
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(14), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(60),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 1,
            brownout: None,
        },
    );
    let admitted = server.submit(&sample(0.1)).expect("first admitted");
    for _ in 0..3 {
        assert!(matches!(
            server.submit(&sample(0.2)),
            Err(SubmitError::QueueFull { .. })
        ));
    }
    admitted.wait().unwrap();
    let metrics = server.shutdown();
    assert_eq!(metrics.shed_requests, 3, "every QueueFull counted");
    assert_eq!(metrics.requests, 1, "sheds are not completions");
}

#[test]
fn submit_with_zero_deadline_flushes_a_long_window() {
    // max_delay is 30 s and max_batch unreachable: only the per-request
    // EDF deadline can flush. If submit_with dropped the deadline, this
    // would hang until the test harness killed it.
    let server = StreamingServer::new(
        engine(15),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server
        .submit_with(&sample(0.5), SubmitOptions::with_deadline(Duration::ZERO))
        .unwrap();
    let response = ticket
        .wait_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("zero deadline flushes immediately");
    assert_eq!(response.batch_size, 1);
    server.shutdown();
}

#[test]
fn tight_deadline_flushes_requests_that_arrived_relaxed() {
    // A relaxed request parks in the window; an urgent one arriving later
    // pulls the earliest deadline forward and both ride one batch.
    let server = StreamingServer::new(
        engine(16),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    );
    let relaxed = server
        .submit_with(
            &sample(0.3),
            SubmitOptions::with_deadline(Duration::from_secs(20)),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let urgent = server
        .submit_with(
            &sample(0.7),
            SubmitOptions::with_deadline(Duration::from_millis(1)).priority(5),
        )
        .unwrap();
    let urgent_response = urgent.wait().unwrap();
    let relaxed_response = relaxed.wait().unwrap();
    assert_eq!(urgent_response.batch_size, 2, "one EDF-flushed batch");
    assert_eq!(relaxed_response.batch_size, 2);
    let metrics = server.shutdown();
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.shed_requests, 0);
}

#[test]
fn mismatched_sample_dims_are_rejected() {
    let server = StreamingServer::new(engine(7), StreamingConfig::default());
    server.submit(&sample(0.5)).unwrap();
    let err = server.submit(&Tensor::full(&[1, 4, 4], 0.5)).unwrap_err();
    assert!(err.to_string().contains("do not match"), "got: {err}");
    let err = server
        .submit(&Tensor::from_vec(vec![], &[0]).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("non-empty"), "got: {err}");
}

#[test]
fn bounded_queue_rejects_with_queue_full_and_recovers() {
    // One slow worker, per-request batches, a bound of 2: the first two
    // submissions are admitted (one executing, one queued), the third must
    // be shed with QueueFull instead of growing the queue. Once the
    // admitted work resolves, capacity frees and submission succeeds again.
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(9), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(100),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 2,
            brownout: None,
        },
    );
    assert_eq!(server.max_pending(), 2);
    let first = server.submit(&sample(0.1)).expect("slot 1 admitted");
    let second = server.submit(&sample(0.2)).expect("slot 2 admitted");
    let err = server.submit(&sample(0.3)).expect_err("bound reached");
    assert_eq!(err, SubmitError::QueueFull { max_pending: 2 });
    assert!(err.to_string().contains("full"), "got: {err}");
    assert_eq!(server.pending(), 2);

    // Resolving the admitted requests releases their slots.
    first.wait().expect("admitted request resolves");
    second.wait().expect("admitted request resolves");
    let third = server
        .submit(&sample(0.3))
        .expect("capacity freed after completion");
    third.wait().expect("recovered request resolves");
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 3, "the shed request never counted");
}

#[test]
fn unbounded_queue_still_tracks_pending() {
    let server = StreamingServer::new(
        engine(10),
        StreamingConfig {
            threads: 1,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    assert_eq!(server.max_pending(), 0);
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| server.submit(&sample(i as f32 / 6.0)).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    // Shutdown joins the workers, so every batch's slot release has run.
    server.shutdown();
    assert_eq!(server.pending(), 0, "all resolved requests released");
}

struct PanickingBackend(SnnModel);

impl InferenceBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panic"
    }
    fn model(&self) -> &SnnModel {
        &self.0
    }
    fn run_batch(&self, _images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        panic!("backend exploded mid-batch");
    }
}

#[test]
fn backend_panic_releases_backpressure_slots() {
    // A panicking backend must not wedge a bounded server: the batch's
    // admission slots are released on unwind (drop guard), so once the
    // failure surfaces, new submissions are admitted — not QueueFull.
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(11))),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 1,
            brownout: None,
        },
    );
    for round in 0..3 {
        // The quarantine error reaches the ticket just before the worker's
        // drop guard releases the slot, so admission may lag the error by
        // one scheduling tick — retry briefly, but a leaked slot stays
        // QueueFull forever and still fails here.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let ticket = loop {
            match server.submit(&sample(0.5)) {
                Ok(ticket) => break ticket,
                Err(e) if std::time::Instant::now() < deadline => {
                    assert!(
                        matches!(e, SubmitError::QueueFull { .. }),
                        "round {round}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("round {round} must be admitted, got {e}"),
            }
        };
        assert!(ticket.wait().is_err(), "backend always panics");
    }
    server.shutdown();
    assert_eq!(server.pending(), 0, "no leaked admissions");
}

#[test]
fn flush_reason_counters_split_deadline_count_and_drain() {
    // Count flushes: max_batch 4, deadline unreachable — 8 requests make
    // exactly two max_batch flushes.
    let server = StreamingServer::new(
        engine(20),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| server.submit(&sample(i as f32 / 8.0)).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_max_batch, 2);
    assert_eq!(metrics.flushes_edf_deadline, 0);
    assert_eq!(metrics.flushes_drain, 0);
    assert_eq!(
        metrics.flushes_max_batch + metrics.flushes_edf_deadline + metrics.flushes_drain,
        metrics.batches,
        "every batch is attributed to exactly one flush reason"
    );

    // Deadline flush: max_batch unreachable, only EDF expiry can fire.
    let server = StreamingServer::new(
        engine(21),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            max_pending: 0,
            brownout: None,
        },
    );
    server.submit(&sample(0.5)).unwrap().wait().unwrap();
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_edf_deadline, 1);
    assert_eq!(metrics.flushes_max_batch, 0);

    // Drain flush: requests still parked in the window when shutdown runs.
    let server = StreamingServer::new(
        engine(22),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(&sample(i as f32 / 3.0)).unwrap())
        .collect();
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_drain, 1, "shutdown drained the open window");
    assert_eq!(metrics.requests, 3);
    for ticket in tickets {
        ticket.wait().unwrap();
    }
}

#[test]
fn wait_timeouts_metric_counts_ticket_expiries() {
    let server = StreamingServer::new(
        Arc::new(SlowBackend {
            inner: CsrEngine::compile(&dense_model(23), &[1, 3, 4]).unwrap(),
            delay: Duration::from_millis(80),
        }),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server.submit(&sample(0.4)).unwrap();
    // Two early polls expire against the 80 ms backend; both must count.
    for _ in 0..2 {
        assert!(ticket
            .wait_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }
    ticket
        .wait_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("result lands within the bound");
    let metrics = server.shutdown();
    assert_eq!(metrics.wait_timeouts, 2, "only the expired polls count");
}

#[test]
fn traced_server_records_runtime_spans_with_identical_logits() {
    use snn_runtime::BackendChoice;
    use snn_trace::{AttrValue, TraceCollector, TraceTarget};

    let model = Arc::new(dense_model(24));
    let x = sample(0.6);

    // Tracing off: the plain server's logits are the reference.
    let plain = StreamingServer::new(
        Arc::new(CsrEngine::compile(&model, &[1, 3, 4]).unwrap()),
        StreamingConfig::default(),
    );
    let expected = plain.submit(&x).unwrap().wait().unwrap().logits;
    plain.shutdown();

    let collector = Arc::new(TraceCollector::new(0));
    let server = StreamingServer::new_traced(
        BackendChoice::Csr
            .build(Arc::clone(&model), &[1, 3, 4])
            .unwrap(),
        StreamingConfig::default(),
        Arc::clone(&collector),
    );
    let trace = collector.mint_trace();
    let target = TraceTarget { trace, parent: 0 };
    let response = server
        .submit_with(&x, SubmitOptions::default().traced(target))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        response.logits.as_slice(),
        expected.as_slice(),
        "tracing must not perturb logits"
    );
    // All runtime spans are recorded before the ticket reply is sent, so
    // the tree is complete the moment `wait` returns.
    let spans = collector.trace(trace);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for required in [
        "queue.wait",
        "batch.flush",
        "batch.exec",
        "csr.chunk",
        "encode",
        "stage.exec",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    let flush = spans.iter().find(|s| s.name == "batch.flush").unwrap();
    assert!(
        matches!(flush.attr("reason"), Some(AttrValue::Str(_))),
        "flush span carries its reason"
    );
    let exec = spans.iter().find(|s| s.name == "batch.exec").unwrap();
    assert_eq!(exec.attr("backend"), Some(&AttrValue::Str("csr")));
    // Engine spans parent under the batch execution span.
    let chunk = spans.iter().find(|s| s.name == "csr.chunk").unwrap();
    assert_eq!(chunk.parent_id, exec.span_id);
    assert!(chunk.attr("lanes").is_some() && chunk.attr("scratch").is_some());
    // Every non-root parent exists in the tree.
    let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
    for span in &spans {
        assert!(
            span.parent_id == 0 || ids.contains(&span.parent_id),
            "orphan span {span:?}"
        );
    }
    server.shutdown();
}

#[test]
fn untraced_submissions_on_a_traced_server_record_nothing() {
    use snn_trace::TraceCollector;

    let collector = Arc::new(TraceCollector::new(0));
    let server = StreamingServer::new_traced(
        engine(25),
        StreamingConfig::default(),
        Arc::clone(&collector),
    );
    server.submit(&sample(0.5)).unwrap().wait().unwrap();
    server.shutdown();
    assert_eq!(collector.spans_recorded(), 0, "no target, no spans");
}

#[test]
fn worker_panic_surfaces_as_ticket_error() {
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(8))),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    let ticket = server.submit(&sample(0.5)).unwrap();
    // Blast-radius isolation retries the panicked request solo; it
    // panics again and is quarantined with a typed error, so the ticket
    // resolves instead of observing a dropped channel.
    let err = ticket.wait().unwrap_err();
    assert!(err.to_string().contains("quarantined"), "got: {err}");
    // The server survives the panic for later (failing) traffic.
    let err2 = server.submit(&sample(0.5)).unwrap().wait().unwrap_err();
    assert!(err2.to_string().contains("quarantined"), "got: {err2}");
}
