//! Edge-case coverage for the streaming front-end: a lone request never
//! waits for its deadline, backlogs drain in EDF-ordered `max_batch`
//! batches, graceful shutdown with work still queued, submissions after
//! shutdown, and ticket polling. Tests that need requests to queue hold
//! the workers at a [`GatedBackend`] instead of sleeping.

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

#[path = "support/gate.rs"]
mod gate;
use gate::GatedBackend;

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

/// A shut gate in front of a CSR engine for `dense_model(seed)`.
fn gated(seed: u64) -> Arc<GatedBackend> {
    GatedBackend::new(engine(seed))
}

/// A server over `gate`, with a worker already held at the gate by one
/// blocker request (marker 0.99); returns the server and the blocker's
/// ticket. Everything submitted next queues until the gate opens.
fn held_server(gate: &Arc<GatedBackend>, config: StreamingConfig) -> (StreamingServer, Ticket) {
    let server = StreamingServer::new(Arc::clone(gate) as Arc<dyn InferenceBackend>, config);
    let blocker = server.submit(&sample(0.99)).unwrap();
    gate.wait_entered(1);
    (server, blocker)
}

/// A long default deadline that never passes during a test.
const LONG: Duration = Duration::from_secs(30);

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
fn single_request_runs_without_waiting_for_its_deadline() {
    // One worker, a 30 s default deadline and an unreachable max_batch:
    // an idle worker takes the lone request at once. Holding it for its
    // deadline would blow the 5 s bound below.
    let server = StreamingServer::new(
        engine(1),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: LONG,
            max_pending: 0,
            brownout: None,
        },
    );
    let response = server
        .submit(&sample(0.5))
        .unwrap()
        .wait_timeout(Duration::from_secs(5))
        .unwrap()
        .expect("a lone request must not wait out the 30 s window");
    assert_eq!(response.batch_size, 1, "taken alone");
    assert_eq!(response.logits.dims(), &[3]);
    assert!(response.queue_wait < LONG);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 1);
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.max_batch_occupancy, 1);
    assert_eq!(
        metrics.flushes_idle, 1,
        "a partial batch before its deadline"
    );
    assert_eq!(metrics.wait_timeouts, 0);
}

#[test]
fn count_flush_fills_to_max_batch_before_deadline() {
    // Both workers are held while 8 requests queue; once the gate opens,
    // the backlog leaves in batches of exactly max_batch.
    let gate = gated(2);
    let server = StreamingServer::new(
        Arc::clone(&gate) as Arc<dyn InferenceBackend>,
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: LONG,
            max_pending: 0,
            brownout: None,
        },
    );
    let blockers: Vec<Ticket> = (1..=2)
        .map(|n| {
            let ticket = server.submit(&sample(0.99)).unwrap();
            gate.wait_entered(n);
            ticket
        })
        .collect();
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| server.submit(&sample(i as f32 / 8.0)).unwrap())
        .collect();
    gate.open();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert_eq!(response.batch_size, 4, "count flush at max_batch");
    }
    for blocker in blockers {
        assert_eq!(blocker.wait().unwrap().batch_size, 1);
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 10);
    assert_eq!(metrics.batches, 4);
    assert_eq!(metrics.flushes_max_batch, 2);
    assert_eq!(metrics.flushes_idle, 2, "the two blockers");
}

#[test]
fn held_backlog_drains_in_edf_ordered_batches() {
    // One held worker, ten queued requests with deadlines 10 s apart
    // (far more than the submission spacing, so the EDF order is the
    // order of the deadline offsets) and max_batch 3.
    let gate = gated(17);
    let (server, blocker) = held_server(
        &gate,
        StreamingConfig {
            threads: 1,
            max_batch: 3,
            max_delay: LONG,
            max_pending: 0,
            brownout: None,
        },
    );
    let offsets_s = [70u64, 20, 90, 10, 50, 100, 30, 80, 40, 60];
    let mut tickets: Vec<(f32, Ticket)> = offsets_s
        .iter()
        .enumerate()
        .map(|(i, &secs)| {
            let marker = i as f32 / 16.0;
            let options = SubmitOptions::with_deadline(Duration::from_secs(secs));
            (
                marker,
                server.submit_with(&sample(marker), options).unwrap(),
            )
        })
        .collect();
    gate.open();
    blocker.wait().unwrap();
    let reference = engine(17);
    for (marker, ticket) in tickets.iter_mut() {
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("every queued ticket resolves");
        let (expected, _) = reference
            .run_batch(&Tensor::full(&[1, 1, 3, 4], *marker))
            .unwrap();
        assert_eq!(response.logits.as_slice(), expected.as_slice(), "bit-exact");
        // Exactly once: the reply channel is spent and closed.
        assert!(ticket.try_wait().is_err(), "a second response arrived");
    }
    // The gate saw the blocker, then the backlog in EDF order, cut into
    // batches of at most max_batch.
    let mut by_deadline: Vec<(u64, f32)> = offsets_s
        .iter()
        .enumerate()
        .map(|(i, &secs)| (secs, i as f32 / 16.0))
        .collect();
    by_deadline.sort_by_key(|&(secs, _)| secs);
    let edf: Vec<f32> = by_deadline.iter().map(|&(_, m)| m).collect();
    let batches = gate.batches();
    assert_eq!(batches[0], vec![0.99]);
    let expected: Vec<Vec<f32>> = edf.chunks(3).map(<[f32]>::to_vec).collect();
    assert_eq!(&batches[1..], &expected[..]);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 11);
    assert_eq!(metrics.batches, 5);
    assert_eq!(metrics.flushes_max_batch, 3);
    assert_eq!(
        metrics.flushes_idle, 2,
        "the blocker and the final partial batch"
    );
    assert_eq!(
        metrics.flushes_max_batch
            + metrics.flushes_edf_deadline
            + metrics.flushes_drain
            + metrics.flushes_idle,
        metrics.batches,
        "every batch is attributed to exactly one flush reason"
    );
}

#[test]
fn idle_worker_takes_new_work_while_another_is_busy() {
    // Two workers; the first is held at the gate. A second request must
    // reach the backend on the other worker without waiting for the
    // first — requests wait only while EVERY worker is busy.
    let gate = gated(18);
    let (server, blocker) = held_server(
        &gate,
        StreamingConfig {
            threads: 2,
            max_batch: 8,
            max_delay: LONG,
            max_pending: 0,
            brownout: None,
        },
    );
    let second = server.submit(&sample(0.25)).unwrap();
    gate.wait_entered(2);
    assert_eq!(
        gate.batches(),
        vec![vec![0.99], vec![0.25]],
        "two solo batches"
    );
    gate.open();
    assert_eq!(second.wait().unwrap().batch_size, 1);
    assert_eq!(blocker.wait().unwrap().batch_size, 1);
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_idle, 2);
}

#[test]
fn busy_workers_leave_a_backlog_the_next_free_worker_takes_whole() {
    // Both workers held; two requests queue behind them. Releasing one
    // batch frees one worker, which takes the whole backlog as one batch.
    let gate = gated(19);
    let server = StreamingServer::new(
        Arc::clone(&gate) as Arc<dyn InferenceBackend>,
        StreamingConfig {
            threads: 2,
            max_batch: 8,
            max_delay: LONG,
            max_pending: 0,
            brownout: None,
        },
    );
    let blockers: Vec<Ticket> = [0.9, 0.8]
        .iter()
        .enumerate()
        .map(|(n, &marker)| {
            let ticket = server.submit(&sample(marker)).unwrap();
            gate.wait_entered(n + 1);
            ticket
        })
        .collect();
    let queued: Vec<Ticket> = [0.1, 0.2]
        .iter()
        .map(|&marker| server.submit(&sample(marker)).unwrap())
        .collect();
    assert_eq!(server.pending(), 4, "two executing, two queued");
    gate.release(1);
    gate.wait_entered(3);
    assert_eq!(
        gate.batches()[2],
        vec![0.1, 0.2],
        "the backlog left as one batch"
    );
    gate.open();
    for ticket in queued {
        assert_eq!(ticket.wait().unwrap().batch_size, 2);
    }
    for ticket in blockers {
        assert_eq!(ticket.wait().unwrap().batch_size, 1);
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 4);
    assert_eq!(metrics.batches, 3);
}

#[test]
fn max_batch_flush_with_zero_remaining_deadline() {
    // max_delay == 0: every queued request is already past its deadline.
    // Full and partial takes race; every request must still be answered
    // exactly once and no batch may exceed max_batch.
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
    // max_delay is 30 s and max_batch unreachable; a zero per-request
    // deadline is already past when the worker takes it.
    let server = StreamingServer::new(
        engine(15),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: LONG,
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
        .expect("zero deadline runs immediately");
    assert_eq!(response.batch_size, 1);
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_edf_deadline, 1, "taken past its deadline");
}

#[test]
fn tight_deadline_overtakes_requests_that_arrived_relaxed() {
    // A relaxed request queues behind the held worker; an urgent one
    // arriving later sorts ahead of it, and both ride one batch.
    let gate = gated(16);
    let (server, blocker) = held_server(
        &gate,
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: LONG,
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
    let urgent = server
        .submit_with(
            &sample(0.7),
            SubmitOptions::with_deadline(Duration::from_millis(1)).priority(5),
        )
        .unwrap();
    gate.open();
    blocker.wait().unwrap();
    let urgent_response = urgent.wait().unwrap();
    let relaxed_response = relaxed.wait().unwrap();
    assert_eq!(urgent_response.batch_size, 2, "one batch");
    assert_eq!(relaxed_response.batch_size, 2);
    assert_eq!(gate.batches()[1], vec![0.7, 0.3], "urgent first (EDF)");
    let metrics = server.shutdown();
    assert_eq!(metrics.batches, 2);
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
fn flush_reason_counters_split_deadline_count_idle_and_drain() {
    let config = StreamingConfig {
        threads: 1,
        max_batch: 4,
        max_delay: LONG,
        max_pending: 0,
        brownout: None,
    };
    let sum = |m: &snn_runtime::StreamingMetrics| {
        m.flushes_max_batch + m.flushes_edf_deadline + m.flushes_drain + m.flushes_idle
    };

    // Count: 8 requests queued behind the held worker leave as exactly
    // two full batches; the blocker itself was an idle take.
    let gate = gated(20);
    let (server, blocker) = held_server(&gate, config.clone());
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| server.submit(&sample(i as f32 / 8.0)).unwrap())
        .collect();
    gate.open();
    blocker.wait().unwrap();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_max_batch, 2);
    assert_eq!(metrics.flushes_idle, 1);
    assert_eq!(metrics.flushes_edf_deadline, 0);
    assert_eq!(metrics.flushes_drain, 0);
    assert_eq!(
        sum(&metrics),
        metrics.batches,
        "every batch is attributed to exactly one flush reason"
    );

    // EDF deadline: a zero-deadline request waits behind the held worker,
    // so the partial batch it rides is taken after its deadline passed.
    let gate = gated(21);
    let (server, blocker) = held_server(&gate, config.clone());
    let late = server
        .submit_with(&sample(0.5), SubmitOptions::with_deadline(Duration::ZERO))
        .unwrap();
    gate.open();
    blocker.wait().unwrap();
    late.wait().unwrap();
    let metrics = server.shutdown();
    assert_eq!(metrics.flushes_edf_deadline, 1);
    assert_eq!(metrics.flushes_idle, 1);
    assert_eq!(metrics.flushes_max_batch, 0);
    assert_eq!(sum(&metrics), metrics.batches);

    // Drain: requests still queued when shutdown begins.
    let gate = gated(22);
    let (server, blocker) = held_server(&gate, config);
    let server = Arc::new(server);
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| server.submit(&sample(i as f32 / 3.0)).unwrap())
        .collect();
    let closer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    while !server.is_shut_down() {
        std::thread::yield_now();
    }
    gate.open();
    let metrics = closer.join().unwrap();
    assert_eq!(metrics.flushes_drain, 1, "shutdown drained the queue");
    assert_eq!(metrics.flushes_idle, 1);
    assert_eq!(metrics.requests, 4);
    assert_eq!(sum(&metrics), metrics.batches);
    blocker.wait().unwrap();
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
