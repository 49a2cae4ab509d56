//! The serving front-end: [`StreamingServer`]. Requests arrive one at a
//! time via [`StreamingServer::submit`] and wait in one EDF queue (a
//! [`DeadlineBatcher`] behind a mutex and condvar); the server's worker
//! threads pull from it directly — a worker that frees takes up to
//! `max_batch` queued requests at once — and results come back through
//! per-request [`Ticket`]s.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snn_sim::RunStats;
use snn_telemetry::{Labels, TelemetryHub};
use snn_tensor::Tensor;
use snn_trace::{push_context, TraceCollector, TraceTarget};
use ttfs_core::{ConvertError, SnnModel};

use crate::batcher::{
    BrownoutConfig, DeadlineBatcher, FlushReason, PendingRequest, StreamingConfig, SubmitError,
    SubmitOptions, Ticket,
};
use crate::energy::EnergyPricer;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::{LogSink, StreamingMetrics, StreamingRecorder, TelemetrySink};
use crate::{InferenceBackend, StreamedResponse};

/// Tolerance before a late execution start counts as an SLO deadline
/// miss.
///
/// A request starts as soon as a worker is free, so in a healthy server
/// `exec_start` trails submission by a condvar wakeup — microseconds —
/// and never reaches the deadline. A start past the deadline means every
/// worker was busy: the request waited in the backlog. Counting a miss
/// only past this grace keeps scheduling jitter around a very tight
/// (even zero) deadline out of the count, while genuine overload lags by
/// tens of milliseconds or more.
pub const DEADLINE_MISS_GRACE: Duration = Duration::from_millis(10);

/// Streaming inference front-end: one-at-a-time submission,
/// work-conserving EDF batching, per-request [`Ticket`] delivery.
///
/// Requests admitted by [`submit`](Self::submit) join one EDF queue (a
/// [`DeadlineBatcher`]). The server's [`threads`](Self::threads) workers
/// pull from it directly: a worker that frees takes up to
/// [`max_batch`](StreamingConfig::max_batch) queued requests at once in
/// EDF order — ascending deadline (plain `submit` inherits
/// [`max_delay`](StreamingConfig::max_delay), while
/// [`submit_with`](Self::submit_with) carries a per-request
/// [`SubmitOptions`]), then descending priority, then admission order.
/// Requests wait only while every worker is busy, so an idle server runs
/// each request the moment it arrives and a loaded one still forms
/// batches from its backlog. A deadline orders the queue and bounds the
/// SLO deadline-miss count; it never holds a request back. Because every
/// backend processes batch samples independently, streamed logits are
/// bit-identical to one [`InferenceBackend::run_batch`] over the same
/// images, no matter how arrivals interleave into batches (enforced by
/// property test in `tests/runtime_equivalence.rs`).
///
/// [`shutdown`](Self::shutdown) (also run on drop) is graceful: it closes
/// submissions, lets the workers drain the queue in `max_batch` chunks,
/// joins them, and only then returns — no admitted ticket is left
/// unresolved.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use rand::SeedableRng;
/// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
/// use snn_runtime::{CsrEngine, StreamingConfig, StreamingServer};
/// use snn_tensor::Tensor;
/// use ttfs_core::{convert, Base2Kernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Sequential::new(vec![
///     Layer::Flatten(Flatten::new()),
///     Layer::Dense(DenseLayer::new(9, 2, &mut rng)),
/// ]);
/// let model = convert(&net, Base2Kernel::paper_default(), 16)?;
/// let engine = Arc::new(CsrEngine::compile(&model, &[1, 3, 3])?);
/// let server = StreamingServer::new(
///     engine,
///     StreamingConfig {
///         threads: 2,
///         max_batch: 4,
///         max_delay: Duration::from_millis(1),
///         ..StreamingConfig::default()
///     },
/// );
///
/// // Requests arrive one at a time; each gets a ticket.
/// let tickets: Vec<_> = (0..3)
///     .map(|_| server.submit(&Tensor::full(&[1, 3, 3], 0.5)))
///     .collect::<Result<_, _>>()?;
/// for ticket in tickets {
///     let response = ticket.wait()?;
///     assert_eq!(response.logits.dims(), &[2]);
///     assert!(response.batch_size >= 1);
/// }
///
/// let metrics = server.shutdown();
/// assert_eq!(metrics.requests, 3);
/// # Ok(())
/// # }
/// ```
pub struct StreamingServer {
    /// The queue, the backend and the recorders, shared with the workers.
    dispatch: Arc<Dispatch>,
    /// Worker handles; taken (and joined) by shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Sample dims are fixed by the first submission; later submissions
    /// must match so any batch a worker takes is rectangular.
    sample_dims: Mutex<Option<Vec<usize>>>,
    next_id: AtomicU64,
    threads: usize,
    max_delay: Duration,
    max_pending: usize,
    /// Priority-brownout policy; `None` = disabled.
    brownout: Option<BrownoutConfig>,
    /// Hysteresis state: whether brownout is currently engaged.
    brownout_engaged: AtomicBool,
}

/// State shared by the server handle and its workers.
struct Dispatch {
    backend: Arc<dyn InferenceBackend>,
    queue: Mutex<Queue>,
    /// Signalled on every push (and on shutdown) so one idle worker wakes.
    ready: Condvar,
    recorder: Arc<Mutex<StreamingRecorder>>,
    /// Admitted-but-unresolved requests (queued + executing); bounded by
    /// `max_pending` when nonzero.
    in_flight: AtomicUsize,
    /// Span sink shared with the workers; `None` on an untraced server
    /// ([`StreamingServer::new`]), where the runtime records nothing
    /// regardless of [`SubmitOptions::trace`].
    trace: Option<Arc<TraceCollector>>,
    max_batch: usize,
}

/// The EDF queue plus the closed flag. One lock covers both, so a submit
/// can never race a shutdown: a request is either queued before `closed`
/// is set (and drained) or refused.
struct Queue {
    pending: DeadlineBatcher<PendingRequest>,
    closed: bool,
}

impl Dispatch {
    /// The queue lock. Every mutex in the server guards plain data with
    /// no multi-step invariants, so a panic under one recovers the guard
    /// instead of wedging shutdown and `/metrics` forever.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn recorder(&self) -> MutexGuard<'_, StreamingRecorder> {
        self.recorder.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StreamingServer {
    /// Builds a streaming server around `backend` and starts its worker
    /// threads.
    pub fn new(backend: Arc<dyn InferenceBackend>, config: StreamingConfig) -> Self {
        Self::build(backend, config, None)
    }

    /// Like [`new`](Self::new), but with a [`TraceCollector`] the workers
    /// record runtime spans into (`queue.wait`, `batch.flush` with its
    /// reason, `batch.exec` and the per-stage engine spans underneath) for
    /// every submission carrying a [`SubmitOptions::trace`] target. A
    /// disabled collector costs one relaxed atomic load per recording
    /// site; logits are bit-identical either way (tracing never touches
    /// the accumulation path).
    pub fn new_traced(
        backend: Arc<dyn InferenceBackend>,
        config: StreamingConfig,
        collector: Arc<TraceCollector>,
    ) -> Self {
        Self::build(backend, config, Some(collector))
    }

    fn build(
        backend: Arc<dyn InferenceBackend>,
        config: StreamingConfig,
        trace: Option<Arc<TraceCollector>>,
    ) -> Self {
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        };
        let dispatch = Arc::new(Dispatch {
            backend,
            queue: Mutex::new(Queue {
                pending: DeadlineBatcher::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            recorder: Arc::new(Mutex::new(StreamingRecorder::new())),
            in_flight: AtomicUsize::new(0),
            trace,
            max_batch: config.max_batch.max(1),
        });
        let workers = (0..threads)
            .map(|i| {
                let dispatch = Arc::clone(&dispatch);
                std::thread::Builder::new()
                    .name(format!("snn-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&dispatch))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            dispatch,
            workers: Mutex::new(workers),
            sample_dims: Mutex::new(None),
            next_id: AtomicU64::new(0),
            threads,
            max_delay: config.max_delay,
            max_pending: config.max_pending,
            brownout: config.brownout,
            brownout_engaged: AtomicBool::new(false),
        }
    }

    /// The span sink this server records runtime spans into, if it was
    /// built with [`new_traced`](Self::new_traced).
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.dispatch.trace.as_ref()
    }

    /// The wrapped backend's identifier.
    pub fn backend_name(&self) -> &'static str {
        self.dispatch.backend.name()
    }

    /// The converted model the wrapped backend executes (a network
    /// front-end uses this to validate request geometry before admitting
    /// traffic into the stream).
    pub fn model(&self) -> &SnnModel {
        self.dispatch.backend.model()
    }

    /// The per-sample dims this server's backend was compiled for, when
    /// fixed ([`InferenceBackend::input_dims`]).
    pub fn input_dims(&self) -> Option<&[usize]> {
        self.dispatch.backend.input_dims()
    }

    /// Worker thread count: the OS threads this server runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The most requests one batch holds.
    pub fn max_batch(&self) -> usize {
        self.dispatch.max_batch
    }

    /// The backpressure bound (0 = unbounded).
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Admitted-but-unresolved requests right now (queued + executing).
    pub fn pending(&self) -> usize {
        self.dispatch.in_flight.load(Ordering::Relaxed)
    }

    /// Whether [`shutdown`](Self::shutdown) has begun: submissions are
    /// closed and every future `submit` returns
    /// [`SubmitError::Rejected`]. A front-end uses this to tell
    /// unavailability (503) apart from a malformed request (400).
    pub fn is_shut_down(&self) -> bool {
        self.dispatch.queue().closed
    }

    /// Whether priority brownout is currently engaged (admitted count
    /// crossed the high-water mark and has not yet fallen back to the
    /// low-water mark).
    pub fn brownout_engaged(&self) -> bool {
        self.brownout.is_some() && self.brownout_engaged.load(Ordering::Relaxed)
    }

    /// Submits one image (per-sample dims, e.g. `[C, H, W]`) with default
    /// [`SubmitOptions`] and returns the [`Ticket`] its result will arrive
    /// on.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit_with`](Self::submit_with).
    pub fn submit(&self, image: &Tensor) -> Result<Ticket, SubmitError> {
        self.submit_with(image, SubmitOptions::default())
    }

    /// Submits one image with explicit per-request scheduling options: a
    /// deadline (the EDF sort key and deadline-miss bound) and a
    /// tie-break priority.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when
    /// [`max_pending`](StreamingConfig::max_pending) requests are already
    /// admitted and unresolved (backpressure: shed now rather than queue
    /// into unbounded latency; the shed is counted in
    /// [`StreamingMetrics::shed_requests`]), or [`SubmitError::Rejected`]
    /// if the server has shut down, `image` is empty, or its dims differ
    /// from the backend's compiled geometry (for shape-agnostic backends:
    /// from the first submission's dims).
    pub fn submit_with(
        &self,
        image: &Tensor,
        options: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        if image.dims().is_empty() || image.as_slice().is_empty() {
            return Err(SubmitError::Rejected(ConvertError::Structure(
                "streamed sample must be a non-empty per-sample tensor".into(),
            )));
        }
        let in_flight = &self.dispatch.in_flight;
        // Backpressure admission: optimistically claim a slot, back out if
        // that overshot the bound (atomic, so concurrent submitters can
        // never jointly exceed it). Unbounded servers still count, so
        // `pending()` stays observable. This runs BEFORE the stream's
        // sample dims are pinned: a shed request must be side-effect free.
        let admitted = in_flight.fetch_add(1, Ordering::AcqRel);
        if self.max_pending > 0 && admitted >= self.max_pending {
            in_flight.fetch_sub(1, Ordering::AcqRel);
            self.dispatch.recorder().record_shed(options.priority);
            return Err(SubmitError::QueueFull {
                max_pending: self.max_pending,
            });
        }
        // Priority brownout: between the high- and low-water marks the
        // engaged bit carries hysteresis, so the shed decision cannot flap
        // per-request at the boundary. Engaged, low-priority traffic sheds
        // with a typed error while higher priorities ride on.
        if let Some(brownout) = &self.brownout {
            let engaged = if admitted >= brownout.high_water {
                if !self.brownout_engaged.swap(true, Ordering::Relaxed) {
                    self.on_brownout_transition(true, admitted);
                }
                true
            } else if admitted <= brownout.low_water {
                if self.brownout_engaged.swap(false, Ordering::Relaxed) {
                    self.on_brownout_transition(false, admitted);
                }
                false
            } else {
                self.brownout_engaged.load(Ordering::Relaxed)
            };
            if engaged && options.priority < brownout.shed_below_priority {
                in_flight.fetch_sub(1, Ordering::AcqRel);
                self.dispatch
                    .recorder()
                    .record_brownout_shed(options.priority);
                return Err(SubmitError::Brownout {
                    priority: options.priority,
                    shed_below_priority: brownout.shed_below_priority,
                });
            }
        }
        let release_slot = || {
            in_flight.fetch_sub(1, Ordering::AcqRel);
        };
        // Validate geometry against the backend's compiled dims when it
        // has them — per entry, not per process, so two servers fronting
        // models of different dims coexist and a bad first submission
        // can't pin the stream to the wrong geometry. Shape-agnostic
        // backends fall back to first-submission pinning.
        if let Some(expected) = self.dispatch.backend.input_dims() {
            if expected != image.dims() {
                release_slot();
                return Err(SubmitError::Rejected(ConvertError::Structure(format!(
                    "streamed sample dims {:?} do not match the backend's compiled geometry {:?}",
                    image.dims(),
                    expected
                ))));
            }
        } else {
            let mut dims = self.sample_dims.lock().unwrap_or_else(|e| e.into_inner());
            match dims.as_ref() {
                None => *dims = Some(image.dims().to_vec()),
                Some(expected) if expected == image.dims() => {}
                Some(expected) => {
                    let expected = expected.clone();
                    drop(dims);
                    release_slot();
                    return Err(SubmitError::Rejected(ConvertError::Structure(format!(
                        "streamed sample dims {:?} do not match the stream's dims {:?}",
                        image.dims(),
                        expected
                    ))));
                }
            }
        }
        let (reply, rx) = channel();
        let enqueued = Instant::now();
        let deadline = enqueued + options.deadline.unwrap_or(self.max_delay);
        let request = PendingRequest {
            image: image.as_slice().to_vec(),
            sample_dims: image.dims().to_vec(),
            enqueued,
            deadline,
            // A trace target without a collector records nothing.
            trace: self.dispatch.trace.as_ref().and(options.trace),
            reply,
        };
        {
            let mut queue = self.dispatch.queue();
            if queue.closed {
                drop(queue);
                release_slot();
                return Err(SubmitError::Rejected(ConvertError::Structure(
                    "streaming server is shut down; submissions are closed".into(),
                )));
            }
            queue.pending.push_with(request, deadline, options.priority);
        }
        self.dispatch.ready.notify_one();
        Ok(Ticket::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            rx,
            Some(Arc::clone(&self.dispatch.recorder)),
        ))
    }

    /// Attaches windowed telemetry: every subsequent recording
    /// additionally feeds labeled series in `hub` under `labels`
    /// (conventionally `model`, `version`, `backend`), in addition to —
    /// never instead of — the cumulative recorders. When the backend
    /// exposes fixed compiled geometry
    /// ([`InferenceBackend::input_dims`]), an [`EnergyPricer`] is built
    /// so every executed batch is priced on the `snn-hw` processor
    /// model: responses carry per-image
    /// [`energy_uj`](StreamedResponse::energy_uj), the per-model
    /// windowed `energy_uj` series fills in, and traced requests gain an
    /// `energy.price` span. Telemetry only ever reads timings and event
    /// counters, so logits stay bit-identical with or without it.
    pub fn attach_telemetry(&self, hub: Arc<TelemetryHub>, labels: Labels) {
        let backend = &self.dispatch.backend;
        let pricer = backend
            .input_dims()
            .and_then(|dims| EnergyPricer::new(backend.model(), dims).ok());
        let sink = TelemetrySink::new(hub, labels, pricer);
        self.dispatch.recorder().set_sink(sink);
    }

    /// Attaches structured logging: the workers' batch decisions,
    /// failure isolation (batch retries, quarantines) and brownout
    /// transitions start emitting flight-recorder events — and incident
    /// snapshots, when the sink carries an
    /// [`IncidentRecorder`](snn_log::IncidentRecorder). Logging only
    /// ever reads timings and counters, so logits stay bit-identical
    /// with or without it.
    pub fn attach_logging(&self, sink: LogSink) {
        self.dispatch.recorder().set_log_sink(sink);
    }

    /// Logs (and, on engage, snapshots) a brownout hysteresis
    /// transition. Off the submit fast path: called only when the
    /// engaged bit actually flips.
    #[cold]
    fn on_brownout_transition(&self, engaged: bool, depth: usize) {
        let sink = self.dispatch.recorder().log_sink().cloned();
        let Some(sink) = sink else { return };
        if engaged {
            snn_log::warn!(
                sink.collector(),
                "runtime.brownout",
                { "depth": depth, "engaged": true },
                "brownout engaged: queue depth {depth} crossed the high-water mark"
            );
            // The recorder lock is released above: the incident snapshot
            // provider reads live stats through that same lock.
            sink.incident(
                "brownout_engage",
                &format!("queue depth {depth} crossed the brownout high-water mark"),
                None,
            );
        } else {
            snn_log::info!(
                sink.collector(),
                "runtime.brownout",
                { "depth": depth, "engaged": false },
                "brownout disengaged: queue depth {depth} fell to the low-water mark"
            );
        }
    }

    /// Snapshot of the streaming metrics accumulated so far. Keeps
    /// working even after a thread panicked under the recorder lock —
    /// observability must survive exactly the situations it exists for.
    pub fn metrics(&self) -> StreamingMetrics {
        self.dispatch.recorder().summarize()
    }

    /// Gracefully shuts down: closes submissions, lets the workers drain
    /// every queued request (resolving all outstanding tickets), joins
    /// them, and returns the final metrics. Idempotent; also invoked by
    /// [`Drop`].
    pub fn shutdown(&self) -> StreamingMetrics {
        self.dispatch.queue().closed = true;
        self.dispatch.ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for worker in workers {
            let _ = worker.join();
        }
        self.metrics()
    }
}

impl Drop for StreamingServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: take up to `max_batch` queued requests in EDF order the
/// moment any are queued, execute them, repeat. Sleeps on the condvar
/// only while the queue is empty; exits once shutdown has closed the
/// queue and it is drained.
fn worker_loop(dispatch: &Dispatch) {
    let mut queue = dispatch.queue();
    loop {
        if queue.pending.is_empty() {
            if queue.closed {
                return;
            }
            queue = dispatch
                .ready
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
            continue;
        }
        let batch = queue.pending.take(dispatch.max_batch);
        let reason = FlushReason::classify(
            batch.len(),
            dispatch.max_batch,
            batch[0].deadline,
            Instant::now(),
            queue.closed,
        );
        let more = !queue.pending.is_empty();
        drop(queue);
        if more {
            // Work conservation: a backlog left behind wakes another idle
            // worker instead of waiting for this one to finish.
            dispatch.ready.notify_one();
        }
        // The backend call is already guarded; this catches a panic
        // anywhere else in the batch path, so no batch can cost the
        // server a worker. Its tickets then see a dropped reply and its
        // slots come back through `SlotRelease`.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(dispatch, batch, reason)
        }));
        queue = dispatch.queue();
    }
}

/// Releases a batch's backpressure slots on drop, so the release also
/// happens when the batch path unwinds (a panicking backend must not
/// wedge a bounded server by leaking admissions).
struct SlotRelease<'a> {
    in_flight: &'a AtomicUsize,
    slots: usize,
}

impl Drop for SlotRelease<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(self.slots, Ordering::AcqRel);
    }
}

/// Concatenates a taken batch into one `[k, …sample_dims]` tensor, runs it
/// on the backend, and fans the per-row logits back out to each request's
/// ticket, recording queue-wait / execution / end-to-end splits.
fn execute_batch(dispatch: &Dispatch, batch: Vec<PendingRequest>, reason: FlushReason) {
    debug_assert!(!batch.is_empty(), "never execute an empty batch");
    let backend = &dispatch.backend;
    // Every path that resolves the batch — normal completion, backend
    // error, backend panic, an unwind anywhere — releases its slots
    // exactly once.
    let _slot_release = SlotRelease {
        in_flight: &dispatch.in_flight,
        slots: batch.len(),
    };
    let collector = dispatch.trace.as_ref().filter(|c| c.is_enabled());
    let exec_start = Instant::now();
    if let Some(collector) = collector {
        // Mark the take itself — an instantaneous span per traced request
        // carrying the flush reason.
        for request in batch.iter() {
            if let Some(target) = request.trace {
                collector.record_span(
                    target.trace,
                    target.parent,
                    "batch.flush",
                    exec_start,
                    exec_start,
                    vec![
                        ("reason", reason.as_str().into()),
                        ("batch_size", batch.len().into()),
                    ],
                );
            }
        }
    }
    let k = batch.len();
    let sample_dims = batch[0].sample_dims.clone();
    let sample_len: usize = sample_dims.iter().product();
    let mut data = Vec::with_capacity(k * sample_len);
    for request in &batch {
        data.extend_from_slice(&request.image);
    }
    let mut batch_dims = vec![k];
    batch_dims.extend_from_slice(&sample_dims);
    // Pre-allocate one `batch.exec` span per traced rider and hang an
    // ambient context under them, so per-stage engine spans fan out into
    // every traced request's tree.
    let exec_spans: Vec<(TraceTarget, u64)> = match collector {
        Some(c) => batch
            .iter()
            .filter_map(|r| r.trace)
            .map(|t| (t, c.next_span_id()))
            .collect(),
        None => Vec::new(),
    };
    let ctx = collector.filter(|_| !exec_spans.is_empty()).map(|c| {
        push_context(
            Arc::clone(c),
            exec_spans
                .iter()
                .map(|(t, exec_id)| TraceTarget {
                    trace: t.trace,
                    parent: *exec_id,
                })
                .collect(),
        )
    });
    let injector = FaultInjector::global();
    if injector.should(FaultPoint::BackendSlow) {
        std::thread::sleep(injector.slow_delay());
    }
    let outcome = match Tensor::from_vec(data, &batch_dims) {
        Err(e) => Ok(Err(ConvertError::Structure(e.to_string()))),
        Ok(images) => run_batch_guarded(backend, &images),
    };
    drop(ctx);
    let exec_end = Instant::now();
    let exec_time = exec_end.duration_since(exec_start);
    if let Some(c) = collector {
        for (target, exec_id) in &exec_spans {
            c.record_span_with_id(
                *exec_id,
                target.trace,
                target.parent,
                "batch.exec",
                exec_start,
                exec_end,
                vec![
                    ("batch_size", k.into()),
                    ("backend", backend.name().into()),
                    ("ok", u64::from(matches!(outcome, Ok(Ok(_)))).into()),
                ],
            );
        }
    }
    match outcome {
        Ok(Ok((logits, stats))) => {
            let classes = logits.dims()[1];
            // One lock for the whole batch, not one per request.
            let mut rec = dispatch.recorder();
            rec.record_batch(k, exec_time, reason);
            // Priced once per executed batch (O(layers)), attributed per
            // image; 0.0 when no telemetry/pricer is attached.
            let energy_uj = rec.record_batch_energy(&stats, k);
            for (i, request) in batch.into_iter().enumerate() {
                let row = Tensor::from_vec(
                    logits.as_slice()[i * classes..(i + 1) * classes].to_vec(),
                    &[classes],
                )
                .expect("row slice matches classes");
                let queue_wait = exec_start.saturating_duration_since(request.enqueued);
                // SLO deadline miss: the batch started executing more
                // than [`DEADLINE_MISS_GRACE`] after this request's EDF
                // deadline — it waited that long for a free worker.
                let deadline_missed = exec_start > request.deadline + DEADLINE_MISS_GRACE;
                rec.record_request(request.enqueued.elapsed(), queue_wait, deadline_missed);
                // Record runtime spans BEFORE the reply lands: once the
                // submitter sees its response, its trace query must
                // already contain the whole runtime side.
                if let (Some(c), Some(target)) = (collector, request.trace) {
                    c.record_span(
                        target.trace,
                        target.parent,
                        "queue.wait",
                        request.enqueued,
                        exec_start,
                        Vec::new(),
                    );
                    if energy_uj > 0.0 {
                        c.record_span(
                            target.trace,
                            target.parent,
                            "energy.price",
                            exec_end,
                            exec_end,
                            vec![("energy_uj", energy_uj.into())],
                        );
                    }
                }
                let _ = request.reply.send(Ok(StreamedResponse {
                    logits: row,
                    batch_stats: stats.clone(),
                    queue_wait,
                    exec_time,
                    batch_size: k,
                    energy_uj,
                }));
            }
        }
        Ok(Err(e)) => {
            for request in batch {
                let _ = request.reply.send(Err(e.clone()));
            }
        }
        Err(()) => {
            // The batch panicked inside the backend. Blast-radius
            // isolation: re-run every rider individually once, so
            // innocents co-batched with a poison request still get their
            // answer; a request that panics again *solo* is the poison —
            // quarantine it with a typed error instead of letting it take
            // its batchmates (or the next batch it would be retried into)
            // down.
            dispatch.recorder().record_batch_retry();
            for request in batch {
                retry_solo(dispatch, request, reason);
            }
        }
    }
}

/// The isolation retry of one rider of a panicked batch: run it alone,
/// answer it on success, quarantine it if it panics again.
fn retry_solo(dispatch: &Dispatch, request: PendingRequest, reason: FlushReason) {
    let solo_start = Instant::now();
    let mut solo_dims = vec![1usize];
    solo_dims.extend_from_slice(&request.sample_dims);
    let solo_outcome = match Tensor::from_vec(request.image.clone(), &solo_dims) {
        Err(e) => Ok(Err(ConvertError::Structure(e.to_string()))),
        Ok(solo) => run_batch_guarded(&dispatch.backend, &solo),
    };
    match solo_outcome {
        Ok(Ok((logits, stats))) => {
            let classes = logits.dims()[1];
            let solo_exec = solo_start.elapsed();
            let queue_wait = solo_start.saturating_duration_since(request.enqueued);
            let row = Tensor::from_vec(logits.as_slice()[..classes].to_vec(), &[classes])
                .expect("row slice matches classes");
            let mut rec = dispatch.recorder();
            rec.record_batch(1, solo_exec, reason);
            let energy_uj = rec.record_batch_energy(&stats, 1);
            rec.record_request(
                request.enqueued.elapsed(),
                queue_wait,
                solo_start > request.deadline + DEADLINE_MISS_GRACE,
            );
            drop(rec);
            let _ = request.reply.send(Ok(StreamedResponse {
                logits: row,
                batch_stats: stats,
                queue_wait,
                exec_time: solo_exec,
                batch_size: 1,
                energy_uj,
            }));
        }
        Ok(Err(e)) => {
            let _ = request.reply.send(Err(e));
        }
        Err(()) => {
            let log_sink = {
                let mut rec = dispatch.recorder();
                rec.record_quarantined();
                rec.log_sink().cloned()
            };
            // Outside the recorder lock: the incident snapshot provider
            // reads live stats through that same lock.
            if let Some(sink) = log_sink {
                sink.incident(
                    "quarantine",
                    "request quarantined after panicking solo on the isolation retry",
                    request.trace.map(|t| t.trace),
                );
            }
            let _ = request.reply.send(Err(quarantined_error()));
        }
    }
}

/// Runs the backend under `catch_unwind`, so one poison request cannot
/// unwind the worker and drop every co-batched ticket. `Err(())` means
/// the backend panicked (the payload is discarded — tickets receive the
/// typed quarantine error, not a panic string). Also the injection site
/// for [`FaultPoint::BackendPanic`].
fn run_batch_guarded(
    backend: &Arc<dyn InferenceBackend>,
    images: &Tensor,
) -> Result<Result<(Tensor, RunStats), ConvertError>, ()> {
    let inject = FaultInjector::global().should(FaultPoint::BackendPanic);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject {
            panic!("injected backend panic");
        }
        backend.run_batch(images)
    }))
    .map_err(|_| ())
}

/// The typed error a quarantined request resolves with.
fn quarantined_error() -> ConvertError {
    ConvertError::Structure(
        "request quarantined: the backend panicked while executing it \
         (isolated after a batch retry)"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GatedBackend;
    use crate::CsrEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
    use ttfs_core::{convert, Base2Kernel, SnnModel};

    fn dense_model() -> SnnModel {
        let mut rng = StdRng::seed_from_u64(31);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    /// Panics only when the magic poison value rides in the batch;
    /// otherwise defers to a real engine. The blast-radius tests use it to
    /// co-batch one poison request with innocents.
    struct PoisonValueBackend {
        inner: CsrEngine,
    }

    const POISON: f32 = 99.0;

    impl crate::InferenceBackend for PoisonValueBackend {
        fn name(&self) -> &'static str {
            "poison-value"
        }
        fn model(&self) -> &SnnModel {
            self.inner.model()
        }
        fn input_dims(&self) -> Option<&[usize]> {
            self.inner.input_dims()
        }
        fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
            if images.as_slice().contains(&POISON) {
                panic!("poison value in batch");
            }
            self.inner.run_batch(images)
        }
    }

    #[test]
    fn poison_request_is_quarantined_and_co_batched_innocents_survive() {
        let model = dense_model();
        let engine = CsrEngine::compile(&model, &[1, 3, 4]).unwrap();
        let innocent = Tensor::full(&[1, 3, 4], 0.5);
        let expected = {
            let batched = Tensor::full(&[1, 1, 3, 4], 0.5);
            let (logits, _) = engine.run_batch(&batched).unwrap();
            logits.as_slice().to_vec()
        };
        let gate = GatedBackend::new(Arc::new(PoisonValueBackend { inner: engine }));
        let server = StreamingServer::new(
            Arc::clone(&gate) as Arc<dyn InferenceBackend>,
            StreamingConfig {
                threads: 1,
                max_batch: 4,
                max_delay: Duration::from_millis(200),
                ..StreamingConfig::default()
            },
        );
        // Hold the only worker on a first request, so three innocents and
        // one poison request queue up behind it and share one batch.
        let blocker = server.submit(&innocent).unwrap();
        gate.wait_entered(1);
        let innocents: Vec<Ticket> = (0..3).map(|_| server.submit(&innocent).unwrap()).collect();
        let poison_ticket = server.submit(&Tensor::full(&[1, 3, 4], POISON)).unwrap();
        gate.open();
        blocker.wait().unwrap();
        for ticket in innocents {
            let response = ticket
                .wait()
                .expect("innocent must survive the poison batchmate");
            assert_eq!(response.logits.as_slice(), &expected[..], "bit-exact");
            assert_eq!(response.batch_size, 1, "isolation retries run solo");
        }
        let err = poison_ticket.wait().unwrap_err();
        assert!(
            err.to_string().contains("quarantined"),
            "poison request gets the typed quarantine error, got: {err}"
        );
        assert_eq!(
            gate.batches()[1],
            vec![0.5, 0.5, 0.5, POISON],
            "the poison request was co-batched with the three innocents"
        );
        // The server stays fully serviceable afterwards.
        let after = server.submit(&innocent).unwrap().wait().unwrap();
        assert_eq!(after.logits.as_slice(), &expected[..]);
        let metrics = server.shutdown();
        assert_eq!(metrics.batch_retries, 1, "one batch was re-run");
        assert_eq!(metrics.quarantined, 1, "exactly the poison request");
        assert_eq!(
            metrics.requests, 5,
            "blocker + 3 innocents + 1 clean follow-up"
        );
    }

    /// Holds every batch long enough for submissions to pile up, so the
    /// brownout test can cross the high-water mark deterministically.
    struct SlowBackend {
        inner: CsrEngine,
        delay: Duration,
    }

    impl crate::InferenceBackend for SlowBackend {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn model(&self) -> &SnnModel {
            self.inner.model()
        }
        fn input_dims(&self) -> Option<&[usize]> {
            self.inner.input_dims()
        }
        fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
            std::thread::sleep(self.delay);
            self.inner.run_batch(images)
        }
    }

    #[test]
    fn brownout_sheds_low_priority_and_recovers_after_drain() {
        let model = dense_model();
        let engine = CsrEngine::compile(&model, &[1, 3, 4]).unwrap();
        let server = StreamingServer::new(
            Arc::new(SlowBackend {
                inner: engine,
                delay: Duration::from_millis(40),
            }),
            StreamingConfig {
                threads: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                brownout: Some(BrownoutConfig {
                    high_water: 2,
                    low_water: 0,
                    shed_below_priority: 1,
                }),
                ..StreamingConfig::default()
            },
        );
        let image = Tensor::full(&[1, 3, 4], 0.5);
        // Pile up 3 high-priority requests; the third submission sees 2
        // admitted-but-unresolved and engages brownout — but rides on,
        // because its priority clears the shed threshold.
        let high: Vec<Ticket> = (0..3)
            .map(|_| {
                server
                    .submit_with(&image, SubmitOptions::default().priority(1))
                    .expect("high priority is never browned out")
            })
            .collect();
        assert!(server.brownout_engaged(), "high-water mark crossed");
        let err = server
            .submit_with(&image, SubmitOptions::default().priority(0))
            .expect_err("low priority must shed while engaged");
        assert!(
            matches!(
                err,
                SubmitError::Brownout {
                    priority: 0,
                    shed_below_priority: 1
                }
            ),
            "typed brownout error, got {err:?}"
        );
        for ticket in high {
            ticket.wait().expect("admitted requests still resolve");
        }
        // The reply lands slightly before the worker closure releases its
        // admission slot; wait for the count to actually reach zero.
        while server.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Everything drained: the next submission observes the low-water
        // mark, disengages, and priority-0 traffic is admitted again.
        let after = server
            .submit_with(&image, SubmitOptions::default().priority(0))
            .expect("brownout must disengage at the low-water mark");
        after.wait().unwrap();
        assert!(!server.brownout_engaged());
        let metrics = server.shutdown();
        assert_eq!(metrics.brownout_shed_requests, 1);
        assert_eq!(metrics.shed_requests, 0, "brownout sheds are counted apart");
        assert_eq!(metrics.requests, 4);
    }

    #[test]
    fn metrics_and_shutdown_survive_a_poisoned_recorder_lock() {
        let model = dense_model();
        let backend = Arc::new(CsrEngine::compile(&model, &[1, 3, 4]).unwrap());
        let server = StreamingServer::new(
            backend,
            StreamingConfig {
                threads: 2,
                ..StreamingConfig::default()
            },
        );
        // Poison the recorder lock the way production would: a thread
        // panics while holding it.
        let recorder = Arc::clone(&server.dispatch.recorder);
        let _ = std::thread::spawn(move || {
            let _guard = recorder.lock().unwrap();
            panic!("deliberately poisoning the recorder lock");
        })
        .join();
        assert!(
            server.dispatch.recorder.is_poisoned(),
            "lock must be poisoned"
        );
        // Metrics, serving and shutdown all keep working.
        let before = server.metrics();
        let ticket = server.submit(&Tensor::full(&[1, 3, 4], 0.5)).unwrap();
        ticket.wait().expect("serving survives the poisoned lock");
        let metrics = server.shutdown();
        assert_eq!(metrics.requests, before.requests + 1);
    }
}
