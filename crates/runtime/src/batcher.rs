//! The EDF dispatch queue for the streaming front-end.
//!
//! Requests arrive one at a time; the server's workers pull them out in
//! batches. [`DeadlineBatcher`] is the queue between the two: admitted
//! requests wait in it only while every worker is busy, and a worker that
//! frees takes up to `max_batch` of them at once in EDF
//! (earliest-deadline-first) order — ascending deadline, ties broken by
//! descending [`SubmitOptions::priority`], then admission order. Every
//! request carries its own deadline ([`SubmitOptions::deadline`],
//! defaulting to the server's `max_delay` past its arrival). The deadline
//! orders the queue and bounds the SLO deadline-miss count; it never holds
//! a request back while a worker is idle. Batches still form under load,
//! because a busy server accumulates a backlog that the next free worker
//! takes whole.
//!
//! The queue is a plain data structure (no threads, no clocks of its own),
//! so it is deterministic and unit testable. The workers that drain it —
//! and the [`Ticket`] handed to each submitter — live with
//! [`crate::StreamingServer`] in the server module.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snn_sim::RunStats;
use snn_tensor::Tensor;
use snn_trace::TraceTarget;
use ttfs_core::ConvertError;

use crate::metrics::StreamingRecorder;

/// Why a worker took the batch it took. Recorded per batch in
/// [`StreamingMetrics`](crate::StreamingMetrics) (the four `flushes_*`
/// counters) and as the `reason` attribute of the `batch.flush` trace
/// span. An idle server takes mostly [`Idle`](Self::Idle) batches, a
/// saturated one mostly [`MaxBatch`](Self::MaxBatch), and a server whose
/// requests wait past their deadlines for a worker shows
/// [`EdfDeadline`](Self::EdfDeadline) — operationally very different
/// states at the same throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// A partial batch taken after its earliest deadline had passed: the
    /// requests waited out their deadline for a free worker (the backlog
    /// signal).
    EdfDeadline,
    /// A full batch of `max_batch` requests.
    MaxBatch,
    /// A partial batch a free worker took before any rider's deadline
    /// passed.
    Idle,
    /// A batch taken after shutdown began, regardless of count or
    /// deadline.
    Drain,
}

impl FlushReason {
    /// Stable label used in metrics and trace attributes.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::EdfDeadline => "edf_deadline",
            Self::MaxBatch => "max_batch",
            Self::Idle => "idle",
            Self::Drain => "drain",
        }
    }

    /// Classifies a batch of `len` requests a worker took at `now`, whose
    /// earliest rider deadline is `earliest`, with `draining` set once
    /// shutdown has begun.
    pub(crate) fn classify(
        len: usize,
        max_batch: usize,
        earliest: Instant,
        now: Instant,
        draining: bool,
    ) -> Self {
        if draining {
            Self::Drain
        } else if len >= max_batch {
            Self::MaxBatch
        } else if now > earliest {
            Self::EdfDeadline
        } else {
            Self::Idle
        }
    }
}

impl std::fmt::Display for FlushReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration for the [`crate::StreamingServer`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Worker threads executing batches (0 = one per core). The server
    /// starts exactly this many OS threads.
    pub threads: usize,
    /// The most requests a worker takes into one batch (0 = clamp to 1).
    pub max_batch: usize,
    /// The default per-request deadline, counted from submission: the EDF
    /// sort key and the SLO deadline-miss bound for requests that set no
    /// [`SubmitOptions::deadline`]. It never delays a request while a
    /// worker is free.
    pub max_delay: Duration,
    /// Backpressure: the most admitted-but-unresolved requests (queued
    /// plus executing) the server holds before
    /// [`submit`](crate::StreamingServer::submit) starts returning
    /// [`SubmitError::QueueFull`]. `0` = unbounded (accept everything and
    /// let the queue grow — the pre-backpressure behavior).
    pub max_pending: usize,
    /// Priority brownout: above a pending high-water mark, shed the
    /// *lowest-priority* requests first instead of waiting for the
    /// indiscriminate [`max_pending`](Self::max_pending) cliff. `None`
    /// disables brownout (the default).
    pub brownout: Option<BrownoutConfig>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            max_pending: 0,
            brownout: None,
        }
    }
}

/// Priority-brownout policy for [`StreamingConfig::brownout`].
///
/// When the admitted-but-unresolved count reaches
/// [`high_water`](Self::high_water) the server *engages* brownout and
/// sheds every submission whose priority is below
/// [`shed_below_priority`](Self::shed_below_priority) with
/// [`SubmitError::Brownout`]; higher-priority traffic still rides the
/// normal admission path (and the `max_pending` cliff, if configured).
/// Brownout *disengages* only once the count falls back to
/// [`low_water`](Self::low_water) — the hysteresis gap prevents the
/// engaged bit from flapping at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Engage brownout when admitted-but-unresolved requests reach this.
    pub high_water: usize,
    /// Disengage once the count falls back to this (must be below
    /// `high_water` for real hysteresis).
    pub low_water: usize,
    /// While engaged, shed submissions with priority strictly below this.
    /// `1` sheds only priority-0 traffic; `u8::MAX` sheds all but the
    /// highest.
    pub shed_below_priority: u8,
}

/// Why [`crate::StreamingServer::submit`] refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The bounded submission queue is at
    /// [`max_pending`](StreamingConfig::max_pending) admitted-but-
    /// unresolved requests: shed the request now (retry, divert, or fail
    /// upstream) instead of queueing it into ever-growing latency.
    QueueFull {
        /// The configured bound that was hit.
        max_pending: usize,
    },
    /// The server is browning out: it is above its
    /// [`BrownoutConfig::high_water`] mark and this request's priority is
    /// below the shed threshold. Higher-priority traffic is still being
    /// served — retry later, or resubmit at a higher priority if the
    /// request genuinely warrants one.
    Brownout {
        /// The shed request's priority.
        priority: u8,
        /// The engaged threshold: priorities below this are shed.
        shed_below_priority: u8,
    },
    /// The request was structurally invalid or the server is shut down.
    Rejected(ConvertError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { max_pending } => write!(
                f,
                "submission queue full: {max_pending} requests already admitted and unresolved"
            ),
            Self::Brownout {
                priority,
                shed_below_priority,
            } => write!(
                f,
                "brownout: shedding priority {priority} (below {shed_below_priority}) while above the high-water mark"
            ),
            Self::Rejected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::QueueFull { .. } | Self::Brownout { .. } => None,
            Self::Rejected(e) => Some(e),
        }
    }
}

impl From<ConvertError> for SubmitError {
    fn from(e: ConvertError) -> Self {
        Self::Rejected(e)
    }
}

/// Per-request scheduling options for
/// [`submit_with`](crate::StreamingServer::submit_with).
///
/// The defaults reproduce plain [`submit`](crate::StreamingServer::submit):
/// the request inherits the server's
/// [`max_delay`](StreamingConfig::max_delay) as its deadline and the lowest
/// priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// This request's deadline, counted from submission. `None` inherits
    /// the server's configured `max_delay`. The deadline is the request's
    /// EDF sort key — a tighter deadline is taken by an earlier worker
    /// whenever requests queue — and the bound past which its start counts
    /// as an SLO deadline miss. It never holds the request back: a free
    /// worker takes it at once.
    pub deadline: Option<Duration>,
    /// EDF tie-break: on equal deadlines, higher-priority requests are
    /// taken (and sorted within a batch) first. Priority never delays a
    /// request and never evicts an admitted one.
    pub priority: u8,
    /// Where runtime-side spans for this request attach: the request's
    /// [`TraceId`](snn_trace::TraceId) plus the parent span id minted by
    /// the caller (the gateway's `http.request` root). `None` — the
    /// default — records nothing for this request even on a tracing
    /// server; scheduling is unaffected either way.
    pub trace: Option<TraceTarget>,
}

impl SubmitOptions {
    /// Options with an explicit batching deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Returns `self` with the given tie-break priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns `self` with runtime spans attached to the given trace
    /// target (see [`SubmitOptions::trace`]).
    pub fn traced(mut self, target: TraceTarget) -> Self {
        self.trace = Some(target);
        self
    }
}

/// The EDF queue free workers take their batches from.
///
/// Generic over the queued item so the ordering can be exercised without
/// spinning up a server. It never reads the clock: deadlines are absolute
/// instants supplied by the caller, and they only order the queue.
#[derive(Debug)]
pub struct DeadlineBatcher<T> {
    /// Keyed by the EDF order: ascending deadline, descending priority,
    /// ascending admission number.
    pending: BTreeMap<(Instant, Reverse<u8>, u64), T>,
    admitted: u64,
}

impl<T> Default for DeadlineBatcher<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeadlineBatcher<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            pending: BTreeMap::new(),
            admitted: 0,
        }
    }

    /// Queued (not yet taken) items.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits one item with an absolute deadline and a tie-break priority.
    pub fn push_with(&mut self, item: T, deadline: Instant, priority: u8) {
        self.pending
            .insert((deadline, Reverse(priority), self.admitted), item);
        self.admitted += 1;
    }

    /// Takes up to `max_batch` items (clamped to at least 1) in EDF order:
    /// ascending deadline, ties broken by descending priority, then
    /// admission order. Empty when nothing is queued.
    pub fn take(&mut self, max_batch: usize) -> Vec<T> {
        let k = max_batch.max(1).min(self.pending.len());
        (0..k)
            .filter_map(|_| self.pending.pop_first())
            .map(|(_, item)| item)
            .collect()
    }

    /// Takes everything queued, in EDF order.
    pub fn drain(&mut self) -> Vec<T> {
        self.take(self.pending.len())
    }
}

/// The outcome of one streamed request.
#[derive(Debug, Clone)]
pub struct StreamedResponse {
    /// Decoded logits of this image, shape `[classes]`.
    pub logits: Tensor,
    /// Event statistics of the whole formed batch this request rode in
    /// (per-request attribution is not separable after integration).
    pub batch_stats: RunStats,
    /// Time from `submit` until a worker began executing the batch.
    pub queue_wait: Duration,
    /// Backend execution time of the formed batch.
    pub exec_time: Duration,
    /// Images in the formed batch (1 ..= `max_batch`).
    pub batch_size: usize,
    /// Per-image energy of the formed batch in µJ, priced on the
    /// `snn-hw` processor model from the batch's measured event
    /// counters. `0.0` when the server has no energy pricer attached
    /// (telemetry disabled, or the backend exposes no model geometry).
    pub energy_uj: f64,
}

/// Handle to one in-flight streaming request, returned by
/// [`crate::StreamingServer::submit`].
///
/// Exactly one response arrives per ticket; consume it with a blocking
/// [`wait`](Self::wait) or poll with [`try_wait`](Self::try_wait).
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Result<StreamedResponse, ConvertError>>,
    /// Server recorder, so [`wait_timeout`](Self::wait_timeout) expiries
    /// land in [`StreamingMetrics::wait_timeouts`](crate::StreamingMetrics)
    /// — otherwise a gateway 504 is invisible server-side.
    recorder: Option<Arc<Mutex<StreamingRecorder>>>,
}

impl Ticket {
    pub(crate) fn new(
        id: u64,
        rx: Receiver<Result<StreamedResponse, ConvertError>>,
        recorder: Option<Arc<Mutex<StreamingRecorder>>>,
    ) -> Self {
        Self { id, rx, recorder }
    }

    /// Monotone submission id (submission order across the server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's batch has executed.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if the formed batch failed, or a
    /// [`ConvertError::Structure`] if the server dropped the request
    /// (e.g. a worker panicked mid-batch).
    pub fn wait(self) -> Result<StreamedResponse, ConvertError> {
        self.rx.recv().unwrap_or_else(|_| Err(dropped_error()))
    }

    /// Non-blocking poll: `Ok(None)` while the request is still queued or
    /// executing, `Ok(Some(_))` exactly once when the result lands.
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait`](Self::wait).
    pub fn try_wait(&mut self) -> Result<Option<StreamedResponse>, ConvertError> {
        match self.rx.try_recv() {
            Ok(Ok(response)) => Ok(Some(response)),
            Ok(Err(e)) => Err(e),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(dropped_error()),
        }
    }

    /// Bounded wait: blocks at most `timeout`, returning `Ok(None)` if the
    /// result has not landed by then. The ticket stays valid after a
    /// timeout — wait again or drop it to abandon the request (the batch
    /// still executes; the reply is discarded). This is how a network
    /// handler bounds the time it holds a connection hostage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait`](Self::wait).
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<StreamedResponse>, ConvertError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(response)) => Ok(Some(response)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(recorder) = &self.recorder {
                    // A panic elsewhere under this lock must not take
                    // timeout accounting down with it: the guarded data is
                    // a plain recorder, always safe to keep using.
                    recorder
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record_wait_timeout();
                }
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(dropped_error()),
        }
    }
}

fn dropped_error() -> ConvertError {
    ConvertError::Structure(
        "streaming server dropped the request (worker panicked or server torn down mid-flight)"
            .into(),
    )
}

/// One queued streaming request as it travels queue → worker.
pub(crate) struct PendingRequest {
    /// Flat sample data (dims validated at submit).
    pub image: Vec<f32>,
    /// Per-sample dims, identical across the server's lifetime.
    pub sample_dims: Vec<usize>,
    /// Submission instant (starts the end-to-end latency clock).
    pub enqueued: Instant,
    /// Absolute deadline (`enqueued` + the request's or the server's
    /// delay bound): the EDF sort key and the deadline-miss bound.
    pub deadline: Instant,
    /// Trace attachment point for runtime-side spans, if the submitter
    /// asked for tracing ([`SubmitOptions::trace`]).
    pub trace: Option<TraceTarget>,
    /// Where the worker delivers the per-request slice of the batch result.
    pub reply: Sender<Result<StreamedResponse, ConvertError>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn take_caps_at_max_batch_and_leaves_the_rest_queued() {
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        for (i, name) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            q.push_with(name, at(base, i as u64), 0);
        }
        assert_eq!(q.take(2), vec!["a", "b"]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.take(2), vec!["c", "d"]);
        assert_eq!(q.take(2), vec!["e"], "a short queue yields a partial batch");
        assert!(q.is_empty());
        assert_eq!(q.take(2), Vec::<&str>::new());
    }

    #[test]
    fn take_zero_clamps_to_one() {
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        q.push_with("x", base, 0);
        q.push_with("y", base, 0);
        assert_eq!(q.take(0), vec!["x"]);
    }

    #[test]
    fn drain_empties_in_edf_order() {
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        q.push_with(1u32, at(base, 0), 0);
        q.push_with(2u32, at(base, 1), 0);
        q.push_with(3u32, at(base, 2), 0);
        assert_eq!(q.drain(), vec![1, 2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<u32>::new());
    }

    #[test]
    fn edf_earliest_deadline_is_taken_first_regardless_of_arrival_order() {
        // A later arrival with a TIGHTER deadline jumps the queue — the
        // EDF invariant.
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        q.push_with("relaxed", at(base, 100), 0);
        q.push_with("urgent", at(base, 5), 0);
        assert_eq!(q.take(1), vec!["urgent"]);
        assert_eq!(q.take(1), vec!["relaxed"]);
    }

    #[test]
    fn edf_priority_breaks_deadline_ties_then_admission_order() {
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        let d = at(base, 10);
        q.push_with("low-first", d, 0);
        q.push_with("high", d, 7);
        q.push_with("low-second", d, 0);
        q.push_with("earlier", at(base, 3), 0);
        assert_eq!(
            q.take(8),
            vec!["earlier", "high", "low-first", "low-second"]
        );
    }

    #[test]
    fn edf_order_holds_across_successive_takes() {
        // Interleaved pushes and takes: every take returns the EDF-least
        // items still queued, and the concatenated output is sorted.
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        let mut taken = Vec::new();
        for (i, &ms) in [40u64, 10, 30, 10, 50, 20, 0, 60, 5].iter().enumerate() {
            q.push_with((ms, i), at(base, ms), 0);
            if i % 3 == 2 {
                let batch = q.take(2);
                assert!(batch.windows(2).all(|w| w[0] <= w[1]), "{batch:?}");
                taken.extend(batch);
            }
        }
        taken.extend(q.drain());
        assert_eq!(taken.len(), 9, "every item taken exactly once");
        let mut ids: Vec<usize> = taken.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn past_deadlines_are_just_the_front_of_the_queue() {
        // Nothing in the queue fires on its own: an expired deadline only
        // sorts first.
        let base = Instant::now();
        let mut q = DeadlineBatcher::new();
        q.push_with("future", at(base, 1_000), 0);
        q.push_with("late", base, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.take(8), vec!["late", "future"]);
    }

    #[test]
    fn flush_reason_classification() {
        let base = Instant::now();
        let later = at(base, 1);
        assert_eq!(
            FlushReason::classify(4, 4, later, base, false),
            FlushReason::MaxBatch
        );
        assert_eq!(
            FlushReason::classify(1, 4, later, base, false),
            FlushReason::Idle,
            "partial batch before its earliest deadline"
        );
        assert_eq!(
            FlushReason::classify(1, 4, base, later, false),
            FlushReason::EdfDeadline,
            "partial batch after its earliest deadline passed"
        );
        assert_eq!(
            FlushReason::classify(4, 4, base, later, true),
            FlushReason::Drain,
            "shutdown wins over every other reason"
        );
    }
}
