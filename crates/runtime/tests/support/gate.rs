//! A channel-gated test backend: `run_batch` blocks at a gate until the
//! test lets it through, so a test can hold a server's workers busy and
//! queue requests behind them without racing the wall clock.
//!
//! Shared by the runtime's unit and integration tests and the gateway's
//! integration tests, which include this file with `#[path]`; it is not
//! a test target of its own.

#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use snn_runtime::InferenceBackend;
use snn_sim::RunStats;
use snn_tensor::Tensor;
use ttfs_core::{ConvertError, SnnModel};

/// The longest any gate wait blocks. A test that fails while the gate is
/// shut must still end (the server's drop joins its workers), so a batch
/// held this long goes through; no passing test comes near it.
const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// Wraps a backend; every `run_batch` records the batch, then waits for a
/// permit. The gate starts shut.
pub struct GatedBackend {
    inner: Arc<dyn InferenceBackend>,
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Batches allowed through and not yet used; `usize::MAX` = open.
    permits: usize,
    /// Every batch that reached the gate, in arrival order: each sample's
    /// first value, which tests use as the request's marker.
    batches: Vec<Vec<f32>>,
}

impl GatedBackend {
    /// A shut gate in front of `inner`.
    pub fn new(inner: Arc<dyn InferenceBackend>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        })
    }

    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `n` batches in total have reached the gate.
    ///
    /// # Panics
    ///
    /// If they do not arrive within the gate timeout.
    pub fn wait_entered(&self, n: usize) {
        let (state, timeout) = self
            .changed
            .wait_timeout_while(self.state(), GATE_TIMEOUT, |s| s.batches.len() < n)
            .unwrap_or_else(|e| e.into_inner());
        assert!(
            !timeout.timed_out(),
            "only {} of {n} batches reached the gate",
            state.batches.len()
        );
    }

    /// Lets `n` more batches through.
    pub fn release(&self, n: usize) {
        let mut state = self.state();
        state.permits = state.permits.saturating_add(n);
        self.changed.notify_all();
    }

    /// Lets every batch through from now on.
    pub fn open(&self) {
        self.release(usize::MAX);
    }

    /// The marker of every sample of every batch that reached the gate,
    /// one inner vector per batch, in arrival order.
    pub fn batches(&self) -> Vec<Vec<f32>> {
        self.state().batches.clone()
    }
}

impl InferenceBackend for GatedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn model(&self) -> &SnnModel {
        self.inner.model()
    }

    fn input_dims(&self) -> Option<&[usize]> {
        self.inner.input_dims()
    }

    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let data = images.as_slice();
        let sample_len = data.len() / images.dims()[0].max(1);
        let mut state = self.state();
        state
            .batches
            .push(data.chunks(sample_len.max(1)).map(|s| s[0]).collect());
        self.changed.notify_all();
        let (mut state, _) = self
            .changed
            .wait_timeout_while(state, GATE_TIMEOUT, |s| s.permits == 0)
            .unwrap_or_else(|e| e.into_inner());
        if state.permits != usize::MAX {
            state.permits = state.permits.saturating_sub(1);
        }
        drop(state);
        self.inner.run_batch(images)
    }
}
