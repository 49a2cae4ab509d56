//! Concurrency battery for [`ModelRegistry`]: single-flight compilation
//! under a thundering herd, LRU eviction that never unloads a model with
//! in-flight work, and atomic hot swap under closed-loop load — every
//! ticket completes with logits bit-matching exactly one of
//! {old version, new version}, never a mix.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{BackendHint, ModelArtifact, ModelRegistry, RegistryConfig, StreamingConfig};
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel};

const DIMS: [usize; 3] = [1, 3, 4];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("snn_registry_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn dense_artifact(name: &str, version: &str, seed: u64) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
    ModelArtifact::build(name, version, model, &DIMS, BackendHint::Csr).unwrap()
}

fn fast_streaming() -> StreamingConfig {
    StreamingConfig {
        threads: 2,
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        max_pending: 0,
        brownout: None,
    }
}

fn sample() -> Tensor {
    Tensor::full(&[1, 3, 4], 0.5)
}

/// Reference logits for an artifact: compile it directly (no registry)
/// and run the probe sample.
fn reference_bits(artifact: &ModelArtifact) -> Vec<u32> {
    let (engine, _) = artifact.compile().unwrap();
    let mut dims = vec![1usize];
    dims.extend_from_slice(&DIMS);
    let x = Tensor::full(&dims, 0.5);
    let (logits, _) = engine.run_batch(&x).unwrap();
    logits.as_slice().iter().map(|f| f.to_bits()).collect()
}

#[test]
fn thundering_herd_on_a_cold_model_compiles_exactly_once() {
    let dir = TempDir::new("herd");
    dense_artifact("alpha", "1", 1)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let registry = Arc::new(
        ModelRegistry::open(
            dir.path(),
            RegistryConfig {
                byte_budget: 0,
                streaming: fast_streaming(),
                ..RegistryConfig::default()
            },
        )
        .unwrap(),
    );

    const THREADS: usize = 8;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.get_or_load("alpha").unwrap())
        })
        .collect();
    let loaded: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every thread got the SAME resident entry — one compile, N handles.
    for handle in &loaded[1..] {
        assert!(Arc::ptr_eq(&loaded[0], handle));
    }
    let metrics = registry.metrics();
    assert_eq!(metrics.cold_loads, 1, "single-flight: exactly one compile");
    assert_eq!(
        metrics.warm_hits + metrics.coalesced_loads,
        (THREADS - 1) as u64,
        "the other {} lookups coalesced or hit warm",
        THREADS - 1
    );
    assert_eq!(metrics.load_errors, 0);
    // Cold-start timings are recorded.
    assert!(metrics.load_ms_max >= 0.0);
    assert!(metrics.compile_ms_max > 0.0, "compile wall time recorded");
    registry.shutdown();
}

#[test]
fn lru_never_evicts_a_model_with_in_flight_work() {
    let dir = TempDir::new("lru");
    let a = dense_artifact("alpha", "1", 1);
    let b = dense_artifact("beta", "1", 2);
    let c = dense_artifact("gamma", "1", 3);
    a.save(dir.path().join("alpha@1.snna")).unwrap();
    b.save(dir.path().join("beta@1.snna")).unwrap();
    c.save(dir.path().join("gamma@1.snna")).unwrap();
    let fa = a.compile().unwrap().1.stored_bytes;
    let fb = b.compile().unwrap().1.stored_bytes;

    // Budget admits one model comfortably but not two: the second load
    // must try to evict the first.
    let registry = ModelRegistry::open(
        dir.path(),
        RegistryConfig {
            byte_budget: fa.max(fb) + 1,
            streaming: StreamingConfig {
                threads: 1,
                max_batch: 64,
                // Long flush deadline: a lone submission parks in the
                // batcher, keeping alpha's pending() > 0 for a while.
                max_delay: Duration::from_millis(300),
                max_pending: 0,
                brownout: None,
            },
            ..RegistryConfig::default()
        },
    )
    .unwrap();

    let alpha = registry.get_or_load("alpha").unwrap();
    let mut timings = vec![(alpha.load_ms(), alpha.compile_ms())];
    let ticket = alpha.server().submit(&sample()).unwrap();
    drop(alpha); // only the registry and the parked ticket's server remain

    // Loading beta pushes the registry over budget, but alpha has an
    // in-flight request: it must NOT be evicted mid-ticket.
    let beta = registry.get_or_load("beta").unwrap();
    timings.push((beta.load_ms(), beta.compile_ms()));
    let states: Vec<_> = registry
        .list()
        .into_iter()
        .map(|r| (r.name, r.state))
        .collect();
    assert!(
        states.iter().any(|(n, s)| n == "alpha" && s == "resident"),
        "alpha must stay resident while its ticket is in flight: {states:?}"
    );
    assert_eq!(registry.metrics().evictions, 0);

    // The parked ticket completes normally — never dropped by eviction.
    let response = ticket.wait().expect("in-flight ticket must complete");
    assert_eq!(response.logits.dims(), &[3]);

    // With alpha idle again, the next over-budget load may evict it.
    let gamma = registry.get_or_load("gamma").unwrap();
    timings.push((gamma.load_ms(), gamma.compile_ms()));
    let metrics = registry.metrics();
    assert!(
        metrics.evictions >= 1,
        "idle LRU entry is evictable once its work drains: {metrics:?}"
    );
    // The reported maxima are the exact slowest load and compile, not a
    // histogram bin edge.
    assert_eq!(metrics.cold_loads, 3);
    let load_max = timings.iter().map(|t| t.0).fold(0.0, f64::max);
    let compile_max = timings.iter().map(|t| t.1).fold(0.0, f64::max);
    assert!(
        (metrics.load_ms_max - load_max).abs() < 1e-6,
        "load max {} vs {load_max}",
        metrics.load_ms_max
    );
    assert!(
        (metrics.compile_ms_max - compile_max).abs() < 1e-6,
        "compile max {} vs {compile_max}",
        metrics.compile_ms_max
    );
    assert!(!registry
        .list()
        .iter()
        .any(|r| r.name == "alpha" && r.state == "resident"));
    registry.shutdown();
}

#[test]
fn swap_repoints_the_bare_name_and_survives_rescans() {
    let dir = TempDir::new("swap");
    dense_artifact("alpha", "1", 1)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    dense_artifact("alpha", "2", 2)
        .save(dir.path().join("alpha@2.snna"))
        .unwrap();
    let registry = ModelRegistry::open(
        dir.path(),
        RegistryConfig {
            byte_budget: 0,
            streaming: fast_streaming(),
            ..RegistryConfig::default()
        },
    )
    .unwrap();

    // Default active pointer: lexically greatest version.
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "2");

    let report = registry.swap("alpha", "1", None).unwrap();
    assert_eq!(report.from.as_deref(), Some("2"));
    assert_eq!(report.to, "1");
    assert!(report.was_resident || report.load_ms >= 0.0);
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");

    // A rescan must not un-pin the explicit swap.
    registry.refresh().unwrap();
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");
    assert_eq!(registry.metrics().swaps, 1);

    // Swapping to a version that does not exist is a typed error and
    // leaves the pointer untouched.
    assert!(registry.swap("alpha", "9", None).is_err());
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");
    registry.shutdown();
}

#[test]
fn hot_swap_under_closed_loop_load_never_mixes_versions() {
    let dir = TempDir::new("hotswap");
    let v1 = dense_artifact("alpha", "1", 10);
    let v2 = dense_artifact("alpha", "2", 20);
    v1.save(dir.path().join("alpha@1.snna")).unwrap();
    v2.save(dir.path().join("alpha@2.snna")).unwrap();
    let expected_v1 = reference_bits(&v1);
    let expected_v2 = reference_bits(&v2);
    assert_ne!(expected_v1, expected_v2, "versions must be distinguishable");

    let registry = Arc::new(
        ModelRegistry::open(
            dir.path(),
            RegistryConfig {
                byte_budget: 0,
                streaming: fast_streaming(),
                ..RegistryConfig::default()
            },
        )
        .unwrap(),
    );
    // Start on v2 (the default), swap to v1 mid-run.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 150;
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let (e1, e2) = (expected_v1.clone(), expected_v2.clone());
            std::thread::spawn(move || {
                let (mut saw_v1, mut saw_v2) = (0u64, 0u64);
                for _ in 0..PER_THREAD {
                    // Resolve the bare name each iteration, like a
                    // gateway request would.
                    let handle = registry.get_or_load("alpha").unwrap();
                    let response = handle
                        .server()
                        .submit(&sample())
                        .unwrap()
                        .wait()
                        .expect("no ticket may be dropped across a swap");
                    let bits: Vec<u32> = response
                        .logits
                        .as_slice()
                        .iter()
                        .map(|f| f.to_bits())
                        .collect();
                    if bits == e1 {
                        saw_v1 += 1;
                    } else if bits == e2 {
                        saw_v2 += 1;
                    } else {
                        panic!("logits match neither version: torn swap");
                    }
                }
                (saw_v1, saw_v2)
            })
        })
        .collect();

    // Let the workers run against v2, then swap to v1 under load.
    std::thread::sleep(Duration::from_millis(50));
    let report = registry.swap("alpha", "1", None).unwrap();
    assert_eq!(report.to, "1");

    let (mut total_v1, mut total_v2) = (0u64, 0u64);
    for worker in workers {
        let (saw_v1, saw_v2) = worker.join().unwrap();
        total_v1 += saw_v1;
        total_v2 += saw_v2;
    }
    assert_eq!(
        total_v1 + total_v2,
        (THREADS * PER_THREAD) as u64,
        "every request completed and matched exactly one version"
    );
    assert!(total_v2 > 0, "pre-swap traffic must have hit v2");
    assert!(total_v1 > 0, "post-swap traffic must have hit v1");
    registry.shutdown();
}
