//! Predict-pool determinism acceptance: sharding a batch across N
//! executor threads must be **invisible** in every answer. For dims that
//! straddle the packed-word boundary (63/64/65), a two-word dim (127)
//! and the paper-scale dim (10k), and for worker counts {1, 2, 3, 8},
//! both the coalesced path and the explicit-batch path must return
//! predictions bit-identical to a direct [`hdc::Model::predict_batch`]
//! call — including error batches, where the poisoned input must fail
//! exactly as it does inline, regardless of which shard it lands in.

use hdc::memory::ValueEncoding;
use hdc::prelude::*;
use hdc_serve::batcher::{inject_panic_fill, BatchConfig};
use hdc_serve::client::Client;
use hdc_serve::metrics::Metrics;
use hdc_serve::registry::Registry;
use hdc_serve::server::{Server, ServerConfig};
use hdc_serve::trace::Trace;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const EDGE: usize = 4;
const PIXELS: usize = EDGE * EDGE;

/// Worker counts under test: the inline baseline, an even split, an
/// uneven split, and more workers than most batches have jobs.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Dims straddling the 64-bit packed-word boundary, a two-word dim, and
/// the paper-scale dim.
const DIMS: [usize; 5] = [63, 64, 65, 127, 10_000];

/// The panic-marker byte for the quarantine test (any input consisting
/// entirely of this value panics the model while the hook is armed).
const PANIC_MARKER: u8 = 231;

/// Serializes this binary's users of the process-global
/// [`inject_panic_fill`] hook, so the quarantine test can never race
/// another armed window if more such tests appear here.
static PANIC_HOOK: Mutex<()> = Mutex::new(());

/// A deterministically trained model: same seed + data at a given dim
/// always yields the same model, so every side of a comparison can build
/// its own copy.
fn trained_model(dim: usize) -> HdcClassifier<PixelEncoder> {
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: EDGE,
        height: EDGE,
        levels: 8,
        value_encoding: ValueEncoding::Random,
        seed: 7,
    })
    .unwrap();
    let mut model = HdcClassifier::new(encoder, 2);
    model.train_one(&[0u8; PIXELS][..], 0).unwrap();
    model.train_one(&[224u8; PIXELS][..], 1).unwrap();
    model.finalize();
    model
}

/// A deterministic pseudo-random input set. 19 inputs (prime, so shards
/// split unevenly at every tested worker count).
fn varied_inputs() -> Vec<Vec<u8>> {
    (0..19u64)
        .map(|i| {
            (0..PIXELS as u64)
                .map(|p| {
                    // Splitmix-style scramble: varied but reproducible.
                    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(p);
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (x >> 56) as u8
                })
                .collect()
        })
        .collect()
}

/// A registry serving `trained_model(dim)` with the pool pinned to
/// `workers` executors.
fn registry_with(dim: usize, workers: usize, batch: BatchConfig) -> Arc<Registry> {
    let batch = BatchConfig { predict_workers: workers, ..batch };
    let registry = Arc::new(Registry::new(Arc::new(Metrics::new()), batch));
    registry.insert_model("default", trained_model(dim)).unwrap();
    registry
}

/// Bit-exact comparison of two predictions: `f64` fields are compared by
/// bit pattern, not `==`, so even a `-0.0` vs `0.0` drift would fail.
fn assert_bit_identical(actual: &Prediction, expected: &Prediction, context: &str) {
    assert_eq!(actual.class, expected.class, "{context}: class diverged");
    assert_eq!(
        actual.similarity.to_bits(),
        expected.similarity.to_bits(),
        "{context}: similarity not bit-identical ({} vs {})",
        actual.similarity,
        expected.similarity
    );
    assert_eq!(
        actual.margin.to_bits(),
        expected.margin.to_bits(),
        "{context}: margin not bit-identical"
    );
    let actual_bits: Vec<u64> = actual.similarities.iter().map(|s| s.to_bits()).collect();
    let expected_bits: Vec<u64> = expected.similarities.iter().map(|s| s.to_bits()).collect();
    assert_eq!(actual_bits, expected_bits, "{context}: similarities not bit-identical");
}

#[test]
fn explicit_batches_are_bit_identical_at_every_worker_count_and_dim() {
    let inputs = varied_inputs();
    for dim in DIMS {
        let model = trained_model(dim);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let direct = model.predict_batch(&refs).unwrap();
        for workers in WORKER_COUNTS {
            let registry = registry_with(dim, workers, BatchConfig::default());
            let batcher_answers = registry
                .get("default")
                .unwrap()
                .batcher()
                .predict_batch_direct(inputs.clone(), &Trace::off())
                .unwrap();
            assert_eq!(batcher_answers.len(), direct.len());
            for (i, (actual, expected)) in batcher_answers.iter().zip(&direct).enumerate() {
                assert_bit_identical(
                    actual,
                    expected,
                    &format!("dim {dim}, {workers} workers, input {i}"),
                );
            }
        }
    }
}

#[test]
fn coalesced_predictions_are_bit_identical_at_every_worker_count_and_dim() {
    let inputs = varied_inputs();
    for dim in DIMS {
        let model = trained_model(dim);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let direct = model.predict_batch(&refs).unwrap();
        for workers in WORKER_COUNTS {
            // A linger long enough that the concurrent predicts below
            // coalesce into multi-job batches, which then shard.
            let batch = BatchConfig {
                max_batch: 64,
                max_linger: Duration::from_millis(2),
                ..BatchConfig::default()
            };
            let registry = registry_with(dim, workers, batch);
            let entry = registry.get("default").unwrap();
            let answers: Vec<Prediction> = std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .iter()
                    .map(|input| {
                        let batcher = entry.batcher();
                        let input = input.clone();
                        scope.spawn(move || batcher.predict(input, Trace::off()).unwrap())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, (actual, expected)) in answers.iter().zip(&direct).enumerate() {
                assert_bit_identical(
                    actual,
                    expected,
                    &format!("coalesced dim {dim}, {workers} workers, input {i}"),
                );
            }
        }
    }
}

#[test]
fn explicit_batch_error_semantics_match_direct_at_every_worker_count() {
    // One wrong-length input poisons the batch; the library reports the
    // lowest-index failure, and the sharded path must report the exact
    // same error no matter which shard the poison lands in.
    let mut inputs = varied_inputs();
    inputs[11] = vec![3u8; PIXELS + 1];
    let dim = 127;
    let model = trained_model(dim);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let direct_error = model.predict_batch(&refs).unwrap_err().to_string();
    let mut seen = Vec::new();
    for workers in WORKER_COUNTS {
        let registry = registry_with(dim, workers, BatchConfig::default());
        let error = registry
            .get("default")
            .unwrap()
            .batcher()
            .predict_batch_direct(inputs.clone(), &Trace::off())
            .unwrap_err()
            .to_string();
        assert!(
            error.contains(&direct_error),
            "{workers} workers: served error {error:?} does not carry the direct error \
             {direct_error:?}"
        );
        seen.push(error);
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]), "error text varies by worker count: {seen:?}");
}

#[test]
fn coalesced_poisoned_input_fails_alone_at_every_worker_count() {
    // On the coalesced path each job replies individually: the
    // wrong-length input must 400 alone while every sibling in the same
    // (sharded) batch answers bit-identically to the direct call.
    let inputs = varied_inputs();
    let dim = 64;
    let model = trained_model(dim);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let direct = model.predict_batch(&refs).unwrap();
    for workers in WORKER_COUNTS {
        let batch = BatchConfig {
            max_batch: 64,
            max_linger: Duration::from_millis(2),
            ..BatchConfig::default()
        };
        let registry = registry_with(dim, workers, batch);
        let entry = registry.get("default").unwrap();
        let results: Vec<Result<Prediction, _>> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    let batcher = entry.batcher();
                    let input = if i == 7 { vec![9u8; PIXELS + 3] } else { input.clone() };
                    scope.spawn(move || batcher.predict(input, Trace::off()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, result) in results.iter().enumerate() {
            if i == 7 {
                assert!(result.is_err(), "{workers} workers: poisoned input must fail");
            } else {
                let actual = result.as_ref().unwrap_or_else(|e| {
                    panic!("{workers} workers: healthy sibling {i} failed: {e}")
                });
                assert_bit_identical(
                    actual,
                    &direct[i],
                    &format!("poisoned batch, {workers} workers, input {i}"),
                );
            }
        }
    }
}

#[test]
fn injected_panic_in_sharded_batch_quarantines_alone_and_respawns_nothing() {
    let _hook = PANIC_HOOK.lock().unwrap();
    let inputs = varied_inputs();
    let dim = 64;
    let model = trained_model(dim);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let direct = model.predict_batch(&refs).unwrap();

    let batch = BatchConfig {
        max_batch: 64,
        max_linger: Duration::from_millis(2),
        predict_workers: 3,
        ..BatchConfig::default()
    };
    let registry = Arc::new(Registry::new(Arc::new(Metrics::new()), batch));
    registry.insert_model("default", trained_model(dim)).unwrap();
    let entry = registry.get("default").unwrap();

    inject_panic_fill(Some(PANIC_MARKER));
    let results: Vec<Result<Prediction, _>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let batcher = entry.batcher();
                let input = if i == 13 { vec![PANIC_MARKER; PIXELS] } else { input.clone() };
                scope.spawn(move || batcher.predict(input, Trace::off()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    inject_panic_fill(None);

    for (i, result) in results.iter().enumerate() {
        if i == 13 {
            let error = result.as_ref().unwrap_err().to_string();
            assert!(
                error.contains("panicked"),
                "poisoned input must surface the quarantine, got {error:?}"
            );
        } else {
            let actual = result
                .as_ref()
                .unwrap_or_else(|e| panic!("healthy sibling {i} caught the panic: {e}"));
            assert_bit_identical(actual, &direct[i], &format!("panic batch, input {i}"));
        }
    }
    let metrics = registry.metrics();
    assert!(metrics.worker_panics_total() >= 1, "the quarantine must be counted");
    assert_eq!(
        metrics.worker_respawns_total(),
        0,
        "a sharded panic must be quarantined per job, never escalate to a worker respawn"
    );

    // The affected executor must still be alive: the same pool answers a
    // fresh batch correctly after the panic.
    let after = entry.batcher().predict_batch_direct(inputs.clone(), &Trace::off()).unwrap();
    for (i, (actual, expected)) in after.iter().zip(&direct).enumerate() {
        assert_bit_identical(actual, expected, &format!("post-panic batch, input {i}"));
    }
}

#[test]
fn pool_metrics_and_shard_spans_are_observable_over_http() {
    // Paper-scale dim so every shard's span is comfortably >= 1us —
    // zero-duration stages are omitted from the trace rendering.
    let registry = registry_with(10_000, 3, BatchConfig::default());
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let mut server = Server::start(Arc::clone(&registry), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let inputs = varied_inputs();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let body = Client::predict_batch_body("default", &refs);
    let response = client.post("/v1/predict", &body).unwrap();
    assert!(response.is_success(), "{}", String::from_utf8_lossy(&response.body));

    let metrics = client.get("/metrics").unwrap();
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    assert!(text.contains("\"predict_pool\""), "{text}");
    assert!(text.contains("\"default\":3"), "gauge must report 3 workers: {text}");
    assert!(text.contains("\"fanouts\""), "{text}");
    let fanouts = registry.metrics().pool_fanouts_total();
    assert!(fanouts >= 1, "the explicit batch must have sharded");
    assert!(
        registry.metrics().pool_occupancy_hist().iter().sum::<u64>() >= fanouts,
        "every fanout must land in the occupancy histogram"
    );
    assert!(
        registry.metrics().pool_shard_hist().iter().sum::<u64>() >= 2,
        "a sharded batch records every shard's size"
    );

    let prom = client.get("/metrics?format=prometheus").unwrap();
    let prom_text = String::from_utf8_lossy(&prom.body).to_string();
    assert!(prom_text.contains("hdc_predict_workers{model=\"default\"} 3"), "{prom_text}");
    assert!(prom_text.contains("hdc_pool_fanouts_total"), "{prom_text}");
    assert!(prom_text.contains("hdc_pool_occupancy_bucket"), "{prom_text}");
    assert!(prom_text.contains("hdc_pool_shard_size_bucket"), "{prom_text}");

    let traces = client.get("/debug/traces").unwrap();
    let trace_text = String::from_utf8_lossy(&traces.body).to_string();
    assert!(
        trace_text.contains("shard_execute"),
        "the sharded request must carry a shard_execute span: {trace_text}"
    );

    server.shutdown();
}
