//! `hdc::io` round-trip coverage through the serving registry: a trained
//! classifier saved to disk, reloaded by the registry, must be
//! bit-identical in its predictions — and corrupted files must fail the
//! load cleanly while leaving any previously served model untouched.

use hdc::io::save_pixel_classifier;
use hdc::memory::ValueEncoding;
use hdc::prelude::*;
use hdc_serve::batcher::BatchConfig;
use hdc_serve::metrics::Metrics;
use hdc_serve::registry::Registry;
use hdc_serve::trace::Trace;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;

const EDGE: usize = 6;
const PIXELS: usize = EDGE * EDGE;

fn trained_model() -> HdcClassifier<PixelEncoder> {
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: 4_000,
        width: EDGE,
        height: EDGE,
        levels: 16,
        value_encoding: ValueEncoding::Random,
        seed: 123,
    })
    .unwrap();
    let mut model = HdcClassifier::new(encoder, 3);
    // Three separable patterns, several examples each so accumulators are
    // non-trivial.
    for k in 0..4u8 {
        let mut top = [0u8; PIXELS];
        top[..EDGE].fill(200 + k);
        model.train_one(&top[..], 0).unwrap();
        let mut bottom = [0u8; PIXELS];
        bottom[PIXELS - EDGE..].fill(180 + k);
        model.train_one(&bottom[..], 1).unwrap();
        let mut left = [0u8; PIXELS];
        for y in 0..EDGE {
            left[y * EDGE] = 220 - k;
        }
        model.train_one(&left[..], 2).unwrap();
    }
    model.finalize();
    model
}

fn query_batch() -> Vec<Vec<u8>> {
    // A spread of on-distribution and noisy probes.
    let mut queries = Vec::new();
    for fill in [0u8, 64, 128, 224] {
        queries.push(vec![fill; PIXELS]);
    }
    for k in 0..8usize {
        let mut img = vec![0u8; PIXELS];
        for (i, px) in img.iter_mut().enumerate() {
            *px = ((i * 37 + k * 113) % 256) as u8;
        }
        queries.push(img);
    }
    queries
}

/// A directory of the test's own: the tests run concurrently, and each
/// removes its directory when it is done.
fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hdc-serve-roundtrip-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn registry_reload_is_bit_identical_on_a_query_batch() {
    let dir = temp_dir("reload");
    let path = dir.join("model.hdc");
    let model = trained_model();
    save_pixel_classifier(&model, BufWriter::new(File::create(&path).unwrap())).unwrap();

    let registry = Registry::new(Arc::new(Metrics::new()), BatchConfig::default());
    let info = registry.load("rt", &path).unwrap();
    assert_eq!(info.dim, 4_000);
    assert_eq!(info.classes, 3);
    let entry = registry.get("rt").unwrap();

    let queries = query_batch();
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let original = model.predict_batch(&refs).unwrap();
    let reloaded = entry.model().predict_batch(&refs).unwrap();
    for (i, (a, b)) in original.iter().zip(&reloaded).enumerate() {
        assert_eq!(a.class, b.class, "query {i} class diverged after reload");
        assert!(
            (a.similarity - b.similarity).abs() < 1e-12,
            "query {i} similarity diverged: {} vs {}",
            a.similarity,
            b.similarity
        );
        for (s, t) in a.similarities.iter().zip(&b.similarities) {
            assert!((s - t).abs() < 1e-12, "query {i} per-class similarity diverged");
        }
    }

    // The coalescer serves the same answers as the direct model.
    for (i, query) in queries.iter().enumerate() {
        let through_batcher = entry.batcher().predict(query.clone(), Trace::off()).unwrap();
        assert_eq!(through_batcher.class, original[i].class, "query {i} via batcher");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_corrupted_files_fail_cleanly() {
    let dir = temp_dir("corrupt");
    let good_path = dir.join("good.hdc");
    let model = trained_model();
    save_pixel_classifier(&model, BufWriter::new(File::create(&good_path).unwrap())).unwrap();
    let bytes = std::fs::read(&good_path).unwrap();

    let registry = Registry::new(Arc::new(Metrics::new()), BatchConfig::default());
    registry.load("m", &good_path).unwrap();
    let generation_before = registry.get("m").unwrap().info().generation;

    // Truncation at several depths: mid-header, mid-accumulator, off-by-one.
    for keep in [2usize, 10, bytes.len() / 3, bytes.len() - 1] {
        let path = dir.join(format!("trunc-{keep}.hdc"));
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let err = registry.load("m", &path).unwrap_err();
        assert_eq!(err.status(), 400, "truncated at {keep} must 400, got {err}");
    }

    // Corrupt magic.
    let mut corrupt = bytes.clone();
    corrupt[0] = b'X';
    let bad_magic = dir.join("magic.hdc");
    std::fs::write(&bad_magic, &corrupt).unwrap();
    assert_eq!(registry.load("m", &bad_magic).unwrap_err().status(), 400);

    // Implausible dimension in the header.
    let mut huge_dim = bytes.clone();
    huge_dim[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
    let bad_dim = dir.join("dim.hdc");
    std::fs::write(&bad_dim, &huge_dim).unwrap();
    assert_eq!(registry.load("m", &bad_dim).unwrap_err().status(), 400);

    // Every failed load above left the good model serving, untouched.
    let entry = registry.get("m").unwrap();
    assert_eq!(entry.info().generation, generation_before);
    assert!(entry.model().predict(&[0u8; PIXELS][..]).is_ok());

    std::fs::remove_dir_all(&dir).ok();
}
