//! Crash-durability property: **save → crash → recover → continue
//! training** must be bit-exact against a lineage that never crashed.
//!
//! Each case runs two registries over identical op streams — trains and
//! feedbacks, with a mid-stream snapshot (which compacts the WAL) — then
//! "crashes" one (dropped without any flush; the WAL is all it leaves
//! behind), recovers it from disk, and continues training both. The
//! final snapshots must be byte-identical: same counters, same version,
//! same trained-example count.
//!
//! Dims follow the workspace oracle convention — 63/64/65/127 straddle
//! the packed 64-bit lane boundary (where the binarized counters'
//! saturating/rescale arithmetic has its edge cases), and 10 000 is the
//! paper-scale dimension.

use hdc::binary::BinaryClassifier;
use hdc::prelude::*;
use hdc::AnyModel;
use hdc_serve::{BatchConfig, Metrics, Registry, Trace};
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const EDGE: usize = 4;
const CLASSES: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdc-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn encoder(dim: usize) -> PixelEncoder {
    PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: EDGE,
        height: EDGE,
        levels: 16,
        value_encoding: ValueEncoding::Random,
        seed: 11,
    })
    .expect("valid durability encoder")
}

/// A lightly pre-trained model of either kind, so recovery starts from
/// non-trivial counters.
fn seeded_model(dim: usize, binary: bool) -> AnyModel {
    if binary {
        let mut model = BinaryClassifier::new(encoder(dim), CLASSES);
        model.train_one(&[200u8; EDGE * EDGE][..], 0).unwrap();
        model.train_one(&[40u8; EDGE * EDGE][..], 1).unwrap();
        model.finalize();
        model.into()
    } else {
        let mut model = HdcClassifier::new(encoder(dim), CLASSES);
        model.train_one(&[200u8; EDGE * EDGE][..], 0).unwrap();
        model.train_one(&[40u8; EDGE * EDGE][..], 1).unwrap();
        model.finalize();
        model.into()
    }
}

fn registry() -> Arc<Registry> {
    Arc::new(Registry::new(Arc::new(Metrics::new()), BatchConfig::default()))
}

/// The deterministic example stream both lineages consume.
fn example(i: usize) -> (Vec<u8>, usize) {
    let mut img = vec![0u8; EDGE * EDGE];
    for (j, px) in img.iter_mut().enumerate() {
        *px = ((i * 37 + j * 11) % 251) as u8;
    }
    (img, i % CLASSES)
}

/// Applies ops `range` to the registry's model: mostly single-example
/// trains (one WAL record each), with every fifth op a feedback.
fn apply_ops(registry: &Registry, range: std::ops::Range<usize>) {
    let entry = registry.get("default").expect("model registered");
    for i in range {
        let (img, label) = example(i);
        if i % 5 == 4 {
            entry.batcher().feedback(img, label, Trace::off()).expect("feedback op");
        } else {
            entry.batcher().train(vec![(img, label)], Trace::off()).expect("train op");
        }
    }
}

fn run_property(dim: usize, binary: bool, dir: &Path) {
    let kind = if binary { "binary" } else { "dense" };
    let victim_path = dir.join(format!("victim-{dim}-{kind}.hdc"));
    let control_path = dir.join(format!("control-{dim}-{kind}.hdc"));
    let model = seeded_model(dim, binary);
    for path in [&victim_path, &control_path] {
        model.save(BufWriter::new(fs::File::create(path).unwrap())).unwrap();
    }

    // Victim lineage: train, snapshot (compacts the WAL at that
    // version), train past the snapshot, then crash — drop the registry
    // with dirty state and rely on the log alone.
    let victim = registry();
    victim.load("default", &victim_path).unwrap();
    apply_ops(&victim, 0..4);
    victim.snapshot("default", &victim_path).unwrap();
    apply_ops(&victim, 4..7);
    let acked_version = victim.get("default").unwrap().version();
    drop(victim);

    let recovered = registry();
    recovered.load("default", &victim_path).unwrap();
    assert_eq!(
        recovered.get("default").unwrap().version(),
        acked_version,
        "dim {dim} {kind}: recovery must land exactly at the acked version"
    );
    apply_ops(&recovered, 7..10);

    // Control lineage: the identical op stream, never crashed.
    let control = registry();
    control.load("default", &control_path).unwrap();
    apply_ops(&control, 0..4);
    control.snapshot("default", &control_path).unwrap();
    apply_ops(&control, 4..10);

    assert_eq!(
        recovered.get("default").unwrap().version(),
        control.get("default").unwrap().version(),
        "dim {dim} {kind}: lineages diverged in version"
    );

    // Bit-exactness: the final snapshots (counters + version trailer)
    // must be byte-identical.
    let recovered_snap = dir.join(format!("final-victim-{dim}-{kind}.hdc"));
    let control_snap = dir.join(format!("final-control-{dim}-{kind}.hdc"));
    recovered.snapshot("default", &recovered_snap).unwrap();
    control.snapshot("default", &control_snap).unwrap();
    assert_eq!(
        fs::read(&recovered_snap).unwrap(),
        fs::read(&control_snap).unwrap(),
        "dim {dim} {kind}: crashed lineage is not bit-exact vs the uncrashed control"
    );
}

#[test]
fn crash_recovery_is_bit_exact_across_lane_boundaries() {
    let dir = scratch("lanes");
    for dim in [63, 64, 65, 127] {
        run_property(dim, false, &dir);
        run_property(dim, true, &dir);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_is_bit_exact_at_paper_scale() {
    let dir = scratch("paper");
    run_property(10_000, false, &dir);
    run_property(10_000, true, &dir);
    let _ = fs::remove_dir_all(&dir);
}
