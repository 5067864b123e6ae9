//! Model persistence.
//!
//! Trained pixel-encoder classifiers serialize to a small self-describing
//! binary format (`HDC1` magic; `HDB1` for the binarized classifier). Only
//! the encoder *configuration* and the per-class **trainable counter
//! state** are stored — the dense model's integer accumulators, the binary
//! model's set-bit counters — never just the bipolarized snapshot: the
//! item memories are pseudo-random functions of the seed, so they
//! regenerate bit-exactly on load, and because the counters round-trip, a
//! reloaded model *keeps learning* (`partial_fit` after load is
//! bit-identical to never having been saved). This keeps model files
//! proportional to `num_classes × D`, not `pixels × D`, and is what the
//! serving layer's `POST /v1/snapshot` endpoint persists.

use crate::accumulator::Accumulator;
use crate::am::AssociativeMemory;
use crate::binary::BinaryClassifier;
use crate::classifier::HdcClassifier;
use crate::encoder::{PixelEncoder, PixelEncoderConfig};
use crate::error::HdcError;
use crate::kernel::BitCounter;
use crate::memory::ValueEncoding;
use crate::model::AnyModel;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"HDC1";
const BINARY_MAGIC: &[u8; 4] = b"HDB1";

/// Deserializes a model of **either kind** by sniffing the 4-byte magic
/// (`HDC1` → dense, `HDB1` → binary) — the single loading surface the
/// serving registry and the CLI use, so one `--model name=path` flag
/// serves both kinds. The returned model is finalized and keeps accepting
/// online updates; [`AnyModel::save`] is the inverse.
///
/// # Errors
///
/// Returns [`HdcError::Corrupt`] for an unknown magic or any inconsistent
/// payload, [`HdcError::Io`] on read failure.
pub fn load_any<R: Read>(mut reader: R) -> Result<AnyModel, HdcError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    match &magic {
        m if m == MAGIC => Ok(AnyModel::Dense(load_dense_body(reader)?)),
        m if m == BINARY_MAGIC => Ok(AnyModel::Binary(load_binary_body(reader)?)),
        other => {
            Err(HdcError::Corrupt(format!("unknown model magic {other:?} (expected HDC1 or HDB1)")))
        }
    }
}

/// Serializes a trained pixel classifier to `writer`.
///
/// A mut reference can be passed for any `W: Write` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`HdcError::Io`] on write failure.
pub fn save_pixel_classifier<W: Write>(
    model: &HdcClassifier<PixelEncoder>,
    mut writer: W,
) -> Result<(), HdcError> {
    writer.write_all(MAGIC)?;
    write_encoder_config(&mut writer, model.encoder().config())?;
    let am = model.associative_memory();
    write_u64(&mut writer, am.num_classes() as u64)?;
    for class in 0..am.num_classes() {
        let acc = am.accumulator(class)?;
        write_u64(&mut writer, acc.count() as u64)?;
        for &s in acc.sums() {
            writer.write_all(&s.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a trained pixel classifier from `reader`. The returned model
/// is already finalized.
///
/// A mut reference can be passed for any `R: Read` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`HdcError::Corrupt`] for bad magic or inconsistent payloads,
/// [`HdcError::Io`] on read failure.
pub fn load_pixel_classifier<R: Read>(
    mut reader: R,
) -> Result<HdcClassifier<PixelEncoder>, HdcError> {
    expect_magic(&mut reader, MAGIC)?;
    load_dense_body(reader)
}

/// The `HDC1` payload after the magic: encoder config + accumulators.
fn load_dense_body<R: Read>(mut reader: R) -> Result<HdcClassifier<PixelEncoder>, HdcError> {
    let config = read_encoder_config(&mut reader)?;
    let dim = config.dim;
    let num_classes = read_class_count(&mut reader)?;

    let mut accumulators = Vec::with_capacity(num_classes);
    for _ in 0..num_classes {
        let count = read_usize(&mut reader)?;
        let mut sums = Vec::with_capacity(dim);
        let mut buf = [0u8; 4];
        for _ in 0..dim {
            reader.read_exact(&mut buf)?;
            sums.push(i32::from_le_bytes(buf));
        }
        accumulators.push(Accumulator::from_raw(sums, count)?);
    }

    let encoder = PixelEncoder::new(config)?;
    let am = AssociativeMemory::from_accumulators(accumulators)?;
    let mut model = HdcClassifier::new(encoder, am.num_classes());
    // `from_accumulators` finalized the AM, so the model is prediction-ready.
    *model.am_mut() = am;
    Ok(model)
}

/// Serializes a trained binarized pixel classifier to `writer`.
///
/// The payload is the per-class **set-bit counters** (`u32` per component
/// plus the bundle size), not the thresholded references, so the reloaded
/// model continues online training bit-exactly.
///
/// # Errors
///
/// Returns [`HdcError::Io`] on write failure.
pub fn save_binary_classifier<W: Write>(
    model: &BinaryClassifier<PixelEncoder>,
    mut writer: W,
) -> Result<(), HdcError> {
    writer.write_all(BINARY_MAGIC)?;
    write_encoder_config(&mut writer, model.encoder().config())?;
    write_u64(&mut writer, model.num_classes() as u64)?;
    for class in 0..model.num_classes() {
        // Clone: reading the counts flushes the counter's pending CSA
        // group, and saving must not perturb (or require `&mut`) the
        // live model.
        let mut counter = model.counter(class)?.clone();
        write_u64(&mut writer, counter.count() as u64)?;
        for &c in &counter.set_counts() {
            let c = u32::try_from(c)
                .map_err(|_| HdcError::Corrupt(format!("set-bit count {c} exceeds u32")))?;
            writer.write_all(&c.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a trained binarized pixel classifier from `reader`. The
/// returned model is finalized and keeps accepting `partial_fit` updates.
///
/// # Errors
///
/// Returns [`HdcError::Corrupt`] for bad magic or inconsistent payloads,
/// [`HdcError::Io`] on read failure.
pub fn load_binary_classifier<R: Read>(
    mut reader: R,
) -> Result<BinaryClassifier<PixelEncoder>, HdcError> {
    expect_magic(&mut reader, BINARY_MAGIC)?;
    load_binary_body(reader)
}

/// The `HDB1` payload after the magic: encoder config + set-bit counters.
fn load_binary_body<R: Read>(mut reader: R) -> Result<BinaryClassifier<PixelEncoder>, HdcError> {
    let config = read_encoder_config(&mut reader)?;
    let dim = config.dim;
    let num_classes = read_class_count(&mut reader)?;

    let mut counters = Vec::with_capacity(num_classes);
    for class in 0..num_classes {
        let count = read_usize(&mut reader)?;
        let mut counts = Vec::with_capacity(dim);
        let mut buf = [0u8; 4];
        for i in 0..dim {
            reader.read_exact(&mut buf)?;
            let c = u64::from(u32::from_le_bytes(buf));
            if c > count as u64 {
                return Err(HdcError::Corrupt(format!(
                    "class {class} component {i}: set-bit count {c} exceeds bundle size {count}"
                )));
            }
            counts.push(c);
        }
        counters.push(BitCounter::from_set_counts(dim, &counts, count));
    }

    let encoder = PixelEncoder::new(config)?;
    BinaryClassifier::from_counters(encoder, counters)
}

fn expect_magic<R: Read>(reader: &mut R, expected: &[u8; 4]) -> Result<(), HdcError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != expected {
        return Err(HdcError::Corrupt(format!("bad magic {magic:?}")));
    }
    Ok(())
}

fn write_encoder_config<W: Write>(w: &mut W, config: &PixelEncoderConfig) -> Result<(), HdcError> {
    write_u64(w, config.dim as u64)?;
    write_u64(w, config.width as u64)?;
    write_u64(w, config.height as u64)?;
    write_u64(w, config.levels as u64)?;
    write_u64(
        w,
        match config.value_encoding {
            ValueEncoding::Random => 0,
            ValueEncoding::Level => 1,
        },
    )?;
    write_u64(w, config.seed)
}

fn read_encoder_config<R: Read>(r: &mut R) -> Result<PixelEncoderConfig, HdcError> {
    let dim = read_usize(r)?;
    let width = read_usize(r)?;
    let height = read_usize(r)?;
    let levels = read_usize(r)?;
    let value_encoding = match read_u64(r)? {
        0 => ValueEncoding::Random,
        1 => ValueEncoding::Level,
        other => return Err(HdcError::Corrupt(format!("unknown value encoding tag {other}"))),
    };
    let seed = read_u64(r)?;
    if dim == 0 || dim > 1 << 26 {
        return Err(HdcError::Corrupt(format!("implausible dimension {dim}")));
    }
    let config = PixelEncoderConfig { dim, width, height, levels, value_encoding, seed };
    config.check_size()?;
    Ok(config)
}

fn read_class_count<R: Read>(r: &mut R) -> Result<usize, HdcError> {
    let num_classes = read_usize(r)?;
    if num_classes == 0 || num_classes > 1 << 20 {
        return Err(HdcError::Corrupt(format!("implausible class count {num_classes}")));
    }
    Ok(num_classes)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), HdcError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, HdcError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_usize<R: Read>(r: &mut R) -> Result<usize, HdcError> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| HdcError::Corrupt(format!("value {v} exceeds usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 512,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 5,
        })
        .unwrap();
        let mut model = HdcClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[224u8; 16][..], 1).unwrap();
        model.finalize();
        model
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_pixel_classifier(&model, &mut buf).unwrap();
        let loaded = load_pixel_classifier(&buf[..]).unwrap();

        for img in [[0u8; 16], [224u8; 16], [96u8; 16]] {
            let a = model.predict(&img[..]).unwrap();
            let b = loaded.predict(&img[..]).unwrap();
            assert_eq!(a.class, b.class);
            assert!((a.similarity - b.similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_preserves_accumulators() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_pixel_classifier(&model, &mut buf).unwrap();
        let loaded = load_pixel_classifier(&buf[..]).unwrap();
        for c in 0..2 {
            assert_eq!(
                model.associative_memory().accumulator(c).unwrap(),
                loaded.associative_memory().accumulator(c).unwrap()
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE_________________".to_vec();
        assert!(matches!(load_pixel_classifier(&buf[..]), Err(HdcError::Corrupt(_))));
        assert!(matches!(load_binary_classifier(&buf[..]), Err(HdcError::Corrupt(_))));
        assert!(matches!(load_any(&buf[..]), Err(HdcError::Corrupt(_))));
        // The two formats are not interchangeable.
        let mut dense = Vec::new();
        save_pixel_classifier(&trained_model(), &mut dense).unwrap();
        assert!(matches!(load_binary_classifier(&dense[..]), Err(HdcError::Corrupt(_))));
    }

    #[test]
    fn load_any_sniffs_both_formats() {
        use crate::model::{Model, ModelKind};

        let mut dense_buf = Vec::new();
        save_pixel_classifier(&trained_model(), &mut dense_buf).unwrap();
        let dense = load_any(&dense_buf[..]).unwrap();
        assert_eq!(dense.kind(), ModelKind::Dense);
        assert_eq!(
            dense.predict(&[224u8; 16][..]).unwrap().class,
            trained_model().predict(&[224u8; 16][..]).unwrap().class
        );

        let mut binary_buf = Vec::new();
        save_binary_classifier(&trained_binary(), &mut binary_buf).unwrap();
        let binary = load_any(&binary_buf[..]).unwrap();
        assert_eq!(binary.kind(), ModelKind::Binary);
        assert_eq!(
            binary.as_binary().unwrap().predict(&[224u8; 16][..]).unwrap(),
            trained_binary().predict(&[224u8; 16][..]).unwrap()
        );

        // Truncation mid-magic is an IO error, not a panic.
        assert!(load_any(&dense_buf[..2]).is_err());
    }

    #[test]
    fn reloaded_model_keeps_learning_bit_exactly() {
        // Save → load → partial_fit must match never having been saved.
        let mut original = trained_model();
        let mut buf = Vec::new();
        save_pixel_classifier(&original, &mut buf).unwrap();
        let mut reloaded = load_pixel_classifier(&buf[..]).unwrap();

        for (img, label) in [([64u8; 16], 0), ([160u8; 16], 1), ([16u8; 16], 0)] {
            original.partial_fit(&img[..], label).unwrap();
            reloaded.partial_fit(&img[..], label).unwrap();
        }
        for c in 0..2 {
            assert_eq!(
                original.associative_memory().accumulator(c).unwrap(),
                reloaded.associative_memory().accumulator(c).unwrap(),
                "class {c}: counter state diverged after reload"
            );
            assert_eq!(
                original.associative_memory().reference(c).unwrap(),
                reloaded.associative_memory().reference(c).unwrap(),
                "class {c}: references diverged after reload"
            );
        }
    }

    fn trained_binary() -> BinaryClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 300,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 5,
        })
        .unwrap();
        let mut model = BinaryClassifier::new(encoder, 2);
        // Uneven class sizes: one even (tie-prone), one odd.
        for img in [[0u8; 16], [32u8; 16], [64u8; 16], [16u8; 16]] {
            model.train_one(&img[..], 0).unwrap();
        }
        for img in [[224u8; 16], [192u8; 16], [255u8; 16]] {
            model.train_one(&img[..], 1).unwrap();
        }
        model.finalize();
        model
    }

    #[test]
    fn binary_round_trip_preserves_references_and_counters() {
        let model = trained_binary();
        let mut buf = Vec::new();
        save_binary_classifier(&model, &mut buf).unwrap();
        let loaded = load_binary_classifier(&buf[..]).unwrap();
        for c in 0..2 {
            assert_eq!(model.reference(c).unwrap(), loaded.reference(c).unwrap(), "class {c}");
            assert_eq!(
                model.counter(c).unwrap().clone().set_counts(),
                loaded.counter(c).unwrap().clone().set_counts(),
                "class {c} counters"
            );
        }
    }

    #[test]
    fn binary_reload_continues_training_bit_exactly() {
        let mut original = trained_binary();
        let mut buf = Vec::new();
        save_binary_classifier(&original, &mut buf).unwrap();
        let mut reloaded = load_binary_classifier(&buf[..]).unwrap();
        for (img, label) in [([96u8; 16], 0), ([200u8; 16], 1)] {
            original.partial_fit(&img[..], label).unwrap();
            reloaded.partial_fit(&img[..], label).unwrap();
        }
        for c in 0..2 {
            assert_eq!(original.reference(c).unwrap(), reloaded.reference(c).unwrap(), "class {c}");
        }
    }

    #[test]
    fn binary_corrupt_counts_rejected() {
        let model = trained_binary();
        let mut buf = Vec::new();
        save_binary_classifier(&model, &mut buf).unwrap();
        // Header is 4 (magic) + 6×8 (config) + 8 (classes) + 8 (count)
        // bytes; the first u32 after that is a component count. Forge one
        // larger than the class's bundle size.
        let offset = 4 + 48 + 8 + 8;
        buf[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load_binary_classifier(&buf[..]), Err(HdcError::Corrupt(_))));
        // Truncation is an error, not a short model.
        buf.truncate(buf.len() / 3);
        assert!(load_binary_classifier(&buf[..]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_pixel_classifier(&model, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_pixel_classifier(&buf[..]).is_err());
    }

    #[test]
    fn implausible_header_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        for v in [u64::MAX, 4, 4, 8, 0, 5, 2] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(load_pixel_classifier(&buf[..]), Err(HdcError::Corrupt(_))));
    }
}
