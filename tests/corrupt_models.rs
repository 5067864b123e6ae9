//! A model file is untrusted input: a corrupt header must come back as
//! `HdcError::Corrupt`, never as a panic or an allocation sized by the
//! header. Each file here is a valid 108-byte model (D = 10, one class)
//! with one header field set to an implausible value.

use hdc::io::load_any;
use hdc::{HdcError, PixelEncoder, PixelEncoderConfig, ValueEncoding};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DIM: u64 = 10;

/// An `HDC1` (dense) or `HDB1` (binary) file for a `width × height`
/// encoder with `levels` levels, holding one all-zero class.
fn model_file(magic: &[u8; 4], width: u64, height: u64, levels: u64) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    for field in [DIM, width, height, levels, 0, 7, 1, 0] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.resize(bytes.len() + 4 * DIM as usize, 0);
    bytes
}

fn load(bytes: &[u8]) -> Result<hdc::AnyModel, HdcError> {
    catch_unwind(AssertUnwindSafe(|| load_any(bytes))).expect("load_any must not panic")
}

#[test]
fn well_formed_small_model_loads() {
    for magic in [b"HDC1", b"HDB1"] {
        let bytes = model_file(magic, 2, 2, 4);
        assert_eq!(bytes.len(), 108);
        load(&bytes).expect("a well-formed model loads");
    }
}

#[test]
fn implausible_encoder_headers_are_corrupt_not_panics() {
    for magic in [b"HDC1", b"HDB1"] {
        for (width, height, levels) in
            [(28, 28, 1 << 61), (1 << 60, 28, 256), (1 << 32, 1 << 32, 256)]
        {
            let result = load(&model_file(magic, width, height, levels));
            assert!(
                matches!(result, Err(HdcError::Corrupt(_))),
                "{width}×{height}, {levels} levels: {result:?}"
            );
        }
    }
}

#[test]
fn oversized_encoder_config_is_an_error() {
    let config = PixelEncoderConfig {
        dim: 10_000,
        width: 1 << 32,
        height: 1 << 32,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: 0,
    };
    assert!(matches!(PixelEncoder::new(config), Err(HdcError::Corrupt(_))));
    // The paper's configuration, what `hdtest-cli train` writes by default,
    // is far under the cap.
    let paper = PixelEncoderConfig::default();
    assert!(
        (paper.width * paper.height + paper.levels) * paper.dim
            <= PixelEncoder::MAX_ITEM_COMPONENTS / 100
    );
}
