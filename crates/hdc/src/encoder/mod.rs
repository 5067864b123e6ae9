//! Application encoders: mapping raw inputs to hypervectors.
//!
//! The paper notes (§I) that HDC encoding is application-specific; HDTest
//! therefore assumes only a greybox interface. This module provides the
//! paper's pixel encoder (§III-A) plus three encoders representative of the
//! applications the paper cites — n-gram text (language identification),
//! record/feature (biosignals), and time-series (voice) — all behind the
//! uniform [`Encoder`] trait so the fuzzer works against any of them.
//!
//! Encoding is deterministic: the item memories are fixed at construction
//! and bipolarization ties break by component parity, never by a live RNG.
//! A testing tool must be able to re-encode the same input to the same
//! hypervector, otherwise prediction discrepancies could come from the
//! encoder instead of the mutation.
//!
//! Every encoder runs fully packed: bind (XNOR) and permute (word rotate)
//! operate on the item memories' bit-packed mirrors, windows/fields fuse
//! straight into a bit-sliced [`crate::kernel::BitCounter`] bundle, and
//! bipolarization is a word-parallel threshold comparison. The scalar
//! loops this replaced survive as per-encoder `encode_reference` methods —
//! the correctness oracles (bit-exact, including parity tie-breaks) and
//! bench baselines.

mod ngram;
mod permute_pixel;
mod pixel;
mod record;
mod timeseries;

pub use ngram::{NgramEncoder, NgramEncoderConfig};
pub use permute_pixel::{PermutePixelEncoder, PermutePixelEncoderConfig};
pub use pixel::{PixelEncoder, PixelEncoderConfig, Sketch};
pub use record::{RecordEncoder, RecordEncoderConfig};
pub use timeseries::{TimeSeriesEncoder, TimeSeriesEncoderConfig};

use crate::error::HdcError;
use crate::hypervector::Hypervector;

/// Maps inputs of the associated [`Input`](Encoder::Input) type to
/// hypervectors of a fixed dimension.
///
/// Implementations must be pure: the same input always encodes to the same
/// hypervector. All randomness lives in the item memories generated at
/// construction time from an explicit seed.
pub trait Encoder: Send + Sync {
    /// The raw input type (e.g. `[u8]` pixel arrays, `[f64]` records).
    type Input: ?Sized;

    /// Dimension of produced hypervectors.
    fn dim(&self) -> usize;

    /// Encodes `input` into its representative hypervector.
    ///
    /// # Errors
    ///
    /// Implementations return [`HdcError::InputShapeMismatch`] or
    /// [`HdcError::ValueOutOfRange`] when `input` does not match the shape
    /// the encoder was configured for.
    fn encode(&self, input: &Self::Input) -> Result<Hypervector, HdcError>;

    /// Encodes a batch of inputs, in input order. The default loops
    /// [`encode`](Self::encode); encoders with per-call scratch (like
    /// [`PixelEncoder`]) override this to reuse it across the batch.
    /// Results are identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// Same as [`encode`](Self::encode), failing on the first bad input.
    fn encode_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Hypervector>, HdcError> {
        inputs.iter().map(|input| self.encode(input)).collect()
    }

    /// Encodes a batch like [`encode_batch`](Self::encode_batch), where
    /// input `k` may start from `starts[k]` (a missing entry means no
    /// start), and returns each input's [`Sketch`] beside its hypervector,
    /// ready to be passed back as a start for a nearby input. Hypervectors
    /// are identical to [`encode`](Self::encode)'s whatever the starts: an
    /// encoder ignores a sketch it cannot use. The default is
    /// `encode_batch` with no sketches; [`PixelEncoder`] overrides it.
    ///
    /// # Errors
    ///
    /// Same as [`encode_batch`](Self::encode_batch).
    fn encode_batch_from(
        &self,
        inputs: &[&Self::Input],
        starts: &[Option<&Sketch>],
    ) -> Result<Vec<(Hypervector, Option<Sketch>)>, HdcError> {
        let _ = starts;
        Ok(self.encode_batch(inputs)?.into_iter().map(|hv| (hv, None)).collect())
    }

    /// One-time preparation before heavy or concurrent encoding (e.g.
    /// forcing item-memory packed mirrors so parallel workers don't race
    /// to build them lazily). Idempotent; the default does nothing.
    fn warm_up(&self) {}
}

impl<E: Encoder + ?Sized> Encoder for &E {
    type Input = E::Input;

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn encode(&self, input: &Self::Input) -> Result<Hypervector, HdcError> {
        (**self).encode(input)
    }

    fn encode_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Hypervector>, HdcError> {
        (**self).encode_batch(inputs)
    }

    fn encode_batch_from(
        &self,
        inputs: &[&Self::Input],
        starts: &[Option<&Sketch>],
    ) -> Result<Vec<(Hypervector, Option<Sketch>)>, HdcError> {
        (**self).encode_batch_from(inputs, starts)
    }

    fn warm_up(&self) {
        (**self).warm_up();
    }
}

/// Finalizes a packed bundle counter into a hypervector: bipolarize by
/// word-parallel threshold comparison (never materializing integer sums)
/// into a hypervector of packed words, whose components unpack only if
/// read. Bit-identical — including parity
/// tie-breaks — to [`bipolarize_sums`] over the counter's integer sums,
/// which is what every encoder's `encode_reference` scalar oracle uses.
pub(crate) fn finalize_counter(counter: &mut crate::kernel::BitCounter, dim: usize) -> Hypervector {
    let packed =
        crate::packed::PackedHypervector::from_words_unchecked(counter.bipolarize_packed(), dim);
    Hypervector::from_packed(packed)
}

/// Bundles one permuted window product into `counter`:
/// `ρ^{len-1}(item(0)) ⊛ ρ^{len-2}(item(1)) ⊛ … ⊛ ρ⁰(item(len-1))`, folded
/// with word-level rotate + XNOR in the `win`/`rot` scratch buffers. The
/// last item needs no rotation, so it fuses straight into the counter via
/// [`BitCounter::add_bound`](crate::kernel::BitCounter::add_bound). Shared
/// by the n-gram and time-series encoders (their windowed folds differ
/// only in the item lookup).
pub(crate) fn add_window_product<'a>(
    counter: &mut crate::kernel::BitCounter,
    win: &mut [u64],
    rot: &mut [u64],
    dim: usize,
    len: usize,
    item: impl Fn(usize) -> Result<&'a crate::packed::PackedHypervector, HdcError>,
) -> Result<(), HdcError> {
    let last = item(len - 1)?;
    if len == 1 {
        counter.add(last.words());
        return Ok(());
    }
    crate::kernel::rotate_words_into(item(0)?.words(), dim, len - 1, win);
    for offset in 1..len - 1 {
        crate::kernel::rotate_words_into(item(offset)?.words(), dim, len - 1 - offset, rot);
        crate::kernel::bind_words_assign(win, rot, dim);
    }
    counter.add_bound(win, last.words());
    Ok(())
}

/// Bipolarizes raw componentwise sums deterministically.
///
/// Positive sums map to `+1`, negative to `-1`; exact zeros break by
/// component parity (even index → `+1`), which is unbiased across the vector
/// yet reproducible (Eq. 1 of the paper uses a random choice; determinism is
/// required here so encoding stays a pure function).
pub(crate) fn bipolarize_sums(sums: &[i32]) -> Hypervector {
    let components: Vec<i8> = sums
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if s > 0 {
                1
            } else if s < 0 {
                -1
            } else if i % 2 == 0 {
                1
            } else {
                -1
            }
        })
        .collect();
    // Derive the packed mirror straight from the sums so finalized
    // reference vectors enter the associative memory ready for the
    // word-packed similarity kernels (no lazy pack on first classify).
    let packed = crate::packed::PackedHypervector::from_words_unchecked(
        crate::kernel::pack_sums(sums),
        sums.len(),
    );
    Hypervector::with_mirror(components, packed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipolarize_sums_signs() {
        let hv = bipolarize_sums(&[3, -2, 0, 0, 7, -1]);
        assert_eq!(hv.as_slice(), &[1, -1, 1, -1, 1, -1]);
    }

    #[test]
    fn bipolarize_sums_is_deterministic() {
        let sums = vec![0i32; 100];
        assert_eq!(bipolarize_sums(&sums), bipolarize_sums(&sums));
    }

    #[test]
    fn encoder_impl_for_reference() {
        let enc = PixelEncoder::new(PixelEncoderConfig {
            dim: 64,
            width: 2,
            height: 2,
            levels: 4,
            value_encoding: crate::memory::ValueEncoding::Random,
            seed: 1,
        })
        .unwrap();
        let by_ref: &PixelEncoder = &enc;
        assert_eq!(Encoder::dim(&by_ref), 64);
        let input = [0u8, 1, 2, 3];
        assert_eq!(by_ref.encode(&input[..]).unwrap(), enc.encode(&input[..]).unwrap());
    }
}
