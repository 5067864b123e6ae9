//! The paper's image encoder (§III-A).
//!
//! An image is flattened to a pixel array; each pixel's hypervector is the
//! binding of its *position* hypervector and its greyscale *value*
//! hypervector; the image hypervector is the bipolarized bundle of all pixel
//! hypervectors:
//!
//! ```text
//! ImgHV = bipolarize( Σᵢ  PosHV[i] ⊛ ValHV[pixel[i]] )
//! ```
//!
//! Bundling is a sum, so an encode need not start from an empty counter.
//! Each encode starts from the exact state that needs the fewest row adds:
//!
//! * zero — one `PosHV[i] ⊛ ValHV[pixel[i]]` add per pixel (n adds);
//! * the blank (all-background) image's bundle, built once per encoder —
//!   each ink pixel adds the complement of its background row, which
//!   removes it, then its own row (2 adds per ink pixel);
//! * a [`Sketch`] the caller passes to
//!   [`encode_batch_from`](Encoder::encode_batch_from) — the fuzzer passes
//!   each candidate's parent — moving only the pixels whose level differs
//!   (2 adds per differing pixel). It is used only when it was made under
//!   this encoder's exact config;
//! * the sketch of any of the last [`MATES`] inputs of the same batch
//!   call, at the same cost. Fuzz candidates of one round are mutants of a
//!   few survivors, so siblings differ little.
//!
//! A counter that started from `n` rows and took `k` complement-and-add
//! pairs holds `c + k` ones per component at count `n + 2k`, where `c` is
//! the count from zero. Its bipolar sums `2c − n` are unchanged, so the
//! plain [`BitCounter::bipolarize_packed`] (threshold `count / 2`, parity
//! tie-break at even counts) gives the full encode's bits exactly. That
//! holds because the count is only ever the number of vectors added and
//! every added vector has its tail bits cleared.

use crate::encoder::Encoder;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::{self, BitCounter};
use crate::memory::{ItemMemory, LevelMemory, ValueEncoding};

/// How many earlier inputs of one batch call an encode may start from. A
/// default fuzz round holds 9 candidates, so the last one can start from
/// any of the 8 before it.
const MATES: usize = 8;

/// Configuration for [`PixelEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelEncoderConfig {
    /// Hypervector dimension `D` (the paper uses 10,000).
    pub dim: usize,
    /// Image width in pixels (MNIST: 28).
    pub width: usize,
    /// Image height in pixels (MNIST: 28).
    pub height: usize,
    /// Number of greyscale quantization levels (MNIST: 256).
    pub levels: usize,
    /// Scheme for the value memory. The paper uses [`ValueEncoding::Random`].
    pub value_encoding: ValueEncoding,
    /// Master seed for the position and value memories.
    pub seed: u64,
}

impl Default for PixelEncoderConfig {
    /// The paper's MNIST configuration: 28×28, 256 levels, D = 10,000,
    /// random value memory.
    fn default() -> Self {
        Self {
            dim: crate::DEFAULT_DIM,
            width: 28,
            height: 28,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 0,
        }
    }
}

impl PixelEncoderConfig {
    /// Checks, with overflow-checked arithmetic and before anything is
    /// allocated, that the item memories fit under
    /// [`PixelEncoder::MAX_ITEM_COMPONENTS`]. That bounds `width`, `height`
    /// and `levels` too, as each factor is at least 1 in a usable config.
    pub(crate) fn check_size(&self) -> Result<(), HdcError> {
        let components = self
            .width
            .checked_mul(self.height)
            .and_then(|pixels| pixels.checked_add(self.levels))
            .and_then(|items| items.checked_mul(self.dim));
        match components {
            Some(components) if components <= PixelEncoder::MAX_ITEM_COMPONENTS => Ok(()),
            _ => Err(HdcError::Corrupt(format!(
                "implausible pixel encoder: ({} × {} pixels + {} levels) × D = {} exceeds {} \
                 item-memory components",
                self.width,
                self.height,
                self.levels,
                self.dim,
                PixelEncoder::MAX_ITEM_COMPONENTS
            ))),
        }
    }
}

/// An encoded image's bundle state, an exact start for encoding a nearby
/// image: its quantized levels, the planes and count of its flushed
/// counter, and the config of the encoder that made it.
///
/// Opaque: [`Encoder::encode_batch_from`] hands one out per input and
/// takes them back as starts. A [`PixelEncoder`] uses a sketch only when
/// it was made under an equal [`PixelEncoderConfig`] (and so over the same
/// item memories); any other sketch is ignored, never misread.
#[derive(Debug, Clone)]
pub struct Sketch {
    config: PixelEncoderConfig,
    levels: Vec<u8>,
    counter: BitCounter,
}

impl Sketch {
    fn new(config: PixelEncoderConfig, levels: Vec<u8>, flushed: &BitCounter) -> Self {
        let mut counter = BitCounter::new(flushed.dim());
        counter.copy_from(flushed);
        Self { config, levels, counter }
    }

    /// Overwrites this sketch with another image's state under the same
    /// config, reusing its allocations.
    fn set(&mut self, levels: &[u8], flushed: &BitCounter) {
        self.levels.copy_from_slice(levels);
        self.counter.copy_from(flushed);
    }
}

/// Scratch for one encode call: the working counter and the current
/// input's levels.
struct Scratch {
    counter: BitCounter,
    levels: Vec<u8>,
}

impl Scratch {
    fn new(dim: usize) -> Self {
        Self { counter: BitCounter::new(dim), levels: Vec::new() }
    }
}

/// Encodes flattened greyscale images (`&[u8]`, row-major) into
/// hypervectors per the paper's §III-A pipeline.
///
/// ```
/// use hdc::{Encoder, PixelEncoder, PixelEncoderConfig};
///
/// let enc = PixelEncoder::new(PixelEncoderConfig {
///     dim: 2_000, width: 4, height: 4, levels: 16,
///     value_encoding: hdc::ValueEncoding::Random, seed: 1,
/// })?;
/// let image = [5u8; 16];
/// let hv = enc.encode(&image[..])?;
/// assert_eq!(hv.dim(), 2_000);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PixelEncoder {
    positions: ItemMemory,
    values: LevelMemory,
    /// The all-background image: every level 0.
    blank: Sketch,
    config: PixelEncoderConfig,
}

impl PixelEncoder {
    /// The cap on `(width·height + levels)·dim`, the item memories'
    /// component count: 2^30, about 1.2 GB with packed mirrors. The paper's
    /// MNIST configuration (28 × 28 pixels, 256 levels, D = 10,000) needs
    /// 10.4M, so every model `hdtest-cli train` writes with its defaults
    /// passes with a 100× margin.
    pub const MAX_ITEM_COMPONENTS: usize = 1 << 30;

    /// Generates the position memory (`width × height` entries) and value
    /// memory (`levels` entries) from `config.seed`, and bundles the blank
    /// image once as the start state of sparse encodes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Corrupt`] when `(width·height + levels)·dim`
    /// overflows or exceeds [`MAX_ITEM_COMPONENTS`](Self::MAX_ITEM_COMPONENTS),
    /// and [`HdcError::ZeroDimension`] / [`HdcError::EmptyMemory`] when
    /// `dim`, `width × height`, or `levels` is zero.
    pub fn new(config: PixelEncoderConfig) -> Result<Self, HdcError> {
        config.check_size()?;
        let pixels = config.width * config.height;
        let positions = ItemMemory::new(pixels, config.dim, config.seed, "pixel-position")?;
        let values = LevelMemory::new(
            config.levels,
            config.dim,
            config.value_encoding,
            config.seed,
            "pixel-value",
        )?;
        let mut counter = BitCounter::new(config.dim);
        let background = values.get(0)?.packed().words();
        for i in 0..pixels {
            counter.add_bound(positions.get(i)?.packed().words(), background);
        }
        counter.flush();
        let blank = Sketch::new(config, vec![0; pixels], &counter);
        Ok(Self { positions, values, blank, config })
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &PixelEncoderConfig {
        &self.config
    }

    /// Number of pixels expected per image.
    pub fn pixel_count(&self) -> usize {
        self.config.width * self.config.height
    }

    /// The position item memory (one hypervector per pixel index).
    pub fn position_memory(&self) -> &ItemMemory {
        &self.positions
    }

    /// The greyscale value memory.
    pub fn value_memory(&self) -> &LevelMemory {
        &self.values
    }

    /// Quantizes a raw pixel value (0–255) to a value-memory level.
    ///
    /// With 256 levels this is the identity; with fewer levels the range is
    /// divided evenly.
    pub fn quantize(&self, value: u8) -> usize {
        let levels = self.config.levels;
        if levels >= 256 {
            usize::from(value)
        } else {
            usize::from(value) * levels / 256
        }
    }

    /// Ensures every item-memory hypervector carries its packed mirror, so
    /// encoding (and concurrent encode batches) never pack lazily.
    pub fn warm_packed(&self) {
        for i in 0..self.pixel_count() {
            if let Ok(hv) = self.positions.get(i) {
                let _ = hv.packed();
            }
        }
        for level in 0..self.config.levels {
            if let Ok(hv) = self.values.get(level) {
                let _ = hv.packed();
            }
        }
    }

    /// The word-packed encoding kernel: per pixel, the position and value
    /// mirrors fuse straight into the bit-sliced bundle counter
    /// ([`BitCounter::add_bound`] — the bound vector never exists outside
    /// it); the bundle bipolarizes by word-parallel threshold comparison,
    /// never materializing integer sums. The counter starts from the
    /// cheapest exact state among zero, the blank image and `starts` (see
    /// the [module docs](self)); every start must be of this config. Leaves
    /// the input's levels and flushed counter in `scratch`. Bit-for-bit
    /// equal, including parity ties, to [`encode_reference`](Self::encode_reference).
    fn encode_into<'s>(
        &'s self,
        pixels: &[u8],
        starts: impl Iterator<Item = &'s Sketch>,
        scratch: &mut Scratch,
    ) -> Result<Hypervector, HdcError> {
        let expected = self.pixel_count();
        if pixels.len() != expected {
            return Err(HdcError::InputShapeMismatch { expected, actual: pixels.len() });
        }
        let Scratch { counter, levels } = scratch;
        levels.clear();
        levels.extend(pixels.iter().map(|&p| {
            u8::try_from(self.quantize(p)).expect("quantize maps a byte to a level below 256")
        }));

        let mut start = None;
        let mut adds = expected;
        for candidate in std::iter::once(&self.blank).chain(starts) {
            debug_assert_eq!(candidate.config, self.config);
            let moves =
                2 * candidate.levels.iter().zip(levels.iter()).filter(|(a, b)| a != b).count();
            if moves < adds {
                (start, adds) = (Some(candidate), moves);
            }
        }
        match start {
            None => {
                counter.clear();
                for (i, &level) in levels.iter().enumerate() {
                    counter.add_bound(self.position(i)?, self.value(level)?);
                }
            }
            Some(start) => {
                counter.copy_from(&start.counter);
                for (i, (&from, &to)) in start.levels.iter().zip(levels.iter()).enumerate() {
                    if from != to {
                        let position = self.position(i)?;
                        counter.add_bound_complement(position, self.value(from)?);
                        counter.add_bound(position, self.value(to)?);
                    }
                }
            }
        }
        Ok(crate::encoder::finalize_counter(counter, self.config.dim))
    }

    /// Encodes `inputs` in order. Input `k` may also start from
    /// `starts[k]`, if present and of this config, and from the sketch of
    /// any of the previous [`MATES`] inputs. With `keep_all` every input's
    /// sketch is returned, in input order; otherwise only the sketches a
    /// later input can start from are kept, in a ring that reuses their
    /// allocations, and the caller drops them.
    fn encode_run(
        &self,
        inputs: &[&[u8]],
        starts: &[Option<&Sketch>],
        keep_all: bool,
    ) -> Result<(Vec<Hypervector>, Vec<Sketch>), HdcError> {
        let mut scratch = Scratch::new(self.config.dim);
        let mut encoded = Vec::with_capacity(inputs.len());
        let mut sketches: Vec<Sketch> = Vec::new();
        for (k, pixels) in inputs.iter().enumerate() {
            let parent = starts.get(k).copied().flatten().filter(|s| s.config == self.config);
            let mates = &sketches[sketches.len().saturating_sub(MATES)..];
            encoded.push(self.encode_into(
                pixels,
                parent.into_iter().chain(mates),
                &mut scratch,
            )?);
            if keep_all || (sketches.len() < MATES && k + 1 < inputs.len()) {
                sketches.push(Sketch::new(self.config, scratch.levels.clone(), &scratch.counter));
            } else if k + 1 < inputs.len() {
                sketches[k % MATES].set(&scratch.levels, &scratch.counter);
            }
        }
        Ok((encoded, sketches))
    }

    fn position(&self, index: usize) -> Result<&[u64], HdcError> {
        Ok(self.positions.get(index)?.packed().words())
    }

    fn value(&self, level: u8) -> Result<&[u64], HdcError> {
        Ok(self.values.get(usize::from(level))?.packed().words())
    }

    /// Scalar reference encoding — the seed's `sums[d] += pos[d] * val[d]`
    /// loop, running entirely on [`crate::kernel::reference`] scalar ops.
    /// Kept as the correctness oracle for property tests and the baseline
    /// for `benches/kernels.rs`; bit-identical to [`Encoder::encode`].
    ///
    /// # Errors
    ///
    /// Same as [`Encoder::encode`].
    pub fn encode_reference(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        let expected = self.pixel_count();
        if pixels.len() != expected {
            return Err(HdcError::InputShapeMismatch { expected, actual: pixels.len() });
        }
        let mut sums = vec![0i32; self.config.dim];
        for (i, &p) in pixels.iter().enumerate() {
            let pos = self.positions.get(i)?.as_slice();
            let val = self.values.get(self.quantize(p))?.as_slice();
            kernel::reference::accumulate_scalar(
                &mut sums,
                &kernel::reference::bind_scalar(pos, val),
            );
        }
        Ok(crate::encoder::bipolarize_sums(&sums))
    }
}

impl Encoder for PixelEncoder {
    type Input = [u8];

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        self.encode_into(pixels, std::iter::empty(), &mut Scratch::new(self.config.dim))
    }

    fn warm_up(&self) {
        self.warm_packed();
    }

    fn encode_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Hypervector>, HdcError> {
        // One scratch serves the whole batch: the counter's allocations
        // are reused, and each input may start from an earlier one.
        Ok(self.encode_run(inputs, &[], false)?.0)
    }

    fn encode_batch_from(
        &self,
        inputs: &[&[u8]],
        starts: &[Option<&Sketch>],
    ) -> Result<Vec<(Hypervector, Option<Sketch>)>, HdcError> {
        let (encoded, sketches) = self.encode_run(inputs, starts, true)?;
        Ok(encoded.into_iter().zip(sketches.into_iter().map(Some)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::bipolarize_sums;
    use crate::similarity::cosine;

    fn encoder(dim: usize, side: usize, levels: usize) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: side,
            height: side,
            levels,
            value_encoding: ValueEncoding::Random,
            seed: 123,
        })
        .unwrap()
    }

    #[test]
    fn packed_encode_matches_scalar_bundling() {
        // The bit-sliced kernel must reproduce the scalar
        // `sums[d] += pos[d] * val[d]` bundling bit-for-bit, including the
        // parity tie-break, at a dim that exercises tail masking.
        let enc = encoder(1_000, 4, 16);
        let img: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        let hv = enc.encode(&img[..]).unwrap();

        let mut sums = vec![0i32; 1_000];
        for (i, &p) in img.iter().enumerate() {
            let pos = enc.position_memory().get(i).unwrap().as_slice();
            let val = enc.value_memory().get(enc.quantize(p)).unwrap().as_slice();
            for ((s, &a), &b) in sums.iter_mut().zip(pos).zip(val) {
                *s += i32::from(a * b);
            }
        }
        assert_eq!(hv, bipolarize_sums(&sums));
        assert_eq!(hv, enc.encode_reference(&img[..]).unwrap());
    }

    #[test]
    fn encode_batch_matches_encode_loop() {
        let enc = encoder(2_000, 4, 16);
        let images: Vec<Vec<u8>> = (0..5u8).map(|k| vec![k * 40; 16]).collect();
        let inputs: Vec<&[u8]> = images.iter().map(|i| &i[..]).collect();
        let batched = enc.encode_batch(&inputs).unwrap();
        for (input, hv) in inputs.iter().zip(&batched) {
            assert_eq!(*hv, enc.encode(input).unwrap());
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let enc = encoder(1_000, 4, 16);
        let img = [7u8; 16];
        assert_eq!(enc.encode(&img[..]).unwrap(), enc.encode(&img[..]).unwrap());
    }

    #[test]
    fn encode_rejects_wrong_shape() {
        let enc = encoder(500, 4, 16);
        let short = [0u8; 15];
        assert!(matches!(
            enc.encode(&short[..]),
            Err(HdcError::InputShapeMismatch { expected: 16, actual: 15 })
        ));
    }

    #[test]
    fn identical_images_max_similarity() {
        let enc = encoder(2_000, 6, 256);
        let img = [100u8; 36];
        let a = enc.encode(&img[..]).unwrap();
        let b = enc.encode(&img[..]).unwrap();
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similar_images_more_similar_than_different() {
        let enc = encoder(10_000, 8, 256);
        let base = [200u8; 64];
        let mut near = base;
        near[0] = 0; // one changed pixel
        let mut far = [0u8; 64];
        far.iter_mut().enumerate().for_each(|(i, p)| *p = (i * 4) as u8);

        let hv_base = enc.encode(&base[..]).unwrap();
        let hv_near = enc.encode(&near[..]).unwrap();
        let hv_far = enc.encode(&far[..]).unwrap();
        let sim_near = cosine(&hv_base, &hv_near);
        let sim_far = cosine(&hv_base, &hv_far);
        assert!(
            sim_near > sim_far,
            "one-pixel change ({sim_near}) should stay closer than a different image ({sim_far})"
        );
        // The exact value depends on the item-memory draw (and therefore on
        // the RNG stream); 63/64 shared pixels lands near 0.9 ± a few
        // hundredths for any seed.
        assert!(sim_near > 0.85, "63/64 shared pixels should be highly similar: {sim_near}");
    }

    #[test]
    fn random_value_memory_makes_levels_orthogonal() {
        // With the paper's random value memory, changing every pixel by one
        // grey level yields an almost-orthogonal image hypervector — the
        // brittleness HDTest exploits.
        // 9×9 = 81 pixels: an odd pixel count means bundling sums are never
        // zero, so no tie-break correlation clouds the measurement.
        let enc = encoder(10_000, 9, 256);
        let base = [100u8; 81];
        let shifted = [101u8; 81];
        let a = enc.encode(&base[..]).unwrap();
        let b = enc.encode(&shifted[..]).unwrap();
        assert!(cosine(&a, &b).abs() < 0.06);
    }

    #[test]
    fn level_value_memory_preserves_small_changes() {
        let enc = PixelEncoder::new(PixelEncoderConfig {
            dim: 10_000,
            width: 9,
            height: 9,
            levels: 256,
            value_encoding: ValueEncoding::Level,
            seed: 123,
        })
        .unwrap();
        let base = [100u8; 81];
        let shifted = [101u8; 81];
        let a = enc.encode(&base[..]).unwrap();
        let b = enc.encode(&shifted[..]).unwrap();
        assert!(cosine(&a, &b) > 0.9, "level encoding keeps ±1 changes similar");
    }

    #[test]
    fn quantize_identity_at_256_levels() {
        let enc = encoder(100, 2, 256);
        assert_eq!(enc.quantize(0), 0);
        assert_eq!(enc.quantize(255), 255);
        assert_eq!(enc.quantize(128), 128);
    }

    #[test]
    fn quantize_buckets_at_fewer_levels() {
        let enc = encoder(100, 2, 4);
        assert_eq!(enc.quantize(0), 0);
        assert_eq!(enc.quantize(63), 0);
        assert_eq!(enc.quantize(64), 1);
        assert_eq!(enc.quantize(255), 3);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = PixelEncoderConfig::default();
        assert_eq!(c.dim, 10_000);
        assert_eq!(c.width, 28);
        assert_eq!(c.height, 28);
        assert_eq!(c.levels, 256);
        assert_eq!(c.value_encoding, ValueEncoding::Random);
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let a = PixelEncoder::new(PixelEncoderConfig {
            seed: 1,
            dim: 1_000,
            width: 4,
            height: 4,
            levels: 16,
            value_encoding: ValueEncoding::Random,
        })
        .unwrap();
        let b = PixelEncoder::new(PixelEncoderConfig {
            seed: 2,
            dim: 1_000,
            width: 4,
            height: 4,
            levels: 16,
            value_encoding: ValueEncoding::Random,
        })
        .unwrap();
        let img = [3u8; 16];
        assert_ne!(a.encode(&img[..]).unwrap(), b.encode(&img[..]).unwrap());
    }
}
