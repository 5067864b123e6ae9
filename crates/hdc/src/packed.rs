//! Bit-packed binary hypervectors.
//!
//! Dense *binary* HDC (components in `{0, 1}`) admits a 64×-denser
//! representation than bipolar `Vec<i8>`: one bit per component, with
//! Hamming distance computed by XOR + popcount. This is the representation
//! hardware implementations use (the paper cites Schmuck et al., JETC 2019,
//! on binarized bundling and combinational associative memories) — and, via
//! [`crate::kernel`], it is also the internal compute representation of the
//! dense bipolar pipeline: every [`crate::Hypervector`] lazily maintains a
//! `PackedHypervector` mirror that the similarity hot path runs on.
//!
//! Mapping: bipolar `+1` ↔ bit `1`, bipolar `-1` ↔ bit `0`. Binding (⊛)
//! becomes XNOR (implemented as `!(a ^ b)` with tail masking); bundling is
//! bitwise majority.
//!
//! The word-level compute under these operations (pack, XOR + popcount,
//! plane logic) is tiered: [`crate::kernel`] dispatches each call to the
//! best [`crate::kernel::Backend`] the CPU supports — portable `u64` code
//! everywhere, AVX2 on x86-64 that has it — and every tier is pinned
//! bit-exact against the scalar reference oracles, so nothing at this
//! level changes meaning with the backend, only speed.
//!
//! ## Worked example
//!
//! ```
//! use hdc::{Hypervector, PackedHypervector};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let a = Hypervector::random(1_000, &mut rng);
//! let b = Hypervector::random(1_000, &mut rng);
//!
//! let (pa, pb) = (PackedHypervector::from(&a), PackedHypervector::from(&b));
//! // Hamming via XOR + popcount agrees with the component-wise count.
//! let scalar = a.as_slice().iter().zip(b.as_slice()).filter(|(x, y)| x != y).count();
//! assert_eq!(pa.hamming_distance(&pb), scalar);
//! // dot = D − 2·hamming for bipolar vectors.
//! assert_eq!(pa.dot(&pb), 1_000 - 2 * scalar as i64);
//! // Packing round-trips exactly.
//! assert_eq!(PackedHypervector::pack(a.as_slice()), pa);
//! ```

use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A binary hypervector packed 64 components per machine word.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedHypervector {
    words: Vec<u64>,
    dim: usize,
}

impl PackedHypervector {
    /// Draws a fresh random packed hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn random(dim: usize, rng: &mut StdRng) -> Self {
        assert!(dim > 0, "hypervector dimension must be non-zero");
        let n_words = kernel::words_for(dim);
        let mut words: Vec<u64> = (0..n_words).map(|_| rng.gen()).collect();
        kernel::mask_tail(&mut words, dim);
        Self { words, dim }
    }

    /// All-zero packed hypervector (bipolar all `-1`).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be non-zero");
        Self { words: vec![0; kernel::words_for(dim)], dim }
    }

    /// Packs raw bipolar components (`+1 → 1`, `-1 → 0`) with the word-level
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn pack(components: &[i8]) -> Self {
        assert!(!components.is_empty(), "hypervector dimension must be non-zero");
        Self { words: kernel::pack_words(components), dim: components.len() }
    }

    /// Builds a packed hypervector from raw words; the caller guarantees
    /// tail bits beyond `dim` are zero.
    pub(crate) fn from_words_unchecked(words: Vec<u64>, dim: usize) -> Self {
        debug_assert_eq!(words.len(), kernel::words_for(dim));
        debug_assert!(dim.is_multiple_of(64) || words.last().is_none_or(|w| w >> (dim % 64) == 0));
        Self { words, dim }
    }

    /// The dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the packed words. Bits at positions `>= dim` in the last
    /// word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads the bit (component) at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.dim, "bit index {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit (component) at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.dim, "bit index {index} out of range");
        let w = &mut self.words[index / 64];
        if value {
            *w |= 1 << (index % 64);
        } else {
            *w &= !(1 << (index % 64));
        }
    }

    /// Binding for binary hypervectors: XNOR, the packed equivalent of
    /// bipolar elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn bind(&self, other: &Self) -> Result<Self, HdcError> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        Ok(Self { words: kernel::bind_words(&self.words, &other.words, self.dim), dim: self.dim })
    }

    /// Cyclic right-shift by `amount` bit positions (permutation ρ),
    /// computed as a word-level rotate with carry.
    pub fn permute(&self, amount: usize) -> Self {
        Self { words: kernel::rotate_words(&self.words, self.dim, amount), dim: self.dim }
    }

    /// Flips every component (`NOT` with tail masking) — the packed
    /// equivalent of bipolar negation.
    pub fn negate(&self) -> Self {
        Self { words: kernel::negate_words(&self.words, self.dim), dim: self.dim }
    }

    /// Hamming distance via XOR + popcount.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming_distance(&self, other: &Self) -> usize {
        assert_eq!(self.dim, other.dim, "hamming: dimension mismatch");
        kernel::hamming_words(&self.words, &other.words)
    }

    /// Integer dot product of the corresponding bipolar vectors, via
    /// `dot = D − 2·hamming`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Self) -> i64 {
        assert_eq!(self.dim, other.dim, "dot: dimension mismatch");
        kernel::dot_words(&self.words, &other.words, self.dim)
    }

    /// Normalized Hamming distance in `[0, 1]`.
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming_distance(other) as f64 / self.dim as f64
    }

    /// Bitwise majority of an odd number of packed hypervectors (binarized
    /// bundling). Ties cannot occur with an odd operand count.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyMemory`] for an empty slice and
    /// [`HdcError::DimensionMismatch`] on inconsistent dimensions. An even
    /// count is accepted; ties resolve toward `0`.
    pub fn majority(vectors: &[Self]) -> Result<Self, HdcError> {
        let first = vectors.first().ok_or(HdcError::EmptyMemory)?;
        let dim = first.dim;
        let mut counter = kernel::BitCounter::new(dim);
        for v in vectors {
            if v.dim != dim {
                return Err(HdcError::DimensionMismatch { expected: dim, actual: v.dim });
            }
            counter.add(&v.words);
        }
        // Strict majority: `2c > n ⇔ c > ⌊n/2⌋` for either parity of `n`,
        // so even-count ties resolve toward `0`.
        let words = counter.threshold_packed((vectors.len() / 2) as u64);
        Ok(Self { words, dim })
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl From<&Hypervector> for PackedHypervector {
    /// Packs a bipolar hypervector (`+1 → 1`, `-1 → 0`); reuses the
    /// hypervector's cached packed mirror when it exists.
    fn from(hv: &Hypervector) -> Self {
        hv.packed().clone()
    }
}

impl From<&PackedHypervector> for Hypervector {
    /// Converts to bipolar form, `1 → +1` and `0 → -1`, unpacked on the
    /// first component read.
    fn from(p: &PackedHypervector) -> Self {
        Hypervector::from_packed(p.clone())
    }
}

impl fmt::Debug for PackedHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedHypervector(dim={}, ones={})", self.dim, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut r = rng();
        let hv = Hypervector::random(1_000, &mut r);
        let packed = PackedHypervector::from(&hv);
        let back = Hypervector::from(&packed);
        assert_eq!(hv, back);
    }

    #[test]
    fn hamming_matches_bipolar_hamming() {
        let mut r = rng();
        let a = Hypervector::random(777, &mut r);
        let b = Hypervector::random(777, &mut r);
        let pa = PackedHypervector::from(&a);
        let pb = PackedHypervector::from(&b);
        assert_eq!(pa.hamming_distance(&pb), a.hamming_distance(&b).unwrap());
    }

    #[test]
    fn dot_matches_bipolar_dot() {
        let mut r = rng();
        let a = Hypervector::random(321, &mut r);
        let b = Hypervector::random(321, &mut r);
        let pa = PackedHypervector::from(&a);
        let pb = PackedHypervector::from(&b);
        assert_eq!(pa.dot(&pb), crate::similarity::dot(&a, &b));
    }

    #[test]
    fn bind_matches_bipolar_bind() {
        let mut r = rng();
        let a = Hypervector::random(130, &mut r);
        let b = Hypervector::random(130, &mut r);
        let bound = a.bind(&b).unwrap();
        let packed_bound = PackedHypervector::from(&a).bind(&PackedHypervector::from(&b)).unwrap();
        assert_eq!(PackedHypervector::from(&bound), packed_bound);
    }

    #[test]
    fn permute_matches_bipolar_permute() {
        let mut r = rng();
        let a = Hypervector::random(100, &mut r);
        for k in [0, 1, 37, 99] {
            let expected = PackedHypervector::from(&a.permute(k));
            let actual = PackedHypervector::from(&a).permute(k);
            assert_eq!(expected, actual, "k = {k}");
        }
    }

    #[test]
    fn negate_matches_bipolar_negate() {
        let mut r = rng();
        let a = Hypervector::random(70, &mut r);
        assert_eq!(PackedHypervector::from(&a.negate()), PackedHypervector::from(&a).negate());
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut r = rng();
        // dim not a multiple of 64 exercises tail masking.
        let p = PackedHypervector::random(70, &mut r);
        let last = *p.words().last().unwrap();
        assert_eq!(last >> 6, 0, "tail bits must be masked");
        let q = PackedHypervector::random(70, &mut r);
        let bound = p.bind(&q).unwrap();
        assert_eq!(*bound.words().last().unwrap() >> 6, 0);
        let negated = p.negate();
        assert_eq!(*negated.words().last().unwrap() >> 6, 0);
    }

    #[test]
    fn majority_of_three() {
        let mut r = rng();
        let vs: Vec<PackedHypervector> =
            (0..3).map(|_| PackedHypervector::random(2_048, &mut r)).collect();
        let maj = PackedHypervector::majority(&vs).unwrap();
        // Majority must be closer to each operand than to a random vector.
        let unrelated = PackedHypervector::random(2_048, &mut r);
        for v in &vs {
            assert!(maj.hamming_distance(v) < maj.hamming_distance(&unrelated));
        }
    }

    #[test]
    fn majority_matches_per_bit_counting() {
        let mut r = rng();
        // Both parities of n (even ties resolve to 0) across a tail dim.
        for n in [2usize, 3, 4, 9, 12] {
            let vs: Vec<PackedHypervector> =
                (0..n).map(|_| PackedHypervector::random(130, &mut r)).collect();
            let maj = PackedHypervector::majority(&vs).unwrap();
            for i in 0..130 {
                let c = vs.iter().filter(|v| v.bit(i)).count();
                assert_eq!(maj.bit(i), 2 * c > n, "n {n} bit {i}");
            }
        }
    }

    #[test]
    fn majority_rejects_empty_and_mismatched() {
        assert!(PackedHypervector::majority(&[]).is_err());
        let mut r = rng();
        let a = PackedHypervector::random(64, &mut r);
        let b = PackedHypervector::random(65, &mut r);
        assert!(PackedHypervector::majority(&[a, b]).is_err());
    }

    #[test]
    fn set_and_get_bits() {
        let mut p = PackedHypervector::zeros(100);
        p.set_bit(0, true);
        p.set_bit(63, true);
        p.set_bit(64, true);
        p.set_bit(99, true);
        assert!(p.bit(0) && p.bit(63) && p.bit(64) && p.bit(99));
        assert!(!p.bit(1) && !p.bit(65));
        assert_eq!(p.count_ones(), 4);
        p.set_bit(0, false);
        assert!(!p.bit(0));
        assert_eq!(p.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let p = PackedHypervector::zeros(10);
        let _ = p.bit(10);
    }

    #[test]
    fn bind_self_is_all_ones() {
        let mut r = rng();
        let p = PackedHypervector::random(200, &mut r);
        let bound = p.bind(&p).unwrap();
        assert_eq!(bound.count_ones(), 200);
    }
}
