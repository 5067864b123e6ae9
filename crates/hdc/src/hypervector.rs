//! Dense bipolar hypervectors.
//!
//! A [`Hypervector`] is the fundamental building block of HDC: a
//! high-dimensional vector whose components are independently and identically
//! distributed over `{-1, +1}`. Random hypervectors of dimension `D ≈ 10,000`
//! are quasi-orthogonal with overwhelming probability, which is what makes
//! holographic superposition (bundling) and binding work.
//!
//! A hypervector holds two forms of the same components, each built from
//! the other on first use: the `Vec<i8>` components and the bit-packed words.
//! Random draws and component-wise arithmetic start from the components;
//! encoders and word-level binds start from the words, and whoever only
//! scans them (the associative memory, a served predict) never unpacks.

use crate::error::HdcError;
use crate::kernel;
use crate::packed::PackedHypervector;
use crate::rng::random_bipolar;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::OnceLock;

/// A dense bipolar hypervector with components in `{-1, +1}`.
///
/// The user-facing representation is `Vec<i8>`, so binding is a single
/// elementwise multiply and components index naturally. Internally every
/// hypervector also has a **bit-packed mirror** ([`packed`](Self::packed)):
/// 64 components per `u64` word, carried through [`bind`](Self::bind) /
/// [`permute`](Self::permute) / [`negate`](Self::negate) at word-level
/// cost. The similarity hot path ([`crate::dot`], [`crate::cosine`],
/// [`crate::hamming`]) runs entirely on the mirror via XOR + popcount and
/// the identity `dot = D − 2·hamming` (see [`crate::kernel`]), which is what
/// makes fuzzing-campaign fitness evaluation fast.
///
/// Each form is built lazily from the other: a hypervector made from
/// components packs on the first similarity, and one made from packed words
/// (every encoder output) unpacks on the first component read —
/// [`as_slice`](Self::as_slice), indexing, [`into_components`](Self::into_components)
/// or a hash — so a candidate that only meets the associative memory never
/// builds its `Vec<i8>`. Equality, hashing and cloning mean the same for
/// either origin.
///
/// ```
/// use hdc::Hypervector;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = Hypervector::random(1_000, &mut rng);
/// let b = Hypervector::random(1_000, &mut rng);
/// // Random hypervectors are quasi-orthogonal.
/// assert!(hdc::cosine(&a, &b).abs() < 0.12);
/// ```
pub struct Hypervector {
    dim: usize,
    /// The bipolar components. Invariant: at least one of `components` and
    /// `packed` is set, and when both are, `packed` is exactly
    /// `PackedHypervector::pack(components)`. Neither is mutated once set
    /// (constructors build fresh vectors), so the lazy form can never go
    /// stale.
    components: OnceLock<Vec<i8>>,
    /// Bit-packed form of the components.
    packed: OnceLock<PackedHypervector>,
}

impl Hypervector {
    /// Internal constructor from components, with the packed form unbuilt.
    fn new(components: Vec<i8>) -> Self {
        Self {
            dim: components.len(),
            components: OnceLock::from(components),
            packed: OnceLock::new(),
        }
    }

    /// Internal constructor with a pre-computed packed mirror (used where
    /// the packed form falls out of the computation for free).
    pub(crate) fn with_mirror(components: Vec<i8>, packed: PackedHypervector) -> Self {
        debug_assert_eq!(packed.dim(), components.len());
        debug_assert_eq!(packed, PackedHypervector::pack(&components));
        Self {
            dim: components.len(),
            components: OnceLock::from(components),
            packed: OnceLock::from(packed),
        }
    }

    /// Builds a hypervector from its packed form alone; the components are
    /// unpacked on first read.
    pub(crate) fn from_packed(packed: PackedHypervector) -> Self {
        Self { dim: packed.dim(), components: OnceLock::new(), packed: OnceLock::from(packed) }
    }

    /// Creates a hypervector from raw bipolar components.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] for an empty slice and
    /// [`HdcError::Corrupt`] if any component is not `-1` or `+1`.
    pub fn from_components(components: Vec<i8>) -> Result<Self, HdcError> {
        if components.is_empty() {
            return Err(HdcError::ZeroDimension);
        }
        if let Some(bad) = components.iter().find(|&&c| c != 1 && c != -1) {
            return Err(HdcError::Corrupt(format!("bipolar component must be ±1, found {bad}")));
        }
        Ok(Self::new(components))
    }

    /// Creates a hypervector without validating that components are bipolar.
    ///
    /// Callers must guarantee every component is `-1` or `+1`; other values
    /// silently corrupt similarity computations. Used internally on
    /// hot paths where the invariant is already established.
    pub(crate) fn from_components_unchecked(components: Vec<i8>) -> Self {
        debug_assert!(components.iter().all(|&c| c == 1 || c == -1));
        Self::new(components)
    }

    /// Draws a fresh i.i.d. random bipolar hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn random(dim: usize, rng: &mut StdRng) -> Self {
        assert!(dim > 0, "hypervector dimension must be non-zero");
        Self::new(random_bipolar(dim, rng))
    }

    /// A hypervector with every component `+1` (the binding identity).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn ones(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be non-zero");
        Self::new(vec![1; dim])
    }

    /// The dimension `D` of the hypervector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the raw bipolar components, unpacking them on first use if
    /// the hypervector was made from packed words.
    pub fn as_slice(&self) -> &[i8] {
        self.components.get_or_init(|| unpack(&self.packed))
    }

    /// Consumes the hypervector, returning its components.
    pub fn into_components(self) -> Vec<i8> {
        self.components.into_inner().unwrap_or_else(|| unpack(&self.packed))
    }

    /// The bit-packed mirror (`+1 → 1`, `-1 → 0`), computed on first use
    /// and cached. All similarity kernels run on this form.
    pub fn packed(&self) -> &PackedHypervector {
        self.packed.get_or_init(|| {
            PackedHypervector::pack(
                self.components.get().expect("a hypervector holds its components or its words"),
            )
        })
    }

    /// The packed mirror if it has already been computed (used to carry the
    /// mirror through word-level operations without forcing a pack).
    fn packed_if_cached(&self) -> Option<&PackedHypervector> {
        self.packed.get()
    }

    /// Elementwise multiplication (the HDC binding operation ⊛).
    ///
    /// The result is quasi-orthogonal to both operands, and binding is its
    /// own inverse: `a ⊛ a = 1`. When both operands already carry their
    /// packed mirrors, the result's mirror is derived by word-level XNOR.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the operands differ in
    /// dimension.
    pub fn bind(&self, other: &Self) -> Result<Self, HdcError> {
        if self.dim() != other.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), actual: other.dim() });
        }
        match (self.packed_if_cached(), other.packed_if_cached()) {
            (Some(pa), Some(pb)) => {
                // Word-level XNOR; the components unpack only if read.
                Ok(Self::from_packed(pa.bind(pb).expect("dimensions already checked")))
            }
            _ => {
                let components =
                    self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| a * b).collect();
                Ok(Self::new(components))
            }
        }
    }

    /// Cyclic right-shift by `amount` positions (the HDC permutation ρ).
    ///
    /// Permutation preserves component statistics but produces a vector
    /// quasi-orthogonal to the input for any non-zero shift. `ρ` distributes
    /// over binding and bundling, which sequence encoders exploit. A cached
    /// packed mirror is carried along by word-level rotation.
    pub fn permute(&self, amount: usize) -> Self {
        let dim = self.dim();
        let k = amount % dim;
        if k == 0 {
            return self.clone();
        }
        if let Some(p) = self.packed_if_cached() {
            return Self::from_packed(p.permute(k));
        }
        let components = self.as_slice();
        let mut rotated = Vec::with_capacity(dim);
        rotated.extend_from_slice(&components[dim - k..]);
        rotated.extend_from_slice(&components[..dim - k]);
        Self::new(rotated)
    }

    /// Inverse of [`permute`](Self::permute): cyclic left-shift.
    pub fn permute_inverse(&self, amount: usize) -> Self {
        let dim = self.dim();
        let k = amount % dim;
        self.permute(dim - k)
    }

    /// Flips the sign of every component.
    pub fn negate(&self) -> Self {
        match self.packed_if_cached() {
            Some(p) => Self::from_packed(p.negate()),
            None => Self::new(self.as_slice().iter().map(|&c| -c).collect()),
        }
    }

    /// Number of positions at which `self` and `other` disagree, computed
    /// on the packed mirrors (XOR + popcount).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn hamming_distance(&self, other: &Self) -> Result<usize, HdcError> {
        if self.dim() != other.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), actual: other.dim() });
        }
        Ok(self.packed().hamming_distance(other.packed()))
    }

    /// Returns a copy with `count` uniformly chosen components sign-flipped.
    ///
    /// Useful for modelling bit-error noise (the paper's related work
    /// discusses HDC robustness against memory errors) and in tests.
    pub fn with_noise(&self, count: usize, rng: &mut StdRng) -> Self {
        let mut components = self.as_slice().to_vec();
        let dim = components.len();
        for _ in 0..count.min(dim) {
            let i = rng.gen_range(0..dim);
            components[i] = -components[i];
        }
        Self::new(components)
    }
}

/// Unpacks the words of a hypervector that has no components yet.
fn unpack(packed: &OnceLock<PackedHypervector>) -> Vec<i8> {
    let packed = packed.get().expect("a hypervector holds its components or its words");
    kernel::unpack_words(packed.words(), packed.dim())
}

impl Clone for Hypervector {
    /// Clones whichever forms are already built.
    fn clone(&self) -> Self {
        Self { dim: self.dim, components: self.components.clone(), packed: self.packed.clone() }
    }
}

impl PartialEq for Hypervector {
    /// Component-wise equality. Packing is one-to-one on bipolar vectors,
    /// so two packed forms compare their words instead.
    fn eq(&self, other: &Self) -> bool {
        match (self.packed_if_cached(), other.packed_if_cached()) {
            (Some(a), Some(b)) => a == b,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for Hypervector {}

impl Hash for Hypervector {
    /// Hashes the components, as a `Vec<i8>` of them would.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Index<usize> for Hypervector {
    type Output = i8;

    fn index(&self, index: usize) -> &Self::Output {
        &self.as_slice()[index]
    }
}

impl fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dim = self.dim();
        let head: Vec<i8> = self.as_slice().iter().take(8).copied().collect();
        write!(f, "Hypervector(dim={dim}, head={head:?}…)")
    }
}

impl AsRef<[i8]> for Hypervector {
    fn as_ref(&self) -> &[i8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_is_bipolar() {
        let hv = Hypervector::random(512, &mut rng());
        assert!(hv.as_slice().iter().all(|&c| c == 1 || c == -1));
        assert_eq!(hv.dim(), 512);
    }

    #[test]
    fn random_is_balanced() {
        let hv = Hypervector::random(10_000, &mut rng());
        let ones = hv.as_slice().iter().filter(|&&c| c == 1).count();
        // Binomial(10_000, 0.5): 5000 ± a few hundred.
        assert!((4_500..=5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn from_components_validates() {
        assert!(Hypervector::from_components(vec![]).is_err());
        assert!(Hypervector::from_components(vec![1, -1, 0]).is_err());
        assert!(Hypervector::from_components(vec![1, -1, 1]).is_ok());
    }

    #[test]
    fn bind_is_self_inverse() {
        let mut r = rng();
        let a = Hypervector::random(1_000, &mut r);
        let id = a.bind(&a).unwrap();
        assert_eq!(id, Hypervector::ones(1_000));
    }

    #[test]
    fn bind_produces_orthogonal_vector() {
        let mut r = rng();
        let a = Hypervector::random(10_000, &mut r);
        let b = Hypervector::random(10_000, &mut r);
        let c = a.bind(&b).unwrap();
        assert!(cosine(&a, &c).abs() < 0.05);
        assert!(cosine(&b, &c).abs() < 0.05);
    }

    #[test]
    fn bind_dimension_mismatch() {
        let mut r = rng();
        let a = Hypervector::random(100, &mut r);
        let b = Hypervector::random(200, &mut r);
        assert!(matches!(
            a.bind(&b),
            Err(HdcError::DimensionMismatch { expected: 100, actual: 200 })
        ));
    }

    #[test]
    fn bind_is_commutative() {
        let mut r = rng();
        let a = Hypervector::random(256, &mut r);
        let b = Hypervector::random(256, &mut r);
        assert_eq!(a.bind(&b).unwrap(), b.bind(&a).unwrap());
    }

    #[test]
    fn bind_carries_valid_mirror() {
        let mut r = rng();
        let a = Hypervector::random(333, &mut r);
        let b = Hypervector::random(333, &mut r);
        // Force both mirrors, then bind: the result's mirror comes from the
        // XNOR fast path and must match a from-scratch pack.
        let _ = (a.packed(), b.packed());
        let bound = a.bind(&b).unwrap();
        assert_eq!(*bound.packed(), PackedHypervector::pack(bound.as_slice()));
    }

    #[test]
    fn permute_round_trips() {
        let mut r = rng();
        let a = Hypervector::random(777, &mut r);
        for k in [0, 1, 5, 776, 777, 1000] {
            assert_eq!(a.permute(k).permute_inverse(k), a, "k = {k}");
        }
    }

    #[test]
    fn permute_shifts_right() {
        let hv = Hypervector::from_components(vec![1, 1, -1, 1]).unwrap();
        let shifted = hv.permute(1);
        assert_eq!(shifted.as_slice(), &[1, 1, 1, -1]);
    }

    #[test]
    fn permute_carries_valid_mirror() {
        let mut r = rng();
        let a = Hypervector::random(130, &mut r);
        let _ = a.packed();
        for k in [1, 63, 64, 65, 129] {
            let p = a.permute(k);
            assert_eq!(*p.packed(), PackedHypervector::pack(p.as_slice()), "k = {k}");
        }
    }

    #[test]
    fn permute_produces_orthogonal_vector() {
        let mut r = rng();
        let a = Hypervector::random(10_000, &mut r);
        assert!(cosine(&a, &a.permute(1)).abs() < 0.05);
    }

    #[test]
    fn permute_by_dim_is_identity() {
        let mut r = rng();
        let a = Hypervector::random(64, &mut r);
        assert_eq!(a.permute(64), a);
    }

    #[test]
    fn negate_flips_cosine() {
        let mut r = rng();
        let a = Hypervector::random(1_000, &mut r);
        let n = a.negate();
        assert!((cosine(&a, &n) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn negate_carries_valid_mirror() {
        let mut r = rng();
        let a = Hypervector::random(99, &mut r);
        let _ = a.packed();
        let n = a.negate();
        assert_eq!(*n.packed(), PackedHypervector::pack(n.as_slice()));
    }

    #[test]
    fn hamming_distance_to_self_is_zero() {
        let mut r = rng();
        let a = Hypervector::random(300, &mut r);
        assert_eq!(a.hamming_distance(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_distance_to_negation_is_dim() {
        let mut r = rng();
        let a = Hypervector::random(300, &mut r);
        assert_eq!(a.hamming_distance(&a.negate()).unwrap(), 300);
    }

    #[test]
    fn with_noise_bounded_change() {
        let mut r = rng();
        let a = Hypervector::random(1_000, &mut r);
        let noisy = a.with_noise(50, &mut r);
        let d = a.hamming_distance(&noisy).unwrap();
        assert!(d <= 50, "at most 50 flips, got {d}");
        assert!(d > 0, "expected some flips");
    }

    #[test]
    fn with_noise_does_not_reuse_stale_mirror() {
        let mut r = rng();
        let a = Hypervector::random(500, &mut r);
        let _ = a.packed(); // cache the mirror on the original
        let noisy = a.with_noise(20, &mut r);
        assert_eq!(*noisy.packed(), PackedHypervector::pack(noisy.as_slice()));
    }

    #[test]
    fn clone_preserves_equality_and_mirror() {
        let mut r = rng();
        let a = Hypervector::random(200, &mut r);
        let _ = a.packed();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(*b.packed(), PackedHypervector::pack(b.as_slice()));
    }

    #[test]
    fn built_from_packed_words_agrees_with_components_on_every_accessor() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            value(&mut state);
            state.finish()
        };
        for dim in [63, 64, 65, 127, 10_000] {
            let a = Hypervector::random(dim, &mut StdRng::seed_from_u64(dim as u64));
            // A fresh packed-only twin per accessor, so each one runs on
            // components that were never built.
            let words = PackedHypervector::pack(a.as_slice());
            let twin = || Hypervector::from_packed(words.clone());
            assert!(twin().components.get().is_none(), "dim {dim}: built eagerly");
            assert_eq!(twin().dim(), dim);
            assert_eq!(twin().as_slice(), a.as_slice(), "dim {dim}");
            assert_eq!(twin().as_ref(), a.as_slice(), "dim {dim}");
            assert_eq!(twin()[dim - 1], a[dim - 1], "dim {dim}");
            assert_eq!(twin().into_components(), a.as_slice(), "dim {dim}");
            assert_eq!(*twin().packed(), *a.packed(), "dim {dim}");
            assert_eq!(twin().clone().as_slice(), a.as_slice(), "dim {dim}");
            assert_eq!(format!("{:?}", twin()), format!("{a:?}"), "dim {dim}");
            // Equality across origins and between two packed-only vectors.
            let plain = Hypervector::from_components(a.as_slice().to_vec()).unwrap();
            assert!(twin() == plain && plain == twin() && twin() == twin(), "dim {dim}");
            assert!(twin() != plain.negate() && plain.negate() != twin(), "dim {dim}");
            // `Hash` as a `Vec<i8>` of the components hashes.
            let expected = hash(&|state| a.as_slice().to_vec().hash(state));
            assert_eq!(hash(&|state| twin().hash(state)), expected, "dim {dim}");
            assert_eq!(hash(&|state| plain.hash(state)), expected, "dim {dim}");
            // Word-level ops on a packed-only operand.
            let b = Hypervector::random(dim, &mut StdRng::seed_from_u64(!(dim as u64)));
            let _ = b.packed();
            assert_eq!(twin().bind(&b).unwrap().as_slice(), plain.bind(&b).unwrap().as_slice());
            assert_eq!(twin().permute(5).as_slice(), plain.permute(5).as_slice());
            assert_eq!(twin().negate().as_slice(), plain.negate().as_slice());
            assert_eq!(twin().with_noise(7, &mut rng()), plain.with_noise(7, &mut rng()));
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be non-zero")]
    fn random_zero_dim_panics() {
        let _ = Hypervector::random(0, &mut rng());
    }

    #[test]
    fn index_accesses_components() {
        let hv = Hypervector::from_components(vec![1, -1, 1]).unwrap();
        assert_eq!(hv[0], 1);
        assert_eq!(hv[1], -1);
    }

    #[test]
    fn debug_is_nonempty() {
        let hv = Hypervector::ones(16);
        assert!(!format!("{hv:?}").is_empty());
    }
}
