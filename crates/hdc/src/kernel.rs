//! Word-packed compute kernels for the bipolar hot path.
//!
//! Every similarity the fuzzing loop evaluates (§IV: thousands of
//! `1 − cosine(AM[reference], encode(candidate))` calls per campaign)
//! reduces to bit arithmetic once bipolar components are packed one bit per
//! component (`+1 → 1`, `-1 → 0`):
//!
//! * `hamming(a, b)` is XOR + popcount over `u64` words — 64 components per
//!   instruction instead of one.
//! * `dot(a, b) = D − 2·hamming(a, b)` for bipolar vectors, so the integer
//!   dot product (and with it cosine, which is `dot / D`) needs no
//!   multiplies at all.
//! * `bind` (elementwise product ⊛) is XNOR.
//! * `permute` (cyclic shift ρ) is a word-level bit rotation with carry.
//!
//! This is the representation hardware implementations use (Schmuck et al.,
//! JETC 2019) and the same identity the binarized classifier exploits; this
//! module makes it the *internal* compute representation of the dense
//! bipolar pipeline as well. [`crate::Hypervector`] keeps a lazily computed
//! packed mirror of its components and routes [`crate::dot`],
//! [`crate::cosine`] and [`crate::hamming`] through these kernels; the
//! scalar loops they replace live on in [`mod@reference`] as the oracle
//! implementations used by property tests and benchmarks.
//!
//! All kernels are chunked so LLVM can autovectorize; none allocate except
//! those returning a fresh word vector.
//!
//! ## Backends
//!
//! The hottest kernels ([`hamming_words`]/[`dot_words`], the fused
//! [`hamming_many`] AM scan, [`pack_words_into`], and the [`BitCounter`]
//! plane ops) dispatch through a process-wide [`Backend`] tier selected
//! once at startup — `scalar` (simple loops), `portable` (the chunked
//! `u64` code, the universal fallback), or `avx2` (explicit 256-bit
//! intrinsics behind runtime feature detection). See [`mod@backend`] for
//! the selection rules (`HDC_KERNEL_BACKEND`, CLI force, detection) and
//! the `*_with` function variants to pin a specific compiled tier — which
//! is how the differential property tests hold every backend to the same
//! scalar oracles.
//!
//! ## Worked example
//!
//! Pack two bipolar vectors and check the packed kernels against the
//! scalar [`mod@reference`] oracles — the same bit-exactness contract the
//! property tests pin at dims 63/64/65/127/10k:
//!
//! ```
//! use hdc::kernel::{self, reference, BitCounter};
//!
//! let a: Vec<i8> = (0..130).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
//! let b: Vec<i8> = (0..130).map(|i| if i % 7 < 3 { 1 } else { -1 }).collect();
//! let (pa, pb) = (kernel::pack_words(&a), kernel::pack_words(&b));
//!
//! // dot = D − 2·hamming, bit-exact with the scalar loop.
//! assert_eq!(kernel::dot_words(&pa, &pb, 130), reference::dot_scalar(&a, &b));
//! assert_eq!(kernel::hamming_words(&pa, &pb), reference::hamming_scalar(&a, &b));
//!
//! // Bundle both through the CSA-tree counter and majority-bipolarize.
//! let mut counter = BitCounter::new(130);
//! counter.add(&pa);
//! counter.add(&pb);
//! assert_eq!(counter.sums()[0], 2); // both vectors have +1 at component 0
//! ```

pub mod backend;

#[cfg(target_arch = "x86_64")]
mod avx2;

pub use backend::Backend;

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `dim` components.
#[inline]
pub const fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Reads 8 bipolar components as one little-endian word.
#[inline]
fn load8(chunk: &[i8]) -> u64 {
    u64::from_le_bytes([
        chunk[0] as u8,
        chunk[1] as u8,
        chunk[2] as u8,
        chunk[3] as u8,
        chunk[4] as u8,
        chunk[5] as u8,
        chunk[6] as u8,
        chunk[7] as u8,
    ])
}

/// Packs bipolar components into words, 64 per `u64`: `+1 → 1`, `-1 → 0`.
/// Bits at positions `>= components.len()` in the last word are zero.
///
/// Dispatches on the active [`Backend`]: the portable tier builds each
/// output word from 64 components at once — the sign bit of every byte is
/// gathered into an 8×8 bit matrix (byte `i`, bit `j` = sign of component
/// `8j + i`), which a word-level bit-matrix transpose (Hacker's Delight
/// §7-3) flips into component order; one final NOT turns sign bits into
/// packed bits (`-1` has the sign bit set). The AVX2 tier replaces the
/// transpose with the real `vpmovmskb` sign gather the portable code
/// emulates (32 signs per instruction). An earlier per-8-byte
/// multiply-gather emulation survives as
/// [`reference::pack_words_movemask`] for the cold-pack delta benchmark.
pub fn pack_words(components: &[i8]) -> Vec<u64> {
    let dim = components.len();
    let mut words = vec![0u64; words_for(dim)];
    pack_words_into(components, &mut words);
    words
}

/// [`pack_words`] into a caller-provided buffer of exactly
/// [`words_for`]`(components.len())` words (scratch reuse on batch paths).
///
/// # Panics
///
/// Panics if `words` has the wrong length.
pub fn pack_words_into(components: &[i8], words: &mut [u64]) {
    pack_words_into_with(backend::active(), components, words);
}

/// [`pack_words_into`] pinned to a specific [`Backend`] tier (clamped to
/// what the CPU supports) — the hook differential tests and benches use to
/// compare compiled backends in one process.
///
/// # Panics
///
/// Panics if `words` has the wrong length.
pub fn pack_words_into_with(backend: Backend, components: &[i8], words: &mut [u64]) {
    let dim = components.len();
    assert_eq!(words.len(), words_for(dim), "pack: output buffer length");
    match backend.resolve() {
        Backend::Scalar => {
            // The per-bit reference shape.
            words.fill(0);
            for (i, &c) in components.iter().enumerate() {
                words[i / WORD_BITS] |= u64::from(c == 1) << (i % WORD_BITS);
            }
            return;
        }
        Backend::Portable => pack_full_words_portable(components, words),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            avx2::pack_full_words(components, words);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("Backend::resolve clamps avx2 off x86-64");
        }
    }
    // Sub-word tail, shared by the full-word paths.
    let remainder = &components[dim - dim % WORD_BITS..];
    if !remainder.is_empty() {
        let tail_start = dim - remainder.len();
        let last = &mut words[tail_start / WORD_BITS];
        *last = 0;
        for (offset, &c) in remainder.iter().enumerate() {
            *last |= u64::from(c == 1) << ((tail_start + offset) % WORD_BITS);
        }
    }
}

/// The portable full-word pack body: sign-bit gather into an 8×8 bit
/// matrix plus a word-level transpose (Hacker's Delight §7-3).
fn pack_full_words_portable(components: &[i8], words: &mut [u64]) {
    const H: u64 = 0x8080_8080_8080_8080;
    let mut full_words = components.chunks_exact(WORD_BITS);
    for (word, chunk) in words.iter_mut().zip(&mut full_words) {
        // Gather the 8 sign bits of each 8-byte group into one byte lane:
        // after the shifts, byte `i` of `x` holds in bit `j` the sign of
        // component `8j + i`.
        let mut x = ((load8(&chunk[0..8]) & H) >> 7)
            | ((load8(&chunk[8..16]) & H) >> 6)
            | ((load8(&chunk[16..24]) & H) >> 5)
            | ((load8(&chunk[24..32]) & H) >> 4)
            | ((load8(&chunk[32..40]) & H) >> 3)
            | ((load8(&chunk[40..48]) & H) >> 2)
            | ((load8(&chunk[48..56]) & H) >> 1)
            | (load8(&chunk[56..64]) & H);
        // 8×8 bit-matrix transpose: bit `j` of byte `i` ↔ bit `i` of byte
        // `j`, putting the signs in component order.
        let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x = x ^ t ^ (t << 7);
        t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x = x ^ t ^ (t << 14);
        t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x = x ^ t ^ (t << 28);
        *word = !x;
    }
}

/// Byte → 8 bipolar components (`bit 1 → +1`, `0 → -1`) lookup table: one
/// 8-byte copy per input byte instead of 8 shift-mask-select steps.
static UNPACK_TABLE: [[i8; 8]; 256] = {
    let mut table = [[0i8; 8]; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut bit = 0usize;
        while bit < 8 {
            table[byte][bit] = if (byte >> bit) & 1 == 1 { 1 } else { -1 };
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Unpacks words into bipolar components: bit `1 → +1`, `0 → -1`.
///
/// Runs byte-at-a-time through `UNPACK_TABLE` (~9× the per-bit
/// loop at `D = 10,000`); this is the cost of materializing `Vec<i8>`
/// components from a packed encoding result, so it sits on every encoder's
/// finalize path.
pub fn unpack_words(words: &[u64], dim: usize) -> Vec<i8> {
    debug_assert!(words.len() == words_for(dim));
    let mut components = vec![0i8; dim];
    let mut chunks = components.chunks_exact_mut(8);
    let mut bytes = words.iter().flat_map(|w| w.to_le_bytes());
    for (chunk, byte) in (&mut chunks).zip(&mut bytes) {
        chunk.copy_from_slice(&UNPACK_TABLE[usize::from(byte)]);
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let byte = bytes.next().expect("words cover dim components");
        let len = rem.len();
        rem.copy_from_slice(&UNPACK_TABLE[usize::from(byte)][..len]);
    }
    components
}

/// Hamming distance between two equally sized packed words: XOR + popcount,
/// dispatched on the active [`Backend`] (the AVX2 tier runs a Harley–Seal
/// CSA-tree popcount over 256-bit lanes).
///
/// Both operands must keep their tail bits zeroed (every constructor in
/// this crate does), so no masking is needed here.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    hamming_words_with(backend::active(), a, b)
}

/// [`hamming_words`] pinned to a specific [`Backend`] tier (clamped to
/// what the CPU supports) — the hook differential tests and benches use to
/// compare compiled backends in one process.
#[inline]
pub fn hamming_words_with(backend: Backend, a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    match backend.resolve() {
        Backend::Scalar => a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones() as usize).sum(),
        Backend::Portable => hamming_words_portable(a, b),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                avx2::hamming_words(a, b) as usize
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("Backend::resolve clamps avx2 off x86-64")
        }
    }
}

/// The portable hamming body: chunked so LLVM unrolls and vectorizes the
/// popcount loop.
#[inline]
fn hamming_words_portable(a: &[u64], b: &[u64]) -> usize {
    let mut total = 0u64;
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        total += u64::from((ca[0] ^ cb[0]).count_ones())
            + u64::from((ca[1] ^ cb[1]).count_ones())
            + u64::from((ca[2] ^ cb[2]).count_ones())
            + u64::from((ca[3] ^ cb[3]).count_ones());
    }
    for (&x, &y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += u64::from((x ^ y).count_ones());
    }
    total as usize
}

/// Hamming distance from one packed query to every reference in `refs`,
/// written into `out` — the fused associative-memory scan.
///
/// Semantically identical to a loop of [`hamming_words`], but the AVX2
/// tier processes references four at a time so every 256-bit query load is
/// shared across four XOR+popcount streams, amortizing the memory traffic
/// that dominates a class scan at production dimensions.
///
/// # Panics
///
/// Panics if `out.len() != refs.len()` or any reference's word count
/// differs from the query's.
pub fn hamming_many_into(query: &[u64], refs: &[&[u64]], out: &mut [usize]) {
    hamming_many_into_with(backend::active(), query, refs, out);
}

/// [`hamming_many_into`] pinned to a specific [`Backend`] tier (clamped to
/// what the CPU supports).
///
/// # Panics
///
/// As [`hamming_many_into`].
pub fn hamming_many_into_with(backend: Backend, query: &[u64], refs: &[&[u64]], out: &mut [usize]) {
    assert_eq!(out.len(), refs.len(), "hamming_many: output length mismatch");
    for r in refs {
        assert_eq!(r.len(), query.len(), "hamming_many: reference word count mismatch");
    }
    let backend = backend.resolve();
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 {
        let mut block = [0u64; 4];
        let mut chunks = refs.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (quad, o) in (&mut chunks).zip(&mut outs) {
            avx2::hamming_block4(query, [quad[0], quad[1], quad[2], quad[3]], &mut block);
            for (dst, &d) in o.iter_mut().zip(&block) {
                *dst = d as usize;
            }
        }
        for (r, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = avx2::hamming_words(query, r) as usize;
        }
        return;
    }
    for (r, o) in refs.iter().zip(out) {
        *o = hamming_words_with(backend, query, r);
    }
}

/// [`hamming_many_into`] returning a fresh vector.
///
/// # Panics
///
/// Panics if any reference's word count differs from the query's.
pub fn hamming_many(query: &[u64], refs: &[&[u64]]) -> Vec<usize> {
    let mut out = vec![0usize; refs.len()];
    hamming_many_into(query, refs, &mut out);
    out
}

/// Integer dot product of two bipolar vectors of dimension `dim` from their
/// packed forms, via the identity `dot = D − 2·hamming`.
#[inline]
pub fn dot_words(a: &[u64], b: &[u64], dim: usize) -> i64 {
    dim as i64 - 2 * hamming_words(a, b) as i64
}

/// Packed binding (elementwise bipolar product ⊛): XNOR with tail masking.
pub fn bind_words(a: &[u64], b: &[u64], dim: usize) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len());
    let mut words: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| !(x ^ y)).collect();
    mask_tail(&mut words, dim);
    words
}

/// [`bind_words`] into a caller-provided buffer (scratch reuse on encoding
/// hot paths).
pub fn bind_words_into(a: &[u64], b: &[u64], dim: usize, out: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(out.len(), a.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = !(x ^ y);
    }
    mask_tail(out, dim);
}

/// In-place binding: `acc ⊛= other` (XNOR accumulate with tail masking).
/// The word-level way to fold an n-gram or window product left to right
/// without a second scratch buffer.
pub fn bind_words_assign(acc: &mut [u64], other: &[u64], dim: usize) {
    debug_assert_eq!(acc.len(), other.len());
    for (a, &o) in acc.iter_mut().zip(other) {
        *a = !(*a ^ o);
    }
    mask_tail(acc, dim);
}

/// Packed negation (sign flip of every component): NOT with tail masking.
pub fn negate_words(words: &[u64], dim: usize) -> Vec<u64> {
    let mut out: Vec<u64> = words.iter().map(|&w| !w).collect();
    mask_tail(&mut out, dim);
    out
}

/// Packed cyclic right-shift by `amount` positions (permutation ρ):
/// `out[(i + amount) % dim] = in[i]`, matching
/// [`Hypervector::permute`](crate::Hypervector::permute).
pub fn rotate_words(words: &[u64], dim: usize, amount: usize) -> Vec<u64> {
    let mut out = vec![0u64; words.len()];
    rotate_words_into(words, dim, amount, &mut out);
    out
}

/// [`rotate_words`] into a caller-provided buffer (scratch reuse on
/// encoding hot paths); `out` must not alias `words`.
///
/// Implemented as two word-level bit blits — the head shifted toward
/// higher indices and the wrapped tail ORed into the low bits — rather
/// than per-bit moves.
pub fn rotate_words_into(words: &[u64], dim: usize, amount: usize, out: &mut [u64]) {
    let n = words.len();
    debug_assert_eq!(n, words_for(dim));
    debug_assert_eq!(out.len(), n);
    let k = amount % dim;
    if k == 0 {
        out.copy_from_slice(words);
        return;
    }
    // Head: every input bit moves up by k; every output word is assigned.
    let word_shift = k / WORD_BITS;
    let bit_shift = k % WORD_BITS;
    for w in out[..word_shift].iter_mut() {
        *w = 0;
    }
    for i in word_shift..n {
        let mut w = words[i - word_shift] << bit_shift;
        if bit_shift > 0 && i > word_shift {
            w |= words[i - word_shift - 1] >> (WORD_BITS - bit_shift);
        }
        out[i] = w;
    }
    mask_tail(out, dim);
    // Tail: the bits shifted past `dim` wrap to the bottom — shift the
    // input down by `dim - k` and OR the survivors in.
    let s = dim - k;
    let word_shift = s / WORD_BITS;
    let bit_shift = s % WORD_BITS;
    for i in 0..n - word_shift {
        let mut w = words[i + word_shift] >> bit_shift;
        if bit_shift > 0 && i + word_shift + 1 < n {
            w |= words[i + word_shift + 1] << (WORD_BITS - bit_shift);
        }
        out[i] |= w;
    }
}

/// Zeroes bits at positions `>= dim` in the last word.
#[inline]
pub fn mask_tail(words: &mut [u64], dim: usize) {
    let rem = dim % WORD_BITS;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

/// Packs integer bundling sums straight to words using the deterministic
/// bipolarization rule (`s > 0 → 1`, `s < 0 → 0`, `s == 0 →` component
/// parity: even index → 1), bit-identical to packing the output of the
/// scalar bipolarization.
pub fn pack_sums(sums: &[i32]) -> Vec<u64> {
    let dim = sums.len();
    let mut words = vec![0u64; words_for(dim)];
    // Words start at even component indices, so within-word parity equals
    // global parity; branchless per-sum select.
    for (word, chunk) in words.iter_mut().zip(sums.chunks(WORD_BITS)) {
        let mut w = 0u64;
        for (k, &s) in chunk.iter().enumerate() {
            w |= u64::from(s > 0 || (s == 0 && k % 2 == 0)) << k;
        }
        *word = w;
    }
    words
}

/// Vectors per carry-save flush group: an 8:4 compressor (Harley–Seal
/// style) turns 8 buffered vectors into one plane each of weight 1, 2, 4
/// and 8 before the counter planes are touched.
const CSA_GROUP: usize = 8;

/// A full adder over 64 lanes at once: returns `(sum, carry)` with
/// `a + b + c = sum + 2·carry` per bit position.
#[inline]
fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let ab = a ^ b;
    (ab ^ c, (a & b) | (ab & c))
}

/// One ripple-carry plane update, `carry, plane = plane & carry, plane ^
/// carry`, on `backend`. Returns non-zero iff any carry survives.
#[inline]
fn ripple_step(backend: Backend, plane: &mut [u64], carry: &mut [u64]) -> u64 {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::ripple_step(plane, carry),
        _ => {
            let mut any = 0u64;
            for (p, c) in plane.iter_mut().zip(carry) {
                let next = *p & *c;
                *p ^= *c;
                *c = next;
                any |= next;
            }
            any
        }
    }
}

/// One full-adder plane update of a counter merge, `plane, carry =
/// plane + addend + carry` per bit, on `backend`.
#[inline]
fn full_add_step(backend: Backend, plane: &mut [u64], addend: &[u64], carry: &mut [u64]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::full_add_step(plane, addend, carry),
        _ => {
            for ((p, &a), c) in plane.iter_mut().zip(addend).zip(carry) {
                (*p, *c) = full_add(*p, a, *c);
            }
        }
    }
}

/// A bit-sliced (vertical) counter: per-component counts of set bits over a
/// stream of packed vectors, stored as bitplanes so additions cost a couple
/// of word operations per plane instead of one integer add per component.
///
/// This is the packed equivalent of bundling: after adding `n` packed
/// vectors, component `i` has seen `c` ones, and the corresponding bipolar
/// bundling sum is exactly `2c − n`. Encoders bundle thousands of bound
/// vectors per input; running the bundle through bitplanes instead of a
/// `Vec<i32>` accumulator is where the packed representation pays off on
/// the *encoding* half of the hot path (the similarity half goes through
/// [`hamming_words`]).
///
/// Additions are buffered: [`add`](Self::add) (and the fused variants
/// [`add_bound`](Self::add_bound), [`add_rotated`](Self::add_rotated),
/// [`add_rotated_bound`](Self::add_rotated_bound)) write into a pending
/// slot, and every `CSA_GROUP` (8) vectors a carry-save-adder tree compresses
/// the group into four weight planes (1/2/4/8) that ripple into the counter
/// planes at staggered depths. Compared with rippling every vector
/// individually (kept as [`add_ripple`](Self::add_ripple), the reference
/// path), the CSA tree does the bulk of the work in registers and cuts
/// plane memory traffic ~4×. Finalizers ([`sums`](Self::sums),
/// [`bipolarize_packed`](Self::bipolarize_packed), …) flush the partial
/// group first, so results never depend on the buffering.
///
/// The add scratch (pending slots, CSA planes, carry) is allocated on the
/// first add, so a counter that only ever receives
/// [`copy_from`](Self::copy_from) or [`set_sum`](Self::set_sum) holds just
/// its planes and count.
#[derive(Debug, Clone)]
pub struct BitCounter {
    /// Flat plane storage: plane `k` occupies words
    /// `[k·words_for(dim), (k+1)·words_for(dim))` and holds bit `k` of
    /// every component's count.
    planes: Vec<u64>,
    /// Buffered vectors awaiting a CSA flush: [`CSA_GROUP`] slots of
    /// `words_for(dim)` words each.
    pending: Vec<u64>,
    /// CSA output scratch: 4 weight planes (1, 2, 4, 8).
    csa: Vec<u64>,
    /// Ripple-carry scratch, reused across flushes.
    carry: Vec<u64>,
    n_planes: usize,
    n_pending: usize,
    dim: usize,
    count: usize,
    /// The plane-op tier this counter dispatches to (fixed at
    /// construction; only the AVX2 tier differs from portable here).
    backend: Backend,
}

impl BitCounter {
    /// An empty counter for `dim` components, using the process-wide
    /// active [`Backend`] for its plane operations.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        Self::new_with_backend(dim, backend::active())
    }

    /// [`new`](Self::new) pinned to a specific [`Backend`] tier (clamped
    /// to what the CPU supports) — the hook differential tests and benches
    /// use to compare compiled backends in one process. The scalar tier
    /// has no distinct plane-op shape (the per-vector reference is
    /// [`add_ripple`](Self::add_ripple)) and behaves as portable.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new_with_backend(dim: usize, backend: Backend) -> Self {
        assert!(dim > 0, "counter dimension must be non-zero");
        Self {
            planes: Vec::new(),
            pending: Vec::new(),
            csa: Vec::new(),
            carry: Vec::new(),
            n_planes: 0,
            n_pending: 0,
            dim,
            count: 0,
            backend: backend.resolve(),
        }
    }

    /// The plane-op [`Backend`] tier this counter was constructed with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The component dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors added since the last [`clear`](Self::clear).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Resets to the empty state, keeping all allocations for reuse.
    pub fn clear(&mut self) {
        self.planes.clear();
        self.n_planes = 0;
        self.n_pending = 0;
        self.count = 0;
    }

    /// The pending slot the next vector lands in.
    #[inline]
    fn slot(&mut self) -> &mut [u64] {
        let n_words = words_for(self.dim);
        if self.pending.is_empty() {
            self.pending = vec![0; CSA_GROUP * n_words];
            self.csa = vec![0; 4 * n_words];
        }
        &mut self.pending[self.n_pending * n_words..(self.n_pending + 1) * n_words]
    }

    /// Marks the current slot filled; flushes when the group is full.
    #[inline]
    fn commit_slot(&mut self) {
        self.n_pending += 1;
        self.count += 1;
        if self.n_pending == CSA_GROUP {
            self.flush_group();
        }
    }

    /// Adds one packed vector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong word count.
    pub fn add(&mut self, bits: &[u64]) {
        assert_eq!(bits.len(), words_for(self.dim), "counter: word count mismatch");
        self.slot().copy_from_slice(bits);
        self.commit_slot();
    }

    /// Fused bind-then-accumulate: adds `a ⊛ b` (packed XNOR) without the
    /// bound vector ever existing outside the counter.
    ///
    /// # Panics
    ///
    /// Panics if either operand has the wrong word count.
    pub fn add_bound(&mut self, a: &[u64], b: &[u64]) {
        self.add_xor_flip(a, b, !0);
    }

    /// Adds the complement `¬(a ⊛ b)` (packed XOR): per component it adds
    /// `1 − x` where [`add_bound`](Self::add_bound) adds `x`. Removing a
    /// bound vector from a bundle is adding its complement: the counts
    /// then hold `c − x + 1` at a count two higher than without the pair,
    /// so `2c − n`, and with it every finalizer's output, is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either operand has the wrong word count.
    pub fn add_bound_complement(&mut self, a: &[u64], b: &[u64]) {
        self.add_xor_flip(a, b, 0);
    }

    /// Adds `a ^ b ^ flip` with the tail bits cleared.
    fn add_xor_flip(&mut self, a: &[u64], b: &[u64], flip: u64) {
        let n_words = words_for(self.dim);
        assert_eq!(a.len(), n_words, "counter: word count mismatch");
        assert_eq!(b.len(), n_words, "counter: word count mismatch");
        let dim = self.dim;
        let backend = self.backend;
        let slot = self.slot();
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::xor_flip_words_into(a, b, flip, slot),
            _ => {
                for ((s, &x), &y) in slot.iter_mut().zip(a).zip(b) {
                    *s = x ^ y ^ flip;
                }
            }
        }
        mask_tail(slot, dim);
        self.commit_slot();
    }

    /// Fused permute-then-accumulate: adds `ρ^amount(bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong word count.
    pub fn add_rotated(&mut self, bits: &[u64], amount: usize) {
        assert_eq!(bits.len(), words_for(self.dim), "counter: word count mismatch");
        let dim = self.dim;
        let slot = self.slot();
        rotate_words_into(bits, dim, amount, slot);
        self.commit_slot();
    }

    /// Fused permute-bind-accumulate: adds `ρ^amount(bits) ⊛ other` — the
    /// shape of rematerialized-position encoders, one pass over the slot.
    ///
    /// # Panics
    ///
    /// Panics if either operand has the wrong word count.
    pub fn add_rotated_bound(&mut self, bits: &[u64], amount: usize, other: &[u64]) {
        let n_words = words_for(self.dim);
        assert_eq!(bits.len(), n_words, "counter: word count mismatch");
        assert_eq!(other.len(), n_words, "counter: word count mismatch");
        let dim = self.dim;
        let backend = self.backend;
        let slot = self.slot();
        rotate_words_into(bits, dim, amount, slot);
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::xnor_words_assign(slot, other),
            _ => {
                for (s, &o) in slot.iter_mut().zip(other) {
                    *s = !(*s ^ o);
                }
            }
        }
        mask_tail(slot, dim);
        self.commit_slot();
    }

    /// Reference ripple-carry add — the pre-CSA hot path: immediately
    /// ripples one vector through the counter planes. Kept as the oracle
    /// the CSA tree is property-tested and benchmarked against; may be
    /// freely mixed with the buffered adds.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong word count.
    pub fn add_ripple(&mut self, bits: &[u64]) {
        assert_eq!(bits.len(), words_for(self.dim), "counter: word count mismatch");
        self.count += 1;
        self.ripple_from(0, bits);
    }

    /// Makes this counter's bundle state (planes and count) equal to
    /// `src`'s, reusing this counter's allocations. Further adds and
    /// finalizers then behave exactly as on `src`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or `src` holds unflushed adds
    /// ([`flush`](Self::flush) it first).
    pub fn copy_from(&mut self, src: &BitCounter) {
        assert_eq!(self.dim, src.dim, "counter: dimension mismatch");
        assert_eq!(src.n_pending, 0, "counter: copy from an unflushed counter");
        self.planes.clear();
        self.planes.extend_from_slice(&src.planes);
        self.n_planes = src.n_planes;
        self.n_pending = 0;
        self.count = src.count;
    }

    /// Makes this counter's bundle state `a + b`: every component's count
    /// is the sum of its counts in `a` and `b`, at count
    /// `a.count() + b.count()` — the state adding `b`'s vectors to a copy
    /// of `a` leaves, built in one carry pass over the planes instead of
    /// one ripple per vector. Reuses this counter's allocations.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or either operand holds unflushed
    /// adds ([`flush`](Self::flush) it first).
    pub fn set_sum(&mut self, a: &BitCounter, b: &BitCounter) {
        assert!(self.dim == a.dim && self.dim == b.dim, "counter: dimension mismatch");
        assert!(a.n_pending == 0 && b.n_pending == 0, "counter: sum of an unflushed counter");
        let (long, short) = if a.n_planes >= b.n_planes { (a, b) } else { (b, a) };
        let n_words = words_for(self.dim);
        self.planes.clear();
        // Room for a carry out of the top plane, so the copy never moves.
        self.planes.reserve((long.n_planes + 1) * n_words);
        self.planes.extend_from_slice(&long.planes);
        self.n_planes = long.n_planes;
        self.n_pending = 0;
        self.count = a.count + b.count;
        if short.n_planes == 0 {
            return;
        }
        // Add `short` into the copy of `long` one block of words at a time,
        // so the carry stays in a small local buffer: plane k of both has
        // weight 2^k, and what carries out of `short`'s top plane ripples
        // on through the planes above it, into a new top plane at most.
        const BLOCK: usize = 64;
        self.planes.resize((self.n_planes + 1) * n_words, 0);
        for first in (0..n_words).step_by(BLOCK) {
            let words = first..(first + BLOCK).min(n_words);
            let mut carry = [0u64; BLOCK];
            let carry = &mut carry[..words.len()];
            for k in 0..=self.n_planes {
                let at = k * n_words;
                let plane = &mut self.planes[at + words.start..at + words.end];
                if k < short.n_planes {
                    let addend = &short.planes[at + words.start..at + words.end];
                    full_add_step(self.backend, plane, addend, carry);
                } else if ripple_step(self.backend, plane, carry) == 0 {
                    break;
                }
            }
        }
        if self.planes[self.n_planes * n_words..].iter().any(|&w| w != 0) {
            self.n_planes += 1;
        } else {
            self.planes.truncate(self.n_planes * n_words);
        }
    }

    /// Compresses the full pending group through the CSA tree into four
    /// weight planes, then ripples each into the counter at its depth.
    fn flush_group(&mut self) {
        debug_assert_eq!(self.n_pending, CSA_GROUP);
        let n_words = words_for(self.dim);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::csa_compress8(&self.pending, &mut self.csa, n_words),
            _ => {
                let (p, csa) = (&self.pending, &mut self.csa);
                for i in 0..n_words {
                    // 8:4 compressor: x0+…+x7 = ones + 2·twos + 4·fours +
                    // 8·eights, all in registers.
                    let (s1, c1) = full_add(p[i], p[n_words + i], p[2 * n_words + i]);
                    let (s2, c2) =
                        full_add(p[3 * n_words + i], p[4 * n_words + i], p[5 * n_words + i]);
                    let (s3, c3) = full_add(p[6 * n_words + i], p[7 * n_words + i], s1);
                    let ones = s2 ^ s3;
                    let c4 = s2 & s3;
                    let (t1, d1) = full_add(c1, c2, c3);
                    let twos = t1 ^ c4;
                    let d2 = t1 & c4;
                    csa[i] = ones;
                    csa[n_words + i] = twos;
                    csa[2 * n_words + i] = d1 ^ d2;
                    csa[3 * n_words + i] = d1 & d2;
                }
            }
        }
        self.n_pending = 0;
        let csa = std::mem::take(&mut self.csa);
        for (level, plane) in csa.chunks_exact(n_words).enumerate() {
            self.ripple_from(level, plane);
        }
        self.csa = csa;
    }

    /// Ripples the pending partial group (fewer than 8 buffered vectors —
    /// the bundle tail) into the planes one vector at a time. Every
    /// finalizer flushes first; call it directly before
    /// [`copy_from`](Self::copy_from) reads this counter.
    pub fn flush(&mut self) {
        if self.n_pending == 0 {
            return;
        }
        let n = self.n_pending;
        self.n_pending = 0;
        let n_words = words_for(self.dim);
        let pending = std::mem::take(&mut self.pending);
        for slot in pending.chunks_exact(n_words).take(n) {
            self.ripple_from(0, slot);
        }
        self.pending = pending;
    }

    /// Ripple-carry adds `bits` into the counter planes starting at plane
    /// `start` (i.e. with weight `2^start`). Allocation-free except when
    /// the top plane overflows (a new plane is appended).
    fn ripple_from(&mut self, start: usize, bits: &[u64]) {
        let n_words = words_for(self.dim);
        debug_assert_eq!(bits.len(), n_words);
        if bits.iter().all(|&w| w == 0) {
            return;
        }
        self.carry.clear();
        self.carry.extend_from_slice(bits);
        while self.n_planes < start {
            // Weight > 2^n_planes: interpose all-zero planes.
            self.planes.resize((self.n_planes + 1) * n_words, 0);
            self.n_planes += 1;
        }
        for k in start..self.n_planes {
            let plane = &mut self.planes[k * n_words..(k + 1) * n_words];
            if ripple_step(self.backend, plane, &mut self.carry) == 0 {
                return;
            }
        }
        // Carry out of the top plane: grow by one plane holding it.
        self.planes.extend_from_slice(&self.carry);
        self.n_planes += 1;
    }

    /// Writes the bipolar bundling sums (`2c − n` per component) into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim`.
    pub fn sums_into(&mut self, out: &mut [i32]) {
        assert_eq!(out.len(), self.dim, "counter: output length mismatch");
        self.flush();
        let n_words = words_for(self.dim);
        let n = self.count as i32;
        out.fill(-n);
        for k in 0..self.n_planes {
            let weight = 1i32 << (k + 1); // 2 · 2^k
            for (w, &word) in self.planes[k * n_words..(k + 1) * n_words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    out[w * WORD_BITS + b] += weight;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The bipolar bundling sums as a fresh vector.
    pub fn sums(&mut self) -> Vec<i32> {
        let mut out = vec![0i32; self.dim];
        self.sums_into(&mut out);
        out
    }

    /// The raw per-component set-bit counts (`c` in the majority rule
    /// `2c > n`), flushing any pending group first. This is the counter's
    /// canonical persisted form: together with [`count`](Self::count) it
    /// fully determines the bundle state, and
    /// [`from_set_counts`](Self::from_set_counts) reconstructs an
    /// equivalent counter from it.
    pub fn set_counts(&mut self) -> Vec<u64> {
        self.flush();
        let n_words = words_for(self.dim);
        let mut out = vec![0u64; self.dim];
        for k in 0..self.n_planes {
            let weight = 1u64 << k;
            for (w, &word) in self.planes[k * n_words..(k + 1) * n_words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    out[w * WORD_BITS + b] += weight;
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Rebuilds a counter from per-component set-bit counts and the total
    /// bundle size `count` (the model-persistence path). The result is
    /// indistinguishable from the counter that produced the counts: all
    /// finalizers and further adds behave identically.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != dim`, if `dim` is zero, or if any
    /// component count exceeds `count` (a corrupt payload; callers
    /// deserializing untrusted data must validate first).
    pub fn from_set_counts(dim: usize, counts: &[u64], count: usize) -> Self {
        assert_eq!(counts.len(), dim, "counter: counts length mismatch");
        let max = counts.iter().copied().max().unwrap_or(0);
        assert!(max <= count as u64, "counter: component count {max} exceeds bundle size {count}");
        let mut counter = Self::new(dim);
        counter.count = count;
        let n_planes = (u64::BITS - max.leading_zeros()) as usize;
        let n_words = words_for(dim);
        counter.planes = vec![0u64; n_planes * n_words];
        counter.n_planes = n_planes;
        for (i, &c) in counts.iter().enumerate() {
            let (word, bit) = (i / WORD_BITS, i % WORD_BITS);
            for (k, plane) in counter.planes.chunks_exact_mut(n_words).enumerate() {
                if (c >> k) & 1 == 1 {
                    plane[word] |= 1u64 << bit;
                }
            }
        }
        counter
    }

    /// Word-parallel comparison of every component's count against
    /// `threshold`: returns `(gt, eq)` bit masks (tail bits of `eq` are
    /// garbage; `gt` tails are zero). Scans planes most-significant first.
    fn compare_counts(&self, threshold: u64) -> (Vec<u64>, Vec<u64>) {
        let n_words = words_for(self.dim);
        // Every count fits in `n_planes` bits, so if the threshold needs
        // more bits every component is strictly below (and not equal to)
        // it.
        if self.n_planes < u64::BITS as usize && threshold >> self.n_planes != 0 {
            return (vec![0u64; n_words], vec![0u64; n_words]);
        }
        // `gt`/`eq` track, per position, whether the count is already known
        // greater than / still equal to the threshold.
        let mut gt = vec![0u64; n_words];
        let mut eq = vec![u64::MAX; n_words];
        for k in (0..self.n_planes).rev() {
            let plane = &self.planes[k * n_words..(k + 1) * n_words];
            match (self.backend, (threshold >> k) & 1 == 0) {
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx2, true) => avx2::compare_step_zero(&mut gt, &mut eq, plane),
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx2, false) => avx2::compare_step_one(&mut eq, plane),
                (_, true) => {
                    for ((g, e), &p) in gt.iter_mut().zip(&mut eq).zip(plane) {
                        *g |= *e & p;
                        *e &= !p;
                    }
                }
                (_, false) => {
                    for (e, &p) in eq.iter_mut().zip(plane) {
                        *e &= p;
                    }
                }
            }
        }
        (gt, eq)
    }

    /// Packed strict-majority mask: bit `i` is set iff component `i`'s
    /// count exceeds `threshold`. Backs binarized (majority) bundling,
    /// where ties resolve to `0`.
    pub fn threshold_packed(&mut self, threshold: u64) -> Vec<u64> {
        self.flush();
        let (mut gt, _) = self.compare_counts(threshold);
        mask_tail(&mut gt, self.dim);
        gt
    }

    /// Bipolarizes the bundle straight to packed words without ever
    /// materializing integer sums, via a word-parallel comparison of every
    /// component's count `c` against the threshold `n/2`:
    /// `2c − n > 0 → 1`, `< 0 → 0`, `= 0 →` component parity (even → 1) —
    /// bit-identical to `bipolarize_sums(self.sums())`.
    pub fn bipolarize_packed(&mut self) -> Vec<u64> {
        self.flush();
        let threshold = (self.count / 2) as u64;
        let (mut out, eq) = self.compare_counts(threshold);
        // Ties (c == n/2, only possible for even n) break by parity:
        // even-indexed components map to 1. Bits 0, 2, 4 … of every word
        // are even positions.
        let tie_mask: u64 = if self.count.is_multiple_of(2) { 0x5555_5555_5555_5555 } else { 0 };
        for (o, &e) in out.iter_mut().zip(&eq) {
            *o |= e & tie_mask;
        }
        mask_tail(&mut out, self.dim);
        out
    }
}

/// Scalar reference implementations — the exact loops the packed kernels
/// replaced. They are the correctness oracles for the property tests
/// (`tests/kernel_properties.rs`) and the baselines for
/// `benches/kernels.rs`; keep them in sync with the documented semantics,
/// not with the kernels.
pub mod reference {
    /// Scalar integer dot product with `i64` widening (the seed's hot-path
    /// implementation of [`crate::dot`]).
    pub fn dot_scalar(a: &[i8], b: &[i8]) -> i64 {
        assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
        a.iter().zip(b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
    }

    /// Scalar cosine: `dot / D` for bipolar vectors.
    pub fn cosine_scalar(a: &[i8], b: &[i8]) -> f64 {
        dot_scalar(a, b) as f64 / a.len() as f64
    }

    /// Scalar Hamming distance (count of differing components).
    pub fn hamming_scalar(a: &[i8], b: &[i8]) -> usize {
        assert_eq!(a.len(), b.len(), "hamming: dimension mismatch");
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    /// Scalar binding: elementwise product.
    pub fn bind_scalar(a: &[i8], b: &[i8]) -> Vec<i8> {
        assert_eq!(a.len(), b.len(), "bind: dimension mismatch");
        a.iter().zip(b).map(|(&x, &y)| x * y).collect()
    }

    /// Scalar cyclic right-shift by `amount`.
    pub fn permute_scalar(components: &[i8], amount: usize) -> Vec<i8> {
        let dim = components.len();
        let k = amount % dim;
        let mut out = Vec::with_capacity(dim);
        out.extend_from_slice(&components[dim - k..]);
        out.extend_from_slice(&components[..dim - k]);
        out
    }

    /// Scalar bundling accumulate: `sums[d] += v[d]`.
    pub fn accumulate_scalar(sums: &mut [i32], v: &[i8]) {
        assert_eq!(sums.len(), v.len(), "accumulate: dimension mismatch");
        for (s, &c) in sums.iter_mut().zip(v) {
            *s += i32::from(c);
        }
    }

    /// The previous `pack_words` implementation: a scalar `movemask`
    /// emulation that gathers each 8-byte group's sign bits with a
    /// multiply. Kept as the baseline for the cold-pack delta benchmark
    /// (the live path uses a word-level bit-matrix transpose instead).
    pub fn pack_words_movemask(components: &[i8]) -> Vec<u64> {
        #[inline]
        fn movemask8(x: u64) -> u64 {
            ((x & 0x8080_8080_8080_8080) >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
        }
        #[inline]
        fn group_bits(chunk: &[i8]) -> u64 {
            movemask8(!super::load8(chunk))
        }
        let dim = components.len();
        let mut words = vec![0u64; super::words_for(dim)];
        let mut full_words = components.chunks_exact(super::WORD_BITS);
        for (word, chunk) in words.iter_mut().zip(&mut full_words) {
            *word = group_bits(&chunk[0..8])
                | group_bits(&chunk[8..16]) << 8
                | group_bits(&chunk[16..24]) << 16
                | group_bits(&chunk[24..32]) << 24
                | group_bits(&chunk[32..40]) << 32
                | group_bits(&chunk[40..48]) << 40
                | group_bits(&chunk[48..56]) << 48
                | group_bits(&chunk[56..64]) << 56;
        }
        let tail_start = dim - full_words.remainder().len();
        for (offset, &c) in full_words.remainder().iter().enumerate() {
            let i = tail_start + offset;
            if c == 1 {
                words[i / super::WORD_BITS] |= 1u64 << (i % super::WORD_BITS);
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bipolar(dim: usize, rng: &mut StdRng) -> Vec<i8> {
        (0..dim).map(|_| if rng.gen::<bool>() { 1 } else { -1 }).collect()
    }

    #[test]
    fn pack_matches_movemask_reference() {
        let mut rng = StdRng::seed_from_u64(14);
        for dim in [1, 7, 8, 63, 64, 65, 127, 128, 1000] {
            let v = random_bipolar(dim, &mut rng);
            assert_eq!(pack_words(&v), reference::pack_words_movemask(&v), "dim {dim}");
        }
    }

    #[test]
    fn pack_matches_bit_by_bit_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1, 7, 8, 9, 63, 64, 65, 127, 128, 130, 1000] {
            let v = random_bipolar(dim, &mut rng);
            let words = pack_words(&v);
            for (i, &c) in v.iter().enumerate() {
                let bit = (words[i / 64] >> (i % 64)) & 1;
                assert_eq!(bit == 1, c == 1, "dim {dim} bit {i}");
            }
            // Tail bits must be zero.
            if dim % 64 != 0 {
                assert_eq!(words[dim / 64] >> (dim % 64), 0, "dim {dim} tail");
            }
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for dim in [1, 63, 64, 65, 127, 1000] {
            let v = random_bipolar(dim, &mut rng);
            assert_eq!(unpack_words(&pack_words(&v), dim), v);
        }
    }

    #[test]
    fn hamming_and_dot_match_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for dim in [1, 63, 64, 65, 127, 129, 500] {
            let a = random_bipolar(dim, &mut rng);
            let b = random_bipolar(dim, &mut rng);
            let (pa, pb) = (pack_words(&a), pack_words(&b));
            assert_eq!(hamming_words(&pa, &pb), reference::hamming_scalar(&a, &b));
            assert_eq!(dot_words(&pa, &pb, dim), reference::dot_scalar(&a, &b));
        }
    }

    #[test]
    fn bind_matches_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        for dim in [1, 64, 65, 127, 300] {
            let a = random_bipolar(dim, &mut rng);
            let b = random_bipolar(dim, &mut rng);
            let packed = bind_words(&pack_words(&a), &pack_words(&b), dim);
            assert_eq!(unpack_words(&packed, dim), reference::bind_scalar(&a, &b));
        }
    }

    #[test]
    fn rotate_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        for dim in [1, 63, 64, 65, 127, 130, 333] {
            let v = random_bipolar(dim, &mut rng);
            let words = pack_words(&v);
            for k in [0, 1, 17, 63, 64, 65, dim - 1, dim, dim + 3] {
                let rotated = rotate_words(&words, dim, k);
                assert_eq!(
                    unpack_words(&rotated, dim),
                    reference::permute_scalar(&v, k),
                    "dim {dim} k {k}"
                );
                // The into-variant must agree even with dirty scratch.
                let mut out = vec![u64::MAX; words.len()];
                rotate_words_into(&words, dim, k, &mut out);
                assert_eq!(out, rotated, "into at dim {dim} k {k}");
            }
        }
    }

    #[test]
    fn bind_words_assign_matches_bind_words() {
        let mut rng = StdRng::seed_from_u64(15);
        for dim in [63, 64, 65, 200] {
            let a = pack_words(&random_bipolar(dim, &mut rng));
            let b = pack_words(&random_bipolar(dim, &mut rng));
            let mut acc = a.clone();
            bind_words_assign(&mut acc, &b, dim);
            assert_eq!(acc, bind_words(&a, &b, dim), "dim {dim}");
        }
    }

    #[test]
    fn negate_matches_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        for dim in [1, 64, 65, 200] {
            let v = random_bipolar(dim, &mut rng);
            let negated = negate_words(&pack_words(&v), dim);
            let expected: Vec<i8> = v.iter().map(|&c| -c).collect();
            assert_eq!(unpack_words(&negated, dim), expected);
        }
    }

    #[test]
    fn pack_sums_matches_scalar_bipolarization() {
        let sums = [3i32, -2, 0, 0, 7, -1, 0, 5, -9, 0];
        let words = pack_sums(&sums);
        // Scalar rule: +,-,tie-even,tie-odd,+,-,tie-even,+,-,tie-odd
        let expected = [1i8, -1, 1, -1, 1, -1, 1, 1, -1, -1];
        assert_eq!(unpack_words(&words, sums.len()), expected);
    }

    #[test]
    fn bit_counter_matches_integer_bundling() {
        let mut rng = StdRng::seed_from_u64(7);
        for dim in [63, 64, 65, 127, 400] {
            let mut counter = BitCounter::new(dim);
            let mut expected = vec![0i32; dim];
            for n in 1..=35usize {
                let v = random_bipolar(dim, &mut rng);
                counter.add(&pack_words(&v));
                for (e, &c) in expected.iter_mut().zip(&v) {
                    *e += i32::from(c);
                }
                assert_eq!(counter.count(), n);
            }
            assert_eq!(counter.sums(), expected, "dim {dim}");
        }
    }

    #[test]
    fn bit_counter_bipolarize_packed_matches_scalar_rule() {
        let mut rng = StdRng::seed_from_u64(10);
        for dim in [63, 64, 65, 127, 320] {
            let mut counter = BitCounter::new(dim);
            let mut sums = vec![0i32; dim];
            // Both parities of n, including n where ties are plentiful.
            for n in 1..=24usize {
                let v = random_bipolar(dim, &mut rng);
                counter.add(&pack_words(&v));
                for (s, &c) in sums.iter_mut().zip(&v) {
                    *s += i32::from(c);
                }
                let expected: Vec<i8> = sums
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
                let packed = counter.bipolarize_packed();
                assert_eq!(unpack_words(&packed, dim), expected, "dim {dim} n {n}");
            }
        }
    }

    #[test]
    fn bit_counter_bipolarize_packed_sparse_counts() {
        // Sparse adds keep every per-component count far below the
        // threshold n/2 (here max count 1, threshold 2): all sums are
        // negative, so the result must be all zeros — this is the case
        // where the threshold needs more bits than any plane holds.
        let dim = 8;
        let mut counter = BitCounter::new(dim);
        for i in 0..4usize {
            let mut one_hot = vec![0u64; words_for(dim)];
            one_hot[0] |= 1 << i;
            counter.add(&one_hot);
        }
        assert_eq!(counter.count(), 4);
        // sums = [-2, -2, -2, -2, -4, -4, -4, -4]
        assert_eq!(counter.sums(), vec![-2, -2, -2, -2, -4, -4, -4, -4]);
        let expected = vec![-1i8; dim];
        assert_eq!(unpack_words(&counter.bipolarize_packed(), dim), expected);
    }

    #[test]
    fn bit_counter_bipolarize_packed_empty_is_parity() {
        let mut counter = BitCounter::new(130);
        let packed = counter.bipolarize_packed();
        let expected: Vec<i8> = (0..130).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        assert_eq!(unpack_words(&packed, 130), expected);
    }

    #[test]
    fn csa_add_matches_ripple_reference() {
        // Cross group boundaries (8, 16, 32) and partial tails.
        let mut rng = StdRng::seed_from_u64(16);
        for dim in [63, 64, 65, 127, 400] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 33] {
                let mut csa = BitCounter::new(dim);
                let mut ripple = BitCounter::new(dim);
                for _ in 0..n {
                    let bits = pack_words(&random_bipolar(dim, &mut rng));
                    csa.add(&bits);
                    ripple.add_ripple(&bits);
                }
                assert_eq!(csa.count(), ripple.count());
                assert_eq!(csa.sums(), ripple.sums(), "dim {dim} n {n}");
                assert_eq!(csa.bipolarize_packed(), ripple.bipolarize_packed());
            }
        }
    }

    #[test]
    fn fused_adds_match_plain_adds() {
        let mut rng = StdRng::seed_from_u64(17);
        for dim in [65, 127, 320] {
            let a = pack_words(&random_bipolar(dim, &mut rng));
            let b = pack_words(&random_bipolar(dim, &mut rng));
            let mut fused = BitCounter::new(dim);
            fused.add_bound(&a, &b);
            fused.add_rotated(&a, 13);
            fused.add_rotated_bound(&a, 29, &b);
            let mut plain = BitCounter::new(dim);
            plain.add(&bind_words(&a, &b, dim));
            plain.add(&rotate_words(&a, dim, 13));
            plain.add(&bind_words(&rotate_words(&a, dim, 29), &b, dim));
            assert_eq!(fused.sums(), plain.sums(), "dim {dim}");
        }
    }

    #[test]
    fn threshold_packed_is_strict_majority() {
        let mut rng = StdRng::seed_from_u64(18);
        for dim in [64, 130] {
            for n in [2usize, 3, 8, 12] {
                let mut counter = BitCounter::new(dim);
                let mut sums = vec![0i32; dim];
                for _ in 0..n {
                    let v = random_bipolar(dim, &mut rng);
                    counter.add(&pack_words(&v));
                    reference::accumulate_scalar(&mut sums, &v);
                }
                let mask = counter.threshold_packed((n / 2) as u64);
                for (i, &s) in sums.iter().enumerate() {
                    let ones = (s + n as i32) / 2;
                    let expected = 2 * ones > n as i32;
                    let actual = (mask[i / 64] >> (i % 64)) & 1 == 1;
                    assert_eq!(actual, expected, "dim {dim} n {n} i {i}");
                }
            }
        }
    }

    #[test]
    fn bit_counter_clear_reuses_planes() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut counter = BitCounter::new(128);
        for _ in 0..9 {
            counter.add(&pack_words(&random_bipolar(128, &mut rng)));
        }
        counter.clear();
        assert_eq!(counter.count(), 0);
        let v = random_bipolar(128, &mut rng);
        counter.add(&pack_words(&v));
        let expected: Vec<i32> = v.iter().map(|&c| i32::from(c)).collect();
        assert_eq!(counter.sums(), expected);
    }

    #[test]
    fn bind_words_into_matches_bind_words() {
        let mut rng = StdRng::seed_from_u64(9);
        for dim in [64, 65, 130] {
            let a = pack_words(&random_bipolar(dim, &mut rng));
            let b = pack_words(&random_bipolar(dim, &mut rng));
            let mut out = vec![u64::MAX; a.len()]; // dirty scratch
            bind_words_into(&a, &b, dim, &mut out);
            assert_eq!(out, bind_words(&a, &b, dim), "dim {dim}");
        }
    }

    #[test]
    fn set_counts_round_trip_preserves_counter_state() {
        let mut rng = StdRng::seed_from_u64(27);
        for dim in [63usize, 64, 65, 130] {
            // Partial CSA groups (n % 8 != 0) exercise flush-on-read.
            for n in [1usize, 5, 8, 19] {
                let mut counter = BitCounter::new(dim);
                for _ in 0..n {
                    counter.add(&pack_words(&random_bipolar(dim, &mut rng)));
                }
                let counts = counter.clone().set_counts();
                assert!(counts.iter().all(|&c| c <= n as u64), "dim {dim} n {n}");
                let mut rebuilt = BitCounter::from_set_counts(dim, &counts, n);
                assert_eq!(rebuilt.count(), n);
                assert_eq!(rebuilt.sums(), counter.clone().sums(), "dim {dim} n {n}");
                assert_eq!(
                    rebuilt.bipolarize_packed(),
                    counter.clone().bipolarize_packed(),
                    "dim {dim} n {n}"
                );
                // The rebuilt counter keeps learning identically.
                let extra = pack_words(&random_bipolar(dim, &mut rng));
                let mut original = counter.clone();
                original.add(&extra);
                rebuilt.add(&extra);
                assert_eq!(rebuilt.sums(), original.sums(), "dim {dim} n {n} after add");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds bundle size")]
    fn from_set_counts_rejects_implausible_counts() {
        let _ = BitCounter::from_set_counts(4, &[3, 0, 1, 2], 2);
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(10_000), 157);
    }
}
