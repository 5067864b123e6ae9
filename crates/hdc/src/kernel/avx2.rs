//! AVX2 implementations of the hot packed kernels — the
//! [`Backend::Avx2`](super::backend::Backend::Avx2) tier.
//!
//! Three shapes live here, mirroring ROADMAP item 2:
//!
//! 1. **Harley–Seal popcount** ([`hamming_words`], [`hamming_block4`]):
//!    XOR + population count over 256-bit lanes. Blocks of 16 vectors run
//!    through a carry-save-adder tree so only one in sixteen vectors pays a
//!    full byte-popcount (`vpshufb` nibble lookup + `vpsadbw` horizontal
//!    sum); the four-reference block variant loads each query vector once
//!    against four class vectors, which is what makes the fused AM scan
//!    cheaper than a loop of single distances.
//! 2. **Sign-gather pack** ([`pack_full_words`]): `vpmovmskb` collects the
//!    sign bit of 32 bipolar bytes per instruction, so one packed `u64`
//!    costs two loads + two movemasks + one NOT — the real instruction the
//!    portable bit-matrix transpose emulates.
//! 3. **Counter plane ops** ([`csa_compress8`], [`ripple_step`],
//!    [`xor_flip_words_into`], [`xnor_words_assign`], [`compare_step_zero`],
//!    [`compare_step_one`]): the bitwise inner loops of
//!    [`BitCounter`](super::BitCounter) — the 8:4 compressor, the
//!    ripple-carry plane update, fused XNOR/XOR slot fills, and the
//!    most-significant-first threshold compare — four words per operation.
//!
//! Every public function here is a **safe wrapper** that asserts the
//! cached AVX2 CPU check before entering the `#[target_feature]` inner
//! function, so the `unsafe` surface never leaks past this module; the
//! dispatchers in [`super`] additionally clamp unsupported backend
//! requests to portable before getting here. All variants are bit-exact
//! with the portable kernels — the differential property tests in
//! `tests/kernel_properties.rs` pin them to the same scalar oracles.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
    _mm256_extract_epi64, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_or_si256,
    _mm256_sad_epu8, _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_testz_si256,
    _mm256_xor_si256,
};

use super::backend;

/// Words per 256-bit lane.
const LANE_WORDS: usize = 4;

/// Vectors per Harley–Seal block: 16 lanes × 4 words.
const HS_BLOCK_WORDS: usize = 16 * LANE_WORDS;

#[inline]
fn assert_avx2() {
    // `is_x86_feature_detected!` caches in an atomic, so this is one
    // relaxed load — negligible against any kernel body. It is what makes
    // the wrappers sound even on a rogue direct call.
    assert!(backend::avx2_available(), "AVX2 kernel invoked on a CPU without AVX2");
}

/// Hamming distance between two equal-length word slices (tail bits must
/// be zeroed, as everywhere in this crate).
#[inline]
pub(super) fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
    assert_avx2();
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: AVX2 availability asserted above; slice lengths checked by
    // the implementation's own loop bounds.
    unsafe { hamming_words_impl(a, b) }
}

/// Hamming distances from one query to four references at once, sharing
/// each query load across all four XORs. All five slices must have equal
/// length.
#[inline]
pub(super) fn hamming_block4(query: &[u64], refs: [&[u64]; 4], out: &mut [u64; 4]) {
    assert_avx2();
    for r in refs {
        debug_assert_eq!(query.len(), r.len());
    }
    // SAFETY: AVX2 availability asserted above.
    unsafe { hamming_block4_impl(query, refs, out) }
}

/// Packs the full 64-component chunks of `components` into `words` via
/// `vpmovmskb` sign gather; the sub-word tail (if any) is the caller's
/// job (shared with the portable path).
#[inline]
pub(super) fn pack_full_words(components: &[i8], words: &mut [u64]) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; the implementation only
    // touches the first `components.len() / 64` words.
    unsafe { pack_full_words_impl(components, words) }
}

/// `out[i] = a[i] ^ b[i] ^ flip` — into a slot: the packed bind (XNOR)
/// with `flip = !0`, its complement (XOR) with `flip = 0`.
#[inline]
pub(super) fn xor_flip_words_into(a: &[u64], b: &[u64], flip: u64, out: &mut [u64]) {
    assert_avx2();
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { xor_flip_words_into_impl(a, b, flip, out) }
}

/// `acc[i] = !(acc[i] ^ other[i])` — in-place packed bind.
#[inline]
pub(super) fn xnor_words_assign(acc: &mut [u64], other: &[u64]) {
    assert_avx2();
    debug_assert_eq!(acc.len(), other.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { xnor_words_assign_impl(acc, other) }
}

/// The 8:4 compressor of [`BitCounter::flush_group`](super::BitCounter):
/// compresses 8 pending vectors (`pending`, 8 × `n_words`) into 4 weight
/// planes (`csa`, 4 × `n_words`), 256 bit positions per step.
#[inline]
pub(super) fn csa_compress8(pending: &[u64], csa: &mut [u64], n_words: usize) {
    assert_avx2();
    debug_assert_eq!(pending.len(), 8 * n_words);
    debug_assert_eq!(csa.len(), 4 * n_words);
    // SAFETY: AVX2 availability asserted above.
    unsafe { csa_compress8_impl(pending, csa, n_words) }
}

/// One ripple-carry plane update: `carry, plane = plane & carry, plane ^
/// carry`. Returns non-zero iff any carry survives (the early-out the
/// scalar loop also takes).
#[inline]
pub(super) fn ripple_step(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    assert_avx2();
    debug_assert_eq!(plane.len(), carry.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { ripple_step_impl(plane, carry) }
}

/// One full-adder plane update for a counter merge: `plane, carry =
/// plane ^ addend ^ carry, majority(plane, addend, carry)`.
#[inline]
pub(super) fn full_add_step(plane: &mut [u64], addend: &[u64], carry: &mut [u64]) {
    assert_avx2();
    debug_assert_eq!(plane.len(), carry.len());
    debug_assert_eq!(addend.len(), carry.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { full_add_step_impl(plane, addend, carry) }
}

/// Threshold-compare step for a `0` threshold bit: `gt |= eq & plane; eq
/// &= !plane`.
#[inline]
pub(super) fn compare_step_zero(gt: &mut [u64], eq: &mut [u64], plane: &[u64]) {
    assert_avx2();
    debug_assert_eq!(gt.len(), plane.len());
    debug_assert_eq!(eq.len(), plane.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { compare_step_zero_impl(gt, eq, plane) }
}

/// Threshold-compare step for a `1` threshold bit: `eq &= plane`.
#[inline]
pub(super) fn compare_step_one(eq: &mut [u64], plane: &[u64]) {
    assert_avx2();
    debug_assert_eq!(eq.len(), plane.len());
    // SAFETY: AVX2 availability asserted above.
    unsafe { compare_step_one_impl(eq, plane) }
}

/// Byte-wise popcount: `vpshufb` nibble lookup, no per-bit work.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_bytes(v: __m256i) -> __m256i {
    let lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // popcount(0..=15)
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi))
}

/// Accumulates the byte-popcounts of `v` into `acc`'s four `u64` lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sad_accumulate(acc: __m256i, v: __m256i) -> __m256i {
    _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()))
}

/// Carry-save adder over 256 lanes: `a + b + c = low + 2·high` per bit.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    let u = _mm256_xor_si256(a, b);
    (_mm256_xor_si256(u, c), _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c)))
}

/// Sums the four `u64` lanes of a `vpsadbw` accumulator.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_lanes(acc: __m256i) -> u64 {
    (_mm256_extract_epi64::<0>(acc) as u64)
        .wrapping_add(_mm256_extract_epi64::<1>(acc) as u64)
        .wrapping_add(_mm256_extract_epi64::<2>(acc) as u64)
        .wrapping_add(_mm256_extract_epi64::<3>(acc) as u64)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load(ptr: *const u64) -> __m256i {
    unsafe { _mm256_loadu_si256(ptr.cast::<__m256i>()) }
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store(ptr: *mut u64, v: __m256i) {
    unsafe { _mm256_storeu_si256(ptr.cast::<__m256i>(), v) }
}

#[target_feature(enable = "avx2")]
unsafe fn hamming_words_impl(a: &[u64], b: &[u64]) -> u64 {
    unsafe {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut total = _mm256_setzero_si256();
        let mut i = 0usize;

        // Harley–Seal: a CSA tree folds 16 XORed lanes into running
        // ones/twos/fours/eights planes; only the weight-16 carry-out pays
        // a byte popcount per block, the partial planes are counted once at
        // the end.
        let mut ones = _mm256_setzero_si256();
        let mut twos = _mm256_setzero_si256();
        let mut fours = _mm256_setzero_si256();
        let mut eights = _mm256_setzero_si256();
        while i + HS_BLOCK_WORDS <= n {
            let d = |k: usize| _mm256_xor_si256(load(pa.add(i + 4 * k)), load(pb.add(i + 4 * k)));
            let (o, twos_a) = csa(ones, d(0), d(1));
            let (o, twos_b) = csa(o, d(2), d(3));
            let (t, fours_a) = csa(twos, twos_a, twos_b);
            let (o, twos_a) = csa(o, d(4), d(5));
            let (o, twos_b) = csa(o, d(6), d(7));
            let (t, fours_b) = csa(t, twos_a, twos_b);
            let (f, eights_a) = csa(fours, fours_a, fours_b);
            let (o, twos_a) = csa(o, d(8), d(9));
            let (o, twos_b) = csa(o, d(10), d(11));
            let (t, fours_a) = csa(t, twos_a, twos_b);
            let (o, twos_a) = csa(o, d(12), d(13));
            let (o, twos_b) = csa(o, d(14), d(15));
            let (t, fours_b) = csa(t, twos_a, twos_b);
            let (f, eights_b) = csa(f, fours_a, fours_b);
            let (e, sixteens) = csa(eights, eights_a, eights_b);
            ones = o;
            twos = t;
            fours = f;
            eights = e;
            total = sad_accumulate(total, sixteens);
            i += HS_BLOCK_WORDS;
        }
        let mut count = reduce_lanes(total) * 16;
        count += reduce_lanes(sad_accumulate(_mm256_setzero_si256(), eights)) * 8;
        count += reduce_lanes(sad_accumulate(_mm256_setzero_si256(), fours)) * 4;
        count += reduce_lanes(sad_accumulate(_mm256_setzero_si256(), twos)) * 2;
        let mut tail = sad_accumulate(_mm256_setzero_si256(), ones);

        // Whole 256-bit lanes past the last full block.
        while i + LANE_WORDS <= n {
            tail = sad_accumulate(tail, _mm256_xor_si256(load(pa.add(i)), load(pb.add(i))));
            i += LANE_WORDS;
        }
        count += reduce_lanes(tail);

        // Sub-lane words.
        while i < n {
            count += u64::from((*pa.add(i) ^ *pb.add(i)).count_ones());
            i += 1;
        }
        count
    }
}

#[target_feature(enable = "avx2")]
unsafe fn hamming_block4_impl(query: &[u64], refs: [&[u64]; 4], out: &mut [u64; 4]) {
    unsafe {
        let n = query.len();
        let q = query.as_ptr();
        let ptrs = [refs[0].as_ptr(), refs[1].as_ptr(), refs[2].as_ptr(), refs[3].as_ptr()];
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            // One query load feeds all four reference XORs — the memory
            // amortization the fused AM scan exists for.
            let qv = load(q.add(i));
            for (a, p) in acc.iter_mut().zip(ptrs) {
                *a = sad_accumulate(*a, _mm256_xor_si256(qv, load(p.add(i))));
            }
            i += LANE_WORDS;
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o = reduce_lanes(a);
        }
        while i < n {
            let qw = *q.add(i);
            for (o, p) in out.iter_mut().zip(ptrs) {
                *o += u64::from((qw ^ *p.add(i)).count_ones());
            }
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn pack_full_words_impl(components: &[i8], words: &mut [u64]) {
    unsafe {
        let full = components.len() / 64;
        debug_assert!(words.len() >= full);
        let src = components.as_ptr();
        for (w, word) in words.iter_mut().enumerate().take(full) {
            // `vpmovmskb` gathers the sign bit of 32 bytes per call; bipolar
            // `-1` bytes have it set, so one NOT yields `+1 → 1` packing.
            let lo = _mm256_loadu_si256(src.add(w * 64).cast::<__m256i>());
            let hi = _mm256_loadu_si256(src.add(w * 64 + 32).cast::<__m256i>());
            let lo_mask = _mm256_movemask_epi8(lo) as u32 as u64;
            let hi_mask = _mm256_movemask_epi8(hi) as u32 as u64;
            *word = !(lo_mask | (hi_mask << 32));
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn xor_flip_words_into_impl(a: &[u64], b: &[u64], flip: u64, out: &mut [u64]) {
    unsafe {
        let n = a.len();
        let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let flips = _mm256_set1_epi64x(flip.cast_signed());
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            let x = _mm256_xor_si256(load(pa.add(i)), load(pb.add(i)));
            store(po.add(i), _mm256_xor_si256(x, flips));
            i += LANE_WORDS;
        }
        while i < n {
            *po.add(i) = *pa.add(i) ^ *pb.add(i) ^ flip;
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn xnor_words_assign_impl(acc: &mut [u64], other: &[u64]) {
    unsafe {
        let n = acc.len();
        let (pa, po) = (acc.as_mut_ptr(), other.as_ptr());
        let ones = _mm256_set1_epi8(-1);
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            let x = _mm256_xor_si256(load(pa.add(i)), load(po.add(i)));
            store(pa.add(i), _mm256_xor_si256(x, ones));
            i += LANE_WORDS;
        }
        while i < n {
            *pa.add(i) = !(*pa.add(i) ^ *po.add(i));
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn csa_compress8_impl(pending: &[u64], out: &mut [u64], n_words: usize) {
    unsafe {
        let p = pending.as_ptr();
        let c = out.as_mut_ptr();
        let lane = |slot: usize, i: usize| load(p.add(slot * n_words + i));
        let mut i = 0usize;
        while i + LANE_WORDS <= n_words {
            // Same 8:4 compressor as the scalar loop, 256 positions per
            // step: x0+…+x7 = ones + 2·twos + 4·fours + 8·eights.
            let (s1, c1) = csa(lane(0, i), lane(1, i), lane(2, i));
            let (s2, c2) = csa(lane(3, i), lane(4, i), lane(5, i));
            let (s3, c3) = csa(lane(6, i), lane(7, i), s1);
            let ones = _mm256_xor_si256(s2, s3);
            let c4 = _mm256_and_si256(s2, s3);
            let (t1, d1) = csa(c1, c2, c3);
            let twos = _mm256_xor_si256(t1, c4);
            let d2 = _mm256_and_si256(t1, c4);
            store(c.add(i), ones);
            store(c.add(n_words + i), twos);
            store(c.add(2 * n_words + i), _mm256_xor_si256(d1, d2));
            store(c.add(3 * n_words + i), _mm256_and_si256(d1, d2));
            i += LANE_WORDS;
        }
        while i < n_words {
            let word = |slot: usize| *p.add(slot * n_words + i);
            let (s1, c1) = super::full_add(word(0), word(1), word(2));
            let (s2, c2) = super::full_add(word(3), word(4), word(5));
            let (s3, c3) = super::full_add(word(6), word(7), s1);
            let ones = s2 ^ s3;
            let c4 = s2 & s3;
            let (t1, d1) = super::full_add(c1, c2, c3);
            *c.add(i) = ones;
            *c.add(n_words + i) = t1 ^ c4;
            let d2 = t1 & c4;
            *c.add(2 * n_words + i) = d1 ^ d2;
            *c.add(3 * n_words + i) = d1 & d2;
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn ripple_step_impl(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    unsafe {
        let n = plane.len();
        let (pp, pc) = (plane.as_mut_ptr(), carry.as_mut_ptr());
        let mut any_v = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            let p = load(pp.add(i));
            let c = load(pc.add(i));
            let new_carry = _mm256_and_si256(p, c);
            store(pp.add(i), _mm256_xor_si256(p, c));
            store(pc.add(i), new_carry);
            any_v = _mm256_or_si256(any_v, new_carry);
            i += LANE_WORDS;
        }
        let mut any = u64::from(_mm256_testz_si256(any_v, any_v) == 0);
        while i < n {
            let new_carry = *pp.add(i) & *pc.add(i);
            *pp.add(i) ^= *pc.add(i);
            *pc.add(i) = new_carry;
            any |= new_carry;
            i += 1;
        }
        any
    }
}

#[target_feature(enable = "avx2")]
unsafe fn full_add_step_impl(plane: &mut [u64], addend: &[u64], carry: &mut [u64]) {
    unsafe {
        let n = plane.len();
        let (pp, pa, pc) = (plane.as_mut_ptr(), addend.as_ptr(), carry.as_mut_ptr());
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            let p = load(pp.add(i));
            let a = load(pa.add(i));
            let c = load(pc.add(i));
            let pa_xor = _mm256_xor_si256(p, a);
            store(pp.add(i), _mm256_xor_si256(pa_xor, c));
            store(pc.add(i), _mm256_or_si256(_mm256_and_si256(p, a), _mm256_and_si256(pa_xor, c)));
            i += LANE_WORDS;
        }
        while i < n {
            (*pp.add(i), *pc.add(i)) = super::full_add(*pp.add(i), *pa.add(i), *pc.add(i));
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn compare_step_zero_impl(gt: &mut [u64], eq: &mut [u64], plane: &[u64]) {
    unsafe {
        let n = plane.len();
        let (pg, pe, pp) = (gt.as_mut_ptr(), eq.as_mut_ptr(), plane.as_ptr());
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            let g = load(pg.add(i));
            let e = load(pe.add(i));
            let p = load(pp.add(i));
            store(pg.add(i), _mm256_or_si256(g, _mm256_and_si256(e, p)));
            store(pe.add(i), _mm256_andnot_si256(p, e));
            i += LANE_WORDS;
        }
        while i < n {
            *pg.add(i) |= *pe.add(i) & *pp.add(i);
            *pe.add(i) &= !*pp.add(i);
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn compare_step_one_impl(eq: &mut [u64], plane: &[u64]) {
    unsafe {
        let n = plane.len();
        let (pe, pp) = (eq.as_mut_ptr(), plane.as_ptr());
        let mut i = 0usize;
        while i + LANE_WORDS <= n {
            store(pe.add(i), _mm256_and_si256(load(pe.add(i)), load(pp.add(i))));
            i += LANE_WORDS;
        }
        while i < n {
            *pe.add(i) &= *pp.add(i);
            i += 1;
        }
    }
}
