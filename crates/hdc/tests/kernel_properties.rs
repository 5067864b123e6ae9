//! Property tests pinning the word-packed kernels to the scalar reference
//! oracles (`hdc::kernel::reference`) at dimensions chosen to stress tail
//! masking: one under, at, and over the 64-bit word boundary, a two-word
//! boundary, and the paper's production dimension.
//!
//! The packed path must be **bit-exact** with the seed's scalar semantics —
//! these tests are the contract that lets `dot`, `cosine`, `hamming`,
//! `bind` and `permute` run on words without anyone downstream noticing.

use hdc::kernel::{self, reference, Backend, BitCounter};
use hdc::Hypervector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The boundary dimensions under test.
const DIMS: [usize; 5] = [63, 64, 65, 127, 10_000];

fn hv(dim: usize, seed: u64) -> Hypervector {
    Hypervector::random(dim, &mut StdRng::seed_from_u64(seed))
}

/// Every compiled tier the running CPU can execute.
fn runnable_backends() -> Vec<Backend> {
    Backend::compiled().iter().copied().filter(|b| b.supported()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_dot_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0x5eed);
            prop_assert_eq!(
                hdc::dot(&a, &b),
                reference::dot_scalar(a.as_slice(), b.as_slice()),
                "dim {}", dim
            );
        }
    }

    #[test]
    fn packed_cosine_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0xc05);
            let packed = hdc::cosine(&a, &b);
            let scalar = reference::cosine_scalar(a.as_slice(), b.as_slice());
            // dot is integer-exact, so the quotient is bit-identical.
            prop_assert_eq!(packed, scalar, "dim {}", dim);
        }
    }

    #[test]
    fn packed_hamming_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0x4a);
            prop_assert_eq!(
                hdc::hamming(&a, &b),
                reference::hamming_scalar(a.as_slice(), b.as_slice()),
                "dim {}", dim
            );
        }
    }

    #[test]
    fn packed_bind_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0xb1);
            // Force the mirrors so bind takes the word-level XNOR path.
            let _ = (a.packed(), b.packed());
            let bound = a.bind(&b).expect("same dim");
            prop_assert_eq!(
                bound.as_slice(),
                &reference::bind_scalar(a.as_slice(), b.as_slice())[..],
                "dim {}", dim
            );
            // And the carried mirror must agree with a from-scratch pack.
            prop_assert_eq!(
                bound.packed().words(),
                &kernel::pack_words(bound.as_slice())[..],
                "mirror at dim {}", dim
            );
        }
    }

    #[test]
    fn packed_permute_matches_scalar(seed in any::<u64>(), amount in 0usize..600) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let _ = a.packed();
            let rotated = a.permute(amount);
            prop_assert_eq!(
                rotated.as_slice(),
                &reference::permute_scalar(a.as_slice(), amount)[..],
                "dim {} amount {}", dim, amount
            );
            prop_assert_eq!(
                rotated.packed().words(),
                &kernel::pack_words(rotated.as_slice())[..],
                "mirror at dim {} amount {}", dim, amount
            );
        }
    }

    #[test]
    fn pack_round_trips_and_masks_tail(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let words = kernel::pack_words(a.as_slice());
            prop_assert_eq!(&kernel::unpack_words(&words, dim)[..], a.as_slice(), "dim {}", dim);
            if dim % 64 != 0 {
                prop_assert_eq!(words[dim / 64] >> (dim % 64), 0, "tail at dim {}", dim);
            }
        }
    }

    #[test]
    fn bit_counter_bundling_matches_integer_sums(seed in any::<u64>(), n in 1usize..12) {
        for dim in DIMS {
            let vectors: Vec<Hypervector> =
                (0..n).map(|k| hv(dim, seed ^ (k as u64) << 8)).collect();
            let mut counter = BitCounter::new(dim);
            let mut sums = vec![0i32; dim];
            for v in &vectors {
                counter.add(v.packed().words());
                for (s, &c) in sums.iter_mut().zip(v.as_slice()) {
                    *s += i32::from(c);
                }
            }
            prop_assert_eq!(&counter.sums()[..], &sums[..], "dim {}", dim);
            // The direct packed bipolarization agrees with the scalar rule.
            let expected: Vec<i8> = sums
                .iter()
                .enumerate()
                .map(|(i, &s)| match s.cmp(&0) {
                    std::cmp::Ordering::Greater => 1,
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => if i % 2 == 0 { 1 } else { -1 },
                })
                .collect();
            prop_assert_eq!(
                &kernel::unpack_words(&counter.bipolarize_packed(), dim)[..],
                &expected[..],
                "bipolarize at dim {}", dim
            );
        }
    }

    #[test]
    fn csa_tree_counter_matches_ripple_carry_reference(seed in any::<u64>(), n in 1usize..40) {
        // The buffered CSA-tree bundling path (`add`) against the
        // ripple-carry-per-vector reference (`add_ripple`), across group
        // boundaries (n spans several multiples of the flush group) and
        // mixed with fused adds.
        for dim in DIMS {
            let mut csa = BitCounter::new(dim);
            let mut ripple = BitCounter::new(dim);
            for k in 0..n {
                let v = hv(dim, seed ^ ((k as u64) << 16));
                let bits = v.packed().words();
                match k % 3 {
                    0 => csa.add(bits),
                    1 => csa.add_rotated(bits, k),
                    _ => {
                        let w = hv(dim, seed ^ 0xb0b ^ (k as u64));
                        csa.add_bound(bits, w.packed().words());
                        ripple.add_ripple(&kernel::bind_words(bits, w.packed().words(), dim));
                        continue;
                    }
                }
                if k % 3 == 0 {
                    ripple.add_ripple(bits);
                } else {
                    ripple.add_ripple(&kernel::rotate_words(bits, dim, k));
                }
            }
            prop_assert_eq!(csa.count(), ripple.count(), "count at dim {}", dim);
            prop_assert_eq!(csa.sums(), ripple.sums(), "sums at dim {}", dim);
            prop_assert_eq!(
                csa.bipolarize_packed(),
                ripple.bipolarize_packed(),
                "bipolarize at dim {}", dim
            );
        }
    }
}

/// Differential backend exactness: every kernel tier compiled into this
/// binary **and** supported by the running CPU must agree bit-for-bit with
/// the scalar oracles — and with each other — at every boundary dimension.
/// This is the contract that lets the AVX2 tier (Harley–Seal popcount,
/// `vpmovmskb` pack, vectorized counter planes) dispatch transparently: if
/// any SIMD shortcut diverged (tail handling, parity ties, carry
/// propagation), one of these properties would catch it. On CPUs without
/// AVX2 the loop quietly degenerates to scalar + portable, so the suite
/// stays meaningful everywhere.
mod backend_exactness {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn hamming_and_dot_match_scalar_oracle(seed in any::<u64>()) {
            for dim in DIMS {
                let a = hv(dim, seed);
                let b = hv(dim, seed ^ 0xbac);
                let pa = kernel::pack_words(a.as_slice());
                let pb = kernel::pack_words(b.as_slice());
                let expected = reference::hamming_scalar(a.as_slice(), b.as_slice());
                for backend in runnable_backends() {
                    prop_assert_eq!(
                        kernel::hamming_words_with(backend, &pa, &pb),
                        expected,
                        "hamming backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn pack_matches_oracle_and_masks_tail(seed in any::<u64>()) {
            for dim in DIMS {
                let a = hv(dim, seed);
                let expected = kernel::pack_words(a.as_slice());
                for backend in runnable_backends() {
                    // Dirty scratch: every word must be assigned, and the
                    // tail bits past `dim` must come out zero (the
                    // mask_tail invariant hamming relies on).
                    let mut words = vec![u64::MAX; kernel::words_for(dim)];
                    kernel::pack_words_into_with(backend, a.as_slice(), &mut words);
                    prop_assert_eq!(
                        &words[..], &expected[..],
                        "pack backend {} dim {}", backend, dim
                    );
                    if dim % 64 != 0 {
                        prop_assert_eq!(
                            words[dim / 64] >> (dim % 64), 0,
                            "tail backend {} dim {}", backend, dim
                        );
                    }
                }
            }
        }

        #[test]
        fn hamming_many_matches_loop_of_hamming_words(seed in any::<u64>(), n in 1usize..14) {
            for dim in DIMS {
                let query = hv(dim, seed);
                let qw = kernel::pack_words(query.as_slice());
                let packed: Vec<Vec<u64>> = (0..n)
                    .map(|k| kernel::pack_words(hv(dim, seed ^ ((k as u64) << 9)).as_slice()))
                    .collect();
                let refs: Vec<&[u64]> = packed.iter().map(Vec::as_slice).collect();
                let expected: Vec<usize> =
                    refs.iter().map(|r| kernel::hamming_words_with(Backend::Scalar, &qw, r)).collect();
                for backend in runnable_backends() {
                    let mut out = vec![usize::MAX; n];
                    kernel::hamming_many_into_with(backend, &qw, &refs, &mut out);
                    prop_assert_eq!(
                        &out[..], &expected[..],
                        "hamming_many backend {} dim {} n {}", backend, dim, n
                    );
                }
            }
        }

        #[test]
        fn bit_counter_matches_ripple_oracle(seed in any::<u64>(), n in 1usize..40) {
            // The mixed fused-add workload of the portable CSA test, run on
            // every backend tier against the same ripple-carry oracle:
            // plane compressor, carry propagation, threshold compare and
            // parity tie-breaks must all survive vectorization.
            for dim in DIMS {
                let mut ripple = BitCounter::new_with_backend(dim, Backend::Portable);
                let mut counters: Vec<(Backend, BitCounter)> = runnable_backends()
                    .into_iter()
                    .map(|b| (b, BitCounter::new_with_backend(dim, b)))
                    .collect();
                for k in 0..n {
                    let v = hv(dim, seed ^ ((k as u64) << 16));
                    let bits = v.packed().words();
                    let w = hv(dim, seed ^ 0xd1f ^ (k as u64));
                    let other = w.packed().words();
                    match k % 4 {
                        0 => ripple.add_ripple(bits),
                        1 => ripple.add_ripple(&kernel::rotate_words(bits, dim, k)),
                        2 => ripple.add_ripple(&kernel::bind_words(bits, other, dim)),
                        _ => ripple.add_ripple(&kernel::bind_words(
                            &kernel::rotate_words(bits, dim, k), other, dim,
                        )),
                    }
                    for (_, c) in counters.iter_mut() {
                        match k % 4 {
                            0 => c.add(bits),
                            1 => c.add_rotated(bits, k),
                            2 => c.add_bound(bits, other),
                            _ => c.add_rotated_bound(bits, k, other),
                        }
                    }
                }
                let sums = ripple.sums();
                let bipolar = ripple.bipolarize_packed();
                let majority = ripple.threshold_packed((n / 2) as u64);
                for (backend, c) in counters.iter_mut() {
                    prop_assert_eq!(c.count(), n, "count backend {} dim {}", backend, dim);
                    prop_assert_eq!(&c.sums()[..], &sums[..], "sums backend {} dim {}", backend, dim);
                    prop_assert_eq!(
                        &c.bipolarize_packed()[..], &bipolar[..],
                        "bipolarize backend {} dim {}", backend, dim
                    );
                    prop_assert_eq!(
                        &c.threshold_packed((n / 2) as u64)[..], &majority[..],
                        "threshold backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn moves_from_a_copied_start_match_ripple_oracle(
            seed in any::<u64>(), n in 1usize..40, k in 0usize..12,
        ) {
            // An encode that starts from a stored bundle: `n` bound rows
            // are bundled and flushed, copied into a dirty counter, then
            // `k` rows move from an old value to a new one (complement add
            // of the old row, add of the new). The ripple oracle adds the
            // same vectors one at a time; the bundle of the moved rows
            // from zero must give the same sums and bits (the n + 2k
            // invariant), with the count at n + 2k.
            for dim in DIMS {
                let position = |j: usize| hv(dim, seed ^ ((j as u64) << 20));
                let value = |j: usize, version: u64| hv(dim, seed ^ 0xa1 ^ ((j as u64) << 12) ^ version);
                let bound = |j: usize, version: u64| {
                    kernel::bind_words(position(j).packed().words(), value(j, version).packed().words(), dim)
                };
                let moves = k.min(n);
                let mut ripple = BitCounter::new_with_backend(dim, Backend::Portable);
                let mut target = BitCounter::new_with_backend(dim, Backend::Portable);
                for j in 0..n {
                    ripple.add_ripple(&bound(j, 0));
                    target.add_ripple(&bound(j, u64::from(j < moves)));
                }
                for j in 0..moves {
                    ripple.add_ripple(&kernel::negate_words(&bound(j, 0), dim));
                    ripple.add_ripple(&bound(j, 1));
                }
                let sums = ripple.sums();
                prop_assert_eq!(&sums[..], &target.sums()[..], "n + 2k invariant at dim {}", dim);
                let bits = ripple.bipolarize_packed();
                prop_assert_eq!(&bits[..], &target.bipolarize_packed()[..], "bits at dim {}", dim);
                for backend in runnable_backends() {
                    let mut start = BitCounter::new_with_backend(dim, backend);
                    for j in 0..n {
                        start.add_bound(position(j).packed().words(), value(j, 0).packed().words());
                    }
                    start.flush();
                    let mut counter = BitCounter::new_with_backend(dim, backend);
                    counter.add(hv(dim, !seed).packed().words());
                    counter.copy_from(&start);
                    prop_assert_eq!(counter.count(), n, "copied count backend {} dim {}", backend, dim);
                    prop_assert_eq!(
                        &counter.sums()[..], &start.sums()[..],
                        "copied sums backend {} dim {}", backend, dim
                    );
                    for j in 0..moves {
                        let p = position(j);
                        counter.add_bound_complement(p.packed().words(), value(j, 0).packed().words());
                        counter.add_bound(p.packed().words(), value(j, 1).packed().words());
                    }
                    prop_assert_eq!(counter.count(), n + 2 * moves, "count backend {} dim {}", backend, dim);
                    prop_assert_eq!(&counter.sums()[..], &sums[..], "sums backend {} dim {}", backend, dim);
                    prop_assert_eq!(
                        &counter.bipolarize_packed()[..], &bits[..],
                        "bipolarize backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn merged_counters_match_ripple_oracle(seed in any::<u64>()) {
            // `set_sum` of two flushed counters must be the counter that
            // ripples all their vectors one at a time: merges into fewer,
            // equal and more planes, an empty counter on either side, even
            // and odd totals (so parity ties), and carries out of the top
            // plane, which every other vector being the same one forces.
            let shapes =
                [(0, 0), (0, 5), (5, 0), (1, 1), (3, 1), (2, 13), (13, 2), (8, 9), (9, 9), (39, 1)];
            for dim in DIMS {
                let vector = |j: usize| match j % 2 {
                    0 => hv(dim, seed),
                    _ => hv(dim, seed ^ ((j as u64) << 20)),
                };
                let mut carried_out = false;
                for (na, nb) in shapes {
                    let mut ripple = BitCounter::new_with_backend(dim, Backend::Portable);
                    for j in 0..na + nb {
                        ripple.add_ripple(vector(j).packed().words());
                    }
                    for backend in runnable_backends() {
                        let mut a = BitCounter::new_with_backend(dim, backend);
                        let mut b = BitCounter::new_with_backend(dim, backend);
                        for j in 0..na + nb {
                            let counter = if j < na { &mut a } else { &mut b };
                            counter.add(vector(j).packed().words());
                        }
                        a.flush();
                        b.flush();
                        let width = |counts: Vec<u64>| {
                            u64::BITS - counts.into_iter().max().unwrap_or(0).leading_zeros()
                        };
                        let (wa, wb) = (width(a.set_counts()), width(b.set_counts()));
                        for (first, second) in [(&a, &b), (&b, &a)] {
                            let mut merged = BitCounter::new_with_backend(dim, backend);
                            merged.add(hv(dim, !seed).packed().words());
                            merged.flush();
                            merged.set_sum(first, second);
                            let case = format!("backend {backend} dim {dim} shape ({na}, {nb})");
                            prop_assert_eq!(merged.count(), na + nb, "count {}", case);
                            prop_assert_eq!(&merged.sums()[..], &ripple.sums()[..], "sums {}", case);
                            prop_assert_eq!(
                                &merged.bipolarize_packed()[..],
                                &ripple.bipolarize_packed()[..],
                                "bits {}", case
                            );
                            let counts = merged.set_counts();
                            prop_assert_eq!(&counts[..], &ripple.set_counts()[..], "counts {}", case);
                            carried_out |= width(counts) > wa.max(wb);
                            // A further add lands on the merged planes as on
                            // the oracle's.
                            let mut after = ripple.clone();
                            after.add_ripple(hv(dim, seed ^ 0xadd).packed().words());
                            merged.add(hv(dim, seed ^ 0xadd).packed().words());
                            prop_assert_eq!(&merged.sums()[..], &after.sums()[..], "add {}", case);
                        }
                    }
                }
                prop_assert!(carried_out, "no merge carried out of its top plane at dim {}", dim);
            }
        }

        #[test]
        fn bipolarize_all_ties_is_parity_on_every_backend(seed in any::<u64>(), pairs in 1usize..6) {
            // Adding k vectors and their negations drives every bundling
            // sum to exactly zero — the all-ties worst case. The packed
            // bipolarization must then reproduce the parity rule (even
            // index → +1) bit-for-bit on every tier.
            for dim in DIMS {
                let expected: Vec<i8> =
                    (0..dim).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
                for backend in runnable_backends() {
                    let mut counter = BitCounter::new_with_backend(dim, backend);
                    for k in 0..pairs {
                        let v = hv(dim, seed ^ ((k as u64) << 24));
                        let bits = v.packed().words();
                        counter.add(bits);
                        counter.add(&kernel::negate_words(bits, dim));
                    }
                    prop_assert_eq!(&counter.sums()[..], &vec![0i32; dim][..]);
                    prop_assert_eq!(
                        &kernel::unpack_words(&counter.bipolarize_packed(), dim)[..],
                        &expected[..],
                        "ties backend {} dim {}", backend, dim
                    );
                }
            }
        }
    }
}

/// Per-encoder packed-vs-reference bit-exactness at every boundary
/// dimension. Each encoder's `encode` runs the fully packed pipeline
/// (packed bind/permute intermediates + CSA-tree bundling + word-parallel
/// bipolarization); `encode_reference` runs the surviving scalar oracle.
/// They must agree bit-for-bit, including parity tie-breaks, and the
/// prefilled packed mirror must match a from-scratch pack.
mod encoder_exactness {
    use super::*;
    use hdc::{
        Encoder, NgramEncoder, NgramEncoderConfig, PackedHypervector, PermutePixelEncoder,
        PermutePixelEncoderConfig, PixelEncoder, PixelEncoderConfig, RecordEncoder,
        RecordEncoderConfig, Sketch, TimeSeriesEncoder, TimeSeriesEncoderConfig, ValueEncoding,
    };
    use rand::Rng;

    fn assert_exact(packed: &Hypervector, reference: &Hypervector, dim: usize) {
        assert_eq!(packed, reference, "dim {dim}");
        assert_eq!(
            packed.packed(),
            &PackedHypervector::pack(packed.as_slice()),
            "mirror at dim {dim}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn ngram_packed_matches_reference(seed in any::<u64>(), n in 1usize..5, len in 8usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = NgramEncoder::new(NgramEncoderConfig {
                    dim, n, alphabet: 32, seed: seed ^ 1,
                }).expect("valid config");
                let text: Vec<u8> = (0..len.max(n)).map(|_| rng.gen()).collect();
                let packed = enc.encode(&text).expect("encode");
                let reference = enc.encode_reference(&text).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn record_packed_matches_reference(seed in any::<u64>(), fields in 1usize..9) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = RecordEncoder::new(RecordEncoderConfig {
                    dim, fields, levels: 16, seed: seed ^ 2,
                    ..RecordEncoderConfig::default()
                }).expect("valid config");
                let record: Vec<f64> = (0..fields).map(|_| rng.gen::<f64>()).collect();
                let packed = enc.encode(&record).expect("encode");
                let reference = enc.encode_reference(&record).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn timeseries_packed_matches_reference(
            seed in any::<u64>(), window in 1usize..5, len in 8usize..20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = TimeSeriesEncoder::new(TimeSeriesEncoderConfig {
                    dim, window, levels: 16, min: -1.0, max: 1.0,
                    value_encoding: ValueEncoding::Level, seed: seed ^ 3,
                }).expect("valid config");
                let signal: Vec<f64> =
                    (0..len.max(window)).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                let packed = enc.encode(&signal).expect("encode");
                let reference = enc.encode_reference(&signal).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn permute_pixel_packed_matches_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                // 7×7 = 49 pixels fits every test dim (positions must not
                // alias: pixels <= dim).
                let enc = PermutePixelEncoder::new(PermutePixelEncoderConfig {
                    dim, width: 7, height: 7, levels: 16,
                    value_encoding: ValueEncoding::Random, seed: seed ^ 4,
                }).expect("valid config");
                let img: Vec<u8> = (0..49).map(|_| rng.gen()).collect();
                let packed = enc.encode(&img).expect("encode");
                let reference = enc.encode_reference(&img).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn pixel_packed_matches_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = PixelEncoder::new(PixelEncoderConfig {
                    dim, width: 6, height: 6, levels: 16,
                    value_encoding: ValueEncoding::Random, seed: seed ^ 5,
                }).expect("valid config");
                let img: Vec<u8> = (0..36).map(|_| rng.gen()).collect();
                let packed = enc.encode(&img).expect("encode");
                let reference = enc.encode_reference(&img).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }
    }

    /// One batch that makes the pixel encoder take every start it has:
    /// the blank image, all-ink images, ink counts n/2 − 1, n/2 and
    /// n/2 + 1 around the zero-or-blank boundary, a duplicate, and a chain
    /// of siblings a few pixels apart, longer than the remembered mates so
    /// the ring wraps. "Background" bytes are every byte that quantizes to
    /// level 0, so with fewer than 256 levels they are not all zero.
    fn start_batch(rng: &mut StdRng, pixels: usize, levels: usize) -> Vec<Vec<u8>> {
        let first_ink = u8::try_from(256usize.div_ceil(levels)).expect("levels <= 256");
        let with_ink = |rng: &mut StdRng, ink: usize| {
            let mut image: Vec<u8> = (0..pixels).map(|_| rng.gen_range(0..first_ink)).collect();
            let mut order: Vec<usize> = (0..pixels).collect();
            for i in 0..ink {
                order.swap(i, rng.gen_range(i..pixels));
                image[order[i]] = rng.gen_range(first_ink..=255);
            }
            image
        };
        let mut batch = vec![vec![0; pixels], vec![255; pixels], with_ink(rng, pixels)];
        for ink in [pixels / 2 - 1, pixels / 2, pixels / 2 + 1] {
            batch.push(with_ink(rng, ink));
        }
        batch.push(batch[4].clone());
        let root = with_ink(rng, pixels / 4);
        let mut sibling = root.clone();
        for k in 0..12 {
            if k % 3 == 0 {
                sibling = root.clone();
            }
            for _ in 0..3 {
                sibling[rng.gen_range(0..pixels)] = rng.gen();
            }
            batch.push(sibling.clone());
        }
        batch
    }

    /// `encode` and `encode_batch` equal `encode_reference` on every
    /// start, at every boundary dim, with even (36) and odd (49) pixel
    /// counts — even counts make parity ties — and with 16 and 256 levels.
    fn assert_pixel_starts_exact() {
        let mut rng = StdRng::seed_from_u64(0x5747);
        for dim in DIMS {
            for side in [6, 7] {
                for levels in [16, 256] {
                    let enc = PixelEncoder::new(PixelEncoderConfig {
                        dim,
                        width: side,
                        height: side,
                        levels,
                        value_encoding: ValueEncoding::Random,
                        seed: dim as u64 ^ 6,
                    })
                    .expect("valid config");
                    let batch = start_batch(&mut rng, side * side, levels);
                    let inputs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
                    let batched = enc.encode_batch(&inputs).expect("encode_batch");
                    for (image, encoded) in batch.iter().zip(&batched) {
                        let reference = enc.encode_reference(image).expect("reference");
                        assert_exact(encoded, &reference, dim);
                        assert_exact(&enc.encode(image).expect("encode"), &reference, dim);
                    }
                }
            }
        }
    }

    /// `image` with one to three pixels set to random bytes.
    fn nudge(rng: &mut StdRng, image: &[u8]) -> Vec<u8> {
        let mut out = image.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            out[rng.gen_range(0..image.len())] = rng.gen();
        }
        out
    }

    /// Chains of sketches, 32 rounds deep: each round encodes a
    /// child of the previous round's first image, a sibling a few pixels
    /// further, a duplicate of the child with no start (its batch-mate is
    /// identical), and the sibling again with a sketch of that very image
    /// from a foreign encoder (another seed, or another shape), which must
    /// be ignored. The child starts from the previous round's sketch of
    /// its parent. Chains begin at ink n/2 − 1, n/2 and n/2 + 1, with even
    /// (36) and odd (49) pixel counts and 16 and 256 levels, at every
    /// boundary dim; every output equals `encode_reference` and `encode`.
    fn assert_sketch_chains_exact() {
        let mut rng = StdRng::seed_from_u64(0x5e7c);
        for dim in DIMS {
            for side in [6, 7] {
                for levels in [16, 256] {
                    let config = PixelEncoderConfig {
                        dim,
                        width: side,
                        height: side,
                        levels,
                        value_encoding: ValueEncoding::Random,
                        seed: dim as u64 ^ 7,
                    };
                    let enc = PixelEncoder::new(config).expect("valid config");
                    let foreign = [
                        PixelEncoder::new(PixelEncoderConfig { seed: config.seed ^ 1, ..config }),
                        PixelEncoder::new(PixelEncoderConfig { width: side + 1, ..config }),
                    ]
                    .map(|enc| enc.expect("valid config"));
                    let pixels = side * side;
                    let first_ink = u8::try_from(256usize.div_ceil(levels)).expect("levels");
                    for ink in [pixels / 2 - 1, pixels / 2, pixels / 2 + 1] {
                        let mut image: Vec<u8> = (0..pixels)
                            .map(|i| match i < ink {
                                true => rng.gen_range(first_ink..=255),
                                false => rng.gen_range(0..first_ink),
                            })
                            .collect();
                        let mut sketch: Option<Sketch> = None;
                        for round in 0..32 {
                            let child = nudge(&mut rng, &image);
                            let sibling = nudge(&mut rng, &child);
                            let alien = &foreign[round % 2];
                            let mut alien_image = sibling.clone();
                            alien_image.resize(alien.pixel_count(), 0);
                            let alien_sketch = alien
                                .encode_batch_from(&[&alien_image], &[None])
                                .expect("foreign encode")
                                .pop()
                                .and_then(|(_, sketch)| sketch);
                            assert!(alien_sketch.is_some(), "pixel encoders return sketches");

                            let inputs: Vec<&[u8]> = vec![&child, &sibling, &child, &sibling];
                            let starts =
                                [sketch.as_ref(), sketch.as_ref(), None, alien_sketch.as_ref()];
                            let mut out =
                                enc.encode_batch_from(&inputs, &starts).expect("encode_batch_from");
                            assert_eq!(out.len(), inputs.len());
                            for (input, (encoded, sketch)) in inputs.iter().zip(&out) {
                                assert!(sketch.is_some(), "round {round}: every input's sketch");
                                let reference = enc.encode_reference(input).expect("reference");
                                assert_exact(encoded, &reference, dim);
                                assert_exact(&enc.encode(input).expect("encode"), &reference, dim);
                            }
                            sketch = out.swap_remove(0).1;
                            image = child;
                        }
                    }
                }
            }
        }
    }

    /// Runs `check` on every runnable kernel tier. The tier is frozen once
    /// per process, so each tier runs the test `name` again in a child
    /// process pinned by HDC_KERNEL_BACKEND. A process whose tier is
    /// already pinned runs `check` on that tier only.
    fn on_every_tier(name: &str, check: fn()) {
        if std::env::var_os("HDC_KERNEL_BACKEND").is_some() {
            check();
            return;
        }
        for backend in runnable_backends() {
            let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
                .args([name, "--exact", "--test-threads=1"])
                .env("HDC_KERNEL_BACKEND", backend.name())
                .output()
                .expect("spawn the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "tier {backend}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    #[test]
    fn pixel_starts_match_reference_on_every_tier() {
        on_every_tier(
            "encoder_exactness::pixel_starts_match_reference_on_every_tier",
            assert_pixel_starts_exact,
        );
    }

    #[test]
    fn sketch_chains_match_reference_on_every_tier() {
        on_every_tier(
            "encoder_exactness::sketch_chains_match_reference_on_every_tier",
            assert_sketch_chains_exact,
        );
    }
}
