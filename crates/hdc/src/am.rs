//! The associative memory (AM): one reference hypervector per class.
//!
//! Training (§III-B) bundles every training image's hypervector into its
//! class accumulator; after an epoch the accumulators are bipolarized into
//! the reference hypervectors used for similarity search. Keeping the raw
//! accumulators alongside the bipolarized snapshot enables the retraining
//! defense of §V-D (adding correctly labeled adversarial examples and
//! re-bipolarizing).

use crate::accumulator::Accumulator;
use crate::batch;
use crate::encoder::bipolarize_sums;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel;
use std::sync::Arc;

/// Index of the maximal similarity; ties resolve to the **last** maximal
/// class, matching `Iterator::max_by` (and the binary classifier's
/// min-distance rule) so every classification path agrees.
pub(crate) fn argmax(sims: &[f64]) -> usize {
    debug_assert!(!sims.is_empty());
    let mut best = 0usize;
    for (i, &s) in sims.iter().enumerate() {
        if s >= sims[best] {
            best = i;
        }
    }
    best
}

/// Per-class bundling accumulators plus their bipolarized snapshot.
///
/// The accumulators are *retained* after [`finalize`](Self::finalize) —
/// they are what makes the memory trainable online: every
/// [`add`](Self::add)/[`subtract`](Self::subtract) marks only its class
/// dirty, and the next finalize re-bipolarizes exactly those classes
/// (word-parallel threshold, bit-identical to re-deriving every class),
/// so a single-example update costs one class, not the whole model.
///
/// Class state is copy-on-write: each class's accumulator and reference
/// sit behind an [`Arc`], so `clone()` copies pointers, and a clone that
/// is then trained copies only the classes it touches. `add`/`subtract`
/// write through [`Arc::make_mut`]; `finalize` gives each dirty class a
/// fresh reference. A clone therefore never observes its sibling's
/// updates, exactly as with a deep copy.
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    accumulators: Vec<Arc<Accumulator>>,
    references: Vec<Arc<Hypervector>>,
    /// Classes mutated since the last finalize. Only these are
    /// re-bipolarized when a full snapshot already exists.
    dirty: Vec<bool>,
    dim: usize,
    finalized: bool,
}

impl AssociativeMemory {
    /// Creates an empty AM for `num_classes` classes of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` or `dim` is zero.
    pub fn new(num_classes: usize, dim: usize) -> Self {
        assert!(num_classes > 0, "associative memory needs at least one class");
        assert!(dim > 0, "hypervector dimension must be non-zero");
        Self {
            accumulators: (0..num_classes).map(|_| Arc::new(Accumulator::zeros(dim))).collect(),
            references: Vec::new(),
            dirty: vec![true; num_classes],
            dim,
            finalized: false,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.accumulators.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether [`finalize`](Self::finalize) has been called since the last
    /// mutation.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Bundles `hv` into the accumulator of `class`.
    ///
    /// Invalidates the finalized snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] or [`HdcError::DimensionMismatch`].
    pub fn add(&mut self, class: usize, hv: &Hypervector) -> Result<(), HdcError> {
        let num_classes = self.num_classes();
        let acc = self
            .accumulators
            .get_mut(class)
            .ok_or(HdcError::UnknownClass { class, num_classes })?;
        Arc::make_mut(acc).add(hv)?;
        self.dirty[class] = true;
        self.finalized = false;
        Ok(())
    }

    /// Removes `hv` from the accumulator of `class` (adaptive retraining
    /// subtracts the query from a wrongly predicted class).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] or [`HdcError::DimensionMismatch`].
    pub fn subtract(&mut self, class: usize, hv: &Hypervector) -> Result<(), HdcError> {
        let num_classes = self.num_classes();
        let acc = self
            .accumulators
            .get_mut(class)
            .ok_or(HdcError::UnknownClass { class, num_classes })?;
        Arc::make_mut(acc).subtract(hv)?;
        self.dirty[class] = true;
        self.finalized = false;
        Ok(())
    }

    /// Bipolarizes the accumulators into the reference snapshot (Eq. 1,
    /// deterministic parity tie-break).
    ///
    /// Incremental: once a full snapshot exists, only classes mutated
    /// since the last finalize are re-bipolarized. Per-class
    /// bipolarization is a pure function of that class's accumulator, so
    /// the result is bit-identical to re-deriving every class — this is
    /// what makes [`HdcClassifier::partial_fit`](crate::HdcClassifier::partial_fit)
    /// orders of magnitude cheaper than a full retrain.
    pub fn finalize(&mut self) {
        if self.references.len() == self.num_classes() {
            for (class, acc) in self.accumulators.iter().enumerate() {
                if self.dirty[class] {
                    self.references[class] = Arc::new(bipolarize_sums(acc.sums()));
                }
            }
        } else {
            self.references =
                self.accumulators.iter().map(|a| Arc::new(bipolarize_sums(a.sums()))).collect();
        }
        self.dirty.fill(false);
        self.finalized = true;
    }

    /// Classes mutated since the last [`finalize`](Self::finalize), in
    /// class order — the set the next finalize will re-bipolarize.
    pub fn dirty_classes(&self) -> Vec<usize> {
        self.dirty.iter().enumerate().filter(|&(_, &d)| d).map(|(c, _)| c).collect()
    }

    /// The bipolarized reference hypervector for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before [`finalize`](Self::finalize)
    /// and [`HdcError::UnknownClass`] for an out-of-range class.
    pub fn reference(&self, class: usize) -> Result<&Hypervector, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        self.references
            .get(class)
            .map(|r| &**r)
            .ok_or(HdcError::UnknownClass { class, num_classes: self.num_classes() })
    }

    /// The raw accumulator for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for an out-of-range class.
    pub fn accumulator(&self, class: usize) -> Result<&Accumulator, HdcError> {
        self.accumulators
            .get(class)
            .map(|a| &**a)
            .ok_or(HdcError::UnknownClass { class, num_classes: self.num_classes() })
    }

    /// Cosine similarity of `query` against every class reference, in class
    /// order (§III-C).
    ///
    /// The query is packed once (via its lazy mirror); each per-class
    /// similarity is then one XOR + popcount pass over `D/64` words.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before finalization or
    /// [`HdcError::DimensionMismatch`] for a query of the wrong dimension.
    pub fn similarities(&self, query: &Hypervector) -> Result<Vec<f64>, HdcError> {
        let mut sims = Vec::new();
        self.similarities_into(query, &mut sims)?;
        Ok(sims)
    }

    /// [`similarities`](Self::similarities) into a caller-provided buffer
    /// (cleared first), so batch loops can reuse one allocation.
    ///
    /// # Errors
    ///
    /// Same as [`similarities`](Self::similarities).
    pub fn similarities_into(
        &self,
        query: &Hypervector,
        out: &mut Vec<f64>,
    ) -> Result<(), HdcError> {
        // Clear before validating so a reused buffer never carries a
        // previous query's similarities across an error.
        out.clear();
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: query.dim() });
        }
        // Fused AM scan: one `hamming_many` pass over every reference's
        // packed mirror (the AVX2 tier shares each query load across four
        // class vectors), then `cos = (D − 2h) / D` — the same integers
        // per-reference `cosine` computes, so the result is bit-identical.
        let query_words = query.packed().words();
        let refs: Vec<&[u64]> = self.references.iter().map(|r| r.packed().words()).collect();
        let distances = kernel::hamming_many(query_words, &refs);
        let dim = self.dim;
        out.extend(distances.iter().map(|&h| (dim as i64 - 2 * h as i64) as f64 / dim as f64));
        Ok(())
    }

    /// The class whose reference is most similar to `query`, with the full
    /// similarity vector.
    ///
    /// # Errors
    ///
    /// Same as [`similarities`](Self::similarities).
    pub fn classify(&self, query: &Hypervector) -> Result<(usize, Vec<f64>), HdcError> {
        let sims = self.similarities(query)?;
        Ok((argmax(&sims), sims))
    }

    /// Classifies a batch of queries, fanning out across worker threads for
    /// large batches; per-query results are identical to
    /// [`classify`](Self::classify) and returned in input order.
    ///
    /// Each worker packs its queries once (through the lazy mirror) and
    /// scans the pre-packed references. Fails on the first invalid query.
    ///
    /// # Errors
    ///
    /// Same as [`classify`](Self::classify).
    pub fn classify_batch(
        &self,
        queries: &[Hypervector],
    ) -> Result<Vec<(usize, Vec<f64>)>, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        self.warm_packed();
        batch::map_indexed(queries, |query| self.classify(query))
    }

    /// Forces the packed mirror of every reference (normally already present
    /// from [`finalize`](Self::finalize); clones share the references, and
    /// with them any mirror already built).
    /// Idempotent and cheap when mirrors exist.
    pub fn warm_packed(&self) {
        for r in &self.references {
            let _ = r.packed();
        }
    }

    /// Reconstructs an AM from raw accumulators (persistence path).
    /// The snapshot is re-derived by [`finalize`](Self::finalize).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] for an empty vector and
    /// [`HdcError::DimensionMismatch`] for inconsistent dimensions.
    pub fn from_accumulators(accumulators: Vec<Accumulator>) -> Result<Self, HdcError> {
        let dim = accumulators.first().ok_or(HdcError::EmptyModel)?.dim();
        if let Some(bad) = accumulators.iter().find(|a| a.dim() != dim) {
            return Err(HdcError::DimensionMismatch { expected: dim, actual: bad.dim() });
        }
        let dirty = vec![true; accumulators.len()];
        let accumulators = accumulators.into_iter().map(Arc::new).collect();
        let mut am = Self { accumulators, references: Vec::new(), dirty, dim, finalized: false };
        am.finalize();
        Ok(am)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn classify_recovers_trained_class() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(3, 5_000);
        let protos: Vec<Hypervector> = (0..3).map(|_| Hypervector::random(5_000, &mut r)).collect();
        for (c, p) in protos.iter().enumerate() {
            // Bundle a few noisy variants of each prototype.
            for _ in 0..5 {
                am.add(c, &p.with_noise(250, &mut r)).unwrap();
            }
        }
        am.finalize();
        for (c, p) in protos.iter().enumerate() {
            let (pred, sims) = am.classify(p).unwrap();
            assert_eq!(pred, c);
            assert_eq!(sims.len(), 3);
            assert!(sims[c] > 0.5);
        }
    }

    #[test]
    fn classify_batch_matches_classify_loop() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(4, 2_000);
        for c in 0..4 {
            am.add(c, &Hypervector::random(2_000, &mut r)).unwrap();
        }
        am.finalize();
        // Enough queries to cross the parallel threshold.
        let queries: Vec<Hypervector> =
            (0..150).map(|_| Hypervector::random(2_000, &mut r)).collect();
        let batched = am.classify_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, result) in queries.iter().zip(&batched) {
            assert_eq!(*result, am.classify(q).unwrap());
        }
    }

    #[test]
    fn classify_batch_unfinalized_errors() {
        let am = AssociativeMemory::new(2, 100);
        assert!(matches!(am.classify_batch(&[]), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn unfinalized_am_errors() {
        let mut r = rng();
        let am = AssociativeMemory::new(2, 100);
        let q = Hypervector::random(100, &mut r);
        assert!(matches!(am.similarities(&q), Err(HdcError::EmptyModel)));
        assert!(matches!(am.reference(0), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn mutation_invalidates_snapshot() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = Hypervector::random(100, &mut r);
        am.add(0, &hv).unwrap();
        am.finalize();
        assert!(am.is_finalized());
        am.add(1, &hv).unwrap();
        assert!(!am.is_finalized());
    }

    #[test]
    fn unknown_class_rejected() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = Hypervector::random(100, &mut r);
        assert!(matches!(am.add(2, &hv), Err(HdcError::UnknownClass { class: 2, num_classes: 2 })));
        assert!(am.subtract(5, &hv).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = Hypervector::random(50, &mut r);
        assert!(am.add(0, &hv).is_err());
        am.add(0, &Hypervector::random(100, &mut r)).unwrap();
        am.finalize();
        assert!(am.similarities(&hv).is_err());
    }

    #[test]
    fn add_then_subtract_is_neutral() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 1_000);
        let base = Hypervector::random(1_000, &mut r);
        am.add(0, &base).unwrap();
        am.finalize();
        let before = am.reference(0).unwrap().clone();

        let extra = Hypervector::random(1_000, &mut r);
        am.add(0, &extra).unwrap();
        am.subtract(0, &extra).unwrap();
        am.finalize();
        assert_eq!(*am.reference(0).unwrap(), before);
    }

    #[test]
    fn from_accumulators_round_trip() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 256);
        am.add(0, &Hypervector::random(256, &mut r)).unwrap();
        am.add(1, &Hypervector::random(256, &mut r)).unwrap();
        am.finalize();

        let accs = vec![am.accumulator(0).unwrap().clone(), am.accumulator(1).unwrap().clone()];
        let rebuilt = AssociativeMemory::from_accumulators(accs).unwrap();
        assert_eq!(rebuilt.reference(0).unwrap(), am.reference(0).unwrap());
        assert_eq!(rebuilt.reference(1).unwrap(), am.reference(1).unwrap());
    }

    #[test]
    fn from_accumulators_validates() {
        assert!(AssociativeMemory::from_accumulators(vec![]).is_err());
        let accs = vec![Accumulator::zeros(10), Accumulator::zeros(20)];
        assert!(AssociativeMemory::from_accumulators(accs).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        let _ = AssociativeMemory::new(0, 10);
    }

    #[test]
    fn dirty_classes_track_mutations() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(3, 100);
        assert_eq!(am.dirty_classes(), vec![0, 1, 2], "fresh memory is all-dirty");
        for c in 0..3 {
            am.add(c, &Hypervector::random(100, &mut r)).unwrap();
        }
        am.finalize();
        assert!(am.dirty_classes().is_empty());
        am.add(1, &Hypervector::random(100, &mut r)).unwrap();
        am.subtract(2, &Hypervector::random(100, &mut r)).unwrap();
        assert_eq!(am.dirty_classes(), vec![1, 2]);
        am.finalize();
        assert!(am.dirty_classes().is_empty());
    }

    #[test]
    fn trained_clone_copies_only_its_classes_and_leaves_the_original_exact() {
        // Copy-on-write must be invisible: after training a clone, the
        // original reads bit-for-bit like a deep copy taken beforehand,
        // while only the touched class stopped sharing storage.
        let mut r = rng();
        for dim in [63usize, 64, 65, 127, 10_000] {
            let mut a = AssociativeMemory::new(4, dim);
            for c in 0..4 {
                // Even counts so zero sums (parity ties) occur.
                for _ in 0..2 {
                    a.add(c, &Hypervector::random(dim, &mut r)).unwrap();
                }
            }
            a.finalize();
            let query = Hypervector::random(dim, &mut r);
            let accs: Vec<Accumulator> =
                (0..4).map(|c| a.accumulator(c).unwrap().clone()).collect();
            let refs: Vec<Hypervector> = (0..4).map(|c| a.reference(c).unwrap().clone()).collect();
            let sims: Vec<u64> =
                a.similarities(&query).unwrap().iter().map(|s| s.to_bits()).collect();

            let touched = 2;
            let mut b = a.clone();
            b.add(touched, &Hypervector::random(dim, &mut r)).unwrap();
            b.finalize();

            for c in 0..4 {
                assert_eq!(*a.accumulator(c).unwrap(), accs[c], "dim {dim} class {c}: accumulator");
                assert_eq!(*a.reference(c).unwrap(), refs[c], "dim {dim} class {c}: reference");
                let shared = c != touched;
                assert_eq!(
                    Arc::ptr_eq(&a.accumulators[c], &b.accumulators[c]),
                    shared,
                    "dim {dim} class {c}"
                );
                assert_eq!(
                    Arc::ptr_eq(&a.references[c], &b.references[c]),
                    shared,
                    "dim {dim} class {c}"
                );
            }
            let after: Vec<u64> =
                a.similarities(&query).unwrap().iter().map(|s| s.to_bits()).collect();
            assert_eq!(after, sims, "dim {dim}: similarities of the original moved");
            assert_ne!(
                b.accumulator(touched).unwrap(),
                &accs[touched],
                "dim {dim}: the clone trained"
            );
        }
    }

    #[test]
    fn incremental_finalize_matches_full_rederive() {
        // Updating one class and re-finalizing must be bit-identical to
        // re-bipolarizing every class from the same accumulators.
        let mut r = rng();
        for dim in [63usize, 64, 65, 127, 1_000] {
            let mut am = AssociativeMemory::new(4, dim);
            for c in 0..4 {
                // Even counts so zero sums (parity ties) occur.
                for _ in 0..2 {
                    am.add(c, &Hypervector::random(dim, &mut r)).unwrap();
                }
            }
            am.finalize();
            am.add(2, &Hypervector::random(dim, &mut r)).unwrap();
            am.finalize(); // incremental: only class 2 re-bipolarized

            let accs: Vec<Accumulator> =
                (0..4).map(|c| am.accumulator(c).unwrap().clone()).collect();
            let full = AssociativeMemory::from_accumulators(accs).unwrap();
            for c in 0..4 {
                assert_eq!(
                    am.reference(c).unwrap(),
                    full.reference(c).unwrap(),
                    "dim {dim} class {c}: incremental finalize diverged"
                );
            }
        }
    }
}
