//! The end-to-end HDC classifier: encoder + associative memory.
//!
//! Implements the paper's three phases (§III): encoding, one-shot training
//! into the associative memory, and similarity-check testing. Also provides
//! the two retraining modes used by the §V-D defense case study.

use crate::am::{argmax, AssociativeMemory};
use crate::batch;
use crate::encoder::{Encoder, Sketch};
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::similarity::cosine;
use std::sync::Arc;

/// The outcome of classifying one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted class (argmax of cosine similarity).
    pub class: usize,
    /// Cosine similarity of the query to the predicted class reference.
    pub similarity: f64,
    /// Margin between the best and second-best similarity (0 for a
    /// single-class model). Small margins flag near-boundary inputs —
    /// exactly the "vulnerable cases" §V-B highlights.
    pub margin: f64,
    /// Cosine similarity against every class reference, in class order.
    pub similarities: Vec<f64>,
}

/// The outcome of one online [`HdcClassifier::feedback`] round.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Whether an adaptive update was applied (the model mispredicted).
    pub updated: bool,
    /// What the model predicted *before* any update.
    pub prediction: Prediction,
}

/// Builds a [`Prediction`] from a similarity vector and its argmax —
/// shared by the dense classifier and the binarized side's
/// [`crate::BinaryPrediction::to_prediction`] conversion, so the
/// margin/second-best semantics can never diverge between kinds.
pub(crate) fn prediction_from_similarities(class: usize, similarities: Vec<f64>) -> Prediction {
    let best = similarities[class];
    let second = similarities
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != class)
        .map(|(_, &s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    let margin = if second.is_finite() { best - second } else { 0.0 };
    Prediction { class, similarity: best, margin, similarities }
}

/// An HDC classifier generic over its [`Encoder`].
///
/// The raw input type is the encoder's [`Encoder::Input`] (e.g. `[u8]`
/// pixel arrays for the paper's image model, `[f64]` for records/signals).
///
/// ```
/// use hdc::prelude::*;
///
/// let encoder = PixelEncoder::new(PixelEncoderConfig {
///     dim: 1_000, width: 3, height: 3, levels: 4,
///     value_encoding: ValueEncoding::Random, seed: 2,
/// })?;
/// let mut model = HdcClassifier::new(encoder, 2);
/// model.train_one(&[0u8; 9][..], 0)?;
/// model.train_one(&[255u8; 9][..], 1)?;
/// model.finalize();
/// assert_eq!(model.predict(&[255u8; 9][..])?.class, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
///
/// ## Encoder sharing
///
/// The encoder lives behind an [`Arc`]: item memories are immutable after
/// construction, so every clone of a classifier shares them. The
/// associative memory's class state is copy-on-write (see
/// [`AssociativeMemory`]), so `clone()` copies two pointers per class, and
/// training the clone copies only the classes it touches. That is what
/// makes the serving layer's clone-train-publish cycle cheap: a served
/// train duplicates neither the encoder nor the untouched classes.
#[derive(Debug)]
pub struct HdcClassifier<E> {
    encoder: Arc<E>,
    am: AssociativeMemory,
}

/// Manual impl: cloning must not require `E: Clone` — the encoder is
/// shared, not copied (the Arc-encoder publish-path invariant, asserted by
/// `Arc::ptr_eq` in the serve-layer tests), and so is every class until
/// the clone writes to it.
impl<E> Clone for HdcClassifier<E> {
    fn clone(&self) -> Self {
        Self { encoder: Arc::clone(&self.encoder), am: self.am.clone() }
    }
}

impl<E> HdcClassifier<E> {
    /// The associative memory (reference vectors and accumulators).
    pub fn associative_memory(&self) -> &AssociativeMemory {
        &self.am
    }

    /// Crate-internal: lets model persistence swap in a deserialized AM.
    pub(crate) fn am_mut(&mut self) -> &mut AssociativeMemory {
        &mut self.am
    }

    /// The encoder.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// The shared encoder handle. Clones of this classifier point at the
    /// same allocation (`Arc::ptr_eq` holds across clones), which is the
    /// invariant the serving layer's publish path relies on.
    pub fn encoder_arc(&self) -> &Arc<E> {
        &self.encoder
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.am.num_classes()
    }

    /// Bipolarizes the associative memory; must be called after training or
    /// retraining and before prediction.
    pub fn finalize(&mut self) {
        self.am.finalize();
    }

    /// Whether the model is ready for prediction.
    pub fn is_finalized(&self) -> bool {
        self.am.is_finalized()
    }
}

impl<E: Encoder> HdcClassifier<E> {
    /// Creates an untrained classifier with `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(encoder: E, num_classes: usize) -> Self {
        Self::with_shared_encoder(Arc::new(encoder), num_classes)
    }

    /// Creates an untrained classifier on an already-shared encoder, so
    /// several models (e.g. a dense and a binarized classifier under
    /// differential test) can share one set of item memories.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn with_shared_encoder(encoder: Arc<E>, num_classes: usize) -> Self {
        let dim = encoder.dim();
        Self { encoder, am: AssociativeMemory::new(num_classes, dim) }
    }

    /// Encodes `input` into its query hypervector.
    ///
    /// # Errors
    ///
    /// Propagates encoder shape errors.
    pub fn encode(&self, input: &E::Input) -> Result<Hypervector, HdcError> {
        self.encoder.encode(input)
    }

    /// One-shot training: bundles the encoded input into its class (§III-B).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for a bad label or propagates
    /// encoder errors.
    pub fn train_one(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        let hv = self.encoder.encode(input)?;
        self.am.add(label, &hv)
    }

    /// Trains on a batch of `(input, label)` pairs and finalizes.
    ///
    /// # Errors
    ///
    /// Fails fast on the first bad label or malformed input.
    pub fn train_batch<'a, It>(&mut self, examples: It) -> Result<(), HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        for (input, label) in examples {
            self.train_one(input, label)?;
        }
        self.finalize();
        Ok(())
    }

    /// Classifies `input` by maximum cosine similarity (§III-C).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] if the model was never finalized, or
    /// propagates encoder errors.
    pub fn predict(&self, input: &E::Input) -> Result<Prediction, HdcError> {
        let query = self.encoder.encode(input)?;
        self.predict_encoded(&query)
    }

    /// Classifies an already-encoded query hypervector.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict), minus encoder errors.
    pub fn predict_encoded(&self, query: &Hypervector) -> Result<Prediction, HdcError> {
        let (class, similarities) = self.am.classify(query)?;
        Ok(prediction_from_similarities(class, similarities))
    }

    /// Classifies a batch of inputs, fanning out across worker threads for
    /// large batches. Per-input results are identical to
    /// [`predict`](Self::predict) and returned in input order; packed class
    /// references are shared across all workers, and each query is encoded
    /// and packed exactly once.
    ///
    /// This is the bulk-serving entry point: on `D = 10,000` models it
    /// beats a sequential `predict` loop by the core count on top of the
    /// word-packed similarity win (see `benches/kernels.rs`).
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict); on invalid inputs the error for the
    /// lowest input index is returned.
    pub fn predict_batch(&self, inputs: &[&E::Input]) -> Result<Vec<Prediction>, HdcError>
    where
        E::Input: Sync,
    {
        if !self.am.is_finalized() {
            return Err(HdcError::EmptyModel);
        }
        self.am.warm_packed();
        self.encoder.warm_up();
        batch::map_chunks(inputs, |chunk| {
            // Per-worker: batch encode, then packed classification.
            // Encoding streams in small blocks so live queries stay
            // cache-resident instead of accumulating the whole chunk's
            // hypervectors (~11 KB each at D = 10,000) in memory; encoder
            // scratch is amortized within each block (re-created per block,
            // ~1/32 of an encode's cost).
            const ENCODE_BLOCK: usize = 32;
            let mut out = Vec::with_capacity(chunk.len());
            for block in chunk.chunks(ENCODE_BLOCK) {
                let queries = self.encoder.encode_batch(block)?;
                for query in &queries {
                    out.push(self.predict_encoded(query)?);
                }
            }
            Ok(out)
        })
    }

    /// Classifies a batch of already-encoded queries; the encoded
    /// counterpart of [`predict_batch`](Self::predict_batch).
    ///
    /// # Errors
    ///
    /// Same as [`predict_encoded`](Self::predict_encoded); on invalid
    /// queries the error for the lowest input index is returned.
    pub fn predict_encoded_batch(
        &self,
        queries: &[Hypervector],
    ) -> Result<Vec<Prediction>, HdcError> {
        Ok(self
            .am
            .classify_batch(queries)?
            .into_iter()
            .map(|(class, sims)| prediction_from_similarities(class, sims))
            .collect())
    }

    /// One shared pass per input yielding `(predicted class, 1 − cosine to
    /// the reference class)` — the exact pair the fuzzing loop consumes for
    /// every candidate (§IV). The [`evaluate_batch_from`](Self::evaluate_batch_from)
    /// pairs without their sketches.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for a bad `reference`,
    /// [`HdcError::EmptyModel`] before finalization, or encoder errors.
    pub fn evaluate_batch(
        &self,
        inputs: &[&E::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        let evaluated = self.evaluate_batch_from(inputs, &[], reference)?;
        Ok(evaluated.into_iter().map(|(label, fitness, _)| (label, fitness)).collect())
    }

    /// [`evaluate_batch`](Self::evaluate_batch) where input `k` may start
    /// its encode from `starts[k]`, returning each input's [`Sketch`]
    /// (when the encoder makes them) beside its pair, so the fuzzer can
    /// carry a survivor's bundle into its children's encodes
    /// ([`Encoder::encode_batch_from`]). Runs inline (fuzzer batches are
    /// small), reuses one similarity scratch buffer across the whole batch,
    /// and touches each query's packed form once.
    ///
    /// # Errors
    ///
    /// As [`evaluate_batch`](Self::evaluate_batch).
    pub fn evaluate_batch_from(
        &self,
        inputs: &[&E::Input],
        starts: &[Option<&Sketch>],
        reference: usize,
    ) -> Result<Vec<(usize, f64, Option<Sketch>)>, HdcError> {
        if reference >= self.num_classes() {
            return Err(HdcError::UnknownClass {
                class: reference,
                num_classes: self.num_classes(),
            });
        }
        let encoded = self.encoder.encode_batch_from(inputs, starts)?;
        let mut sims: Vec<f64> = Vec::with_capacity(self.num_classes());
        encoded
            .into_iter()
            .map(|(query, sketch)| {
                self.am.similarities_into(&query, &mut sims)?;
                Ok((argmax(&sims), 1.0 - sims[reference], sketch))
            })
            .collect()
    }

    /// The fuzzer's greybox fitness signal (§IV):
    /// `1 − cosine(AM[reference], encode(input))`.
    ///
    /// Higher fitness = the input has drifted further from its reference
    /// class, i.e. is closer to flipping the prediction.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`], or
    /// propagates encoder errors.
    pub fn fitness(&self, input: &E::Input, reference_class: usize) -> Result<f64, HdcError> {
        let query = self.encoder.encode(input)?;
        let reference = self.am.reference(reference_class)?;
        Ok(1.0 - cosine(reference, &query))
    }

    /// Online learning: bundles one labeled example into its class and
    /// re-finalizes **only that class** (the accumulators are retained
    /// after finalize, and [`AssociativeMemory::finalize`] re-bipolarizes
    /// dirty classes only). The resulting model is bit-identical to one
    /// retrained from scratch on the concatenated dataset, at the cost of
    /// one encode plus one class bipolarization — orders of magnitude
    /// cheaper than a full retrain (see the `train_partial_fit` bench row).
    ///
    /// The model stays finalized, so it can keep serving predictions
    /// between updates.
    ///
    /// # Errors
    ///
    /// Same as [`train_one`](Self::train_one); on error the model is
    /// unchanged.
    pub fn partial_fit(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        self.train_one(input, label)?;
        self.finalize();
        Ok(())
    }

    /// Online learning over a batch: bundles every `(input, label)` pair,
    /// then re-finalizes the dirty classes once. Returns the number of
    /// examples applied.
    ///
    /// Atomic: every example is encoded and validated **before** any
    /// accumulator is touched, so a bad example leaves the model exactly
    /// as it was (important for the serving layer, where one request's
    /// malformed input must not corrupt the shared model).
    ///
    /// # Errors
    ///
    /// Returns the error for the lowest bad example; the model is
    /// unchanged on error.
    pub fn partial_fit_batch<'a, It>(&mut self, examples: It) -> Result<usize, HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let num_classes = self.num_classes();
        let mut encoded: Vec<(Hypervector, usize)> = Vec::new();
        for (input, label) in examples {
            if label >= num_classes {
                return Err(HdcError::UnknownClass { class: label, num_classes });
            }
            encoded.push((self.encoder.encode(input)?, label));
        }
        for (hv, label) in &encoded {
            self.am.add(*label, hv)?;
        }
        self.finalize();
        Ok(encoded.len())
    }

    /// Online feedback on a prior prediction: predicts `input`, and if the
    /// prediction disagrees with the caller-supplied true `label`, applies
    /// the adaptive (perceptron-style) update — add the query to `label`,
    /// subtract it from the wrong class — and re-finalizes the two dirty
    /// classes. A correct prediction applies no update.
    ///
    /// This is [`retrain_adaptive`](Self::retrain_adaptive) packaged for
    /// online serving: the model stays finalized, and the caller learns
    /// both what the model predicted and whether an update was applied.
    ///
    /// # Errors
    ///
    /// Same as [`retrain_adaptive`](Self::retrain_adaptive).
    pub fn feedback(&mut self, input: &E::Input, label: usize) -> Result<Feedback, HdcError> {
        if label >= self.num_classes() {
            return Err(HdcError::UnknownClass { class: label, num_classes: self.num_classes() });
        }
        let query = self.encoder.encode(input)?;
        let prediction = self.predict_encoded(&query)?;
        if prediction.class == label {
            return Ok(Feedback { updated: false, prediction });
        }
        self.am.add(label, &query)?;
        self.am.subtract(prediction.class, &query)?;
        self.finalize();
        Ok(Feedback { updated: true, prediction })
    }

    /// Additive retraining (§V-D defense): bundles a correctly labeled
    /// example into its class. Call [`finalize`](Self::finalize) afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`train_one`](Self::train_one).
    pub fn retrain_one(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        self.train_one(input, label)
    }

    /// Adaptive (perceptron-style) retraining: if the model mispredicts,
    /// the query is added to the true class and subtracted from the wrongly
    /// predicted class. Returns whether an update was applied.
    ///
    /// This is the "retraining mechanism" the paper's §V-E discussion points
    /// to as active HDC research; it converges faster than purely additive
    /// updates when classes overlap.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] if called before finalization, or
    /// propagates label/encoder errors.
    pub fn retrain_adaptive(&mut self, input: &E::Input, label: usize) -> Result<bool, HdcError> {
        if label >= self.num_classes() {
            return Err(HdcError::UnknownClass { class: label, num_classes: self.num_classes() });
        }
        let query = self.encoder.encode(input)?;
        let prediction = self.predict_encoded(&query)?;
        if prediction.class == label {
            return Ok(false);
        }
        self.am.add(label, &query)?;
        self.am.subtract(prediction.class, &query)?;
        Ok(true)
    }

    /// Fraction of `(input, label)` pairs predicted correctly.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn accuracy<'a, It>(&self, examples: It) -> Result<f64, HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (input, label) in examples {
            if self.predict(input)?.class == label {
                correct += 1;
            }
            total += 1;
        }
        if total == 0 {
            return Err(HdcError::EmptyModel);
        }
        Ok(correct as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{PixelEncoder, PixelEncoderConfig};
    use crate::memory::ValueEncoding;

    fn tiny_model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 2_000,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 77,
        })
        .unwrap();
        HdcClassifier::new(encoder, 3)
    }

    /// Three visually distinct 4×4 patterns. Pixel values use the full
    /// 0–255 range because `quantize` buckets that range into `levels`.
    const INK: u8 = 224;

    fn patterns() -> [[u8; 16]; 3] {
        let i = INK;
        [
            [i, i, i, i, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], // top bar
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, i, i, i, i], // bottom bar
            [i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0], // left bar
        ]
    }

    #[test]
    fn train_and_predict_separable_patterns() {
        let mut model = tiny_model();
        for (label, p) in patterns().iter().enumerate() {
            model.train_one(&p[..], label).unwrap();
        }
        model.finalize();
        for (label, p) in patterns().iter().enumerate() {
            let pred = model.predict(&p[..]).unwrap();
            assert_eq!(pred.class, label);
            assert!(pred.similarity > 0.5);
            assert!(pred.margin > 0.0);
            assert_eq!(pred.similarities.len(), 3);
        }
    }

    #[test]
    fn predict_before_finalize_errors() {
        let mut model = tiny_model();
        model.train_one(&patterns()[0][..], 0).unwrap();
        assert!(matches!(model.predict(&patterns()[0][..]), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn train_batch_finalizes() {
        let mut model = tiny_model();
        let pats = patterns();
        let examples = pats.iter().enumerate().map(|(l, p)| (&p[..], l));
        model.train_batch(examples).unwrap();
        assert!(model.is_finalized());
        assert_eq!(model.predict(&pats[1][..]).unwrap().class, 1);
    }

    #[test]
    fn bad_label_rejected() {
        let mut model = tiny_model();
        assert!(matches!(
            model.train_one(&patterns()[0][..], 9),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn fitness_low_for_own_class() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let own = model.fitness(&pats[0][..], 0).unwrap();
        let other = model.fitness(&pats[0][..], 1).unwrap();
        assert!(own < other, "fitness to own class {own} must be below other class {other}");
        assert!((0.0..=2.0).contains(&own));
    }

    #[test]
    fn accuracy_on_training_set_is_one() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let acc = model.accuracy(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_empty_set_errors() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        assert!(model.accuracy(std::iter::empty::<(&[u8], usize)>()).is_err());
    }

    #[test]
    fn adaptive_retrain_no_update_when_correct() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let updated = model.retrain_adaptive(&pats[0][..], 0).unwrap();
        assert!(!updated);
        assert!(model.is_finalized(), "no update must not invalidate the snapshot");
    }

    #[test]
    fn adaptive_retrain_fixes_forced_error() {
        let mut model = tiny_model();
        let pats = patterns();
        // Mislabel on purpose: train pattern 0 as class 1.
        model.train_one(&pats[0][..], 1).unwrap();
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 2).unwrap();
        model.finalize();
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 1);

        // A few adaptive rounds with correct labels repair the model.
        for _ in 0..5 {
            for (l, p) in pats.iter().enumerate() {
                model.retrain_adaptive(&p[..], l).unwrap();
                model.finalize();
            }
        }
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 0);
    }

    #[test]
    fn retrain_one_strengthens_class() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let before = model.predict(&pats[0][..]).unwrap().similarity;
        for _ in 0..3 {
            model.retrain_one(&pats[0][..], 0).unwrap();
        }
        model.finalize();
        let after = model.predict(&pats[0][..]).unwrap().similarity;
        assert!(after >= before - 0.05, "retraining on an example must not hurt it");
    }

    #[test]
    fn predict_batch_matches_predict_loop() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        // Enough inputs to cross the parallel threshold.
        let inputs: Vec<&[u8]> = pats.iter().cycle().take(200).map(|p| &p[..]).collect();
        let batched = model.predict_batch(&inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (input, prediction) in inputs.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict(input).unwrap());
        }
    }

    #[test]
    fn predict_encoded_batch_matches_encoded_loop() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let queries: Vec<_> = pats.iter().map(|p| model.encode(&p[..]).unwrap()).collect();
        let batched = model.predict_encoded_batch(&queries).unwrap();
        for (q, prediction) in queries.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict_encoded(q).unwrap());
        }
    }

    #[test]
    fn predict_batch_unfinalized_errors() {
        let model = tiny_model();
        let pats = patterns();
        let inputs: Vec<&[u8]> = vec![&pats[0][..]];
        assert!(matches!(model.predict_batch(&inputs), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn predict_batch_reports_lowest_index_error() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let bad: [u8; 3] = [1, 2, 3]; // wrong shape for the 4×4 encoder
        let mut inputs: Vec<&[u8]> = pats.iter().cycle().take(100).map(|p| &p[..]).collect();
        inputs[70] = &bad[..];
        inputs[90] = &bad[..];
        assert!(matches!(
            model.predict_batch(&inputs),
            Err(HdcError::InputShapeMismatch { expected: 16, actual: 3 })
        ));
    }

    #[test]
    fn evaluate_batch_matches_predict_and_fitness() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let inputs: Vec<&[u8]> = pats.iter().map(|p| &p[..]).collect();
        let evaluated = model.evaluate_batch(&inputs, 1).unwrap();
        for (input, &(class, fitness)) in inputs.iter().zip(&evaluated) {
            assert_eq!(class, model.predict(input).unwrap().class);
            let expected = model.fitness(input, 1).unwrap();
            assert!((fitness - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluate_batch_rejects_bad_reference() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let inputs: Vec<&[u8]> = vec![&pats[0][..]];
        assert!(matches!(
            model.evaluate_batch(&inputs, 9),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn partial_fit_matches_full_retrain() {
        let pats = patterns();
        // Online model: train two classes, then partial_fit more examples.
        let mut online = tiny_model();
        online.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        online.partial_fit(&pats[0][..], 0).unwrap();
        assert!(online.is_finalized(), "partial_fit must leave the model serving");
        online.partial_fit_batch([(&pats[1][..], 1), (&pats[2][..], 2)]).unwrap();
        assert!(online.is_finalized());

        // Oracle: retrain from scratch on the concatenated dataset.
        let mut scratch = tiny_model();
        let all: Vec<(&[u8], usize)> = pats
            .iter()
            .enumerate()
            .map(|(l, p)| (&p[..], l))
            .chain([(&pats[0][..], 0), (&pats[1][..], 1), (&pats[2][..], 2)])
            .collect();
        scratch.train_batch(all.iter().map(|&(p, l)| (p, l))).unwrap();

        for c in 0..3 {
            assert_eq!(
                online.associative_memory().reference(c).unwrap(),
                scratch.associative_memory().reference(c).unwrap(),
                "class {c}: partial_fit diverged from full retrain"
            );
        }
    }

    #[test]
    fn partial_fit_batch_is_atomic_on_error() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let before = model.associative_memory().accumulator(0).unwrap().clone();
        let bad: [u8; 3] = [1, 2, 3];
        // Good example first, bad second: neither may be applied.
        let err = model.partial_fit_batch([(&pats[0][..], 0), (&bad[..], 1)]).unwrap_err();
        assert!(matches!(err, HdcError::InputShapeMismatch { .. }));
        assert_eq!(*model.associative_memory().accumulator(0).unwrap(), before);
        assert!(model.is_finalized(), "failed batch must not definalize the model");
        // Bad label is rejected before any encode.
        assert!(matches!(
            model.partial_fit_batch([(&pats[0][..], 9)]),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn feedback_updates_only_on_mistake() {
        let mut model = tiny_model();
        let pats = patterns();
        // Mislabel on purpose so pattern 0 predicts class 1.
        model.train_one(&pats[0][..], 1).unwrap();
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 2).unwrap();
        model.finalize();

        // Correct prediction: no update, model stays finalized.
        let fb = model.feedback(&pats[2][..], 2).unwrap();
        assert!(!fb.updated);
        assert_eq!(fb.prediction.class, 2);
        assert!(model.is_finalized());

        // Wrong prediction: adaptive update applied, model repaired after
        // a few rounds, still finalized throughout.
        let mut rounds = 0;
        while model.predict(&pats[0][..]).unwrap().class != 0 {
            let fb = model.feedback(&pats[0][..], 0).unwrap();
            assert!(model.is_finalized());
            assert!(fb.updated, "a mispredicting feedback round must update");
            rounds += 1;
            assert!(rounds < 20, "feedback failed to repair the model");
        }

        assert!(matches!(
            model.feedback(&pats[0][..], 7),
            Err(HdcError::UnknownClass { class: 7, num_classes: 3 })
        ));
    }

    #[test]
    fn predict_encoded_matches_predict() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let hv = model.encode(&pats[2][..]).unwrap();
        assert_eq!(model.predict(&pats[2][..]).unwrap(), model.predict_encoded(&hv).unwrap());
    }
}
