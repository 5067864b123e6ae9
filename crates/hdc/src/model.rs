//! One polymorphic surface over every classifier kind.
//!
//! The paper's differential-testing premise is that *any* HDC classifier
//! exposing predictions and a distance signal can be tested; this module
//! is the library-side realization of that premise. The [`Model`] trait
//! unifies the dense bipolar [`HdcClassifier`] and the binarized
//! [`BinaryClassifier`] behind one API — prediction (single and batch),
//! the fuzzer's fitness/evaluate signals, online learning
//! (`partial_fit_batch`, `feedback`) and warm-up — so campaigns, the
//! cross-model differential oracle, and the serving layer are written
//! once and run over either kind.
//!
//! [`AnyModel`] is the deployment form: a two-variant enum over the
//! pixel-encoder classifiers that dispatches **statically** (one `match`,
//! no vtable) on every hot-path call, knows its [`ModelKind`], and
//! serializes itself through the matching `hdc::io` format (`HDC1` dense,
//! `HDB1` binary — [`crate::io::load_any`] sniffs the magic back).
//!
//! ## The unified prediction
//!
//! Both kinds report the dense [`Prediction`]. The binarized classifier
//! converts its Hamming distances via the bipolar identity
//! `cos = 1 − 2·h/D` ([`crate::BinaryPrediction::to_prediction`]), and its
//! tie-breaking already matches the dense argmax-cosine rule, so a
//! binarized model drops into any dense consumer — including the serving
//! layer's JSON rendering — without a special case.
//!
//! ## The Arc-encoder publish invariant
//!
//! Both classifiers hold their encoder behind an `Arc`, so `clone()` on a
//! model copies only counters and class vectors. The serving layer's
//! online-training publish path (clone → `partial_fit_batch` → swap)
//! therefore never duplicates an item memory: `Arc::ptr_eq` holds between
//! the model before and after any number of published training batches
//! (asserted by the serve-layer tests, visible in the `train_partial_fit`
//! and `serve_train` bench rows).

use crate::binary::BinaryClassifier;
use crate::classifier::{Feedback, HdcClassifier, Prediction};
use crate::encoder::{Encoder, PixelEncoder, PixelEncoderConfig, Sketch};
use crate::error::HdcError;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// The implementation family of a classifier — the discriminant the
/// registry, `/v1/models`, and the model-file magic all agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Dense bipolar: integer accumulators, cosine similarity (`HDC1`).
    Dense,
    /// Binarized: set-bit counters, Hamming distance (`HDB1`).
    Binary,
}

impl ModelKind {
    /// The lowercase wire name (`"dense"` / `"binary"`), as reported by
    /// `/v1/models` and accepted by `hdtest-cli train --kind`.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Dense => "dense",
            ModelKind::Binary => "binary",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The error for an unrecognized [`ModelKind`] wire name — an *input*
/// error (a mistyped flag or request field), deliberately not an
/// [`HdcError::Corrupt`], which is reserved for malformed model files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelKind(String);

impl fmt::Display for UnknownModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model kind '{}' (valid: dense | binary)", self.0)
    }
}

impl std::error::Error for UnknownModelKind {}

impl std::str::FromStr for ModelKind {
    type Err = UnknownModelKind;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name {
            "dense" => Ok(ModelKind::Dense),
            "binary" => Ok(ModelKind::Binary),
            other => Err(UnknownModelKind(other.to_owned())),
        }
    }
}

/// A trainable classifier behind one polymorphic surface.
///
/// Implemented by [`HdcClassifier`] and [`BinaryClassifier`] over any
/// [`Encoder`], and by [`AnyModel`] for the deployment case. Consumers —
/// `hdtest` campaigns (via its blanket `TargetModel` impl), the
/// cross-model differential oracle, the serving layer's batcher — bound on
/// this trait and work with either kind unchanged.
///
/// Semantics every implementation upholds:
///
/// * [`predict`](Self::predict) returns the unified dense-style
///   [`Prediction`] with the same tie-breaking across kinds.
/// * [`partial_fit_batch`](Self::partial_fit_batch) is **atomic** (a bad
///   example leaves the model untouched) and re-finalizes only dirty
///   classes, leaving the model serving.
/// * [`feedback`](Self::feedback) applies the adaptive update only on a
///   misprediction and reports what the model predicted beforehand.
/// * [`fitness`](Self::fitness)/[`evaluate`](Self::evaluate) expose the
///   greybox guidance signal; the scale is kind-specific (`1 − cos` for
///   dense, normalized Hamming for binary — affinely related for bipolar
///   vectors) but monotone in drift for both.
pub trait Model: Send + Sync {
    /// Raw input type consumed by the model (e.g. `[u8]` pixels).
    type Input: ?Sized;

    /// Which implementation family this is.
    fn kind(&self) -> ModelKind;

    /// Hypervector dimension.
    fn dim(&self) -> usize;

    /// Number of classes the model distinguishes.
    fn num_classes(&self) -> usize;

    /// Whether the model is ready for prediction.
    fn is_finalized(&self) -> bool;

    /// Classifies one input.
    ///
    /// # Errors
    ///
    /// [`HdcError::EmptyModel`] before finalization, or encoder errors.
    fn predict(&self, input: &Self::Input) -> Result<Prediction, HdcError>;

    /// Classifies a batch, results in input order and identical to a
    /// [`predict`](Self::predict) loop. Batches at or above the tunable
    /// [`crate::batch::parallel_threshold`] fan out across scoped threads
    /// (contiguous chunks, reassembled in order), so the answers stay
    /// bit-identical at any parallelism.
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict); the lowest bad index wins.
    fn predict_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Prediction>, HdcError>;

    /// The greybox guidance signal: drift of `input` away from the
    /// reference class, on the kind's native scale.
    ///
    /// # Errors
    ///
    /// [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`] or encoder
    /// errors.
    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdcError>;

    /// Prediction and fitness from one model pass.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict) and [`fitness`](Self::fitness).
    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdcError>;

    /// Evaluates one whole candidate batch, in input order: per input, its
    /// [`evaluate`](Self::evaluate) pair and, when the model's encoder
    /// makes them, the [`Sketch`] of its encoding. Input `k` may start its
    /// encode from `starts[k]` ([`Encoder::encode_batch_from`]); the
    /// results never depend on the starts. The default loops `evaluate`
    /// and returns no sketches.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    fn evaluate_batch_from(
        &self,
        inputs: &[&Self::Input],
        starts: &[Option<&Sketch>],
        reference: usize,
    ) -> Result<Vec<(usize, f64, Option<Sketch>)>, HdcError> {
        let _ = starts;
        inputs
            .iter()
            .map(|input| {
                self.evaluate(input, reference).map(|(label, fitness)| (label, fitness, None))
            })
            .collect()
    }

    /// Absorbs labeled examples online and re-finalizes dirty classes
    /// once; returns how many examples were applied. Atomic: on error the
    /// model is unchanged.
    ///
    /// # Errors
    ///
    /// The error for the lowest bad example.
    fn partial_fit_batch(&mut self, examples: &[(&Self::Input, usize)]) -> Result<usize, HdcError>;

    /// Online feedback: adaptive update iff the model mispredicts the
    /// true `label`.
    ///
    /// # Errors
    ///
    /// [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`] or encoder
    /// errors.
    fn feedback(&mut self, input: &Self::Input, label: usize) -> Result<Feedback, HdcError>;

    /// One-time preparation before heavy or concurrent use (packed-mirror
    /// prewarming). Idempotent; the default does nothing.
    fn warm_up(&self) {}
}

impl<E: Encoder> Model for HdcClassifier<E>
where
    E::Input: Sync,
{
    type Input = E::Input;

    fn kind(&self) -> ModelKind {
        ModelKind::Dense
    }

    fn dim(&self) -> usize {
        self.encoder().dim()
    }

    fn num_classes(&self) -> usize {
        HdcClassifier::num_classes(self)
    }

    fn is_finalized(&self) -> bool {
        HdcClassifier::is_finalized(self)
    }

    fn predict(&self, input: &Self::Input) -> Result<Prediction, HdcError> {
        HdcClassifier::predict(self, input)
    }

    fn predict_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Prediction>, HdcError> {
        HdcClassifier::predict_batch(self, inputs)
    }

    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdcError> {
        HdcClassifier::fitness(self, input, reference)
    }

    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdcError> {
        // One encoding serves both the prediction and the fitness signal.
        let prediction = HdcClassifier::predict(self, input)?;
        let similarity = *prediction.similarities.get(reference).ok_or(HdcError::UnknownClass {
            class: reference,
            num_classes: Model::num_classes(self),
        })?;
        Ok((prediction.class, 1.0 - similarity))
    }

    fn evaluate_batch_from(
        &self,
        inputs: &[&Self::Input],
        starts: &[Option<&Sketch>],
        reference: usize,
    ) -> Result<Vec<(usize, f64, Option<Sketch>)>, HdcError> {
        // The packed batch kernel: one encode + one packed similarity scan
        // per candidate, sharing scratch across the whole batch.
        HdcClassifier::evaluate_batch_from(self, inputs, starts, reference)
    }

    fn partial_fit_batch(&mut self, examples: &[(&Self::Input, usize)]) -> Result<usize, HdcError> {
        HdcClassifier::partial_fit_batch(
            self,
            examples.iter().map(|&(input, label)| (input, label)),
        )
    }

    fn feedback(&mut self, input: &Self::Input, label: usize) -> Result<Feedback, HdcError> {
        HdcClassifier::feedback(self, input, label)
    }

    fn warm_up(&self) {
        self.associative_memory().warm_packed();
        self.encoder().warm_up();
    }
}

impl<E: Encoder> Model for BinaryClassifier<E>
where
    E::Input: Sync,
{
    type Input = E::Input;

    fn kind(&self) -> ModelKind {
        ModelKind::Binary
    }

    fn dim(&self) -> usize {
        BinaryClassifier::dim(self)
    }

    fn num_classes(&self) -> usize {
        BinaryClassifier::num_classes(self)
    }

    fn is_finalized(&self) -> bool {
        BinaryClassifier::is_finalized(self)
    }

    fn predict(&self, input: &Self::Input) -> Result<Prediction, HdcError> {
        Ok(BinaryClassifier::predict(self, input)?.to_prediction(self.dim()))
    }

    fn predict_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Prediction>, HdcError> {
        let dim = self.dim();
        Ok(BinaryClassifier::predict_batch(self, inputs)?
            .iter()
            .map(|p| p.to_prediction(dim))
            .collect())
    }

    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdcError> {
        // Normalized Hamming distance plays the same role as 1 − cosine
        // (they are affinely related for bipolar vectors).
        BinaryClassifier::fitness(self, input, reference)
    }

    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdcError> {
        let prediction = BinaryClassifier::predict(self, input)?;
        let distance = *prediction.distances.get(reference).ok_or(HdcError::UnknownClass {
            class: reference,
            num_classes: Model::num_classes(self),
        })?;
        Ok((prediction.class, distance as f64 / self.dim() as f64))
    }

    fn partial_fit_batch(&mut self, examples: &[(&Self::Input, usize)]) -> Result<usize, HdcError> {
        BinaryClassifier::partial_fit_batch(
            self,
            examples.iter().map(|&(input, label)| (input, label)),
        )
    }

    fn feedback(&mut self, input: &Self::Input, label: usize) -> Result<Feedback, HdcError> {
        BinaryClassifier::feedback(self, input, label)
    }

    fn warm_up(&self) {
        self.encoder().warm_up();
    }
}

/// A concrete, serializable model of either kind over the paper's
/// [`PixelEncoder`] — the type the registry, the CLI and the `hdc::io`
/// sniffing loader ([`crate::io::load_any`]) traffic in.
///
/// Dispatch is a static `match` per call (no boxing, no vtable), so hot
/// paths keep the monomorphized batch kernels of the underlying
/// classifier.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Dense bipolar classifier (`HDC1`).
    Dense(HdcClassifier<PixelEncoder>),
    /// Binarized classifier (`HDB1`).
    Binary(BinaryClassifier<PixelEncoder>),
}

impl From<HdcClassifier<PixelEncoder>> for AnyModel {
    fn from(model: HdcClassifier<PixelEncoder>) -> Self {
        AnyModel::Dense(model)
    }
}

impl From<BinaryClassifier<PixelEncoder>> for AnyModel {
    fn from(model: BinaryClassifier<PixelEncoder>) -> Self {
        AnyModel::Binary(model)
    }
}

impl AnyModel {
    /// Which implementation family this is. (Inherent so callers with
    /// several model traits in scope never hit method ambiguity.)
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::Dense(_) => ModelKind::Dense,
            AnyModel::Binary(_) => ModelKind::Binary,
        }
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.config().dim
    }

    /// Number of classes the model distinguishes.
    pub fn num_classes(&self) -> usize {
        match self {
            AnyModel::Dense(m) => m.num_classes(),
            AnyModel::Binary(m) => m.num_classes(),
        }
    }

    /// Whether the model is ready for prediction.
    pub fn is_finalized(&self) -> bool {
        match self {
            AnyModel::Dense(m) => m.is_finalized(),
            AnyModel::Binary(m) => m.is_finalized(),
        }
    }

    /// The pixel-encoder configuration (shape, levels, seed).
    pub fn config(&self) -> &PixelEncoderConfig {
        match self {
            AnyModel::Dense(m) => m.encoder().config(),
            AnyModel::Binary(m) => m.encoder().config(),
        }
    }

    /// The shared encoder handle. Training publishes clone the model but
    /// never the encoder, so `Arc::ptr_eq` holds across versions.
    pub fn encoder_arc(&self) -> &Arc<PixelEncoder> {
        match self {
            AnyModel::Dense(m) => m.encoder_arc(),
            AnyModel::Binary(m) => m.encoder_arc(),
        }
    }

    /// The dense variant, if that is what this is.
    pub fn as_dense(&self) -> Option<&HdcClassifier<PixelEncoder>> {
        match self {
            AnyModel::Dense(m) => Some(m),
            AnyModel::Binary(_) => None,
        }
    }

    /// The binary variant, if that is what this is.
    pub fn as_binary(&self) -> Option<&BinaryClassifier<PixelEncoder>> {
        match self {
            AnyModel::Dense(_) => None,
            AnyModel::Binary(m) => Some(m),
        }
    }

    /// Mutable access to the binary variant — the hook the serving
    /// layer's deterministic counter-rescale pass
    /// ([`BinaryClassifier::rescale_counters`]) uses at publish and
    /// replay time.
    pub fn as_binary_mut(&mut self) -> Option<&mut BinaryClassifier<PixelEncoder>> {
        match self {
            AnyModel::Dense(_) => None,
            AnyModel::Binary(m) => Some(m),
        }
    }

    /// Serializes the model in its kind's format (`HDC1` / `HDB1`); the
    /// counterpart of [`crate::io::load_any`]. The payload is the
    /// trainable counter state, so the reloaded model keeps learning.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Io`] on write failure.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), HdcError> {
        match self {
            AnyModel::Dense(m) => crate::io::save_pixel_classifier(m, writer),
            AnyModel::Binary(m) => crate::io::save_binary_classifier(m, writer),
        }
    }

    /// Fraction of `(input, label)` pairs predicted correctly.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; [`HdcError::EmptyModel`] for an
    /// empty iterator.
    pub fn accuracy<'a, It>(&self, examples: It) -> Result<f64, HdcError>
    where
        It: IntoIterator<Item = (&'a [u8], usize)>,
    {
        match self {
            AnyModel::Dense(m) => m.accuracy(examples),
            AnyModel::Binary(m) => m.accuracy(examples),
        }
    }
}

impl Model for AnyModel {
    type Input = [u8];

    fn kind(&self) -> ModelKind {
        AnyModel::kind(self)
    }

    fn dim(&self) -> usize {
        AnyModel::dim(self)
    }

    fn num_classes(&self) -> usize {
        AnyModel::num_classes(self)
    }

    fn is_finalized(&self) -> bool {
        AnyModel::is_finalized(self)
    }

    fn predict(&self, input: &[u8]) -> Result<Prediction, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::predict(m, input),
            AnyModel::Binary(m) => Model::predict(m, input),
        }
    }

    fn predict_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Prediction>, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::predict_batch(m, inputs),
            AnyModel::Binary(m) => Model::predict_batch(m, inputs),
        }
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::fitness(m, input, reference),
            AnyModel::Binary(m) => Model::fitness(m, input, reference),
        }
    }

    fn evaluate(&self, input: &[u8], reference: usize) -> Result<(usize, f64), HdcError> {
        match self {
            AnyModel::Dense(m) => Model::evaluate(m, input, reference),
            AnyModel::Binary(m) => Model::evaluate(m, input, reference),
        }
    }

    fn evaluate_batch_from(
        &self,
        inputs: &[&[u8]],
        starts: &[Option<&Sketch>],
        reference: usize,
    ) -> Result<Vec<(usize, f64, Option<Sketch>)>, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::evaluate_batch_from(m, inputs, starts, reference),
            AnyModel::Binary(m) => Model::evaluate_batch_from(m, inputs, starts, reference),
        }
    }

    fn partial_fit_batch(&mut self, examples: &[(&[u8], usize)]) -> Result<usize, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::partial_fit_batch(m, examples),
            AnyModel::Binary(m) => Model::partial_fit_batch(m, examples),
        }
    }

    fn feedback(&mut self, input: &[u8], label: usize) -> Result<Feedback, HdcError> {
        match self {
            AnyModel::Dense(m) => Model::feedback(m, input, label),
            AnyModel::Binary(m) => Model::feedback(m, input, label),
        }
    }

    fn warm_up(&self) {
        match self {
            AnyModel::Dense(m) => Model::warm_up(m),
            AnyModel::Binary(m) => Model::warm_up(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::ValueEncoding;

    fn encoder(dim: usize) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 23,
        })
        .unwrap()
    }

    const INK: u8 = 224;

    fn patterns() -> [[u8; 16]; 3] {
        let i = INK;
        [
            [i, i, i, i, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, i, i, i, i],
            [i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0],
        ]
    }

    fn any_models() -> [AnyModel; 2] {
        let pats = patterns();
        let mut dense = HdcClassifier::new(encoder(2_000), 3);
        let mut binary = BinaryClassifier::new(encoder(2_000), 3);
        for (l, p) in pats.iter().enumerate() {
            dense.train_one(&p[..], l).unwrap();
            binary.train_one(&p[..], l).unwrap();
        }
        dense.finalize();
        binary.finalize();
        [AnyModel::from(dense), AnyModel::from(binary)]
    }

    #[test]
    fn kinds_and_metadata_agree() {
        let [dense, binary] = any_models();
        assert_eq!(dense.kind(), ModelKind::Dense);
        assert_eq!(binary.kind(), ModelKind::Binary);
        assert_eq!("dense".parse::<ModelKind>().unwrap(), ModelKind::Dense);
        assert_eq!("binary".parse::<ModelKind>().unwrap(), ModelKind::Binary);
        let err = "sparse".parse::<ModelKind>().unwrap_err();
        assert!(err.to_string().contains("sparse"), "{err}");
        assert_eq!(ModelKind::Binary.to_string(), "binary");
        for m in [&dense, &binary] {
            assert_eq!(Model::dim(m), 2_000);
            assert_eq!(Model::num_classes(m), 3);
            assert!(Model::is_finalized(m));
            assert_eq!(m.config().width, 4);
        }
    }

    #[test]
    fn unified_predictions_agree_across_kinds_on_prototypes() {
        // With one training example per class the two kinds store the same
        // information, so the unified surface must report the same class.
        let [dense, binary] = any_models();
        for (l, p) in patterns().iter().enumerate() {
            let d = dense.predict(&p[..]).unwrap();
            let b = binary.predict(&p[..]).unwrap();
            assert_eq!(d.class, l);
            assert_eq!(b.class, l);
            assert_eq!(b.similarities.len(), 3);
            assert!(b.margin > 0.0);
        }
    }

    #[test]
    fn binary_prediction_conversion_is_exact() {
        let [_, binary] = any_models();
        let raw = binary.as_binary().unwrap();
        let p = patterns()[1];
        let native = raw.predict(&p[..]).unwrap();
        let unified = Model::predict(&binary, &p[..]).unwrap();
        assert_eq!(native.class, unified.class);
        for (h, s) in native.distances.iter().zip(&unified.similarities) {
            assert_eq!(1.0 - 2.0 * (*h as f64) / 2_000.0, *s, "conversion must be bit-exact");
        }
    }

    #[test]
    fn predict_batch_matches_predict_loop_for_both_kinds() {
        let pats = patterns();
        for model in any_models() {
            let inputs: Vec<&[u8]> = pats.iter().cycle().take(80).map(|p| &p[..]).collect();
            let batched = model.predict_batch(&inputs).unwrap();
            for (input, prediction) in inputs.iter().zip(&batched) {
                assert_eq!(*prediction, model.predict(input).unwrap());
            }
        }
    }

    #[test]
    fn evaluate_matches_predict_and_fitness_for_both_kinds() {
        let pats = patterns();
        for model in any_models() {
            for p in &pats {
                let (class, fitness) = model.evaluate(&p[..], 1).unwrap();
                assert_eq!(class, model.predict(&p[..]).unwrap().class);
                let direct = Model::fitness(&model, &p[..], 1).unwrap();
                assert!((fitness - direct).abs() < 1e-12, "{fitness} vs {direct}");
            }
            assert!(model.evaluate(&pats[0][..], 9).is_err());
        }
    }

    #[test]
    fn partial_fit_and_feedback_through_the_trait() {
        let pats = patterns();
        for mut model in any_models() {
            let applied = model.partial_fit_batch(&[(&pats[0][..], 0), (&pats[1][..], 1)]).unwrap();
            assert_eq!(applied, 2);
            assert!(model.is_finalized(), "partial_fit_batch must leave the model serving");

            // Bad label rejected atomically.
            assert!(model.partial_fit_batch(&[(&pats[0][..], 9)]).is_err());
            assert!(model.is_finalized());

            // Correct feedback: no update.
            let fb = model.feedback(&pats[2][..], 2).unwrap();
            assert!(!fb.updated);
            assert_eq!(fb.prediction.class, 2);
        }
    }

    #[test]
    fn binary_feedback_repairs_a_forced_error() {
        // Mislabel on purpose: pattern 0 trained as class 1.
        let pats = patterns();
        let mut model = BinaryClassifier::new(encoder(2_000), 3);
        model.train_one(&pats[0][..], 1).unwrap();
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 2).unwrap();
        model.finalize();
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 1);

        let mut rounds = 0;
        while model.predict(&pats[0][..]).unwrap().class != 0 {
            let fb = model.feedback(&pats[0][..], 0).unwrap();
            assert!(fb.updated, "a mispredicting feedback round must update");
            assert!(model.is_finalized());
            rounds += 1;
            assert!(rounds < 20, "feedback failed to repair the model");
        }
        assert!(model.feedback(&pats[0][..], 7).is_err());
    }

    #[test]
    fn binary_feedback_matches_dense_sum_semantics() {
        // The add-complement subtract: after one feedback update the
        // binary counters' implied sums (2c − n) must equal the dense
        // accumulator sums when both start from identical training and the
        // same encoder, and both mispredict the same probe the same way.
        let pats = patterns();
        let shared = Arc::new(encoder(1_024));
        let mut dense = HdcClassifier::with_shared_encoder(Arc::clone(&shared), 2);
        let mut binary = BinaryClassifier::with_shared_encoder(Arc::clone(&shared), 2);
        for (p, l) in [(&pats[0], 0), (&pats[1], 1)] {
            dense.train_one(&p[..], l).unwrap();
            binary.train_one(&p[..], l).unwrap();
        }
        dense.finalize();
        binary.finalize();

        // Force a misprediction by lying about the label of pattern 1.
        let d_fb = dense.feedback(&pats[1][..], 0).unwrap();
        let b_fb = binary.feedback(&pats[1][..], 0).unwrap();
        assert!(d_fb.updated && b_fb.updated);
        assert_eq!(d_fb.prediction.class, b_fb.prediction.class);

        for class in 0..2 {
            let acc = dense.associative_memory().accumulator(class).unwrap();
            let mut counter = binary.counter(class).unwrap().clone();
            let n = counter.count() as i64;
            for (sum, ones) in acc.sums().iter().zip(counter.set_counts()) {
                assert_eq!(
                    i64::from(*sum),
                    2 * ones as i64 - n,
                    "class {class}: binary implied sum diverged from dense accumulator"
                );
            }
        }
    }

    #[test]
    fn clones_share_the_encoder() {
        for model in any_models() {
            let clone = model.clone();
            assert!(
                Arc::ptr_eq(model.encoder_arc(), clone.encoder_arc()),
                "clone must share the encoder allocation, not copy it"
            );
        }
    }

    #[test]
    fn save_load_round_trips_both_kinds() {
        for model in any_models() {
            let mut buf = Vec::new();
            model.save(&mut buf).unwrap();
            let loaded = crate::io::load_any(&buf[..]).unwrap();
            assert_eq!(loaded.kind(), model.kind());
            for p in &patterns() {
                assert_eq!(loaded.predict(&p[..]).unwrap(), model.predict(&p[..]).unwrap());
            }
        }
    }

    #[test]
    fn accuracy_dispatches_for_both_kinds() {
        let pats = patterns();
        for model in any_models() {
            let acc = model.accuracy(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
            assert!((acc - 1.0).abs() < 1e-12);
        }
    }
}
