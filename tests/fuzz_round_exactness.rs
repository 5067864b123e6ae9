//! Real fuzz rounds, cross-checked against the scalar oracle. The pixel
//! encoder starts each encode of a batch from the cheapest exact state
//! (zero, the blank image, an earlier candidate of the same round, or the
//! sketch of the candidate's parent that the fuzzer carries from round to
//! round), so every round a campaign evaluates must still give, per
//! candidate, the label and the bit-identical fitness that
//! `encode_reference` plus the associative memory give — and a campaign's
//! records and corpus must not depend on which path evaluated it.

use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::GrayImage;
use hdtest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A test double around the dense model whose `evaluate_batch` and
/// `evaluate_batch_from` check every round they answer.
struct Checked {
    model: HdcClassifier<PixelEncoder>,
    rounds: AtomicUsize,
    sketched_rounds: AtomicUsize,
}

impl Checked {
    /// Asserts each candidate's `(label, fitness)` against
    /// `encode_reference` plus the associative memory.
    fn check(&self, inputs: &[&[u8]], got: impl Iterator<Item = (usize, f64)>, reference: usize) {
        for (k, (input, (label, fitness))) in inputs.iter().zip(got).enumerate() {
            let query = self.model.encoder().encode_reference(input).expect("reference encode");
            let (class, sims) =
                self.model.associative_memory().classify(&query).expect("finalized model");
            assert_eq!(
                (label, fitness.to_bits()),
                (class, (1.0 - sims[reference]).to_bits()),
                "candidate {k} of a {}-candidate round",
                inputs.len()
            );
        }
    }
}

impl TargetModel for Checked {
    type Input = [u8];

    fn num_classes(&self) -> usize {
        TargetModel::num_classes(&self.model)
    }

    fn predict(&self, input: &[u8]) -> Result<usize, HdtestError> {
        TargetModel::predict(&self.model, input)
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdtestError> {
        TargetModel::fitness(&self.model, input, reference)
    }

    fn evaluate_batch(
        &self,
        inputs: &[&[u8]],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        let got = TargetModel::evaluate_batch(&self.model, inputs, reference)?;
        self.check(inputs, got.iter().copied(), reference);
        self.rounds.fetch_add(1, Relaxed);
        Ok(got)
    }

    fn evaluate_batch_from(
        &self,
        inputs: &[&[u8]],
        starts: &[Option<&Sketch>],
        reference: usize,
    ) -> Result<Vec<(usize, f64, Option<Sketch>)>, HdtestError> {
        let got = TargetModel::evaluate_batch_from(&self.model, inputs, starts, reference)?;
        self.check(inputs, got.iter().map(|(label, fitness, _)| (*label, *fitness)), reference);
        assert!(got.iter().all(|(_, _, sketch)| sketch.is_some()), "the dense model sketches");
        if starts.iter().any(Option::is_some) {
            self.sketched_rounds.fetch_add(1, Relaxed);
        }
        Ok(got)
    }
}

/// Forwards everything but `evaluate_batch_from`, so campaigns over it
/// take the trait's default path: no starts, no sketches.
struct Hidden<'a, M>(&'a M);

impl<M: TargetModel<Input = [u8]>> TargetModel for Hidden<'_, M> {
    type Input = [u8];

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn predict(&self, input: &[u8]) -> Result<usize, HdtestError> {
        self.0.predict(input)
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdtestError> {
        self.0.fitness(input, reference)
    }

    fn evaluate(&self, input: &[u8], reference: usize) -> Result<(usize, f64), HdtestError> {
        self.0.evaluate(input, reference)
    }

    fn evaluate_batch(
        &self,
        inputs: &[&[u8]],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        self.0.evaluate_batch(inputs, reference)
    }
}

fn testbed() -> (HdcClassifier<PixelEncoder>, Vec<GrayImage>) {
    let mut generator = SynthGenerator::new(SynthConfig { seed: 31, ..Default::default() });
    let train = generator.dataset(10);
    let pool = generator.dataset(1);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: 2_000,
        width: 28,
        height: 28,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: 5,
    })
    .expect("valid encoder config");
    let mut model = HdcClassifier::new(encoder, 10);
    model.train_batch(train.pairs()).expect("training succeeds");
    (model, pool.images()[..4].to_vec())
}

fn campaign<M: TargetModel<Input = [u8]>>(
    model: &M,
    strategy: Strategy,
    images: &[GrayImage],
) -> CampaignReport {
    let config = CampaignConfig {
        strategy,
        l2_budget: strategy.distance_meaningful().then_some(1.0),
        seed: 77,
        ..Default::default()
    };
    let report = Campaign::new(model, config).run(images).expect("campaign");
    assert_eq!(report.records.len(), images.len());
    report
}

#[test]
fn every_strategys_rounds_match_the_reference_encoder() {
    let (model, images) = testbed();
    let checked =
        Checked { model, rounds: AtomicUsize::new(0), sketched_rounds: AtomicUsize::new(0) };

    for strategy in Strategy::ALL {
        let (before, sketched_before) =
            (checked.rounds.load(Relaxed), checked.sketched_rounds.load(Relaxed));
        let sketched = campaign(&checked, strategy, &images);
        let hidden = campaign(&Hidden(&checked), strategy, &images);
        let name = strategy.name();
        assert!(checked.rounds.load(Relaxed) > before, "{name} evaluated no round");
        assert!(
            checked.sketched_rounds.load(Relaxed) > sketched_before,
            "{name} evaluated no round from parent sketches"
        );
        assert_eq!(sketched.records, hidden.records, "{name}");
        assert_eq!(sketched.corpus, hidden.corpus, "{name}");
    }
}

#[test]
fn campaigns_agree_across_model_wrappers() {
    let (model, images) = testbed();
    let any = AnyModel::from(model.clone());
    for strategy in Strategy::ALL {
        let dense = campaign(&model, strategy, &images);
        let name = strategy.name();
        for other in
            [campaign(&any, strategy, &images), campaign(&Hidden(&model), strategy, &images)]
        {
            assert_eq!(dense.records, other.records, "{name}");
            assert_eq!(dense.corpus, other.corpus, "{name}");
        }
    }
}
