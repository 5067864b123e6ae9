//! Real fuzz rounds, cross-checked against the scalar oracle. The pixel
//! encoder starts each encode of a batch from the cheapest exact state
//! (zero, the blank image, or an earlier candidate of the same round), so
//! every round a campaign evaluates must still give, per candidate, the
//! label and the bit-identical fitness that `encode_reference` plus the
//! associative memory give.

use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdtest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A test double around the dense model whose `evaluate_batch` checks
/// every round it answers.
struct Checked {
    model: HdcClassifier<PixelEncoder>,
    rounds: AtomicUsize,
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
        for (k, (input, &(label, fitness))) in inputs.iter().zip(&got).enumerate() {
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
        self.rounds.fetch_add(1, Relaxed);
        Ok(got)
    }
}

#[test]
fn every_strategys_rounds_match_the_reference_encoder() {
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
    let checked = Checked { model, rounds: AtomicUsize::new(0) };

    for strategy in Strategy::ALL {
        let before = checked.rounds.load(Relaxed);
        let config = CampaignConfig {
            strategy,
            l2_budget: strategy.distance_meaningful().then_some(1.0),
            seed: 77,
            ..Default::default()
        };
        let report = Campaign::new(&checked, config).run(&pool.images()[..4]).expect("campaign");
        assert_eq!(report.records.len(), 4);
        assert!(checked.rounds.load(Relaxed) > before, "{} evaluated no round", strategy.name());
    }
}
