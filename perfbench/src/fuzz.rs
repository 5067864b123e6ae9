//! The campaign half: HDTest Alg. 1 over the unlabeled input pool, run as
//! `hdtest-cli fuzz` runs it, through `hdtest::campaign::Campaign::run`
//! (one worker per CPU), on fixed chunks of the pool until a round is up.
//!
//! With tracing on, each input's time is split into the campaign's layers
//! instead: mutate → constraint → encode → AM scan → select. The layers are
//! timed by wrappers around the library's own mutation, constraint, encoder
//! and model, fuzzed with `Fuzzer::fuzz_one` on one thread, because
//! `Campaign::run` builds its mutation and constraint itself and so offers
//! no place to wrap them. The worker fan-out is measured end to end only.

use crate::{derive, Metric, Outcome, Testbed};
use hdc::prelude::*;
use hdc_data::{normalized_l2, GrayImage};
use hdtest::campaign::{Campaign, CampaignConfig};
use hdtest::constraint::{Constraint, L2Constraint, NoConstraint};
use hdtest::fuzzer::{FuzzConfig, FuzzOutcome, Fuzzer};
use hdtest::model::TargetModel;
use hdtest::mutation::{Mutation, Strategy};
use hdtest::HdtestError;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The invisibility budget the Table II campaigns use (`L2 < 1`); `shift`
/// runs unconstrained because its pixel distances are not meaningful.
const L2_BUDGET: f64 = 1.0;
/// Pool images per `Campaign::run` call. A constant, so a seed gives the
/// same chunks, and so the same per-input seeds and outcomes, on any
/// machine. It divides the pool size, so no chunk wraps around.
const CHUNK: usize = 25;

fn budget(strategy: Strategy) -> Option<f64> {
    strategy.distance_meaningful().then_some(L2_BUDGET)
}

fn constraint(strategy: Strategy) -> Box<dyn Constraint<GrayImage>> {
    match budget(strategy) {
        Some(budget) => Box::new(L2Constraint { budget }),
        None => Box::new(NoConstraint),
    }
}

/// Nanoseconds spent in each layer, summed over the run.
#[derive(Default)]
struct Layers {
    mutate: AtomicU64,
    constraint: AtomicU64,
    /// Every call into the model, encoding included.
    model: AtomicU64,
    encode: AtomicU64,
    encoded: AtomicU64,
}

fn add_since(counter: &AtomicU64, started: Instant) {
    counter.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
}

struct TimedMutation {
    inner: Box<dyn Mutation<GrayImage>>,
    layers: Arc<Layers>,
}

impl Mutation<GrayImage> for TimedMutation {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mutate(&self, input: &GrayImage, rng: &mut rand::rngs::StdRng) -> GrayImage {
        let started = Instant::now();
        let out = self.inner.mutate(input, rng);
        add_since(&self.layers.mutate, started);
        out
    }
}

struct TimedConstraint {
    inner: Box<dyn Constraint<GrayImage>>,
    layers: Arc<Layers>,
}

impl Constraint<GrayImage> for TimedConstraint {
    fn accepts(&self, original: &GrayImage, candidate: &GrayImage) -> bool {
        let started = Instant::now();
        let accepted = self.inner.accepts(original, candidate);
        add_since(&self.layers.constraint, started);
        accepted
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The model's pixel encoder, with its encodings timed and counted.
struct TimedEncoder {
    inner: Arc<PixelEncoder>,
    layers: Arc<Layers>,
}

impl TimedEncoder {
    fn timed<T>(&self, count: usize, encode: impl FnOnce(&PixelEncoder) -> T) -> T {
        let started = Instant::now();
        let out = encode(&self.inner);
        add_since(&self.layers.encode, started);
        self.layers.encoded.fetch_add(count as u64, Relaxed);
        out
    }
}

impl Encoder for TimedEncoder {
    type Input = [u8];

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn encode(&self, input: &[u8]) -> Result<Hypervector, HdcError> {
        self.timed(1, |encoder| encoder.encode(input))
    }

    fn encode_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Hypervector>, HdcError> {
        self.timed(inputs.len(), |encoder| encoder.encode_batch(inputs))
    }

    fn warm_up(&self) {
        self.inner.warm_up();
    }
}

/// The library's dense model on the timed encoder, with every call into it
/// timed. What a call spends outside the encoder is the AM scan.
struct TimedModel {
    inner: HdcClassifier<TimedEncoder>,
    layers: Arc<Layers>,
}

impl TimedModel {
    /// Trains the model under test again, on the timed encoder. Training
    /// is deterministic, so the result is the same model.
    fn new(testbed: &Testbed) -> Result<Self, HdcError> {
        let layers = Arc::new(Layers::default());
        let encoder = TimedEncoder {
            inner: Arc::clone(testbed.model.encoder_arc()),
            layers: Arc::clone(&layers),
        };
        let mut inner = HdcClassifier::new(encoder, testbed.model.num_classes());
        inner.train_batch(testbed.training_set.pairs())?;
        // Only the campaign's encodings count.
        layers.encode.store(0, Relaxed);
        layers.encoded.store(0, Relaxed);
        Ok(TimedModel { inner, layers })
    }

    fn timed<T>(&self, call: impl FnOnce(&HdcClassifier<TimedEncoder>) -> T) -> T {
        let started = Instant::now();
        let out = call(&self.inner);
        add_since(&self.layers.model, started);
        out
    }
}

impl TargetModel for TimedModel {
    type Input = [u8];

    fn num_classes(&self) -> usize {
        TargetModel::num_classes(&self.inner)
    }

    fn predict(&self, input: &[u8]) -> Result<usize, HdtestError> {
        self.timed(|model| TargetModel::predict(model, input))
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdtestError> {
        self.timed(|model| TargetModel::fitness(model, input, reference))
    }

    fn evaluate(&self, input: &[u8], reference: usize) -> Result<(usize, f64), HdtestError> {
        self.timed(|model| TargetModel::evaluate(model, input, reference))
    }

    fn evaluate_batch(
        &self,
        inputs: &[&[u8]],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        self.timed(|model| TargetModel::evaluate_batch(model, inputs, reference))
    }

    fn warm_up(&self) {
        TargetModel::warm_up(&self.inner);
    }
}

/// Checks one fuzzed input against the model under test: the reference
/// label is the model's prediction on the original, and an adversarial is
/// really misclassified into the reported class within the budget.
fn check(
    model: &HdcClassifier<PixelEncoder>,
    strategy: Strategy,
    image: &GrayImage,
    reference_label: usize,
    adversarial: Option<(&GrayImage, usize)>,
) -> Result<(), String> {
    let predict = |pixels: &[u8]| Model::predict(model, pixels).map(|p| p.class);
    let reference = predict(image.as_slice()).map_err(|e| e.to_string())?;
    if reference != reference_label {
        return Err(format!("reference label {reference_label} but the model says {reference}"));
    }
    let Some((input, predicted)) = adversarial else {
        return Ok(());
    };
    let actual = predict(input.as_slice()).map_err(|e| e.to_string())?;
    if actual != predicted || actual == reference {
        return Err(format!(
            "adversarial reported as class {predicted} (reference {reference}), model says {actual}"
        ));
    }
    if let Some(budget) = budget(strategy) {
        let l2 = normalized_l2(image, input);
        if l2 >= budget {
            return Err(format!("adversarial at L2 {l2} breaks the budget {budget}"));
        }
    }
    Ok(())
}

/// The campaign, fuzzed a round at a time between the serving rounds.
pub struct Fuzzing<'a> {
    testbed: &'a Testbed,
    strategy: Strategy,
    seed: u64,
    /// The timed model when tracing.
    traced: Option<TimedModel>,
    /// Chunks fuzzed so far (untraced) or inputs fuzzed so far (traced).
    next: usize,
    images: u64,
    successes: u64,
    iterations: u64,
    /// Seconds spent fuzzing.
    seconds: f64,
    outcome: Outcome,
}

impl<'a> Fuzzing<'a> {
    pub fn new(
        testbed: &'a Testbed,
        strategy: Strategy,
        seed: u64,
        trace: bool,
    ) -> Result<Self, HdcError> {
        let traced = trace.then(|| TimedModel::new(testbed)).transpose()?;
        Ok(Fuzzing {
            testbed,
            strategy,
            seed,
            traced,
            next: 0,
            images: 0,
            successes: 0,
            iterations: 0,
            seconds: 0.0,
            outcome: Outcome::default(),
        })
    }

    /// Fuzzes chunks (untraced) or single inputs (traced) until `duration`
    /// has passed.
    pub fn run_for(&mut self, duration: Duration) {
        let started = Instant::now();
        let Some(model) = self.traced.take() else {
            while started.elapsed() < duration {
                self.fuzz_chunk();
            }
            return;
        };
        let fuzzer = Fuzzer::new(
            &model,
            Box::new(TimedMutation {
                inner: self.strategy.image_mutation(),
                layers: Arc::clone(&model.layers),
            }),
            Box::new(TimedConstraint {
                inner: constraint(self.strategy),
                layers: Arc::clone(&model.layers),
            }),
            FuzzConfig::default(),
        );
        while started.elapsed() < duration {
            self.fuzz_traced(&fuzzer);
        }
        drop(fuzzer);
        self.traced = Some(model);
    }

    /// Runs `Campaign::run` on the next chunk of the pool and checks its
    /// records and corpus.
    fn fuzz_chunk(&mut self) {
        let (testbed, strategy) = (self.testbed, self.strategy);
        let pool = &testbed.fuzz_images;
        let start = (self.next * CHUNK) % pool.len();
        let images = &pool[start..start + CHUNK];
        let config = CampaignConfig {
            strategy,
            l2_budget: budget(strategy),
            seed: derive(self.seed, self.next as u64),
            ..CampaignConfig::default()
        };
        self.next += 1;
        self.outcome.attempted += CHUNK as u64;
        let began = Instant::now();
        let report = Campaign::new(&testbed.model, config).run(images);
        let elapsed = began.elapsed().as_secs_f64();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                self.outcome.failed += CHUNK as u64;
                self.outcome.errors.push(format!("Campaign::run failed on pool[{start}..]: {e}"));
                return;
            }
        };
        self.seconds += elapsed;
        self.images += report.records.len() as u64;
        self.successes += report.corpus.len() as u64;
        self.iterations += report.records.iter().map(|r| r.iterations as u64).sum::<u64>();
        if report.records.len() != CHUNK {
            self.outcome.errors.push(format!(
                "{} records for a chunk of {CHUNK} at pool[{start}..]",
                report.records.len()
            ));
        }
        let mut corpus = report.corpus.iter().peekable();
        for (i, (record, image)) in report.records.iter().zip(images).enumerate() {
            let adversarial = match (record.success, corpus.next_if(|_| record.success)) {
                (false, _) => Ok(None),
                (true, Some(e))
                    if e.original == *image && e.reference_label == record.reference_label =>
                {
                    Ok(Some((&e.adversarial, e.adversarial_label)))
                }
                (true, _) => Err("a successful record has no matching corpus example".to_owned()),
            };
            let result = adversarial.and_then(|adversarial| {
                check(&testbed.model, strategy, image, record.reference_label, adversarial)
            });
            if let Err(e) = result {
                self.outcome.errors.push(format!("{} pool[{}]: {e}", strategy.name(), start + i));
            }
        }
        if corpus.next().is_some() {
            self.outcome.errors.push(format!("corpus longer than its records at pool[{start}..]"));
        }
    }

    /// Fuzzes the next input with the timed parts.
    fn fuzz_traced(&mut self, fuzzer: &Fuzzer<'_, GrayImage, TimedModel>) {
        let pool = &self.testbed.fuzz_images;
        let index = self.next % pool.len();
        let image = &pool[index];
        let input_seed = derive(self.seed, self.next as u64);
        self.next += 1;
        self.outcome.attempted += 1;
        let began = Instant::now();
        let result = fuzzer.fuzz_one(image, input_seed);
        self.seconds += began.elapsed().as_secs_f64();
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                self.outcome.failed += 1;
                self.outcome.errors.push(format!("fuzz_one failed on pool[{index}]: {e}"));
                return;
            }
        };
        self.images += 1;
        self.iterations += result.iterations as u64;
        let adversarial = match &result.outcome {
            FuzzOutcome::Adversarial { input, predicted } => Some((input, *predicted)),
            FuzzOutcome::Exhausted => None,
        };
        self.successes += u64::from(adversarial.is_some());
        if let Err(e) =
            check(&self.testbed.model, self.strategy, image, result.reference_label, adversarial)
        {
            self.outcome.errors.push(format!("{} pool[{index}]: {e}", self.strategy.name()));
        }
    }

    /// The campaign's metrics over all rounds.
    pub fn finish(self) -> Outcome {
        let Fuzzing {
            strategy, traced, images, successes, iterations, seconds, mut outcome, ..
        } = self;
        if successes == 0 || seconds == 0.0 {
            outcome.errors.push(format!(
                "the campaign generated {successes} adversarial images from {images} inputs"
            ));
            return outcome;
        }
        let per_image = |value: f64| value / images as f64;
        eprintln!(
            "perfbench: campaign {}: {images} inputs, {successes} adversarial in {seconds:.2}s, \
             {:.1} iterations per input, {} worker(s)",
            strategy.name(),
            per_image(iterations as f64),
            if traced.is_some() { 1 } else { CampaignConfig::default().effective_workers() },
        );
        let Some(model) = traced else {
            outcome.metrics = vec![Metric {
                name: "fuzz_adversarials_per_min",
                value: successes as f64 * 60.0 / seconds,
                unit: "1/min",
            }];
            return outcome;
        };
        let layers = &model.layers;
        let [mutate, constraint, model_ms, encode] =
            [&layers.mutate, &layers.constraint, &layers.model, &layers.encode]
                .map(|nanos| per_image(nanos.load(Relaxed) as f64 / 1e6));
        outcome.metrics = vec![
            Metric { name: "fuzz_mutate_ms", value: mutate, unit: "ms" },
            Metric { name: "fuzz_constraint_ms", value: constraint, unit: "ms" },
            Metric { name: "fuzz_encode_ms", value: encode, unit: "ms" },
            Metric { name: "fuzz_scan_ms", value: model_ms - encode, unit: "ms" },
            Metric {
                name: "fuzz_select_ms",
                value: per_image(seconds * 1e3) - mutate - constraint - model_ms,
                unit: "ms",
            },
            Metric {
                name: "fuzz_encodes_per_image",
                value: per_image(layers.encoded.load(Relaxed) as f64),
                unit: "count",
            },
            Metric {
                name: "fuzz_iterations_per_image",
                value: per_image(iterations as f64),
                unit: "count",
            },
            Metric {
                name: "fuzz_adversarial_share",
                value: per_image(successes as f64),
                unit: "ratio",
            },
        ];
        outcome
    }
}
