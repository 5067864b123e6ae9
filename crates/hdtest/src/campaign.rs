//! Batch fuzzing campaigns over image sets.
//!
//! A campaign runs Alg. 1 over many unlabeled images with worker threads,
//! collects per-input [`FuzzRecord`]s and the adversarial corpus, and
//! derives the Table II / Fig. 7 statistics. Workers take the next input
//! from one shared cursor, so a worker that drew quick inputs takes more of
//! them instead of idling while another finishes a fixed stripe. Results
//! are bit-reproducible: each input's RNG stream is derived from
//! `(campaign seed, input index)`, so worker count and scheduling cannot
//! change any outcome — only the wall-clock measurement — and when inputs
//! fail, the error returned is the lowest-indexed one's.
//! [`Campaign::run_with_mutation`] runs the same loop on one worker.

use crate::constraint::{Constraint, L2Constraint, NoConstraint};
use crate::corpus::{AdversarialCorpus, AdversarialExample};
use crate::error::HdtestError;
use crate::fuzzer::{FuzzConfig, FuzzOutcome, FuzzResult, Fuzzer};
use crate::model::TargetModel;
use crate::mutation::{Mutation, Strategy};
use crate::stats::{ClassStats, FuzzRecord, StrategyStats};
use hdc_data::GrayImage;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaign-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// The per-input fuzzing parameters (Alg. 1).
    pub fuzz: FuzzConfig,
    /// Which Table I strategy to run.
    pub strategy: Strategy,
    /// Normalized-L2 invisibility budget; `None` disables the constraint
    /// (the experiments disable it for `shift`, whose distances the paper
    /// marks as not meaningful).
    pub l2_budget: Option<f64>,
    /// Worker threads (`0` = one per available CPU).
    pub workers: usize,
    /// Master seed; every per-input RNG stream derives from it.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            fuzz: FuzzConfig::default(),
            strategy: Strategy::Gauss,
            l2_budget: Some(1.0),
            workers: 0,
            seed: 0,
        }
    }
}

impl CampaignConfig {
    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    fn constraint(&self) -> Box<dyn Constraint<GrayImage>> {
        match self.l2_budget {
            Some(budget) => Box::new(L2Constraint { budget }),
            None => Box::new(NoConstraint),
        }
    }
}

/// The full outcome of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Strategy that was run.
    pub strategy: Strategy,
    /// Per-input records in input order.
    pub records: Vec<FuzzRecord>,
    /// All generated adversarial examples, in input order.
    pub corpus: AdversarialCorpus,
    /// Wall-clock duration of the fuzzing phase.
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Table II row for this campaign.
    pub fn strategy_stats(&self) -> StrategyStats {
        StrategyStats::from_records(self.strategy.name(), &self.records, self.elapsed)
    }

    /// Fig. 7 series for this campaign.
    pub fn class_stats(&self, num_classes: usize) -> Vec<ClassStats> {
        ClassStats::from_records(&self.records, num_classes)
    }
}

/// A reusable campaign runner bound to a model under test.
pub struct Campaign<'a, M> {
    model: &'a M,
    config: CampaignConfig,
}

impl<'a, M> Campaign<'a, M>
where
    M: TargetModel<Input = [u8]> + Sync,
{
    /// Binds a campaign configuration to a model.
    pub fn new(model: &'a M, config: CampaignConfig) -> Self {
        Self { model, config }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Fuzzes every image in `images` (unlabeled, per the differential
    /// set-up) and returns records, corpus and timing.
    ///
    /// # Errors
    ///
    /// Returns [`HdtestError::EmptyInputSet`] for an empty slice, or the
    /// error of the lowest-indexed input that failed.
    pub fn run(&self, images: &[GrayImage]) -> Result<CampaignReport, HdtestError> {
        let workers = self.config.effective_workers().min(images.len());
        self.run_on(images, (0..workers).map(|_| self.config.strategy.image_mutation()).collect())
    }

    /// Runs the campaign with a caller-supplied mutation (e.g. a
    /// [`crate::mutation::CompoundMutation`]) instead of the configured
    /// [`Strategy`]; single-threaded, used by ablation benches.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_mutation(
        &self,
        images: &[GrayImage],
        mutation: Box<dyn Mutation<GrayImage>>,
    ) -> Result<CampaignReport, HdtestError> {
        self.run_on(images, vec![mutation])
    }

    /// The one campaign loop: one worker thread per mutation, each with a
    /// fuzzer over it, takes the next input index from a shared cursor
    /// until the inputs run out, and the records are put back in input
    /// order. Seeds are per input, so which worker fuzzes an input
    /// cannot change its record. A failing input stops the cursor; every
    /// input handed out before it still finishes, so the error returned is
    /// always the lowest-indexed one's.
    fn run_on(
        &self,
        images: &[GrayImage],
        mutations: Vec<Box<dyn Mutation<GrayImage>>>,
    ) -> Result<CampaignReport, HdtestError> {
        if images.is_empty() {
            return Err(HdtestError::EmptyInputSet);
        }
        self.config.fuzz.validate()?;
        // One-time model preparation (e.g. packing the associative-memory
        // references) so workers share the ready state instead of racing to
        // build it on their first fitness query.
        self.model.warm_up();
        let start = Instant::now();
        // Relaxed: the cursor only hands out indices; every result comes
        // back through the workers' joins.
        let cursor = AtomicUsize::new(0);

        type Slot = (usize, Result<(FuzzRecord, Option<AdversarialExample>), HdtestError>);
        let mut slots: Vec<Slot> = std::thread::scope(|scope| {
            let handles: Vec<_> = mutations
                .into_iter()
                .map(|mutation| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let fuzzer = Fuzzer::new(
                            self.model,
                            mutation,
                            self.config.constraint(),
                            self.config.fuzz,
                        );
                        let mut out = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(image) = images.get(index) else { break };
                            let seed = per_input_seed(self.config.seed, index);
                            let slot =
                                fuzzer.fuzz_one(image, seed).map(|r| record(index, image, r));
                            if slot.is_err() {
                                cursor.store(images.len(), Ordering::Relaxed);
                            }
                            out.push((index, slot));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("campaign worker panicked")).collect()
        });
        slots.sort_by_key(|(index, _)| *index);

        let mut records = Vec::with_capacity(slots.len());
        let mut corpus = AdversarialCorpus::new();
        for (_, slot) in slots {
            let (record, example) = slot?;
            records.push(record);
            corpus.extend(example);
        }
        Ok(CampaignReport {
            strategy: self.config.strategy,
            records,
            corpus,
            elapsed: start.elapsed(),
        })
    }
}

/// The record of one fuzzed input, and its adversarial example if it
/// found one.
fn record(
    index: usize,
    image: &GrayImage,
    result: FuzzResult<GrayImage>,
) -> (FuzzRecord, Option<AdversarialExample>) {
    let example = match result.outcome {
        FuzzOutcome::Adversarial { input, predicted } => Some(AdversarialExample::new(
            image.clone(),
            input,
            result.reference_label,
            predicted,
            result.iterations,
        )),
        FuzzOutcome::Exhausted => None,
    };
    let record = FuzzRecord {
        input_index: index,
        reference_label: result.reference_label,
        success: example.is_some(),
        adversarial_label: example.as_ref().map(|e| e.adversarial_label),
        iterations: result.iterations,
        candidates_evaluated: result.candidates_evaluated,
        l1: example.as_ref().map(|e| e.l1),
        l2: example.as_ref().map(|e| e.l2),
    };
    (record, example)
}

/// Derives the per-input RNG seed; pure function of `(campaign, index)`.
fn per_input_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut z = campaign_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::prelude::*;

    fn model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 2_000,
            width: 8,
            height: 8,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 2,
        })
        .unwrap();
        let mut m = HdcClassifier::new(encoder, 2);
        for v in [0u8, 15, 30] {
            m.train_one(&[v; 64][..], 0).unwrap();
        }
        for v in [200u8, 225, 250] {
            m.train_one(&[v; 64][..], 1).unwrap();
        }
        m.finalize();
        m
    }

    fn images(n: usize) -> Vec<GrayImage> {
        (0..n).map(|i| GrayImage::from_pixels(8, 8, vec![(i % 40) as u8; 64])).collect()
    }

    #[test]
    fn campaign_produces_records_in_input_order() {
        let m = model();
        let campaign =
            Campaign::new(&m, CampaignConfig { workers: 3, l2_budget: None, ..Default::default() });
        let report = campaign.run(&images(7)).unwrap();
        assert_eq!(report.records.len(), 7);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.input_index, i);
        }
    }

    #[test]
    fn results_independent_of_worker_count() {
        let m = model();
        let imgs = images(6);
        let run = |workers: usize| {
            let campaign = Campaign::new(
                &m,
                CampaignConfig { workers, l2_budget: None, seed: 3, ..Default::default() },
            );
            campaign.run(&imgs).unwrap()
        };
        let solo = run(1);
        for workers in [2, 3, 4, 8] {
            let multi = run(workers);
            assert_eq!(solo.records, multi.records, "scheduling changed outcomes at {workers}");
            assert_eq!(solo.corpus, multi.corpus, "scheduling changed the corpus at {workers}");
        }
    }

    #[test]
    fn lowest_failing_input_is_the_error_at_every_worker_count() {
        // Inputs 3 and 5 have the wrong shape, with different pixel
        // counts, so their errors tell them apart.
        let m = model();
        let mut imgs = images(9);
        imgs[3] = GrayImage::from_pixels(2, 5, vec![0; 10]);
        imgs[5] = GrayImage::from_pixels(4, 5, vec![0; 20]);
        for workers in [1, 2, 3, 8] {
            let campaign = Campaign::new(
                &m,
                CampaignConfig { workers, l2_budget: None, seed: 5, ..Default::default() },
            );
            let err = campaign.run(&imgs).expect_err("inputs 3 and 5 cannot encode");
            assert!(
                matches!(
                    err,
                    HdtestError::Model(HdcError::InputShapeMismatch { expected: 64, actual: 10 })
                ),
                "workers {workers}: {err}"
            );
        }
    }

    #[test]
    fn corpus_matches_successful_records() {
        let m = model();
        let campaign = Campaign::new(&m, CampaignConfig { l2_budget: None, ..Default::default() });
        let report = campaign.run(&images(5)).unwrap();
        let successes = report.records.iter().filter(|r| r.success).count();
        assert_eq!(successes, report.corpus.len());
        for e in report.corpus.iter() {
            assert_ne!(e.reference_label, e.adversarial_label);
        }
    }

    #[test]
    fn empty_input_set_rejected() {
        let m = model();
        let campaign = Campaign::new(&m, CampaignConfig::default());
        assert!(matches!(campaign.run(&[]), Err(HdtestError::EmptyInputSet)));
    }

    #[test]
    fn stats_derive_from_report() {
        let m = model();
        let campaign = Campaign::new(&m, CampaignConfig { l2_budget: None, ..Default::default() });
        let report = campaign.run(&images(4)).unwrap();
        let stats = report.strategy_stats();
        assert_eq!(stats.inputs, 4);
        assert_eq!(stats.strategy, "gauss");
        let by_class = report.class_stats(2);
        assert_eq!(by_class.len(), 2);
        assert_eq!(by_class.iter().map(|c| c.inputs).sum::<usize>(), 4);
    }

    #[test]
    fn l2_budget_bounds_corpus_distances() {
        let m = model();
        let campaign =
            Campaign::new(&m, CampaignConfig { l2_budget: Some(0.8), ..Default::default() });
        let report = campaign.run(&images(5)).unwrap();
        for e in report.corpus.iter() {
            assert!(e.l2 < 0.8, "corpus example exceeds budget: {}", e.l2);
        }
    }

    #[test]
    fn run_with_mutation_matches_strategy_run_for_seed() {
        let m = model();
        let config = CampaignConfig { l2_budget: None, workers: 1, ..Default::default() };
        let campaign = Campaign::new(&m, config);
        let imgs = images(3);
        let a = campaign.run(&imgs).unwrap();
        let b = campaign.run_with_mutation(&imgs, Strategy::Gauss.image_mutation()).unwrap();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn per_input_seed_is_stable_and_distinct() {
        assert_eq!(per_input_seed(1, 2), per_input_seed(1, 2));
        assert_ne!(per_input_seed(1, 2), per_input_seed(1, 3));
        assert_ne!(per_input_seed(1, 2), per_input_seed(2, 2));
    }
}
