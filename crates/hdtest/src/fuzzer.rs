//! The core fuzzing loop (paper Alg. 1).
//!
//! For each unlabeled input, the model's own prediction becomes the
//! *reference label* (line 4); each iteration mutates the surviving seeds
//! (line 6), checks every candidate for a prediction discrepancy (lines
//! 7–11) and, failing that, keeps only the top-N fittest seeds (line 14),
//! where fitness is `1 − cosine(AM[reference], encode(seed))`. Candidates
//! beyond the perturbation budget are discarded outright (§IV).

use crate::constraint::Constraint;
use crate::error::HdtestError;
use crate::model::TargetModel;
use crate::mutation::Mutation;
use hdc::Sketch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How surviving seeds are selected each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Guidance {
    /// The paper's distance-guided selection: keep the top-N seeds by
    /// HV-distance fitness. "Experimental results show that using such
    /// guided testing can generate adversarial inputs faster than unguided
    /// testing by 12% on average" (§IV).
    #[default]
    DistanceGuided,
    /// Baseline: keep N uniformly random seeds (no model feedback).
    Unguided,
}

impl std::fmt::Display for Guidance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Guidance::DistanceGuided => write!(f, "distance-guided"),
            Guidance::Unguided => write!(f, "unguided"),
        }
    }
}

/// Parameters of the per-input fuzzing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Maximum fuzzing iterations per input (`iter_times` in Alg. 1).
    pub max_iterations: usize,
    /// Candidates generated per iteration (round-robin over survivors).
    pub batch_size: usize,
    /// Surviving seeds per round — the paper uses `N = 3`.
    pub top_n: usize,
    /// Guided or unguided survival.
    pub guidance: Guidance,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self { max_iterations: 30, batch_size: 9, top_n: 3, guidance: Guidance::DistanceGuided }
    }
}

impl FuzzConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns [`HdtestError::Config`] when any count is zero or `top_n`
    /// exceeds `batch_size`.
    pub fn validate(&self) -> Result<(), HdtestError> {
        if self.max_iterations == 0 {
            return Err(HdtestError::Config("max_iterations must be at least 1".into()));
        }
        if self.batch_size == 0 {
            return Err(HdtestError::Config("batch_size must be at least 1".into()));
        }
        if self.top_n == 0 {
            return Err(HdtestError::Config("top_n must be at least 1".into()));
        }
        if self.top_n > self.batch_size {
            return Err(HdtestError::Config(format!(
                "top_n ({}) cannot exceed batch_size ({})",
                self.top_n, self.batch_size
            )));
        }
        Ok(())
    }
}

/// What the loop produced for one input.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzOutcome<I> {
    /// A prediction discrepancy was triggered.
    Adversarial {
        /// The adversarial input.
        input: I,
        /// The (wrong) label the model assigned to it.
        predicted: usize,
    },
    /// `max_iterations` elapsed without a discrepancy.
    Exhausted,
}

impl<I> FuzzOutcome<I> {
    /// Whether an adversarial input was found.
    pub fn is_adversarial(&self) -> bool {
        matches!(self, FuzzOutcome::Adversarial { .. })
    }
}

/// Result of fuzzing a single input.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzResult<I> {
    /// The model's prediction on the original input — the differential
    /// oracle's reference (Alg. 1 line 4).
    pub reference_label: usize,
    /// Completed fuzzing iterations (a success during round `k` reports
    /// `k`).
    pub iterations: usize,
    /// Total candidates the model evaluated.
    pub candidates_evaluated: usize,
    /// Candidates discarded by the perturbation budget.
    pub discarded: usize,
    /// Adversarial input, or exhaustion.
    pub outcome: FuzzOutcome<I>,
}

/// The per-input fuzzing engine of Alg. 1, generic over input type and
/// model: images, byte strings and signal vectors all fuzz through the same
/// loop (the paper's §V-E extensibility claim).
pub struct Fuzzer<'a, I, M: TargetModel> {
    model: &'a M,
    strategy: Box<dyn Mutation<I>>,
    constraint: Box<dyn Constraint<I>>,
    config: FuzzConfig,
}

impl<'a, I, M> Fuzzer<'a, I, M>
where
    I: Clone + AsRef<M::Input>,
    M: TargetModel,
{
    /// Assembles a fuzzer against `model` with one mutation strategy and
    /// one perturbation constraint.
    pub fn new(
        model: &'a M,
        strategy: Box<dyn Mutation<I>>,
        constraint: Box<dyn Constraint<I>>,
        config: FuzzConfig,
    ) -> Self {
        Self { model, strategy, constraint, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// The strategy's report name.
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// Runs Alg. 1 on one unlabeled input. `seed` makes the run
    /// reproducible; campaigns derive it from `(campaign seed, input
    /// index)` so results are independent of worker scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`HdtestError::Config`] for invalid parameters or
    /// [`HdtestError::Model`] when the model rejects an input.
    pub fn fuzz_one(&self, input: &I, seed: u64) -> Result<FuzzResult<I>, HdtestError> {
        self.config.validate()?;
        let mut rng = StdRng::seed_from_u64(mix(seed));
        // Line 4: the reference label. It goes through the batch call so
        // the original's sketch comes back too, as the start of round 1's
        // encodes and of a pool restart. Its label is `predict`'s; its
        // fitness, scored against class 0 for want of a reference, is
        // discarded.
        let (reference, root) =
            match self.model.evaluate_batch_from(&[input.as_ref()], &[None], 0)?.pop() {
                Some((label, _, root)) => (label, root),
                None => (self.model.predict(input.as_ref())?, None),
            };

        // Each survivor carries the sketch of its encoding, if the model
        // made one, so its children's encodes can start from it.
        let mut pool: Vec<(I, Option<Sketch>)> = vec![(input.clone(), root.clone())];
        let mut candidates_evaluated = 0usize;
        let mut discarded = 0usize;

        for iteration in 1..=self.config.max_iterations {
            // Line 6: generate seeds from the survivors, round-robin, with
            // bounded retries when the budget rejects candidates.
            let mut candidates: Vec<I> = Vec::with_capacity(self.config.batch_size);
            let mut parents: Vec<usize> = Vec::with_capacity(self.config.batch_size);
            let max_attempts = self.config.batch_size * 4;
            let mut attempts = 0usize;
            while candidates.len() < self.config.batch_size && attempts < max_attempts {
                let parent = attempts % pool.len();
                let candidate = self.strategy.mutate(&pool[parent].0, &mut rng);
                attempts += 1;
                if self.constraint.accepts(input, &candidate) {
                    candidates.push(candidate);
                    parents.push(parent);
                } else {
                    discarded += 1;
                }
            }
            if candidates.is_empty() {
                // Every survivor sits at the budget boundary: restart the
                // pool from the original so the search can take a cheaper
                // path (the original is within budget by definition).
                pool = vec![(input.clone(), root.clone())];
                continue;
            }

            // Lines 7–11: differential check. The whole round is evaluated
            // as one batch so `HdcClassifier` targets run it on the
            // word-packed kernel with shared packed references and scratch,
            // each candidate's encode starting from its parent's sketch;
            // each evaluation still yields both the query label and the
            // guidance fitness from a single model pass.
            //
            // If the batch fails (one candidate the model rejects fails the
            // whole call), fall back to the sequential loop so its
            // semantics are preserved exactly: an adversarial found
            // *before* the rejected candidate wins over the error, which a
            // batch-level `?` would otherwise swallow.
            let inputs: Vec<&M::Input> = candidates.iter().map(|c| c.as_ref()).collect();
            let starts: Vec<Option<&Sketch>> =
                parents.iter().map(|&parent| pool[parent].1.as_ref()).collect();
            let evaluations = match self.model.evaluate_batch_from(&inputs, &starts, reference) {
                Ok(evaluations) => evaluations,
                Err(_) => {
                    // Stop at the first discrepancy (the shared scan below
                    // picks it up) or propagate the error of the first
                    // rejected candidate.
                    drop(inputs);
                    let mut evaluations = Vec::with_capacity(candidates.len());
                    for candidate in &candidates {
                        let (label, fitness) =
                            self.model.evaluate(candidate.as_ref(), reference)?;
                        evaluations.push((label, fitness, None));
                        if label != reference {
                            break;
                        }
                    }
                    evaluations
                }
            };

            // `candidates_evaluated` keeps the sequential-loop semantics
            // (count up to and including the first discrepancy) so records
            // are comparable with pre-batch campaigns.
            let mut adversarial_at: Option<usize> = None;
            for (index, &(label, _, _)) in evaluations.iter().enumerate() {
                candidates_evaluated += 1;
                if label != reference {
                    adversarial_at = Some(index);
                    break;
                }
            }
            if let Some(index) = adversarial_at {
                let predicted = evaluations[index].0;
                let input = candidates.swap_remove(index);
                return Ok(FuzzResult {
                    reference_label: reference,
                    iterations: iteration,
                    candidates_evaluated,
                    discarded,
                    outcome: FuzzOutcome::Adversarial { input, predicted },
                });
            }

            // Line 14: seed survival.
            let scored: Vec<(f64, (I, Option<Sketch>))> = candidates
                .into_iter()
                .zip(evaluations)
                .map(|(candidate, (_, fitness, sketch))| (fitness, (candidate, sketch)))
                .collect();
            pool = self.select_survivors(scored, &mut rng);
        }

        Ok(FuzzResult {
            reference_label: reference,
            iterations: self.config.max_iterations,
            candidates_evaluated,
            discarded,
            outcome: FuzzOutcome::Exhausted,
        })
    }

    fn select_survivors<S>(&self, mut scored: Vec<(f64, S)>, rng: &mut StdRng) -> Vec<S> {
        let keep = self.config.top_n.min(scored.len());
        match self.config.guidance {
            Guidance::DistanceGuided => {
                // Highest fitness (largest HV distance from the reference
                // class) survives.
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("fitness is never NaN"));
                scored.truncate(keep);
            }
            Guidance::Unguided => {
                // Uniform survival without model feedback.
                for i in 0..keep {
                    let j = rng.gen_range(i..scored.len());
                    scored.swap(i, j);
                }
                scored.truncate(keep);
            }
        }
        scored.into_iter().map(|(_, c)| c).collect()
    }
}

/// Seed mixer so fuzzer streams stay decorrelated from the campaign-level
/// seed derivation.
fn mix(x: u64) -> u64 {
    x.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ 0x9e37_79b9_7f4a_7c15
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{L2Constraint, NoConstraint};
    use crate::mutation::{GaussNoise, RandNoise};
    use hdc::prelude::*;
    use hdc_data::GrayImage;

    /// A 10×10 two-class model with a deliberately queryable boundary.
    fn model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 2_000,
            width: 10,
            height: 10,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 6,
        })
        .unwrap();
        let mut m = HdcClassifier::new(encoder, 2);
        // Class 0: dark images; class 1: bright images (several variants
        // each so the references are bundles, not single examples).
        for v in [0u8, 10, 20] {
            m.train_one(&[v; 100][..], 0).unwrap();
        }
        for v in [200u8, 220, 240] {
            m.train_one(&[v; 100][..], 1).unwrap();
        }
        m.finalize();
        m
    }

    fn dark_image() -> GrayImage {
        GrayImage::from_pixels(10, 10, vec![10u8; 100])
    }

    #[test]
    fn finds_adversarial_without_labels() {
        let m = model();
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise::default()),
            Box::new(NoConstraint),
            FuzzConfig::default(),
        );
        let result = fuzzer.fuzz_one(&dark_image(), 1).unwrap();
        assert_eq!(result.reference_label, 0);
        assert!(result.outcome.is_adversarial(), "gauss must eventually flip the prediction");
        if let FuzzOutcome::Adversarial { input, predicted } = &result.outcome {
            assert_ne!(*predicted, 0);
            // The differential property: model really mispredicts it.
            assert_eq!(m.predict(input.as_slice()).unwrap().class, *predicted);
        }
    }

    #[test]
    fn is_deterministic_for_seed() {
        let m = model();
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint::default()),
            FuzzConfig::default(),
        );
        let a = fuzzer.fuzz_one(&dark_image(), 5).unwrap();
        let b = fuzzer.fuzz_one(&dark_image(), 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_may_differ() {
        let m = model();
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint::default()),
            FuzzConfig::default(),
        );
        let a = fuzzer.fuzz_one(&dark_image(), 1).unwrap();
        let b = fuzzer.fuzz_one(&dark_image(), 2).unwrap();
        // Both runs must at least count work.
        assert!(a.candidates_evaluated > 0 && b.candidates_evaluated > 0);
    }

    #[test]
    fn respects_constraint_budget() {
        let m = model();
        let budget = 0.5;
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint { budget }),
            FuzzConfig::default(),
        );
        let original = dark_image();
        let result = fuzzer.fuzz_one(&original, 3).unwrap();
        if let FuzzOutcome::Adversarial { input, .. } = &result.outcome {
            let l2 = hdc_data::normalized_l2(&original, input);
            assert!(l2 < budget, "adversarial must satisfy the budget: {l2}");
        }
    }

    #[test]
    fn tight_budget_forces_exhaustion_with_gentle_strategy() {
        let m = model();
        // A budget so small nothing can drift far enough, with few rounds.
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(RandNoise { amplitude: 1, fraction: 0.01 }),
            Box::new(L2Constraint { budget: 0.02 }),
            FuzzConfig { max_iterations: 3, ..Default::default() },
        );
        let result = fuzzer.fuzz_one(&dark_image(), 9).unwrap();
        assert!(!result.outcome.is_adversarial());
        assert_eq!(result.iterations, 3);
    }

    #[test]
    fn invalid_config_rejected() {
        let m = model();
        let bad = FuzzConfig { top_n: 10, batch_size: 5, ..Default::default() };
        let fuzzer = Fuzzer::new(&m, Box::new(GaussNoise::default()), Box::new(NoConstraint), bad);
        assert!(matches!(fuzzer.fuzz_one(&dark_image(), 0), Err(HdtestError::Config(_))));
        let zero = FuzzConfig { max_iterations: 0, ..Default::default() };
        let fuzzer = Fuzzer::new(&m, Box::new(GaussNoise::default()), Box::new(NoConstraint), zero);
        assert!(fuzzer.fuzz_one(&dark_image(), 0).is_err());
    }

    #[test]
    fn unguided_also_works() {
        let m = model();
        // Unguided survival has no boundary pressure, so give it a strong
        // mutation and a longer run.
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise { sigma: 60.0, fraction: 0.5 }),
            Box::new(NoConstraint),
            FuzzConfig { guidance: Guidance::Unguided, max_iterations: 80, ..Default::default() },
        );
        let result = fuzzer.fuzz_one(&dark_image(), 4).unwrap();
        assert!(result.outcome.is_adversarial());
    }

    #[test]
    fn guided_is_no_slower_on_average() {
        // The paper's §IV claim, at miniature scale: guided fuzzing needs
        // no more iterations than unguided on average.
        let m = model();
        let budget = L2Constraint { budget: 0.9 };
        let strategy = || Box::new(RandNoise { amplitude: 8, fraction: 0.05 });
        let mut guided_iters = 0usize;
        let mut unguided_iters = 0usize;
        for seed in 0..12 {
            let g = Fuzzer::new(
                &m,
                strategy(),
                Box::new(budget),
                FuzzConfig { guidance: Guidance::DistanceGuided, ..Default::default() },
            );
            guided_iters += g.fuzz_one(&dark_image(), seed).unwrap().iterations;
            let u = Fuzzer::new(
                &m,
                strategy(),
                Box::new(budget),
                FuzzConfig { guidance: Guidance::Unguided, ..Default::default() },
            );
            unguided_iters += u.fuzz_one(&dark_image(), seed).unwrap().iterations;
        }
        assert!(
            guided_iters as f64 <= unguided_iters as f64 * 1.25,
            "guided {guided_iters} vs unguided {unguided_iters}"
        );
    }

    #[test]
    fn exhausted_counts_all_iterations() {
        let m = model();
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(RandNoise { amplitude: 1, fraction: 0.001 }),
            Box::new(L2Constraint { budget: 0.001 }),
            FuzzConfig { max_iterations: 5, ..Default::default() },
        );
        let r = fuzzer.fuzz_one(&dark_image(), 0).unwrap();
        assert_eq!(r.iterations, 5);
        assert!(r.discarded > 0 || r.candidates_evaluated > 0);
    }

    #[test]
    fn strategy_name_is_exposed() {
        let m = model();
        let fuzzer = Fuzzer::new(
            &m,
            Box::new(GaussNoise::default()),
            Box::new(NoConstraint),
            FuzzConfig::default(),
        );
        assert_eq!(fuzzer.strategy_name(), "gauss");
    }
}
