//! The paper's tables and figures, one function each.
//!
//! A [`Testbed`] is the shared set-up: synthetic digits (the MNIST
//! substitute of [`hdc_data::synth`], seed [`DATA_SEED`]) and the paper's
//! model (28×28 pixel encoder, 256 random value levels, D = 10,000, seed
//! [`MODEL_SEED`]), fuzzed at seed [`FUZZ_SEED`]. Each table function runs
//! its experiment on a testbed and returns the rows as data; `hdtest-cli
//! repro <table>` prints them, and the workspace test
//! `tests/paper_claims.rs` asserts the orderings that hold at
//! [`Scale::Quick`]. The five campaign sweeps ([`table2`], [`guided`],
//! [`topn`], [`budget`], [`compound`]) run through one loop.
//!
//! # Departures from the paper
//!
//! Measured at quick scale (100 fuzz inputs); none of them is asserted.
//!
//! * Table II's L1 row puts gauss (6.295) above row&col (5.290), 1.005
//!   apart; the paper has gauss 2.91 below row&col 9.45. The L2 and
//!   iteration orderings are the paper's.
//! * Retraining lowers the attack success by 18 points (100% → 82%), 2
//!   short of the paper's "more than 20%".
//! * In Fig. 7 the hardest class by iterations is 0 (3.50, class 1 2.46);
//!   the paper names 1.
//! * The paper fixes top-N at 3 without an ablation. Here N = 1 is ahead
//!   on both columns: 97% success in 8.82 iterations, against N = 3's
//!   95% in 9.60.
//! * Table II's time per 1K images depends on the host. Release builds
//!   on 2 vCPUs ordered row&col (0.6–1.0 s) < rand (0.7–1.3 s) < gauss
//!   (1.1–1.8 s) over three runs; the paper has row&col 114 < gauss 173
//!   < rand 228 s. Here a candidate's encode costs the pixels it moved,
//!   and gauss moves 35% of them a round against rand's 4%.

use crate::analysis::VulnerabilityReport;
use crate::campaign::{Campaign, CampaignConfig, CampaignReport};
use crate::constraint::L2Constraint;
use crate::defense::{retraining_defense, DefenseConfig, DefenseReport};
use crate::differential::{fuzz_cross_model, CrossModelConfig, CrossModelOutcome};
use crate::error::HdtestError;
use crate::fuzzer::{FuzzConfig, Guidance};
use crate::mutation::{CompoundMutation, GaussNoise, Strategy};
use crate::stats::{ClassStats, StrategyStats};
use hdc::fault::{bit_error_sweep, BitErrorPoint};
use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::{Dataset, GrayImage};

/// Seed of the synthetic dataset.
pub const DATA_SEED: u64 = 42;
/// Seed of the model's item memories.
pub const MODEL_SEED: u64 = 7;
/// Seed of every fuzzing campaign.
pub const FUZZ_SEED: u64 = 1234;

/// How large a testbed to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 50 training, 20 test and 10 fuzzing images per class.
    Quick,
    /// 200 training, 100 test and 110 fuzzing images per class.
    Full,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            _ => Err(format!("unknown scale '{name}'; valid: quick, full")),
        }
    }
}

/// The shared set-up every table runs on.
pub struct Testbed {
    /// The model under test, trained on `train`.
    pub model: HdcClassifier<PixelEncoder>,
    /// Labeled training images.
    pub train: Dataset,
    /// Labeled held-out images, for accuracy.
    pub test: Dataset,
    /// Fuzzing inputs, treated as unlabeled.
    pub fuzz_pool: Dataset,
}

impl Testbed {
    /// Generates the datasets at `scale` and trains the paper's model.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn new(scale: Scale) -> Result<Self, HdtestError> {
        let (train, test, fuzz) = match scale {
            Scale::Quick => (50, 20, 10),
            Scale::Full => (200, 100, 110),
        };
        let mut generator =
            SynthGenerator::new(SynthConfig { seed: DATA_SEED, ..Default::default() });
        let train = generator.dataset(train);
        let test = generator.dataset(test);
        let fuzz_pool = generator.dataset(fuzz);
        let model = train_model(&train, hdc::DEFAULT_DIM, ValueEncoding::Random)?;
        Ok(Self { model, train, test, fuzz_pool })
    }

    /// The first `count` fuzzing inputs, or all of them if fewer.
    fn pool(&self, count: usize) -> &[GrayImage] {
        let images = self.fuzz_pool.images();
        &images[..count.min(images.len())]
    }

    /// The loop behind the campaign sweeps: one campaign per entry over
    /// `images`. An entry naming two or more strategies fuzzes with their
    /// compound mutation (on one worker) instead of its configured
    /// strategy.
    fn sweep<'s>(
        &self,
        images: &[GrayImage],
        runs: impl IntoIterator<Item = (CampaignConfig, &'s [Strategy])>,
    ) -> Result<Vec<CampaignReport>, HdtestError> {
        runs.into_iter()
            .map(|(config, joint)| {
                let campaign = Campaign::new(&self.model, config);
                match joint {
                    [_, _, ..] => {
                        let parts = joint.iter().map(|s| s.image_mutation()).collect();
                        campaign.run_with_mutation(images, Box::new(CompoundMutation::new(parts)))
                    }
                    _ => campaign.run(images),
                }
            })
            .collect()
    }
}

/// A model of dimension `dim` over `value_encoding`, trained on `train`.
fn train_model(
    train: &Dataset,
    dim: usize,
    value_encoding: ValueEncoding,
) -> Result<HdcClassifier<PixelEncoder>, HdtestError> {
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: 28,
        height: 28,
        levels: 256,
        value_encoding,
        seed: MODEL_SEED,
    })?;
    let mut model = HdcClassifier::new(encoder, 10);
    model.train_batch(train.pairs())?;
    Ok(model)
}

/// `strategy`'s campaign at [`FUZZ_SEED`], under the paper's L2 < 1 budget
/// unless its distances are not meaningful (`shift`).
fn config(strategy: Strategy) -> CampaignConfig {
    CampaignConfig {
        strategy,
        l2_budget: strategy.distance_meaningful().then_some(1.0),
        seed: FUZZ_SEED,
        ..Default::default()
    }
}

/// The joint strategies of a sweep entry that runs its configured
/// strategy alone.
const ALONE: &[Strategy] = &[];

fn stats(reports: Vec<CampaignReport>) -> Vec<StrategyStats> {
    reports.iter().map(CampaignReport::strategy_stats).collect()
}

/// §V-A's operating point (about 90% on MNIST) and two ablations.
pub struct Accuracy {
    /// Training-set accuracy.
    pub train: f64,
    /// Test-set accuracy.
    pub test: f64,
    /// Per class: test accuracy and mean prediction margin.
    pub per_class: Vec<(f64, f64)>,
    /// The test set's confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Test accuracy of a model trained at each dimension D.
    pub by_dim: Vec<(usize, f64)>,
    /// Test accuracy of a model trained over each value memory.
    pub by_encoding: Vec<(ValueEncoding, f64)>,
}

/// The model's accuracy, per class, by dimension and by value memory.
///
/// # Errors
///
/// Propagates model errors.
pub fn accuracy(testbed: &Testbed) -> Result<Accuracy, HdtestError> {
    let (model, test) = (&testbed.model, &testbed.test);
    let retrained = |dim: usize, encoding: ValueEncoding| -> Result<f64, HdtestError> {
        Ok(train_model(&testbed.train, dim, encoding)?.accuracy(test.pairs())?)
    };
    let per_class = (0..10)
        .map(|class| {
            let subset = test.filter_class(class);
            let margins = subset.pairs().map(|(image, _)| model.predict(image).map(|p| p.margin));
            let margin = margins.sum::<Result<f64, HdcError>>()? / subset.len() as f64;
            Ok((model.accuracy(subset.pairs())?, margin))
        })
        .collect::<Result<_, HdtestError>>()?;
    Ok(Accuracy {
        train: model.accuracy(testbed.train.pairs())?,
        test: model.accuracy(test.pairs())?,
        per_class,
        confusion: ConfusionMatrix::evaluate(model, test.pairs())?,
        by_dim: [1_000, 2_000, 4_000, 10_000]
            .into_iter()
            .map(|dim| Ok((dim, retrained(dim, ValueEncoding::Random)?)))
            .collect::<Result<_, HdtestError>>()?,
        by_encoding: [ValueEncoding::Random, ValueEncoding::Level]
            .into_iter()
            .map(|encoding| Ok((encoding, retrained(hdc::DEFAULT_DIM, encoding)?)))
            .collect::<Result<_, HdtestError>>()?,
    })
}

/// Table II: one column per [`Strategy::TABLE2`] strategy over the whole
/// fuzzing pool.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn table2(testbed: &Testbed) -> Result<Vec<StrategyStats>, HdtestError> {
    let runs = Strategy::TABLE2.map(|strategy| (config(strategy), ALONE));
    Ok(stats(testbed.sweep(testbed.fuzz_pool.images(), runs)?))
}

/// Fig. 7: a gauss campaign's distances and iterations per class.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn fig7(testbed: &Testbed) -> Result<Vec<ClassStats>, HdtestError> {
    let campaign = Campaign::new(&testbed.model, config(Strategy::Gauss));
    Ok(campaign.run(testbed.fuzz_pool.images())?.class_stats(10))
}

/// §IV's guided search against unguided, for rand and then gauss: each
/// run's guidance, statistics and total candidates evaluated.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn guided(testbed: &Testbed) -> Result<Vec<(Guidance, StrategyStats, usize)>, HdtestError> {
    let configs: Vec<CampaignConfig> = [Strategy::Rand, Strategy::Gauss]
        .into_iter()
        .flat_map(|strategy| {
            [Guidance::DistanceGuided, Guidance::Unguided].map(|guidance| CampaignConfig {
                fuzz: FuzzConfig { guidance, ..Default::default() },
                ..config(strategy)
            })
        })
        .collect();
    let reports = testbed.sweep(testbed.fuzz_pool.images(), configs.iter().map(|&c| (c, ALONE)))?;
    Ok(configs
        .iter()
        .zip(reports)
        .map(|(config, report)| {
            let candidates = report.records.iter().map(|r| r.candidates_evaluated).sum();
            (config.fuzz.guidance, report.strategy_stats(), candidates)
        })
        .collect())
}

/// §V-D's retraining defense, with the clean test accuracy around it.
pub struct Defense {
    /// Adversarial images the attack campaign generated.
    pub generated: usize,
    /// Attack success on the unseen half, before and after retraining.
    pub report: DefenseReport,
    /// Clean test accuracy before and after retraining.
    pub accuracy: (f64, f64),
}

/// Fuzzes the pool with gauss, retrains on half the corpus and attacks
/// with the other half.
///
/// # Errors
///
/// Propagates campaign and retraining errors.
pub fn defense(testbed: &Testbed) -> Result<Defense, HdtestError> {
    let campaign = Campaign::new(&testbed.model, config(Strategy::Gauss));
    let corpus = campaign.run(testbed.fuzz_pool.images())?.corpus;
    let mut model = testbed.model.clone();
    let report = retraining_defense(
        &mut model,
        &corpus,
        DefenseConfig { retrain_fraction: 0.5, seed: FUZZ_SEED, retrain_passes: 1 },
    )?;
    let before = testbed.model.accuracy(testbed.test.pairs())?;
    let after = model.accuracy(testbed.test.pairs())?;
    Ok(Defense { generated: corpus.len(), report, accuracy: (before, after) })
}

/// Figs. 1 and 4–6: gauss, rand and shift campaigns over the first 60
/// inputs, whose corpora hold the sample images.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn samples(testbed: &Testbed) -> Result<Vec<CampaignReport>, HdtestError> {
    let runs = [Strategy::Gauss, Strategy::Rand, Strategy::Shift].map(|s| (config(s), ALONE));
    testbed.sweep(testbed.pool(60), runs)
}

/// §II's contrast: test accuracy with 0–40% of the associative memory's
/// bits flipped, and a gauss campaign over the first 100 inputs.
///
/// # Errors
///
/// Propagates fault-injection and campaign errors.
pub fn biterrors(testbed: &Testbed) -> Result<(Vec<BitErrorPoint>, StrategyStats), HdtestError> {
    let examples: Vec<(&[u8], usize)> = testbed.test.pairs().collect();
    let rates = [0.0, 0.01, 0.05, 0.10, 0.20, 0.30, 0.40];
    let points = bit_error_sweep(&testbed.model, &rates, &examples, FUZZ_SEED)?;
    let campaign = Campaign::new(&testbed.model, config(Strategy::Gauss));
    Ok((points, campaign.run(testbed.pool(100))?.strategy_stats()))
}

/// Cross-model differential fuzzing against a smaller model.
pub struct Differential {
    /// Test accuracy of the testbed's model and of the D = 2,000 variant.
    pub accuracy: (f64, f64),
    /// Each input's outcome.
    pub outcomes: Vec<CrossModelOutcome<GrayImage>>,
}

/// Fuzzes the first 120 inputs until the testbed's model and a D = 2,000
/// variant disagree.
///
/// # Errors
///
/// Propagates model errors.
pub fn differential(testbed: &Testbed) -> Result<Differential, HdtestError> {
    let variant = train_model(&testbed.train, 2_000, ValueEncoding::Random)?;
    let accuracy =
        (testbed.model.accuracy(testbed.test.pairs())?, variant.accuracy(testbed.test.pairs())?);
    let outcomes = (testbed.pool(120).iter().enumerate())
        .map(|(index, image)| {
            fuzz_cross_model(
                &testbed.model,
                &variant,
                &GaussNoise::default(),
                &L2Constraint::default(),
                CrossModelConfig::default(),
                image,
                index as u64,
            )
        })
        .collect::<Result<_, _>>()?;
    Ok(Differential { accuracy, outcomes })
}

/// §IV's user-set budget: gauss over the first 200 inputs at each L2
/// budget.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn budget(testbed: &Testbed) -> Result<Vec<(f64, StrategyStats)>, HdtestError> {
    let budgets = [0.25, 0.5, 1.0, 2.0, 4.0];
    let runs = budgets.map(|budget| {
        (CampaignConfig { l2_budget: Some(budget), ..config(Strategy::Gauss) }, ALONE)
    });
    Ok(budgets.into_iter().zip(stats(testbed.sweep(testbed.pool(200), runs)?)).collect())
}

/// §IV's strategies "used independently or jointly", over the first 200
/// inputs: each combination's name and statistics.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn compound(testbed: &Testbed) -> Result<Vec<(&'static str, StrategyStats)>, HdtestError> {
    use Strategy::*;
    let combinations: [(&str, &[Strategy]); 5] = [
        ("gauss", &[Gauss]),
        ("rand", &[Rand]),
        ("gauss+rand", &[Gauss, Rand]),
        ("gauss+row&col", &[Gauss, RowColRand]),
        ("all-noise", &[Gauss, Rand, RowRand, ColRand]),
    ];
    let runs = combinations.map(|(_, joint)| (config(joint[0]), joint));
    let reports = testbed.sweep(testbed.pool(200), runs)?;
    Ok(combinations.into_iter().map(|(name, _)| name).zip(stats(reports)).collect())
}

/// The top-N survivors Alg. 1 keeps per round, which the paper fixes at 3:
/// rand over the first 200 inputs at each N.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn topn(testbed: &Testbed) -> Result<Vec<(usize, StrategyStats)>, HdtestError> {
    let top_ns = [1, 3, 5, 9];
    let runs = top_ns.map(|top_n| {
        let fuzz = FuzzConfig { top_n, ..Default::default() };
        (CampaignConfig { fuzz, ..config(Strategy::Rand) }, ALONE)
    });
    Ok(top_ns.into_iter().zip(stats(testbed.sweep(testbed.pool(200), runs)?)).collect())
}

/// §V-B's vulnerable cases: a rand campaign over the first 300 inputs,
/// each input's margin set against its fuzzing effort.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn vulnerable(testbed: &Testbed) -> Result<(VulnerabilityReport, StrategyStats), HdtestError> {
    let images = testbed.pool(300);
    let report = Campaign::new(&testbed.model, config(Strategy::Rand)).run(images)?;
    let analysis = VulnerabilityReport::from_campaign(&testbed.model, images, &report)?;
    Ok((analysis, report.strategy_stats()))
}
