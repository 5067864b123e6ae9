//! # `hdtest` — differential fuzz testing of HDC classifiers
//!
//! Reproduction of *HDTest: Differential Fuzz Testing of Brain-Inspired
//! Hyperdimensional Computing* (Ma, Guo, Jiang, Jiao — DAC 2021).
//!
//! HDTest finds adversarial inputs for an HDC classifier **without any
//! manual labeling**: it takes an unlabeled input, records the model's
//! prediction as the *reference label*, then mutates the input until the
//! model's prediction on a mutant disagrees with the reference — a
//! differential-testing oracle (paper Alg. 1). Mutation is *distance-guided*
//! (§IV): candidate seeds are scored by
//! `fitness = 1 − cosine(AM[reference], encode(seed))` and only the top-N
//! fittest survive each round, steering the search toward the decision
//! boundary.
//!
//! ## Crate map
//!
//! * [`mutation`] — the paper's Table I strategies (`gauss`, `rand`,
//!   `row_rand`, `col_rand`, `shift`) plus compound and text mutations.
//! * [`fuzzer`] — Alg. 1: the per-input fuzzing loop with guided or
//!   unguided seed survival.
//! * [`constraint`] — the "invisible perturbation" budget (§IV, e.g.
//!   `L2 < 1`).
//! * [`campaign`] — batch fuzzing over a dataset with worker threads and
//!   the Table II / Fig. 7 statistics.
//! * [`defense`] — the §V-D adversarial-retraining case study.
//! * [`corpus`] — storage for generated adversarial examples.
//! * [`repro`] — the paper's tables and figures, one function each.
//!
//! ## Quick example
//!
//! ```
//! use hdc::prelude::*;
//! use hdc_data::GrayImage;
//! use hdtest::prelude::*;
//!
//! // A tiny two-class model.
//! let encoder = PixelEncoder::new(PixelEncoderConfig {
//!     dim: 2_000, width: 6, height: 6, levels: 256,
//!     value_encoding: ValueEncoding::Random, seed: 3,
//! })?;
//! let mut model = HdcClassifier::new(encoder, 2);
//! model.train_one(&[0u8; 36][..], 0)?;
//! model.train_one(&[200u8; 36][..], 1)?;
//! model.finalize();
//!
//! // Fuzz an unlabeled input: no ground-truth label is ever provided.
//! let fuzzer = Fuzzer::new(
//!     &model,
//!     Box::new(GaussNoise::default()),
//!     Box::new(NoConstraint),
//!     FuzzConfig::default(),
//! );
//! let input = GrayImage::from_pixels(6, 6, vec![120u8; 36]);
//! let result = fuzzer.fuzz_one(&input, 0)?;
//! println!("reference label {} after {} iterations", result.reference_label, result.iterations);
//! # Ok::<(), hdtest::HdtestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod constraint;
pub mod corpus;
pub mod defense;
pub mod differential;
pub mod error;
pub mod fuzzer;
pub mod gaussian;
pub mod minimize;
pub mod model;
pub mod mutation;
pub mod report;
pub mod repro;
pub mod stats;

pub use analysis::{pearson, spearman, VulnerabilityRecord, VulnerabilityReport};
pub use campaign::{Campaign, CampaignConfig, CampaignReport};
pub use constraint::{Constraint, L1Constraint, L2Constraint, LinfConstraint, NoConstraint};
pub use corpus::{AdversarialCorpus, AdversarialExample};
pub use defense::{retraining_defense, DefenseConfig, DefenseReport};
pub use differential::{fuzz_cross_model, CrossModelConfig, CrossModelOutcome, Discrepancy};
pub use error::HdtestError;
pub use fuzzer::{FuzzConfig, FuzzOutcome, FuzzResult, Fuzzer, Guidance};
pub use minimize::{minimize, MinimizeConfig, MinimizeReport};
pub use model::TargetModel;
pub use mutation::{
    ColRand, CompoundMutation, GaussNoise, Mutation, RandNoise, RowColRand, RowRand, Shift,
    Strategy,
};
pub use stats::{ClassStats, StrategyStats};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::analysis::{VulnerabilityRecord, VulnerabilityReport};
    pub use crate::campaign::{Campaign, CampaignConfig, CampaignReport};
    pub use crate::constraint::{
        Constraint, L1Constraint, L2Constraint, LinfConstraint, NoConstraint,
    };
    pub use crate::corpus::{AdversarialCorpus, AdversarialExample};
    pub use crate::defense::{retraining_defense, DefenseConfig, DefenseReport};
    pub use crate::differential::{
        fuzz_cross_model, CrossModelConfig, CrossModelOutcome, Discrepancy,
    };
    pub use crate::error::HdtestError;
    pub use crate::fuzzer::{FuzzConfig, FuzzOutcome, FuzzResult, Fuzzer, Guidance};
    pub use crate::minimize::{minimize, MinimizeConfig, MinimizeReport};
    pub use crate::model::TargetModel;
    pub use crate::mutation::{
        ColRand, CompoundMutation, GaussNoise, Mutation, RandNoise, RowColRand, RowRand, Shift,
        Strategy,
    };
    pub use crate::stats::{ClassStats, StrategyStats};
}
