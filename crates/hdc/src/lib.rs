//! # `hdc` — a hyperdimensional computing (HDC) substrate
//!
//! This crate implements the full HDC stack required by the HDTest paper
//! (Ma et al., DAC 2021): hypervectors with the three canonical arithmetic
//! operations (addition ⨁, multiplication ⊛, permutation ρ), random item
//! memories, application encoders, an associative memory, and a trainable
//! classifier with one-shot training and retraining.
//!
//! ## Model
//!
//! A [`Hypervector`] is a dense bipolar vector (`±1` components) of dimension
//! `D` (typically 10,000). Multiplication and permutation produce vectors
//! orthogonal to their operands; addition preserves similarity to each
//! operand. Classes are represented in an [`AssociativeMemory`]: the bundled
//! (summed, then bipolarized) hypervectors of all training inputs of that
//! class. Prediction encodes a query input and returns the class whose
//! reference vector has maximal cosine similarity.
//!
//! ## Word-packed compute backend
//!
//! The user-facing representation stays `Vec<i8>`, but every similarity on
//! the hot path runs on a **bit-packed mirror** (64 components per `u64`,
//! `+1 → 1`, `-1 → 0`) that each hypervector builds lazily and carries
//! through `bind`/`permute`/`negate` (see [`kernel`]). For bipolar vectors
//!
//! ```text
//! dot(a, b) = D − 2 · hamming(a, b)
//! ```
//!
//! so [`dot`] (and [`cosine`], which is `dot / D`) reduces to XOR +
//! popcount over `D/64` words — bit-exact with the scalar loops it
//! replaced, which survive as [`kernel::reference`] oracles for the
//! property tests and benchmarks. The encode path is packed end-to-end:
//! every encoder binds/permutes packed mirrors and bundles them through a
//! bit-sliced counter ([`kernel::BitCounter`], a Harley–Seal
//! carry-save-adder tree), bipolarizing by word-parallel threshold
//! comparison — no scalar `Vec<i8>` exists inside any encode loop. Each
//! encoder keeps its scalar loop as a public `encode_reference` oracle.
//!
//! On top of the kernels sits a batch layer —
//! [`AssociativeMemory::classify_batch`], [`HdcClassifier::predict_batch`]
//! and [`HdcClassifier::evaluate_batch`] — that packs queries once, reuses
//! encode scratch across a batch, and fans out across worker threads
//! (`std::thread::scope`; a `rayon` executor is feature-gated off until the
//! dependency is available offline). `benches/kernels.rs` in the bench
//! crate tracks the speedups; see `ROADMAP.md` for current numbers.
//!
//! ## Online learning
//!
//! Classifiers retain their per-class trainable counters after
//! [`HdcClassifier::finalize`] and track which classes each update
//! dirtied, so [`HdcClassifier::partial_fit`] /
//! [`HdcClassifier::partial_fit_batch`] (and their
//! [`BinaryClassifier`] counterparts) absorb new labeled examples by
//! re-finalizing **only the dirty classes** — bit-identical to a full
//! retrain on the concatenated dataset, pinned by
//! `tests/online_learning.rs` and roughly 120× cheaper at `D = 10,000`
//! with 10 classes (the `train_partial_fit` bench row).
//! [`HdcClassifier::feedback`] and [`BinaryClassifier::feedback`] add the
//! perceptron-style adaptive update (§V-E). [`io`] persists the counter
//! state itself (`HDC1`/`HDB1`), so a saved-then-reloaded model keeps
//! learning exactly where it left off — which is what the serving layer's
//! `/v1/train`, `/v1/feedback` and `/v1/snapshot` endpoints build on.
//!
//! ## One model surface, two kinds
//!
//! The [`model`] module unifies the dense and binarized classifiers
//! behind one polymorphic surface: the [`Model`] trait (prediction,
//! greybox fitness signals, online learning, warm-up — implemented by
//! both classifiers over any encoder), [`ModelKind`], and the deployment
//! enum [`AnyModel`] with static per-call dispatch and its own
//! [`AnyModel::save`] / [`io::load_any`] (magic-sniffing) persistence
//! pair. Both kinds report the same [`Prediction`] shape (the binarized
//! side converts via `cos = 1 − 2·h/D` with identical tie-breaking), so
//! consumers — `hdtest` campaigns via its blanket `TargetModel` impl,
//! the serving registry, the CLI — are written once and run over either
//! kind. Both classifiers hold their encoder behind an [`std::sync::Arc`],
//! so cloning a model copies only counters and class vectors — the
//! invariant that makes the serving layer's clone-train-publish cycle
//! cheap (see `ARCHITECTURE.md`).
//!
//! See `ARCHITECTURE.md` at the workspace root for the full layer map
//! (kernel → packed mirror → BitCounter/CSA → encoders → batch →
//! classifiers → io → serve), the bit-exactness oracle convention, and a
//! request's life through the serving stack.
//!
//! ## Quick example
//!
//! ```
//! use hdc::prelude::*;
//!
//! // Encode 4x4 images of 4 grey levels into 1,000-dimensional hypervectors.
//! let encoder = PixelEncoder::new(PixelEncoderConfig {
//!     dim: 1_000,
//!     width: 4,
//!     height: 4,
//!     levels: 4,
//!     value_encoding: ValueEncoding::Random,
//!     seed: 7,
//! })?;
//! let mut model = HdcClassifier::new(encoder, 2);
//!
//! // One-shot training: bundle each example into its class accumulator.
//! let dark = vec![0u8; 16];
//! let light = vec![255u8; 16];
//! model.train_one(&dark, 0)?;
//! model.train_one(&light, 1)?;
//! model.finalize();
//!
//! assert_eq!(model.predict(&dark)?.class, 0);
//! assert_eq!(model.predict(&light)?.class, 1);
//! # Ok::<(), hdc::HdcError>(())
//! ```
//!
//! The sibling crates build on this substrate: `hdc-data` provides image
//! types and the synthetic digit dataset, and `hdtest` implements the
//! distance-guided differential fuzzer that is the paper's contribution.

// `deny`, not `forbid`: the one sanctioned exception is
// `kernel::avx2`, the runtime-dispatched SIMD backend, which opts back in
// with a module-level `allow` and keeps every `unsafe` block behind a
// cached CPU-feature check. Everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod am;
pub mod batch;
pub mod binary;
pub mod classifier;
pub mod confusion;
pub mod encoder;
pub mod error;
pub mod fault;
pub mod hypervector;
pub mod io;
pub mod kernel;
pub mod memory;
pub mod model;
pub mod ops;
pub mod packed;
pub mod rng;
pub mod similarity;

pub use accumulator::Accumulator;
pub use am::AssociativeMemory;
pub use binary::{BinaryClassifier, BinaryPrediction};
pub use classifier::{Feedback, HdcClassifier, Prediction};
pub use confusion::ConfusionMatrix;
pub use encoder::{
    Encoder, NgramEncoder, NgramEncoderConfig, PermutePixelEncoder, PermutePixelEncoderConfig,
    PixelEncoder, PixelEncoderConfig, RecordEncoder, RecordEncoderConfig, Sketch,
    TimeSeriesEncoder, TimeSeriesEncoderConfig,
};
pub use error::HdcError;
pub use fault::{bit_error_sweep, BitErrorPoint, FaultyAssociativeMemory};
pub use hypervector::Hypervector;
pub use memory::{ItemMemory, LevelMemory, ValueEncoding};
pub use model::{AnyModel, Model, ModelKind};
pub use packed::PackedHypervector;
pub use similarity::{cosine, cosine_accum, dot, hamming, normalized_hamming};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::accumulator::Accumulator;
    pub use crate::am::AssociativeMemory;
    pub use crate::binary::{BinaryClassifier, BinaryPrediction};
    pub use crate::classifier::{Feedback, HdcClassifier, Prediction};
    pub use crate::confusion::ConfusionMatrix;
    pub use crate::encoder::{
        Encoder, NgramEncoder, NgramEncoderConfig, PermutePixelEncoder, PermutePixelEncoderConfig,
        PixelEncoder, PixelEncoderConfig, RecordEncoder, RecordEncoderConfig, Sketch,
        TimeSeriesEncoder, TimeSeriesEncoderConfig,
    };
    pub use crate::error::HdcError;
    pub use crate::hypervector::Hypervector;
    pub use crate::memory::{ItemMemory, LevelMemory, ValueEncoding};
    pub use crate::model::{AnyModel, Model, ModelKind};
    pub use crate::packed::PackedHypervector;
    pub use crate::similarity::{cosine, dot, hamming, normalized_hamming};
}

/// The default hypervector dimension used throughout the paper (`D = 10,000`).
pub const DEFAULT_DIM: usize = 10_000;
