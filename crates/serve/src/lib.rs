//! # `hdc-serve` — std-only HTTP inference server for HDC classifiers
//!
//! The compute layer (`hdc`) is built for packed batches, but queries from
//! real clients arrive one at a time. This crate is the serving layer that
//! bridges the two, with **zero dependencies beyond `std`** (matching the
//! workspace's offline policy — no tokio, no hyper, no serde):
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing on `std::net::TcpListener`:
//!   an accept pool of OS threads, keep-alive connections, fixed head/body
//!   size limits.
//! * [`json`] — a strict, small JSON parser/renderer for the request and
//!   response bodies.
//! * [`batcher`] — **request coalescing**: concurrent in-flight predicts
//!   queue into one [`hdc::Model::predict_batch`] call (configurable max
//!   batch size and linger, default 64 / 1 ms), so throughput under load
//!   rides the packed batch path instead of N scalar scans. The worker
//!   lingers only after a drain of several jobs, so a lone client's
//!   request never waits for a batch-mate. Concurrent
//!   training requests coalesce the same way into one
//!   [`hdc::Model::partial_fit_batch`] on a private clone whose untouched
//!   classes are shared with the published model (copy-on-write), and
//!   hot-reload swaps ride the
//!   same queue so they serialize against in-flight training. Drained
//!   predict batches shard across a per-model **predict worker pool**
//!   (`--predict-workers`, default = core count): contiguous shards
//!   against one snapshotted model, results reassembled in order, so
//!   answers are byte-identical at any worker count while the batcher
//!   thread stays the single writer.
//! * [`registry`] — named [`hdc::AnyModel`] entries (**dense and
//!   binarized classifiers serve through identical machinery**; the
//!   kind is sniffed from the `HDC1`/`HDB1` file magic by
//!   [`hdc::io::load_any`] and reported in `/v1/models`), hot-reloadable
//!   while serving, packed mirrors pre-warmed on load. Each model lives
//!   behind a [`registry::SharedModel`] swap cell with a monotonic
//!   training `version` that survives reloads, so **online learning**
//!   (`/v1/train`, `/v1/feedback`) publishes updates atomically while
//!   in-flight predictions keep their snapshot; `/v1/snapshot` persists
//!   the trainable counters atomically (temp file + rename); an
//!   optional **model-dir jail** 403s any reload/snapshot path that
//!   escapes it.
//! * [`wal`] — the **write-ahead delta log**: every coalesced update
//!   batch is appended as one checksummed, version-stamped, fsynced
//!   record to the model's sidecar `<file>.wal` *before* the new model
//!   publishes (acked ⇒ durable). Startup recovery = load the snapshot,
//!   replay the log tail — bit-exact against a process that never
//!   crashed; `/v1/snapshot` compacts the log at the persisted version.
//! * [`replica`] — **leader→follower replication**: a follower
//!   (`serve --follower-of HOST:PORT`) bootstraps from `GET /v1/export`
//!   and tails `GET /v1/deltas`, applying records with the same
//!   deterministic replay as crash recovery; it serves reads, answers
//!   writes 409 with the leader's address, and reports readiness only
//!   once caught up.
//! * [`metrics`] — lock-free request counters, a batch-size histogram
//!   (the observable proof that coalescing happens), online-training
//!   counters, p50/p99 latency from fixed power-of-two buckets, and the
//!   overload accounting (`shed_total`, `deadline_expired_total`,
//!   `worker_panics_total`, a queue-depth histogram). `/metrics` renders
//!   JSON by default and Prometheus text exposition with
//!   `?format=prometheus`. Both views render one table of metric rows,
//!   each model's version and a follower's replication lag among them,
//!   so they carry the same metrics; only derived means and quantiles
//!   are JSON-only.
//! * [`trace`] — per-request **distributed tracing**: every request gets
//!   an id (client-supplied `X-Request-Id` or generated), echoed on every
//!   response, with per-stage spans (head parse → body read → queue wait
//!   → execute → shard execute → WAL append → publish → reply write)
//!   recorded into a
//!   fixed-size ring of completed traces (`GET /debug/traces`,
//!   `GET /debug/traces/slow`) and per-stage/per-model latency
//!   histograms. A request carries one [`Trace`] value from the socket
//!   through the batcher; with tracing off it is empty and every call on
//!   it does nothing. Delta records carry the originating trace id so a
//!   write can be followed leader→follower.
//! * [`log`] — a leveled (`--log-level`), rate-limited structured logger:
//!   `key=value` lines on stderr with per-site token-bucket suppression
//!   (`suppressed=N` tallies instead of silent gaps).
//! * [`loadgen`] — a self-driving load generator that measures coalesced
//!   vs batch-size-1 throughput (predicts *and* trains) and emits
//!   `BENCH_serve.json` for CI.
//! * [`soak`] — the soak/fault-injection harness (`serve-soak` binary):
//!   sustained closed-loop load with injected slow-loris, truncated-body,
//!   oversized-body, corrupt-reload and panic faults, plus process-level
//!   topology injectors (kill -9 crash/recovery cycles vs an uncrashed
//!   control, follower promotion after the leader dies), gated on p99 /
//!   error-accounting / RSS ceilings.
//!
//! ## Overload behavior
//!
//! The stack **degrades instead of collapsing**: each model's job queue is
//! bounded (full → fast 503 + `Retry-After`), queued jobs carry deadlines
//! (waited too long → 504 instead of late execution), model panics are
//! quarantined per job behind `catch_unwind` while the worker respawns and
//! the version lineage stays monotonic, slow-loris reads are cut off by a
//! per-request wall-clock deadline (408), and a graceful drain
//! ([`Server::drain`]) flushes one final crash-safe snapshot per model
//! with unsaved training progress. Every one of those paths increments a
//! dedicated `/metrics` counter, so failed requests are always accounted
//! for. See "Failure modes & degradation" in `ARCHITECTURE.md`.
//!
//! See `ARCHITECTURE.md` at the workspace root for how these layers fit
//! the compute stack underneath.
//!
//! ## Quickstart
//!
//! Train a model and serve it (the `serve` subcommand lives in
//! `hdtest-cli`):
//!
//! ```text
//! hdtest-cli gen-data --out data --train 50 --test 10
//! hdtest-cli train --images data/train-images.idx --labels data/train-labels.idx \
//!     --out model.hdc --dim 10000
//! hdtest-cli serve --model model.hdc --addr 127.0.0.1:8080
//! ```
//!
//! Then, from another shell (CI's serve-smoke job runs this exact
//! sequence, so it cannot rot):
//!
//! ```text
//! curl http://127.0.0.1:8080/healthz
//! curl http://127.0.0.1:8080/v1/models      # includes the training "version"
//! curl -X POST http://127.0.0.1:8080/v1/predict \
//!     -d "{\"model\":\"default\",\"input\":[0,0,0, ... 784 pixel values ...]}"
//! curl -X POST http://127.0.0.1:8080/v1/train \
//!     -d "{\"input\":[ ... pixels ... ],\"label\":3}"   # online learning
//! curl -X POST http://127.0.0.1:8080/v1/feedback \
//!     -d "{\"input\":[ ... pixels ... ],\"label\":3}"   # adaptive update on mistakes
//! curl -X POST http://127.0.0.1:8080/v1/snapshot \
//!     -d '{"model":"default","path":"snap.hdc"}'  # persist counters atomically
//! curl http://127.0.0.1:8080/metrics        # batch/training/stage stats, p50/p99, versions
//! curl http://127.0.0.1:8080/metrics?format=prometheus   # the same metrics as text
//! curl http://127.0.0.1:8080/debug/traces   # recent per-request stage traces
//! curl -X POST http://127.0.0.1:8080/v1/reload \
//!     -d '{"model":"default","path":"snap.hdc"}'   # hot reload, resumes training
//! ```
//!
//! A reloaded snapshot **keeps learning**: the file stores the per-class
//! trainable counters (not just the bipolarized references), and the
//! version lineage continues across the reload.
//!
//! Everything above works identically for a **binarized** model: train
//! one with `hdtest-cli train --kind binary`, serve it with
//! `--models name=file.hdb` (the kind is auto-detected), and the same
//! predict/train/feedback/snapshot/reload round trip applies —
//! bit-exactly vs direct library calls, as pinned by
//! `tests/binary_e2e.rs`. Add `--model-dir DIR` to jail reload/snapshot
//! paths (escapes get 403).
//!
//! ## Embedding
//!
//! ```
//! use hdc_serve::batcher::BatchConfig;
//! use hdc_serve::metrics::Metrics;
//! use hdc_serve::registry::Registry;
//! use hdc_serve::server::{Server, ServerConfig};
//! use hdc_serve::loadgen::synthetic_model;
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(Metrics::new());
//! let registry = Arc::new(Registry::new(Arc::clone(&metrics), BatchConfig::default()));
//! registry.insert_model("default", synthetic_model(1_024, 4))?;
//! let mut server = Server::start(registry, &ServerConfig::default())?;
//! let addr = server.addr(); // ephemeral port; POST /v1/predict here
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod log;
pub mod metrics;
pub mod registry;
pub mod replica;
pub mod server;
pub mod soak;
pub mod trace;
pub mod wal;

pub use batcher::{BatchConfig, Batcher, FeedbackOutcome, TrainOutcome};
pub use client::{Client, Response};
pub use error::ServeError;
pub use json::Json;
pub use metrics::Metrics;
pub use registry::{ModelEntry, ModelInfo, Registry, SharedModel};
pub use replica::{Replica, ReplicaState};
pub use server::{Server, ServerConfig};
pub use trace::{Trace, TraceRecord, TraceRing};
pub use wal::{DeltaOp, DeltaRecord, Wal};
