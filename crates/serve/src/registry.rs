//! The model registry: named models behind one process.
//!
//! Entries hold [`hdc::AnyModel`], so a **dense and a binarized classifier
//! serve through identical machinery** — models load through
//! [`hdc::io::load_any`] (one call that sniffs the `HDC1`/`HDB1` magic),
//! get their packed mirrors pre-warmed so the first request doesn't pay
//! lazy-pack cost, and each name gets its own coalescing [`Batcher`].
//! `/v1/models` reports each entry's `kind`.
//!
//! ## Online training
//!
//! Each entry's model lives behind a [`SharedModel`]: an `Arc` snapshot
//! swapped atomically by the entry's batcher worker when a coalesced
//! training batch lands (`partial_fit_batch` on a private clone, then
//! publish). Readers — predict handlers, explicit batch predicts — take
//! the current snapshot and never block on training compute. Because both
//! classifier kinds share their encoder behind an `Arc`, the private clone
//! copies **only counters and class vectors** — item memories are never
//! duplicated on the publish path (`Arc::ptr_eq` across versions, pinned
//! by this module's tests). Every published training batch bumps the
//! model's monotonic `version` (reported in `/v1/models` and `/metrics`).
//!
//! ## Reloads are serialized through the worker
//!
//! A hot reload does **not** tear an entry down: the replacement model is
//! enqueued as a swap job on the entry's batcher, so the single writer
//! processes it in queue order with the training traffic. An in-flight
//! coalesced train therefore either publishes *before* the swap (into the
//! same, still-live lineage) or trains the swapped-in model — a train can
//! never publish into an orphaned lineage, and because one [`SharedModel`]
//! carries a name's version counter for its whole life, a version number
//! can never be reused. (This closes the documented PR-4 race where
//! reload replaced the entry wholesale and an in-flight train could
//! publish into the abandoned one.) In-flight requests that already
//! resolved the entry keep it — same `Arc`, same worker — and simply
//! observe the swap at their queue position. A failed load never reaches
//! the swap, leaving the old model serving untouched.
//!
//! ## Path trust
//!
//! `/v1/reload` reads and `/v1/snapshot` writes server-side paths. With a
//! configured **model directory jail** ([`Registry::with_model_dir`], the
//! serve subcommand's `--model-dir`), relative paths resolve inside the
//! jail and anything escaping it is refused with a 403 before any
//! filesystem access. Without a jail the documented private-network trust
//! model applies.
//!
//! ## Worked example
//!
//! ```
//! use hdc_serve::batcher::BatchConfig;
//! use hdc_serve::metrics::Metrics;
//! use hdc_serve::registry::Registry;
//! use hdc_serve::loadgen::synthetic_model;
//! use hdc_serve::trace::Trace;
//! use std::sync::Arc;
//!
//! let registry = Registry::new(Arc::new(Metrics::new()), BatchConfig::default());
//! registry.insert_model("default", synthetic_model(1_024, 4))?;
//!
//! let entry = registry.get("default")?;
//! assert_eq!(entry.version(), 0); // no training batches yet
//! assert_eq!(entry.info().kind, hdc::ModelKind::Dense);
//!
//! // Online update: one labeled example through the coalescer.
//! let outcome = entry.batcher().train(vec![(vec![224u8; 16], 1)], Trace::off())?;
//! assert_eq!(outcome.applied, 1);
//! assert_eq!(outcome.version, 1);
//! assert_eq!(entry.version(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batcher::{BatchConfig, Batcher, WalSwap};
use crate::error::ServeError;
use crate::json::Json;
use crate::log;
use crate::metrics::Metrics;
use crate::replica::ReplicaState;
use crate::trace::{self, TraceRecord};
use crate::wal::{self, DeltaRing, Wal};
use hdc::io::load_any;
use hdc::{AnyModel, Model, ModelKind};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Static facts about one registered model, for `/v1/models`.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Implementation family (`dense` / `binary`).
    pub kind: ModelKind,
    /// Hypervector dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Expected input width in pixels.
    pub width: usize,
    /// Expected input height in pixels.
    pub height: usize,
    /// Monotonic per-name reload generation (1 on the first load of this
    /// name, +1 on every successful reload of it).
    pub generation: u64,
    /// Source path, when file-loaded.
    pub path: Option<PathBuf>,
}

impl ModelInfo {
    /// Renders for the `/v1/models` listing.
    pub fn render(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("kind", Json::from(self.kind.as_str())),
            ("dim", Json::from(self.dim)),
            ("classes", Json::from(self.classes)),
            ("width", Json::from(self.width)),
            ("height", Json::from(self.height)),
            ("generation", Json::from(self.generation)),
            (
                "path",
                self.path
                    .as_ref()
                    .map(|p| Json::from(p.display().to_string()))
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// The mutable heart of one served model: an atomically swapped snapshot
/// plus its training lineage counters.
///
/// Readers call [`snapshot`](Self::snapshot) and work on a consistent
/// `Arc` that training can never mutate under them; the entry's batcher
/// worker is the single writer and swaps in a freshly trained clone via
/// `publish` (or an operator's replacement model via `replace`). One
/// `SharedModel` carries a registry name's lineage for its whole life —
/// reloads swap the model *inside* it, never the cell — so `version` is
/// strictly monotonic per name.
#[derive(Debug)]
pub struct SharedModel {
    current: RwLock<Arc<AnyModel>>,
    /// Monotonic per-name training version: +1 per published training
    /// batch, carried across hot reloads of the same name.
    version: AtomicU64,
    /// Total examples absorbed online (train + applied feedback).
    trained_examples: AtomicU64,
    /// Whether the in-memory model has training state no snapshot has
    /// persisted yet: set on publish, cleared by a successful snapshot and
    /// by a reload (which makes memory equal the file again). Drives the
    /// drain-time flush.
    dirty: std::sync::atomic::AtomicBool,
    /// The write-ahead delta log, when this model has a disk home. The
    /// batcher worker appends under this mutex before every publish;
    /// snapshot-driven compaction takes the same mutex, so a compaction
    /// can never race an append into dropping a record.
    wal: Mutex<Option<Wal>>,
    /// The in-memory tail of published delta records, serving follower
    /// replicas via `GET /v1/deltas`.
    deltas: DeltaRing,
}

impl SharedModel {
    fn new(model: Arc<AnyModel>) -> Self {
        Self {
            current: RwLock::new(model),
            version: AtomicU64::new(0),
            trained_examples: AtomicU64::new(0),
            dirty: std::sync::atomic::AtomicBool::new(false),
            wal: Mutex::new(None),
            deltas: DeltaRing::new(0),
        }
    }

    /// Wraps a finalized model of either kind for direct [`Batcher`] use
    /// without a [`Registry`] (embedding, tests). Version starts at 0.
    pub fn standalone(model: impl Into<AnyModel>) -> Self {
        Self::new(Arc::new(model.into()))
    }

    /// The current model snapshot. Cheap (one `Arc` clone under a read
    /// lock); the returned model is immutable and stays valid however
    /// much training happens after.
    pub fn snapshot(&self) -> Arc<AnyModel> {
        Arc::clone(&self.current.read().expect("model lock"))
    }

    /// The current model together with its version and absorbed-example
    /// count, read under one lock — the consistent triple a durable
    /// snapshot's version trailer needs (a publish can never interleave
    /// between the model read and the version read).
    pub fn model_and_version(&self) -> (Arc<AnyModel>, u64, u64) {
        let current = self.current.read().expect("model lock");
        let model = Arc::clone(&current);
        let version = self.version.load(Ordering::Acquire);
        let examples = self.trained_examples.load(Ordering::Relaxed);
        drop(current);
        (model, version, examples)
    }

    /// The model's training version: 0 at first load, +1 per published
    /// training batch, never reset (reloads keep the lineage).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Total examples absorbed online across this name's lineage
    /// (like the version, preserved across hot reloads).
    pub fn trained_examples(&self) -> u64 {
        self.trained_examples.load(Ordering::Relaxed)
    }

    /// Whether the in-memory model carries training state newer than any
    /// snapshot of it.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    fn mark_clean(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    /// Swaps in a newly trained model and bumps the version. Called only
    /// by the entry's batcher worker (the single writer); returns the new
    /// version. The bump happens *inside* the write lock, so any reader
    /// of [`model_and_version`](Self::model_and_version) sees the model
    /// and its version move together.
    pub(crate) fn publish(&self, model: Arc<AnyModel>, examples: u64) -> u64 {
        let mut current = self.current.write().expect("model lock");
        *current = model;
        self.trained_examples.fetch_add(examples, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Release);
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        drop(current);
        version
    }

    /// Publishes a replicated model state at the leader's exact version
    /// (a follower applies delta records, it never numbers its own).
    /// Called only by the replica applier thread, the single writer of a
    /// follower's models. The follower is not marked dirty: its state is
    /// a copy of durable leader state, not unsaved local progress.
    pub(crate) fn publish_with_version(&self, model: Arc<AnyModel>, examples: u64, version: u64) {
        let mut current = self.current.write().expect("model lock");
        *current = model;
        self.trained_examples.fetch_add(examples, Ordering::Relaxed);
        self.version.store(version, Ordering::Release);
        drop(current);
    }

    /// Seeds the lineage counters after recovery or a replica bootstrap
    /// (before traffic, or from the single writer) and re-bases the
    /// delta ring to match.
    pub(crate) fn set_lineage(&self, version: u64, trained_examples: u64) {
        self.version.store(version, Ordering::Release);
        self.trained_examples.store(trained_examples, Ordering::Relaxed);
        self.deltas.rebase(version);
    }

    /// The write-ahead log slot (the batcher worker appends under it;
    /// snapshot compaction serializes against appends through it).
    pub(crate) fn wal_lock(&self) -> std::sync::MutexGuard<'_, Option<Wal>> {
        self.wal.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The published-record tail serving `GET /v1/deltas`.
    pub fn deltas(&self) -> &DeltaRing {
        &self.deltas
    }

    /// Applies a swap's WAL disposition at the barrier point, with
    /// `version` the (unchanged) lineage version the swap kept. See
    /// [`WalSwap`].
    pub(crate) fn apply_wal_swap(&self, swap: WalSwap, version: u64) -> std::io::Result<()> {
        let mut slot = self.wal_lock();
        match swap {
            WalSwap::Detach => {
                *slot = None;
                Ok(())
            }
            WalSwap::Reset { home, file_version } => {
                let mut log = match slot.take() {
                    Some(existing) if existing.path() == home => existing,
                    _ => Wal::open(&home, file_version)?.0,
                };
                log.reset(version, file_version)?;
                *slot = Some(log);
                Ok(())
            }
            WalSwap::Resume(log) => {
                let mut log = *log;
                if log.last_version() != version {
                    // The recovered tail lost a race against another
                    // lineage of this name; re-base on the live version
                    // so appends stay contiguous.
                    log.reset(version, log.snapshot_version())?;
                }
                *slot = Some(log);
                Ok(())
            }
        }
    }

    /// Swaps in an operator-supplied replacement (hot reload) without
    /// bumping the training version — the lineage continues. Called only
    /// by the batcher worker, which serializes it against training jobs.
    pub(crate) fn replace(&self, model: Arc<AnyModel>) -> u64 {
        *self.current.write().expect("model lock") = model;
        // Memory now equals the loaded file: unsaved progress, if any, was
        // deliberately discarded by the operator's reload.
        self.mark_clean();
        self.version()
    }
}

/// One live model: the shared trainable classifier, its coalescer, and
/// its metadata.
#[derive(Debug)]
pub struct ModelEntry {
    shared: Arc<SharedModel>,
    batcher: Batcher,
    /// Behind a lock because hot reloads update the metadata in place
    /// (the entry itself survives reloads; see the module docs).
    info: RwLock<ModelInfo>,
    /// Serializes reloads of this entry against each other, so the
    /// generation bump, the queued swap, and the metadata update of
    /// concurrent `/v1/reload`s cannot interleave. Held *instead of* the
    /// registry-wide lock while waiting on the batcher, so a reload never
    /// stalls name resolution (or traffic) for other models.
    reload_serial: std::sync::Mutex<()>,
}

impl ModelEntry {
    /// The current model snapshot (for direct batch calls). The snapshot
    /// is taken per call; hold it across related operations for a
    /// consistent view.
    pub fn model(&self) -> Arc<AnyModel> {
        self.shared.snapshot()
    }

    /// The swap cell this entry serves from.
    pub fn shared(&self) -> &Arc<SharedModel> {
        &self.shared
    }

    /// The coalescing queue for single-input predicts and online training.
    pub fn batcher(&self) -> &Batcher {
        &self.batcher
    }

    /// Model metadata (static facts; the live training version is
    /// [`version`](Self::version)). A clone — reloads may update the
    /// entry's metadata concurrently.
    pub fn info(&self) -> ModelInfo {
        self.info.read().expect("info lock").clone()
    }

    pub(crate) fn set_info(&self, info: ModelInfo) {
        *self.info.write().expect("info lock") = info;
    }

    /// The model's current training version.
    pub fn version(&self) -> u64 {
        self.shared.version()
    }

    /// Renders the `/v1/models` entry: static metadata plus the live
    /// training version and absorbed-example count.
    pub fn render_info(&self) -> Json {
        let mut doc = self.info().render();
        if let Json::Obj(map) = &mut doc {
            map.insert("version".into(), Json::from(self.shared.version()));
            map.insert("trained_examples".into(), Json::from(self.shared.trained_examples()));
        }
        doc
    }
}

/// How a freshly installed model connects to the durability layer.
#[derive(Debug)]
enum WalAttach {
    /// In-memory install (tests, load generator): no log; a reload-swap
    /// of an existing entry detaches whatever log it had, since memory
    /// is now authoritative and recovery from disk is impossible.
    Detach,
    /// Operator reload from a file whose trailer reads `file_version`:
    /// the file is authoritative, the log (at the file's sidecar path)
    /// resets, discarding any tail.
    Reset { file_version: u64 },
    /// First load of a durable model: recovery already replayed `wal`'s
    /// tail into the model, whose lineage resumes at `version` with
    /// `examples` absorbed.
    Resume { wal: Box<Wal>, version: u64, examples: u64 },
    /// Follower bootstrap from a leader snapshot: lineage seeded at the
    /// leader's version, no local log.
    Seed { version: u64, examples: u64 },
}

/// The `hdc::batch` fan-out threshold installed for serving: low enough
/// that a modest explicit batch parallelizes inside the library, high
/// enough that single requests never pay thread scatter.
const SERVE_PARALLEL_THRESHOLD: usize = 16;

/// Named models behind one process.
#[derive(Debug)]
pub struct Registry {
    models: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
    metrics: Arc<Metrics>,
    batch_config: BatchConfig,
    /// The canonicalized path jail for reload reads and snapshot writes;
    /// `None` means the documented private-network trust model applies.
    model_dir: Option<PathBuf>,
    /// Serializes `load` calls registry-wide, so the first-load-or-reload
    /// decision (which picks between WAL recovery and WAL reset) is made
    /// against a stable view. Loads are rare operator actions; holding
    /// this across the file read costs nothing and never blocks traffic.
    load_serial: Mutex<()>,
    /// Present when this process serves as a follower replica
    /// (`serve --follower-of`): carries the leader address write
    /// rejections advertise and the per-model sync state `/metrics` and
    /// readiness report.
    replica: RwLock<Option<Arc<ReplicaState>>>,
}

impl Registry {
    /// An empty registry whose batchers will use `batch_config` and record
    /// into `metrics`.
    ///
    /// Server-sized predict batches are much smaller than the offline
    /// workloads `hdc` was tuned for, so the library's parallel threshold
    /// is lowered here once: an explicit batch of a dozen requests should
    /// already fan out inside `predict_batch` instead of waiting for the
    /// offline default of 64.
    pub fn new(metrics: Arc<Metrics>, batch_config: BatchConfig) -> Self {
        hdc::batch::set_parallel_threshold(SERVE_PARALLEL_THRESHOLD);
        Self {
            models: RwLock::new(BTreeMap::new()),
            metrics,
            batch_config,
            model_dir: None,
            load_serial: Mutex::new(()),
            replica: RwLock::new(None),
        }
    }

    /// Marks this registry as a follower replica of `state`'s leader.
    pub fn set_replica(&self, state: Arc<ReplicaState>) {
        *self.replica.write().expect("replica lock") = Some(state);
    }

    /// The replica state, when this process is a follower.
    pub fn replica(&self) -> Option<Arc<ReplicaState>> {
        self.replica.read().expect("replica lock").clone()
    }

    /// Whether this process is a follower (rejects direct writes with
    /// 409 and the leader's address).
    pub fn is_follower(&self) -> bool {
        self.replica.read().expect("replica lock").is_some()
    }

    /// Confines every `load` read and `snapshot` write to `dir` (the serve
    /// subcommand's `--model-dir`): relative paths resolve inside it, and
    /// any path escaping it — symlinks and `..` included, since checks run
    /// on canonicalized paths — is refused with a 403.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `dir` does not exist or cannot be
    /// canonicalized.
    pub fn with_model_dir(mut self, dir: &Path) -> Result<Self, ServeError> {
        let canon = dir.canonicalize().map_err(|e| {
            ServeError::BadRequest(format!("model dir {} is unusable: {e}", dir.display()))
        })?;
        self.model_dir = Some(canon);
        Ok(self)
    }

    /// The configured jail, if any (canonicalized).
    pub fn model_dir(&self) -> Option<&Path> {
        self.model_dir.as_deref()
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The coalescing/overload parameters every batcher was started
    /// with. `max_queue == 0` is deterministic maintenance mode (every
    /// update sheds), which readiness reports as not-ready.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch_config
    }

    /// Resolves a request path against the jail: relative paths live
    /// inside the model dir (so clients can say `"path": "snap.hdc"`),
    /// absolute paths are taken as given and checked later.
    fn resolve(&self, path: &Path) -> PathBuf {
        match &self.model_dir {
            Some(jail) if path.is_relative() => jail.join(path),
            _ => path.to_owned(),
        }
    }

    /// 403 unless `canonical` is inside the jail (no-op without one).
    fn jail_check(&self, canonical: &Path, requested: &Path) -> Result<(), ServeError> {
        match &self.model_dir {
            Some(jail) if !canonical.starts_with(jail) => Err(ServeError::Forbidden(format!(
                "path {} escapes the model directory {}",
                requested.display(),
                jail.display()
            ))),
            _ => Ok(()),
        }
    }

    /// The lexical half of jail admission, run **before any filesystem
    /// access**: `..` components are refused outright — a prefix check
    /// cannot see through them, and refusing them up front means a
    /// traversal attempt cannot even probe which paths exist.
    fn refuse_traversal(&self, requested: &Path) -> Result<(), ServeError> {
        let Some(jail) = &self.model_dir else { return Ok(()) };
        if requested.components().any(|c| matches!(c, std::path::Component::ParentDir)) {
            return Err(ServeError::Forbidden(format!(
                "path {} escapes the model directory {} ('..' components are refused)",
                requested.display(),
                jail.display()
            )));
        }
        Ok(())
    }

    /// Jail admission for a file to be **read**: traversal refusal first,
    /// then the file itself must canonicalize into the jail (catching
    /// symlink escapes).
    fn admit_read(&self, path: &Path) -> Result<PathBuf, ServeError> {
        let resolved = self.resolve(path);
        if self.model_dir.is_none() {
            return Ok(resolved);
        }
        self.refuse_traversal(path)?;
        let canon = resolved.canonicalize().map_err(|e| {
            ServeError::BadRequest(format!("cannot open model file {}: {e}", resolved.display()))
        })?;
        self.jail_check(&canon, path)?;
        Ok(canon)
    }

    /// Jail admission for a file to be **written**: traversal refusal
    /// first, then the (existing) parent directory must canonicalize into
    /// the jail; the file itself need not exist yet.
    fn admit_write(&self, path: &Path) -> Result<PathBuf, ServeError> {
        let resolved = self.resolve(path);
        if self.model_dir.is_none() {
            return Ok(resolved);
        }
        self.refuse_traversal(path)?;
        let file_name = resolved.file_name().ok_or_else(|| {
            ServeError::BadRequest(format!("path {} has no file name", resolved.display()))
        })?;
        let parent = match resolved.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_owned(),
            _ => PathBuf::from("."),
        };
        let canon_parent = parent.canonicalize().map_err(|e| {
            ServeError::BadRequest(format!(
                "snapshot directory {} is unusable: {e}",
                parent.display()
            ))
        })?;
        self.jail_check(&canon_parent, path)?;
        Ok(canon_parent.join(file_name))
    }

    fn install(
        &self,
        name: &str,
        model: AnyModel,
        path: Option<PathBuf>,
        attach: WalAttach,
    ) -> Result<ModelInfo, ServeError> {
        if !model.is_finalized() {
            return Err(ServeError::Internal(format!("model '{name}' is not finalized")));
        }
        // Pre-warm packed mirrors (class references and item memories) so
        // concurrent first requests don't race to build them lazily.
        model.warm_up();
        let config = model.config();
        let mut info = ModelInfo {
            name: name.to_owned(),
            kind: model.kind(),
            dim: config.dim,
            classes: Model::num_classes(&model),
            width: config.width,
            height: config.height,
            generation: 0, // assigned below (first insert or reload bump)
            path,
        };
        // Waiting on a batcher swap must never happen under the
        // registry-wide lock — that would stall name resolution for every
        // model while one reload drains. Instead: resolve the entry under
        // a read lock, then serialize concurrent reloads of *this name*
        // on the entry's own mutex. The write lock is taken only for the
        // brief first-insert of a new name (re-checked in a loop in case
        // two first-loads race).
        let mut model = Some(model);
        let mut attach = Some(attach);
        loop {
            let existing = self.models.read().expect("registry lock").get(name).cloned();
            if let Some(existing) = existing {
                // Hot reload: the entry — its SharedModel, its batcher, its
                // version lineage — survives; only the model inside the swap
                // cell and the metadata change. The swap rides the batcher
                // queue, so the single writer serializes it against in-flight
                // coalesced trains: they publish either before the swap (into
                // this same live lineage) or after (training the new model),
                // never into an orphan, and no version number is ever reused.
                let _serial = existing.reload_serial.lock().expect("reload serial lock");
                info.generation = existing.info().generation + 1;
                // The swap carries the WAL disposition to the barrier point,
                // where the worker applies it race-free against appends.
                let (swap, seed) = match attach.take().expect("attach consumed once") {
                    WalAttach::Detach => (WalSwap::Detach, None),
                    WalAttach::Reset { file_version } => {
                        let home = info.path.as_deref().map(wal::wal_path).ok_or_else(|| {
                            ServeError::Internal(format!(
                                "reload of '{name}' has no source path for its log"
                            ))
                        })?;
                        (WalSwap::Reset { home, file_version }, None)
                    }
                    // A recovered first load that lost an install race:
                    // adopt the live lineage, resuming the recovered log
                    // (the worker re-bases it if the versions diverged).
                    WalAttach::Resume { wal, .. } => (WalSwap::Resume(wal), None),
                    // A follower re-bootstrap of an existing entry: swap
                    // the leader snapshot in, then seed its lineage (the
                    // replica applier is the only writer on a follower).
                    WalAttach::Seed { version, examples } => {
                        (WalSwap::Detach, Some((version, examples)))
                    }
                };
                existing
                    .batcher()
                    .swap_with_wal(model.take().expect("model consumed once"), swap)?;
                if let Some((version, examples)) = seed {
                    existing.shared.set_lineage(version, examples);
                }
                existing.set_info(info.clone());
                return Ok(info);
            }
            let mut models = self.models.write().expect("registry lock");
            if models.contains_key(name) {
                // A concurrent first load won the insert between our read
                // and write; treat ours as a reload of that entry.
                continue;
            }
            info.generation = 1;
            let shared =
                Arc::new(SharedModel::new(Arc::new(model.take().expect("model consumed once"))));
            match attach.take().expect("attach consumed once") {
                WalAttach::Detach => {}
                WalAttach::Reset { file_version } => {
                    // The entry this reload targeted vanished between the
                    // read and the write lock: a fresh lineage starts at
                    // version 0 with the reloaded file authoritative.
                    let home = info.path.as_deref().map(wal::wal_path).ok_or_else(|| {
                        ServeError::Internal(format!(
                            "reload of '{name}' has no source path for its log"
                        ))
                    })?;
                    let log = Wal::open(&home, file_version)
                        .and_then(|(mut log, _replay)| {
                            log.reset(0, file_version)?;
                            Ok(log)
                        })
                        .map_err(|e| {
                            ServeError::Internal(format!(
                                "cannot attach write-ahead log {}: {e}",
                                home.display()
                            ))
                        })?;
                    *shared.wal_lock() = Some(log);
                    shared.set_lineage(0, 0);
                }
                WalAttach::Resume { wal, version, examples } => {
                    *shared.wal_lock() = Some(*wal);
                    shared.set_lineage(version, examples);
                }
                WalAttach::Seed { version, examples } => {
                    shared.set_lineage(version, examples);
                }
            }
            let batcher =
                Batcher::start(Arc::clone(&shared), Arc::clone(&self.metrics), self.batch_config);
            self.metrics.set_predict_workers(name, batcher.predict_workers());
            let entry = Arc::new(ModelEntry {
                shared,
                batcher,
                info: RwLock::new(info.clone()),
                reload_serial: std::sync::Mutex::new(()),
            });
            models.insert(name.to_owned(), entry);
            return Ok(info);
        }
    }

    /// Registers an in-memory model of either kind (tests, load
    /// generator).
    ///
    /// # Errors
    ///
    /// Rejects unfinalized models.
    pub fn insert_model(
        &self,
        name: &str,
        model: impl Into<AnyModel>,
    ) -> Result<ModelInfo, ServeError> {
        self.install(name, model.into(), None, WalAttach::Detach)
    }

    /// Installs a model bootstrapped from a leader snapshot, seeding the
    /// lineage at the leader's exact version and example count. No local
    /// write-ahead log attaches — a follower's durability is the leader's.
    ///
    /// # Errors
    ///
    /// Rejects unfinalized models.
    pub fn install_synced(
        &self,
        name: &str,
        model: AnyModel,
        version: u64,
        trained_examples: u64,
    ) -> Result<ModelInfo, ServeError> {
        self.install(name, model, None, WalAttach::Seed { version, examples: trained_examples })
    }

    /// Loads (or hot-reloads) `name` from a model file of either kind
    /// (the `HDC1`/`HDB1` magic is sniffed). On any failure the
    /// previously registered model, if one exists, keeps serving.
    ///
    /// A **first** load is crash recovery: the file's version trailer is
    /// read, the sidecar `<file>.wal` is opened, its record tail is
    /// replayed on top of the loaded model (bit-exact against a process
    /// that never crashed), and the lineage resumes at the last durable
    /// version. A **reload** of a live name is an operator override: the
    /// file is authoritative, the log resets, and any unsaved tail is
    /// deliberately discarded.
    ///
    /// # Errors
    ///
    /// [`ServeError::Forbidden`] for paths escaping the model-dir jail;
    /// [`ServeError::BadRequest`] for unreadable, truncated or corrupt
    /// model files; [`ServeError::Internal`] when the write-ahead log
    /// cannot be opened or its records no longer apply to the snapshot.
    pub fn load(&self, name: &str, path: &Path) -> Result<ModelInfo, ServeError> {
        // Serialized registry-wide so the first-load-or-reload decision
        // below cannot race another load of the same name.
        let _serial = self.load_serial.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let admitted = self.admit_read(path)?;
        let is_reload = self.models.read().expect("registry lock").contains_key(name);
        let file = File::open(&admitted).map_err(|e| {
            ServeError::BadRequest(format!("cannot open model file {}: {e}", admitted.display()))
        })?;
        let mut reader = BufReader::new(file);
        let mut model = load_any(&mut reader).map_err(|e| {
            ServeError::BadRequest(format!("cannot load model from {}: {e}", admitted.display()))
        })?;
        let (file_version, file_examples) =
            wal::read_version_trailer(&mut reader).unwrap_or((0, 0));
        if is_reload {
            return self.install(name, model, Some(admitted), WalAttach::Reset { file_version });
        }
        // First load: recover. Open the sidecar log and replay its tail.
        let home = wal::wal_path(&admitted);
        let replay_started = std::time::Instant::now();
        let (log, replay) = Wal::open(&home, file_version).map_err(|e| {
            ServeError::Internal(format!("cannot open write-ahead log {}: {e}", home.display()))
        })?;
        let mut examples = file_examples;
        for record in &replay {
            examples += wal::apply(record, &mut model).map_err(|e| {
                ServeError::Internal(format!(
                    "write-ahead log {} does not apply to snapshot {} at record {}: {e}",
                    home.display(),
                    admitted.display(),
                    record.version
                ))
            })?;
        }
        let version = file_version.max(log.last_version());
        if !replay.is_empty() {
            self.metrics.on_wal_replay(replay.len() as u64);
            // Crash recovery is visible the same way a request is: a
            // synthetic trace in the ring (terminal "recovery") plus a
            // structured log line, so an operator can see both that a
            // replay happened and how long it took.
            let replay_us = replay_started.elapsed().as_micros() as u64;
            let record = TraceRecord::synthetic(
                trace::generate_id(),
                name.to_owned(),
                "recovery",
                replay_us,
            );
            log::info(
                "registry.wal_replay",
                "recovered model from write-ahead log",
                &[
                    ("trace", record.id.clone()),
                    ("model", name.to_owned()),
                    ("records", replay.len().to_string()),
                    ("version", version.to_string()),
                    ("replay_us", replay_us.to_string()),
                ],
            );
            self.metrics.on_trace(&record);
        }
        self.install(
            name,
            model,
            Some(admitted),
            WalAttach::Resume { wal: Box::new(log), version, examples },
        )
    }

    /// Drops `name`; in-flight requests holding the entry finish normally.
    pub fn remove(&self, name: &str) -> bool {
        self.models.write().expect("registry lock").remove(name).is_some()
    }

    /// Resolves a model by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] listing the registered names.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        let models = self.models.read().expect("registry lock");
        models.get(name).cloned().ok_or_else(|| {
            let known: Vec<&str> = models.keys().map(String::as_str).collect();
            ServeError::NotFound(format!(
                "unknown model '{name}'; registered: [{}]",
                known.join(", ")
            ))
        })
    }

    /// Every registered entry, in name order (live handles: version and
    /// model snapshot read current state; render with
    /// [`ModelEntry::render_info`] for the `/v1/models` view).
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.models.read().expect("registry lock").values().cloned().collect()
    }

    /// Persists the current counter state of `name` to `path`
    /// **atomically**: the model is serialized in its kind's format to a
    /// temporary file in the target directory and renamed over `path`, so
    /// a concurrent `/v1/reload` (or a crash mid-write) can never observe
    /// a torn model file. Returns the persisted training version.
    ///
    /// The saved file contains the trainable counters, so loading it
    /// back — here or on another instance — resumes training bit-exactly.
    ///
    /// # Errors
    ///
    /// [`ServeError::Forbidden`] for paths escaping the model-dir jail,
    /// [`ServeError::NotFound`] for an unknown model,
    /// [`ServeError::Internal`] for filesystem failures.
    pub fn snapshot(&self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let entry = self.get(name)?;
        let admitted = self.admit_write(path)?;
        // Consistent triple under one lock: the persisted counters, the
        // version trailer stamped after them, and the reported version
        // can never disagree.
        let (model, version, examples) = entry.shared.model_and_version();
        // Unique per call (pid + counter), so concurrent snapshots to the
        // same destination never interleave writes in one temp file — each
        // writes its own and the renames land whole-file atomically.
        static SNAPSHOT_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SNAPSHOT_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = admitted.with_extension(format!("tmp-{}-{seq}", std::process::id()));
        // Serialize, flush AND fsync before the rename: a buffered tail
        // lost in drop (ENOSPC on the implicit flush) must surface as an
        // error here, never as a silently truncated file renamed into
        // place. Any failure removes the temp file.
        let write_whole = || -> std::io::Result<()> {
            let file = File::create(&tmp)?;
            let mut writer = std::io::BufWriter::new(file);
            model.save(&mut writer).map_err(std::io::Error::other)?;
            // The version trailer rides after the payload (loaders never
            // read past their payload, so it is invisible to them) and
            // lets recovery resume the lineage at this exact version.
            wal::write_version_trailer(&mut writer, version, examples)?;
            let file = writer.into_inner().map_err(std::io::IntoInnerError::into_error)?;
            file.sync_all()
        };
        write_whole().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ServeError::Internal(format!(
                "cannot write snapshot of '{name}' to {}: {e}",
                tmp.display()
            ))
        })?;
        std::fs::rename(&tmp, &admitted).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ServeError::Internal(format!("cannot move snapshot into {}: {e}", admitted.display()))
        })?;
        // Crash safety needs the *directory entry* durable too: the file's
        // bytes are fsynced above, but the rename lives in the parent
        // directory's metadata — without this fsync a crash can roll the
        // rename back and leave the old (or no) snapshot at `path`.
        if let Some(parent) = admitted.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent).and_then(|d| d.sync_all()).map_err(|e| {
                ServeError::Internal(format!(
                    "cannot sync snapshot directory {}: {e}",
                    parent.display()
                ))
            })?;
        }
        // Snapshotting over the model's durable home makes every record at
        // or below `version` redundant: compact the log. The WAL mutex
        // serializes this against worker appends, so a record published
        // after our consistent read survives the rewrite. Compaction
        // failure is not a snapshot failure — the oversized log stays
        // valid and simply replays more than necessary.
        {
            let mut slot = entry.shared.wal_lock();
            if let Some(log) = slot.as_mut() {
                if log.path() == wal::wal_path(&admitted) {
                    let _ = log.compact(version);
                }
            }
        }
        // Mark clean only if nothing published while we were writing; a
        // racing publish keeps the flag set, costing at most one extra
        // autosave (never a lost one).
        if entry.shared.version() == version {
            entry.shared.mark_clean();
        }
        Ok(version)
    }

    /// Snapshots every model whose in-memory training state is newer than
    /// any snapshot of it (the drain-time flush). Each dirty model is
    /// written crash-safely to `<name>.autosave.hdc` — inside the model
    /// dir when one is configured, else next to the model's source file,
    /// else (purely in-memory model without a jail) it is skipped.
    /// Returns how many models were flushed; failures skip that model and
    /// keep draining the rest.
    pub fn flush_dirty(&self) -> usize {
        let mut flushed = 0;
        for entry in self.entries() {
            if !entry.shared.is_dirty() {
                continue;
            }
            let info = entry.info();
            let autosave = format!("{}.autosave.hdc", info.name);
            let target = if self.model_dir.is_some() {
                Some(PathBuf::from(autosave))
            } else {
                info.path.as_ref().map(|p| p.with_file_name(autosave))
            };
            let Some(target) = target else { continue };
            if self.snapshot(&info.name, &target).is_ok() {
                flushed += 1;
            }
        }
        flushed
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock").len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use hdc::io::save_pixel_classifier;
    use hdc::memory::ValueEncoding;
    use hdc::prelude::*;

    fn trained(seed: u64) -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 512,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed,
        })
        .unwrap();
        let mut model = HdcClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[224u8; 16][..], 1).unwrap();
        model.finalize();
        model
    }

    fn trained_binary(seed: u64) -> BinaryClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 512,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed,
        })
        .unwrap();
        let mut model = BinaryClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[224u8; 16][..], 1).unwrap();
        model.finalize();
        model
    }

    fn registry() -> Registry {
        Registry::new(Arc::new(Metrics::new()), BatchConfig::default())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-serve-reg-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn insert_get_list() {
        let r = registry();
        assert!(r.is_empty());
        let info = r.insert_model("default", trained(5)).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.dim, 512);
        assert_eq!(info.kind, ModelKind::Dense);
        assert_eq!((info.width, info.height, info.classes), (4, 4, 2));
        let entry = r.get("default").unwrap();
        assert_eq!(entry.info().name, "default");
        assert_eq!(r.entries().len(), 1);
        assert!(matches!(r.get("nope"), Err(ServeError::NotFound(_))));
    }

    #[test]
    fn binary_models_register_and_serve() {
        let r = registry();
        let info = r.insert_model("bin", trained_binary(5)).unwrap();
        assert_eq!(info.kind, ModelKind::Binary);
        let entry = r.get("bin").unwrap();
        let rendered = entry.render_info().render();
        assert!(rendered.contains("\"kind\":\"binary\""), "{rendered}");
        // Predict + train flow through the identical machinery.
        let prediction = entry.batcher().predict(vec![224u8; 16], Trace::off()).unwrap();
        assert_eq!(prediction.class, 1);
        let outcome = entry.batcher().train(vec![(vec![224u8; 16], 1)], Trace::off()).unwrap();
        assert_eq!((outcome.applied, outcome.version), (1, 1));
    }

    #[test]
    fn unfinalized_model_rejected() {
        let r = registry();
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 256,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 1,
        })
        .unwrap();
        let model = HdcClassifier::new(encoder, 2);
        assert!(r.insert_model("raw", model).is_err());
    }

    #[test]
    fn file_load_and_hot_reload() {
        let dir = temp_dir("reload");
        let path = dir.join("m.hdc");

        let model = trained(5);
        save_pixel_classifier(&model, std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let r = registry();
        let info = r.load("default", &path).unwrap();
        assert_eq!(info.generation, 1);
        let first = r.get("default").unwrap();

        // Hot reload bumps the generation; handles resolved before keep
        // working (same entry — reloads swap the model inside it).
        let info2 = r.load("default", &path).unwrap();
        assert_eq!(info2.generation, 2);
        assert_eq!(r.get("default").unwrap().info().generation, 2);
        assert!(first.model().predict(&[0u8; 16][..]).is_ok());
        assert!(first.batcher().predict(vec![0u8; 16], Trace::off()).is_ok());

        // A failed reload leaves the current model serving.
        std::fs::write(&path, b"HDC1 garbage").unwrap();
        assert!(matches!(r.load("default", &path), Err(ServeError::BadRequest(_))));
        assert_eq!(r.get("default").unwrap().info().generation, 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_can_change_the_model_kind() {
        let dir = temp_dir("kindswap");
        let dense_path = dir.join("dense.hdc");
        let binary_path = dir.join("binary.hdc");
        save_pixel_classifier(
            &trained(5),
            std::io::BufWriter::new(File::create(&dense_path).unwrap()),
        )
        .unwrap();
        hdc::io::save_binary_classifier(
            &trained_binary(5),
            std::io::BufWriter::new(File::create(&binary_path).unwrap()),
        )
        .unwrap();

        let r = registry();
        assert_eq!(r.load("m", &dense_path).unwrap().kind, ModelKind::Dense);
        let entry = r.get("m").unwrap();
        assert_eq!(r.load("m", &binary_path).unwrap().kind, ModelKind::Binary);
        // Same entry, new kind, still serving.
        assert_eq!(entry.info().kind, ModelKind::Binary);
        assert_eq!(entry.batcher().predict(vec![224u8; 16], Trace::off()).unwrap().class, 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_preserves_version_lineage_and_never_reuses_versions() {
        let dir = temp_dir("lineage");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let r = registry();
        r.load("default", &path).unwrap();
        let entry = r.get("default").unwrap();
        assert_eq!(
            entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap().version,
            1
        );
        r.load("default", &path).unwrap();
        // The lineage continues across the reload: next publish is 2.
        assert_eq!(entry.version(), 1);
        assert_eq!(
            entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap().version,
            2
        );
        assert_eq!(entry.shared().trained_examples(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_trains_and_reloads_never_lose_or_duplicate_versions() {
        // The PR-4 race this module closed: a train resolving the entry
        // just before a reload must not publish into an orphaned lineage
        // (losing its examples from the visible counters) or report a
        // version the new lineage hands out again. With swaps serialized
        // through the single-writer batcher, every published batch lands
        // in the one live lineage: examples are never lost and the final
        // version equals the number of published batches.
        let dir = temp_dir("race");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let r = registry();
        r.load("default", &path).unwrap();

        const THREADS: usize = 4;
        const TRAINS: usize = 25;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let r = &r;
                scope.spawn(move || {
                    let mut last = 0u64;
                    for i in 0..TRAINS {
                        let entry = r.get("default").unwrap();
                        let fill = ((t * 31 + i * 7) % 200) as u8;
                        let outcome =
                            entry.batcher().train(vec![(vec![fill; 16], 0)], Trace::off()).unwrap();
                        assert!(
                            outcome.version > last,
                            "train versions must be strictly increasing per client: \
                             {} after {last}",
                            outcome.version
                        );
                        last = outcome.version;
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..10 {
                    r.load("default", &path).unwrap();
                    std::thread::yield_now();
                }
            });
        });

        let entry = r.get("default").unwrap();
        assert_eq!(
            entry.shared().trained_examples(),
            (THREADS * TRAINS) as u64,
            "a train published into an orphaned lineage"
        );
        let batches = r.metrics().train_batches();
        assert_eq!(
            entry.version(),
            batches,
            "version must equal the number of published batches (no reuse, no loss)"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_dir_jails_reload_and_snapshot() {
        let jail = temp_dir("jail");
        let outside = temp_dir("outside");
        let inside_path = jail.join("m.hdc");
        let outside_path = outside.join("m.hdc");
        for p in [&inside_path, &outside_path] {
            save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(p).unwrap()))
                .unwrap();
        }

        let r = Registry::new(Arc::new(Metrics::new()), BatchConfig::default())
            .with_model_dir(&jail)
            .unwrap();
        assert!(r.model_dir().is_some());

        // Inside the jail: absolute and relative forms both admitted.
        r.load("default", &inside_path).unwrap();
        r.load("default", Path::new("m.hdc")).unwrap();
        assert_eq!(r.snapshot("default", Path::new("snap.hdc")).unwrap(), 0);
        assert!(jail.join("snap.hdc").exists());

        // Escapes: absolute outside, dot-dot traversal, symlink.
        let err = r.load("default", &outside_path).unwrap_err();
        assert!(matches!(err, ServeError::Forbidden(_)), "{err}");
        assert_eq!(err.status(), 403);
        let err = r.load("evil", Path::new("../m.hdc")).unwrap_err();
        assert_eq!(err.status(), 403);
        let err = r.snapshot("default", &outside_path).unwrap_err();
        assert_eq!(err.status(), 403);
        let err = r.snapshot("default", Path::new("../snap.hdc")).unwrap_err();
        assert_eq!(err.status(), 403);
        #[cfg(unix)]
        {
            let link = jail.join("link.hdc");
            std::os::unix::fs::symlink(&outside_path, &link).unwrap();
            let err = r.load("evil", Path::new("link.hdc")).unwrap_err();
            assert_eq!(err.status(), 403, "symlink escape must be refused");
        }
        // The escape attempts must not have disturbed the serving model.
        assert_eq!(r.get("default").unwrap().info().generation, 2);
        assert!(r.get("evil").is_err());

        // A missing jail directory is rejected up front.
        assert!(Registry::new(Arc::new(Metrics::new()), BatchConfig::default())
            .with_model_dir(Path::new("/nonexistent-jail"))
            .is_err());

        std::fs::remove_dir_all(&jail).ok();
        std::fs::remove_dir_all(&outside).ok();
    }

    #[test]
    fn publishes_share_the_encoder_across_versions() {
        // The Arc-encoder publish-path invariant: however many training
        // batches publish, every version's model points at the same
        // encoder allocation — clones copy counters, never item memories.
        let r = registry();
        r.insert_model("default", trained(5)).unwrap();
        let entry = r.get("default").unwrap();
        let v0 = entry.model();
        for _ in 0..3 {
            entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();
        }
        let v3 = entry.model();
        assert_eq!(entry.version(), 3);
        assert!(!Arc::ptr_eq(&v0, &v3), "training must have published a new model");
        assert!(
            Arc::ptr_eq(v0.encoder_arc(), v3.encoder_arc()),
            "published clones must share the encoder allocation"
        );

        // Same invariant for the binary kind.
        r.insert_model("bin", trained_binary(6)).unwrap();
        let entry = r.get("bin").unwrap();
        let b0 = entry.model();
        entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();
        let b1 = entry.model();
        assert!(!Arc::ptr_eq(&b0, &b1));
        assert!(Arc::ptr_eq(b0.encoder_arc(), b1.encoder_arc()));
    }

    #[test]
    fn missing_file_is_bad_request() {
        let r = registry();
        let err = r.load("x", Path::new("/nonexistent/model.hdc")).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn generations_are_per_name() {
        let r = registry();
        assert_eq!(r.insert_model("a", trained(5)).unwrap().generation, 1);
        assert_eq!(r.insert_model("b", trained(6)).unwrap().generation, 1);
        assert_eq!(r.insert_model("a", trained(7)).unwrap().generation, 2);
        assert_eq!(r.get("b").unwrap().info().generation, 1);
        // Removing and re-adding restarts the lineage.
        r.remove("a");
        assert_eq!(r.insert_model("a", trained(8)).unwrap().generation, 1);
    }

    #[test]
    fn remove_unregisters() {
        let r = registry();
        r.insert_model("a", trained(5)).unwrap();
        assert!(r.remove("a"));
        assert!(!r.remove("a"));
        assert!(r.get("a").is_err());
    }

    #[test]
    fn flush_dirty_snapshots_only_trained_models() {
        let dir = temp_dir("flush");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let r = Registry::new(Arc::new(Metrics::new()), BatchConfig::default())
            .with_model_dir(&dir)
            .unwrap();
        r.load("default", Path::new("m.hdc")).unwrap();
        r.insert_model("untouched", trained(6)).unwrap();

        // Nothing trained yet: nothing to flush.
        assert_eq!(r.flush_dirty(), 0);

        // Train one model; only it flushes, to <name>.autosave.hdc in the
        // jail, and the autosave is a loadable model.
        r.get("default")
            .unwrap()
            .batcher()
            .train(vec![(vec![128u8; 16], 0)], Trace::off())
            .unwrap();
        assert!(r.get("default").unwrap().shared().is_dirty());
        assert_eq!(r.flush_dirty(), 1);
        let autosave = dir.join("default.autosave.hdc");
        assert!(autosave.exists());
        assert!(hdc::io::load_any(BufReader::new(File::open(&autosave).unwrap())).is_ok());

        // The flush marked it clean: flushing again is a no-op until the
        // next publish.
        assert!(!r.get("default").unwrap().shared().is_dirty());
        assert_eq!(r.flush_dirty(), 0);
        r.get("default")
            .unwrap()
            .batcher()
            .train(vec![(vec![128u8; 16], 0)], Trace::off())
            .unwrap();
        assert_eq!(r.flush_dirty(), 1);

        // A reload discards unsaved progress deliberately: clean again.
        r.get("default")
            .unwrap()
            .batcher()
            .train(vec![(vec![128u8; 16], 0)], Trace::off())
            .unwrap();
        r.load("default", Path::new("m.hdc")).unwrap();
        assert_eq!(r.flush_dirty(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts two registries' models carry bit-identical per-class
    /// counters (the dense kind used by these tests).
    fn assert_counters_equal(a: &ModelEntry, b: &ModelEntry) {
        let (a, b) = (a.model(), b.model());
        let (a, b) = (a.as_dense().unwrap(), b.as_dense().unwrap());
        for c in 0..2 {
            assert_eq!(
                a.associative_memory().accumulator(c).unwrap(),
                b.associative_memory().accumulator(c).unwrap(),
                "class {c} counters diverged"
            );
        }
    }

    #[test]
    fn acked_updates_survive_a_crash_bit_exactly() {
        let dir = temp_dir("wal-recover");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        // The "uncrashed control": loads, trains, never snapshots.
        let live = registry();
        live.load("default", &path).unwrap();
        let entry = live.get("default").unwrap();
        for i in 0..5u8 {
            entry
                .batcher()
                .train(vec![(vec![i * 40; 16], usize::from(i % 2))], Trace::off())
                .unwrap();
        }
        // An applied feedback (mispredicted light image) rides the log too.
        let fb = entry.batcher().feedback(vec![224u8; 16], 0, Trace::off()).unwrap();
        assert!(fb.updated);
        assert_eq!(entry.version(), 6);
        assert!(wal::wal_path(&path).exists(), "appends must create the sidecar log");

        // "Crash": nothing was snapshotted since load. A fresh process —
        // a fresh registry — loading the same path replays the log tail
        // and must land bit-exactly on the control's state.
        let recovered = registry();
        recovered.load("default", &path).unwrap();
        let r = recovered.get("default").unwrap();
        assert_eq!(r.version(), 6, "lineage must resume at the last durable version");
        assert_eq!(r.shared().trained_examples(), entry.shared().trained_examples());
        assert_counters_equal(&entry, &r);
        assert_eq!(recovered.metrics().wal_records_replayed(), 6);
        // Recovery leaves a synthetic trace: a ring entry an operator
        // (and the soak harness) can find via /debug/traces.
        let traces = recovered.metrics().traces().snapshot();
        let recovery = traces.iter().find(|t| t.terminal == "recovery");
        assert_eq!(recovery.map(|t| t.model.as_str()), Some("default"));

        // Recovery is repeatable (the log is not consumed by replay).
        let again = registry();
        again.load("default", &path).unwrap();
        assert_eq!(again.get("default").unwrap().version(), 6);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_compacts_the_log_so_recovery_replays_only_the_tail() {
        let dir = temp_dir("wal-compact");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let live = registry();
        live.load("default", &path).unwrap();
        let entry = live.get("default").unwrap();
        for _ in 0..3 {
            entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();
        }
        // Snapshot over the durable home: the log compacts at version 3.
        assert_eq!(live.snapshot("default", &path).unwrap(), 3);
        // Two more updates land in the compacted log.
        for _ in 0..2 {
            entry.batcher().train(vec![(vec![40u8; 16], 1)], Trace::off()).unwrap();
        }

        let recovered = registry();
        recovered.load("default", &path).unwrap();
        let r = recovered.get("default").unwrap();
        assert_eq!(r.version(), 5);
        assert_eq!(
            recovered.metrics().wal_records_replayed(),
            2,
            "records at or below the snapshot version must not replay"
        );
        assert_counters_equal(&entry, &r);

        // Continue training after recovery: the lineages stay in lockstep.
        entry.batcher().train(vec![(vec![77u8; 16], 0)], Trace::off()).unwrap();
        r.batcher().train(vec![(vec![77u8; 16], 0)], Trace::off()).unwrap();
        assert_eq!(r.version(), entry.version());
        assert_counters_equal(&entry, &r);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_resets_the_log_and_discards_the_unsaved_tail() {
        let dir = temp_dir("wal-reload");
        let path = dir.join("m.hdc");
        save_pixel_classifier(&trained(5), std::io::BufWriter::new(File::create(&path).unwrap()))
            .unwrap();

        let live = registry();
        live.load("default", &path).unwrap();
        let entry = live.get("default").unwrap();
        entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();
        // Operator reload: the file is authoritative, the logged tail is
        // deliberately discarded (the lineage itself continues at 1).
        live.load("default", &path).unwrap();
        assert_eq!(entry.version(), 1);
        entry.batcher().train(vec![(vec![60u8; 16], 1)], Trace::off()).unwrap();

        // Recovery sees only the post-reload record: the discarded tail
        // must not resurrect.
        let recovered = registry();
        recovered.load("default", &path).unwrap();
        let r = recovered.get("default").unwrap();
        assert_eq!(recovered.metrics().wal_records_replayed(), 1);
        assert_eq!(r.version(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_reload_flapping_under_traffic_never_drops_the_serving_model() {
        // The mid-flight corruption drill, concurrent with live traffic:
        // while predict and train threads hammer the entry, the model file
        // flaps between truncated garbage and a valid model, with a reload
        // attempted after every flip. Corrupt loads must fail cleanly
        // (400), valid ones must land, and at no instant may a request
        // observe a missing or torn model.
        let dir = temp_dir("corrupt-flap");
        let path = dir.join("m.hdc");
        let good = {
            save_pixel_classifier(
                &trained(5),
                std::io::BufWriter::new(File::create(&path).unwrap()),
            )
            .unwrap();
            std::fs::read(&path).unwrap()
        };

        let r = registry();
        r.load("default", &path).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let entry = r.get("default").expect("entry must never vanish");
                        entry
                            .batcher()
                            .predict(vec![224u8; 16], Trace::off())
                            .expect("model must keep serving");
                    }
                });
            }
            scope.spawn(|| {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let entry = r.get("default").unwrap();
                    let v = entry
                        .batcher()
                        .train(vec![(vec![128u8; 16], 0)], Trace::off())
                        .unwrap()
                        .version;
                    assert!(v > last, "lineage must stay monotonic across reload flaps");
                    last = v;
                }
            });

            let mut successful_reloads = 0u64;
            for round in 0..20 {
                // Corrupt: truncate to a prefix (magic intact, body torn).
                std::fs::write(&path, &good[..good.len().min(64 + round)]).unwrap();
                let err = r.load("default", &path).unwrap_err();
                assert_eq!(err.status(), 400, "corrupt reload must 400, got {err}");
                // Restore and reload for real.
                std::fs::write(&path, &good).unwrap();
                r.load("default", &path).unwrap();
                successful_reloads += 1;
            }
            stop.store(true, Ordering::Relaxed);
            assert_eq!(r.get("default").unwrap().info().generation, 1 + successful_reloads);
        });

        // Still serving after the drill.
        assert!(r.get("default").unwrap().batcher().predict(vec![0u8; 16], Trace::off()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
