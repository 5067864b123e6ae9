//! Request coalescing: many concurrent single requests → one batch call.
//!
//! Queries arrive one per HTTP request, but the compute layer is fastest
//! when it sees them in batches (`predict_batch` reuses encode scratch
//! across a batch and fans out across cores; one `partial_fit_batch`
//! re-finalizes each dirty class once however many examples it carries).
//! The batcher bridges the two: handler threads enqueue jobs — predicts,
//! training batches, feedback rounds — and block on their reply; a
//! dedicated worker per model drains the queue into batches of up to
//! `max_batch` jobs, waiting at most `max_linger` for stragglers after
//! the first job arrives. Under load the linger never binds — while the
//! worker executes one batch the next one queues up behind it — so
//! throughput rides the batch path. The worker lingers only when its
//! previous drain took more than one job, so a lone closed-loop client,
//! whose every drain holds one job, never waits for a batch-mate.
//!
//! The model is an [`hdc::AnyModel`]: every job executes through the
//! polymorphic [`Model`] surface, so a binarized classifier coalesces,
//! trains and publishes through the byte-for-byte same code path as the
//! dense one.
//!
//! ## Online training through the coalescer
//!
//! The worker is the **single writer** for its model: training jobs in a
//! drained batch have their examples concatenated into one
//! [`Model::partial_fit_batch`] call on a private clone of the current
//! snapshot, feedback jobs run their adaptive updates on the same clone,
//! and the result is published atomically (swap + one version bump) via
//! `SharedModel::publish`. Cloning is cheap by construction: both
//! classifier kinds hold their encoder behind an `Arc`, and the dense
//! classifier's classes are copy-on-write, so its clone copies pointers
//! and a train copies only the classes it touches. Predict jobs in the
//! same drain run against the pre-update snapshot; requests that were
//! concurrent have no ordering guarantee anyway. A failed coalesced train
//! falls back to per-job `partial_fit_batch` calls (each atomic), so one
//! request's bad example 400s only itself.
//!
//! ## Reload swaps ride the queue
//!
//! A hot reload enqueues the replacement model as a [`swap`](Batcher::swap)
//! job. The worker executes jobs in queue order — flushing the jobs
//! drained before the swap, then replacing the model — so reloads
//! serialize against in-flight coalesced trains instead of racing them
//! (see the registry module docs for the lineage guarantees this buys).
//!
//! ## Overload hardening
//!
//! The queue is **bounded** ([`BatchConfig::max_queue`]): an enqueue that
//! finds it full is shed with a fast 503 + `Retry-After` instead of
//! growing memory and latency without limit. Every queued job carries its
//! enqueue instant; a job drained after waiting past
//! [`BatchConfig::queue_deadline`] is answered 504 rather than executed
//! late. Batch execution runs under `catch_unwind`: a panicking model —
//! exercisable deliberately via the test-only [`inject_panic_fill`] hook —
//! quarantines only the offending job (500, counted in
//! `worker_panics_total`) while updates stay transactional on private
//! clones, the published lineage stays monotonic, and the worker itself
//! respawns if a panic ever escapes the per-batch isolation. Sheds,
//! expiries, panics and observed queue depths all land in [`Metrics`].
//!
//! ## Worked example
//!
//! ```
//! use hdc_serve::batcher::{BatchConfig, Batcher};
//! use hdc_serve::metrics::Metrics;
//! use hdc_serve::registry::SharedModel;
//! use hdc_serve::loadgen::synthetic_model;
//! use hdc_serve::trace::Trace;
//! use std::sync::Arc;
//!
//! let shared = Arc::new(SharedModel::standalone(synthetic_model(1_024, 4)));
//! let batcher = Batcher::start(Arc::clone(&shared), Arc::new(Metrics::new()),
//!                              BatchConfig::default());
//! let before = batcher.predict(vec![0u8; 16], Trace::off())?.class;
//! let outcome = batcher.train(vec![(vec![0u8; 16], 1)], Trace::off())?; // one online example
//! assert_eq!((outcome.applied, outcome.version), (1, 1));
//! let _after = batcher.predict(vec![0u8; 16], Trace::off())?; // served by the updated snapshot
//! # let _ = before;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::registry::SharedModel;
use crate::trace::{Stage, Trace};
use crate::wal::{self, DeltaOp, DeltaRecord, Wal};
use hdc::{AnyModel, Model, Prediction};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Coalescing and overload parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest batch handed to one `predict_batch` call.
    pub max_batch: usize,
    /// The most the worker waits for more jobs after the first one of a
    /// batch arrives. It waits only when its previous drain took more
    /// than one job (a fresh worker starts out waiting), and stops early
    /// once an eighth of this passes with no arrival. Zero disables
    /// coalescing waits entirely.
    pub max_linger: Duration,
    /// Most jobs allowed to wait in the queue; an enqueue that finds the
    /// queue full is **shed** with a fast 503 + `Retry-After` instead of
    /// growing the queue unboundedly. Zero sheds every client job
    /// (maintenance mode). Swap jobs (hot reloads) are exempt — they are
    /// operator actions whose loss would break the reload contract.
    pub max_queue: usize,
    /// How long a job may wait in the queue before the worker answers it
    /// 504 instead of executing it late (a request that already waited
    /// past its caller's patience must not consume model time). Zero
    /// disables the deadline. Swap jobs are exempt.
    pub queue_deadline: Duration,
    /// Predict executor threads per model. Drained predict batches are
    /// split into contiguous shards across this pool, each shard
    /// predicting against the same snapshotted model; train/feedback/
    /// swap/publish stay on the single batcher worker. `0` or `1` keeps
    /// predicts on the batcher thread (no pool). Defaults to the
    /// process's [`hdc::batch::resolved_parallelism`]. Results are
    /// bit-identical at any worker count.
    pub predict_workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_linger: Duration::from_millis(1),
            max_queue: 1_024,
            queue_deadline: Duration::from_secs(5),
            predict_workers: hdc::batch::resolved_parallelism(),
        }
    }
}

impl BatchConfig {
    /// The degenerate configuration: every request runs alone. The
    /// load generator uses this as the baseline to measure coalescing
    /// against.
    pub fn batch_size_1() -> Self {
        Self { max_batch: 1, max_linger: Duration::ZERO, ..Self::default() }
    }
}

/// The test-only fault-injection hook: when set to `Some(fill)`, any
/// predict/train/feedback input consisting entirely of `fill` bytes makes
/// the model execution **panic deliberately**, exercising the panic
/// isolation machinery (quarantine + `worker_panics_total` + respawn)
/// end-to-end. Encoded as a process-global so the soak harness and tests
/// can arm it without plumbing through every constructor; `u32::MAX`
/// means disarmed.
static PANIC_FILL: AtomicU32 = AtomicU32::new(u32::MAX);

/// Arms (or with `None` disarms) the injected-panic input marker.
/// **Test/soak use only** — never arm this in a production process.
pub fn inject_panic_fill(fill: Option<u8>) {
    PANIC_FILL.store(fill.map_or(u32::MAX, u32::from), Ordering::Release);
}

/// Serializes users of the process-global [`inject_panic_fill`] hook
/// (the soak harness and the batcher's own tests): whoever holds the
/// guard owns the hook end to end, so one arm/disarm window can never
/// race another in the same process.
pub(crate) fn panic_injection_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panics iff the hook is armed and `input` is entirely the marker fill.
fn maybe_inject_panic(input: &[u8]) {
    let armed = PANIC_FILL.load(Ordering::Acquire);
    if let Ok(fill) = u8::try_from(armed) {
        if !input.is_empty() && input.iter().all(|&b| b == fill) {
            panic!("injected model panic (input filled with {fill})");
        }
    }
}

/// Locks a queue mutex tolerating poison: the queue state (a `VecDeque`
/// plus a stop flag) is valid after any panic — jobs are popped/pushed
/// whole — so the accept path must keep working even if a worker panicked
/// while holding the lock. This is what keeps one model's panic from
/// cascading into every connection thread.
fn lock_queue(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reply to one coalesced training request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainOutcome {
    /// Examples from this request absorbed into the model.
    pub applied: usize,
    /// Model training version after the batch this request rode in.
    pub version: u64,
}

/// The reply to one online feedback request.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackOutcome {
    /// Whether an adaptive update was applied (the model mispredicted).
    pub updated: bool,
    /// What the model predicted before any update.
    pub prediction: Prediction,
    /// Model training version after this feedback round.
    pub version: u64,
}

/// The per-job reply channel: each enqueued request blocks on its own
/// receiver, so one worker can fan replies back out to many handlers.
type Reply<T> = mpsc::Sender<Result<T, ServeError>>;

/// One queued request awaiting execution. Client jobs carry the
/// request's [`Trace`] so the worker can stamp queue-wait/execute/WAL/
/// publish spans and fault terminals onto the trace the HTTP layer will
/// finalize.
enum Job {
    Predict {
        input: Vec<u8>,
        reply: Reply<Prediction>,
        trace: Trace,
    },
    Train {
        examples: Vec<(Vec<u8>, usize)>,
        reply: Reply<TrainOutcome>,
        trace: Trace,
    },
    Feedback {
        input: Vec<u8>,
        label: usize,
        reply: Reply<FeedbackOutcome>,
        trace: Trace,
    },
    /// A hot-reload replacement model (boxed: it dwarfs the other
    /// variants). Executed in queue order by the single writer, which is
    /// what serializes reloads against in-flight training. Carries the
    /// write-ahead-log disposition to the same barrier point, so the log
    /// can never be reset or detached while an append is mid-flight.
    Swap {
        model: Box<AnyModel>,
        wal: WalSwap,
        reply: Reply<u64>,
    },
}

/// What happens to a model's write-ahead log at a swap barrier. The
/// worker — the only appender — applies this atomically with the model
/// replacement, so appends and re-bases can never interleave.
#[derive(Debug)]
pub(crate) enum WalSwap {
    /// Drop any attached log: an in-memory install made memory
    /// authoritative, and recovery from disk is no longer meaningful.
    Detach,
    /// Operator reload: attach (or re-base) the log at `home`, reset on
    /// a model file whose version trailer reads `file_version` — the
    /// file is authoritative and any unsaved tail is discarded.
    Reset { home: PathBuf, file_version: u64 },
    /// A recovered first load that lost an install race: attach the
    /// already-replayed log as-is, re-based by the worker if the live
    /// lineage diverged from it.
    Resume(Box<Wal>),
}

impl Job {
    /// The request trace riding this job (swaps are operator actions and
    /// ride an off trace).
    fn trace(&self) -> &Trace {
        static UNTRACED: Trace = Trace::off();
        match self {
            Job::Predict { trace, .. } | Job::Train { trace, .. } | Job::Feedback { trace, .. } => {
                trace
            }
            Job::Swap { .. } => &UNTRACED,
        }
    }

    /// Replies with `err`, whatever the job type.
    fn reject(self, err: ServeError) {
        match self {
            Job::Predict { reply, .. } => drop(reply.send(Err(err))),
            Job::Train { reply, .. } => drop(reply.send(Err(err))),
            Job::Feedback { reply, .. } => drop(reply.send(Err(err))),
            Job::Swap { reply, .. } => drop(reply.send(Err(err))),
        }
    }

    /// Replies with a shutdown error, whatever the job type.
    fn reject_shutdown(self) {
        self.reject(ServeError::Internal("model is shutting down".into()));
    }
}

/// A job plus the instant it entered the queue, so the worker can refuse
/// to execute work that already waited past its deadline.
struct Queued {
    job: Job,
    enqueued_at: Instant,
}

struct Queue {
    jobs: VecDeque<Queued>,
    stop: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals the worker on job arrival and handlers never (replies use
    /// per-job channels).
    arrived: Condvar,
}

/// A shard of work for one predict executor. Tasks own everything they
/// touch (jobs, a model snapshot `Arc`, a metrics `Arc`), so the pool
/// never borrows from a caller's stack.
type PoolTask = Box<dyn FnOnce() + Send>;

/// One predict executor: a dedicated inbox plus the thread draining it.
struct Executor {
    /// `None` only during shutdown (the sender is dropped to stop the
    /// thread before joining it).
    tx: Option<mpsc::Sender<PoolTask>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The per-model predict executor pool.
///
/// The batcher worker stays the model's **single writer** — train,
/// feedback, swap, and publish never touch this pool — but drained
/// predict batches are split into contiguous shards, one per executor,
/// each predicting against the same snapshotted `Arc<AnyModel>` and
/// replying to its own jobs in shard order. Explicit client batches
/// (`predict_batch_direct`) share the pool from connection threads; the
/// round-robin cursor spreads concurrent fan-outs across executors.
struct PredictPool {
    executors: Vec<Executor>,
    next: AtomicUsize,
}

impl PredictPool {
    fn start(workers: usize) -> Self {
        let executors = (0..workers)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<PoolTask>();
                let thread = std::thread::Builder::new()
                    .name(format!("hdc-serve-predict-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            // Tasks quarantine their own panics per job and
                            // signal completion on drop; this outer catch is
                            // the respawn net that keeps a stray panic
                            // confined to the one affected executor — its
                            // siblings and the batcher worker never notice.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawn predict executor");
                Executor { tx: Some(tx), thread: Some(thread) }
            })
            .collect();
        Self { executors, next: AtomicUsize::new(0) }
    }

    fn workers(&self) -> usize {
        self.executors.len()
    }

    /// Hands `task` to the next executor round-robin. If that executor is
    /// already gone (shutdown race) the task runs on the caller's thread —
    /// completion is owed either way.
    fn dispatch(&self, task: PoolTask) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.executors.len();
        let sent = match &self.executors[slot].tx {
            Some(tx) => tx.send(task).map_err(|mpsc::SendError(task)| task),
            None => Err(task),
        };
        if let Err(task) = sent {
            task();
        }
    }
}

impl Drop for PredictPool {
    fn drop(&mut self) {
        for executor in &mut self.executors {
            executor.tx = None; // close the inbox: the thread drains and exits
        }
        for executor in &mut self.executors {
            if let Some(thread) = executor.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Fires the fan-in signal even if a shard task unwinds mid-flight: the
/// dispatcher counts completions, so a lost signal would hang the drain
/// loop.
struct SignalOnDrop(mpsc::Sender<()>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// A per-model coalescing queue plus its worker thread.
///
/// Dropping the batcher stops the worker; jobs still queued get an
/// internal-error reply rather than a hang.
pub struct Batcher {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    model: Arc<SharedModel>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// The predict executor pool; `None` when `predict_workers <= 1`
    /// (predicts stay on the worker thread). Shared with the worker, so
    /// it outlives in-flight shards and joins after the worker exits.
    pool: Option<Arc<PredictPool>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Poison-tolerant: a panicked worker must not take the accept path
        // (which Debug-logs batchers) down with it.
        write!(f, "Batcher(pending={})", lock_queue(&self.shared.queue).jobs.len())
    }
}

impl Batcher {
    /// Spawns the worker thread for `model`. The model must be finalized;
    /// executed batch sizes are recorded into `metrics`.
    ///
    /// The worker runs inside a respawn loop: a panic that escapes batch
    /// execution (each batch is already `catch_unwind`-isolated) restarts
    /// the drain loop instead of leaving the model permanently dead, and
    /// bumps `worker_respawns_total`.
    pub fn start(model: Arc<SharedModel>, metrics: Arc<Metrics>, config: BatchConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), stop: false }),
            arrived: Condvar::new(),
        });
        let pool = (config.predict_workers > 1)
            .then(|| Arc::new(PredictPool::start(config.predict_workers)));
        let worker_shared = Arc::clone(&shared);
        let worker_metrics = Arc::clone(&metrics);
        let worker_model = Arc::clone(&model);
        let worker_pool = pool.clone();
        let worker = std::thread::Builder::new()
            .name("hdc-serve-batcher".into())
            .spawn(move || loop {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(
                        &worker_shared,
                        &worker_model,
                        &worker_metrics,
                        config,
                        worker_pool.as_ref(),
                    );
                }));
                match run {
                    Ok(()) => break, // clean stop
                    Err(_) => worker_metrics.on_worker_respawn(),
                }
            })
            .expect("spawn batcher worker");
        Self { shared, metrics, config, model, worker: Some(worker), pool }
    }

    /// Configured predict-pool executor count (1 = no pool, predicts run
    /// on the batcher worker).
    pub fn predict_workers(&self) -> usize {
        self.config.predict_workers.max(1)
    }

    fn enqueue<T>(
        &self,
        job: Job,
        receive: &mpsc::Receiver<Result<T, ServeError>>,
    ) -> Result<T, ServeError> {
        // Swap jobs (hot reloads) are operator actions, not client load:
        // they bypass the queue bound so a reload always lands even when
        // traffic is being shed.
        let sheddable = !matches!(job, Job::Swap { .. });
        {
            let mut queue = lock_queue(&self.shared.queue);
            if queue.stop {
                return Err(ServeError::Internal("model is shutting down".into()));
            }
            if sheddable && queue.jobs.len() >= self.config.max_queue {
                self.metrics.on_shed();
                job.trace().set_terminal("shed");
                return Err(ServeError::Overloaded(format!(
                    "queue full ({} jobs waiting); retry later",
                    queue.jobs.len()
                )));
            }
            self.metrics.on_enqueue_depth(queue.jobs.len());
            queue.jobs.push_back(Queued { job, enqueued_at: Instant::now() });
        }
        self.shared.arrived.notify_one();
        receive
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Internal("batch worker dropped reply".into())))
    }

    /// Enqueues one input and blocks until its prediction (or error) is
    /// ready. Safe to call from any number of threads. The worker stamps
    /// queue-wait and execute spans onto `trace`, and fault paths (shed,
    /// queue deadline, panic) mark its terminal stage.
    ///
    /// # Errors
    ///
    /// Propagates per-input compute errors (wrong shape → 400); returns
    /// [`ServeError::Internal`] if the batcher is shutting down.
    pub fn predict(&self, input: Vec<u8>, trace: Trace) -> Result<Prediction, ServeError> {
        let (reply, receive) = mpsc::channel();
        self.enqueue(Job::Predict { input, reply, trace }, &receive)
    }

    /// Runs one explicit (client-provided) batch against the current
    /// model snapshot, sharded across the predict pool when one is
    /// running. Skips the coalescing queue — and the batch histogram,
    /// which must reflect only what the coalescer executed — but records
    /// pool occupancy, shard sizes, and the request's `shard_execute`
    /// span. Results are identical to [`hdc::Model::predict_batch`]:
    /// input order is preserved and the lowest-index failure wins.
    ///
    /// # Errors
    ///
    /// The lowest-index input's compute error, or
    /// [`ServeError::Panicked`] if the model panicked on a shard.
    pub fn predict_batch_direct(
        &self,
        inputs: Vec<Vec<u8>>,
        trace: &Trace,
    ) -> Result<Vec<Prediction>, ServeError> {
        let model = self.model.snapshot();
        let pool = self.pool.as_ref().filter(|p| p.workers() > 1 && inputs.len() > 1);
        let Some(pool) = pool else {
            // No pool (or a single input): predict inline on the calling
            // connection thread, quarantining a panic to this request.
            return catch_unwind(AssertUnwindSafe(|| {
                for input in &inputs {
                    maybe_inject_panic(input);
                }
                let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
                model.predict_batch(&refs).map_err(ServeError::from)
            }))
            .unwrap_or_else(|_| {
                self.metrics.on_worker_panic();
                trace.set_terminal("panic");
                Err(ServeError::Panicked("model panicked executing this batch".into()))
            });
        };

        let split = split_contiguous(inputs, pool.workers());
        let shards = split.len();
        self.metrics.on_pool_fanout(shards);
        let (result_tx, result_rx) = mpsc::channel();
        for (index, shard) in split.into_iter().enumerate() {
            self.metrics.on_pool_shard(shard.len());
            let model = Arc::clone(&model);
            let metrics = Arc::clone(&self.metrics);
            let shard_trace = trace.clone();
            let result_tx = result_tx.clone();
            pool.dispatch(Box::new(move || {
                let shard_started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    for input in &shard {
                        maybe_inject_panic(input);
                    }
                    let refs: Vec<&[u8]> = shard.iter().map(Vec::as_slice).collect();
                    model.predict_batch(&refs).map_err(ServeError::from)
                }))
                .unwrap_or_else(|_| {
                    metrics.on_worker_panic();
                    Err(ServeError::Panicked("model panicked executing this batch".into()))
                });
                // Shards of one request accumulate into its single
                // shard_execute slot (record() adds).
                shard_trace.record_since(Stage::ShardExecute, shard_started);
                let _ = result_tx.send((index, outcome));
            }));
        }
        drop(result_tx);

        let mut results: Vec<Option<Result<Vec<Prediction>, ServeError>>> =
            (0..shards).map(|_| None).collect();
        while results.iter().any(Option::is_none) {
            match result_rx.recv() {
                Ok((i, outcome)) => results[i] = Some(outcome),
                Err(_) => break, // an executor died mid-shard: treated as a panic below
            }
        }
        // Shards are contiguous and assembled in order, so the first
        // failing shard holds the lowest-index failure — identical to
        // what a direct `predict_batch` would have reported.
        let mut predictions = Vec::new();
        for outcome in results {
            match outcome {
                Some(Ok(shard)) => predictions.extend(shard),
                Some(Err(err)) => {
                    if matches!(err, ServeError::Panicked(_)) {
                        trace.set_terminal("panic");
                    }
                    return Err(err);
                }
                None => {
                    trace.set_terminal("panic");
                    return Err(ServeError::Panicked("model panicked executing this batch".into()));
                }
            }
        }
        Ok(predictions)
    }

    /// Enqueues labeled examples and blocks until they are absorbed into
    /// the model (or rejected). Concurrent train requests coalesce into a
    /// single `partial_fit_batch` and share one version bump. Besides the
    /// spans [`predict`](Self::predict) stamps, the worker stamps
    /// WAL-append and publish spans onto `trace`, and the delta record
    /// streamed to followers carries the batch's first trace id.
    ///
    /// # Errors
    ///
    /// Propagates per-example shape/label errors (the request's own
    /// examples are then not applied); returns [`ServeError::Internal`]
    /// if the batcher is shutting down.
    pub fn train(
        &self,
        examples: Vec<(Vec<u8>, usize)>,
        trace: Trace,
    ) -> Result<TrainOutcome, ServeError> {
        if examples.is_empty() {
            return Err(ServeError::BadRequest("training request carries no examples".into()));
        }
        let (reply, receive) = mpsc::channel();
        self.enqueue(Job::Train { examples, reply, trace }, &receive)
    }

    /// Enqueues one feedback round (true label for an input) and blocks
    /// until the adaptive update — applied only if the model mispredicts —
    /// is published, stamping `trace` as [`train`](Self::train) does.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors; returns [`ServeError::Internal`] if
    /// the batcher is shutting down.
    pub fn feedback(
        &self,
        input: Vec<u8>,
        label: usize,
        trace: Trace,
    ) -> Result<FeedbackOutcome, ServeError> {
        let (reply, receive) = mpsc::channel();
        self.enqueue(Job::Feedback { input, label, reply, trace }, &receive)
    }

    /// Enqueues a hot-reload replacement and blocks until the worker has
    /// swapped it in; returns the (unchanged) training version the lineage
    /// continues from. Jobs queued before the swap execute against the old
    /// model, jobs after it against the new one — the single writer makes
    /// that ordering exact.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] if the batcher is shutting down.
    pub fn swap(&self, model: impl Into<AnyModel>) -> Result<u64, ServeError> {
        self.swap_with_wal(model.into(), WalSwap::Detach)
    }

    /// [`swap`](Self::swap) with an explicit write-ahead-log disposition,
    /// applied by the worker at the same barrier as the model
    /// replacement. The registry uses this to reset the log on reloads
    /// and to attach a recovered log race-free.
    pub(crate) fn swap_with_wal(&self, model: AnyModel, wal: WalSwap) -> Result<u64, ServeError> {
        let (reply, receive) = mpsc::channel();
        self.enqueue(Job::Swap { model: Box::new(model), wal, reply }, &receive)
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        lock_queue(&self.shared.queue).stop = true;
        self.shared.arrived.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Splits `items` into at most `workers` contiguous shards of near-equal
/// size, preserving order. Contiguity is what keeps pooled results
/// bit-identical to a sequential scan: concatenating the shards in order
/// reproduces the input exactly, and the first failing shard holds the
/// lowest-index failure.
fn split_contiguous<T>(mut items: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let target = workers.max(1).min(items.len().max(1));
    let chunk = items.len().div_ceil(target).max(1);
    let mut shards = Vec::with_capacity(target);
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        shards.push(std::mem::replace(&mut items, rest));
    }
    shards
}

fn worker_loop(
    shared: &Shared,
    model: &SharedModel,
    metrics: &Arc<Metrics>,
    config: BatchConfig,
    pool: Option<&Arc<PredictPool>>,
) {
    let max_batch = config.max_batch.max(1);
    // Whether the previous drain had company. A fresh (or respawned)
    // worker assumes it did, so its first batch lingers.
    let mut linger = true;
    loop {
        let mut queue = lock_queue(&shared.queue);
        while queue.jobs.is_empty() {
            if queue.stop {
                return;
            }
            queue = shared.arrived.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
        // First job of the batch is here; linger for stragglers so bursts
        // coalesce — but adaptively. Only a worker whose previous drain
        // took more than one job lingers at all: a lone closed-loop client
        // never sends a batch-mate, so waiting for one is pure latency.
        // And each wait slice that passes with no new arrival ends the
        // batch early, while a genuine burst keeps extending it up to the
        // deadline.
        if linger && !config.max_linger.is_zero() && max_batch > 1 {
            let deadline = Instant::now() + config.max_linger;
            let grace = config.max_linger / 8;
            while queue.jobs.len() < max_batch && !queue.stop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let before = queue.jobs.len();
                let (q, _timeout) = shared
                    .arrived
                    .wait_timeout(queue, (deadline - now).min(grace))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
                if queue.jobs.len() == before {
                    break; // nothing arrived during the slice: batch is done
                }
            }
        }
        let take = queue.jobs.len().min(max_batch);
        let drained: Vec<Queued> = queue.jobs.drain(..take).collect();
        let stopping = queue.stop;
        drop(queue);
        linger = take > 1;

        if stopping {
            for queued in drained {
                queued.job.reject_shutdown();
            }
            continue; // loop once more to observe `stop` with an empty queue
        }

        // Expire jobs that waited past their deadline: answering 504 now
        // is cheaper and more honest than executing work whose caller has
        // given up. Swaps are exempt — a reload must always land so the
        // lineage stays coherent.
        let now = Instant::now();
        let mut batch = Vec::with_capacity(drained.len());
        for queued in drained {
            queued.job.trace().record_span(Stage::QueueWait, queued.enqueued_at, now);
            let expired = !config.queue_deadline.is_zero()
                && !matches!(queued.job, Job::Swap { .. })
                && now.duration_since(queued.enqueued_at) > config.queue_deadline;
            if expired {
                metrics.on_deadline_expired();
                queued.job.trace().set_terminal("queue_deadline");
                queued.job.reject(ServeError::DeadlineExpired(format!(
                    "request waited {:?} in queue (deadline {:?})",
                    now.duration_since(queued.enqueued_at),
                    config.queue_deadline
                )));
            } else {
                batch.push(queued.job);
            }
        }
        execute(model, metrics, pool, batch);
    }
}

/// Runs one coalesced batch: predicts against the current snapshot, then
/// training/feedback on a private clone published once at the end. Swap
/// jobs are barriers: everything drained before a swap executes first,
/// then the replacement model is installed, then execution continues —
/// so a reload observed at queue position *k* affects exactly the jobs
/// after position *k*.
fn execute(
    model: &SharedModel,
    metrics: &Arc<Metrics>,
    pool: Option<&Arc<PredictPool>>,
    batch: Vec<Job>,
) {
    let mut predicts = Vec::new();
    let mut updates = Vec::new();
    for job in batch {
        match job {
            Job::Predict { input, reply, trace } => predicts.push((input, reply, trace)),
            Job::Swap { model: replacement, wal, reply } => {
                flush(model, metrics, pool, &mut predicts, &mut updates);
                let version = model.replace(Arc::new(*replacement));
                let result = model.apply_wal_swap(wal, version).map(|()| version).map_err(|e| {
                    ServeError::Internal(format!(
                        "model swapped but its write-ahead log did not follow: {e}"
                    ))
                });
                let _ = reply.send(result);
            }
            other => updates.push(other),
        }
    }
    flush(model, metrics, pool, &mut predicts, &mut updates);
}

/// Executes and clears the buffered predict and update jobs.
fn flush(
    model: &SharedModel,
    metrics: &Arc<Metrics>,
    pool: Option<&Arc<PredictPool>>,
    predicts: &mut Vec<PredictJob>,
    updates: &mut Vec<Job>,
) {
    if !predicts.is_empty() {
        execute_predicts(&model.snapshot(), metrics, pool, std::mem::take(predicts));
    }
    if !updates.is_empty() {
        execute_updates(model, metrics, std::mem::take(updates));
    }
}

type PredictJob = (Vec<u8>, Reply<Prediction>, Trace);

/// Runs one predict inside its own `catch_unwind`: a panicking model
/// poisons exactly this job (500 `Panicked`, counted in
/// `worker_panics_total` and marked `terminal=panic` on its trace) and
/// nothing else.
fn predict_quarantined(
    model: &AnyModel,
    metrics: &Metrics,
    input: &[u8],
    trace: &Trace,
) -> Result<Prediction, ServeError> {
    catch_unwind(AssertUnwindSafe(|| {
        maybe_inject_panic(input);
        model.predict(input).map_err(ServeError::from)
    }))
    .unwrap_or_else(|_| {
        metrics.on_worker_panic();
        trace.set_terminal("panic");
        Err(ServeError::Panicked("model panicked executing this request".into()))
    })
}

/// Runs one drained predict batch. With a pool, the batch is split into
/// contiguous shards — one per executor — each predicting against the
/// same `model` snapshot; the worker blocks until every shard has
/// replied, so batch boundaries (and swap barriers) keep their exact
/// pre-pool ordering. Without a pool the whole batch runs here, exactly
/// as before.
fn execute_predicts(
    model: &Arc<AnyModel>,
    metrics: &Arc<Metrics>,
    pool: Option<&Arc<PredictPool>>,
    batch: Vec<PredictJob>,
) {
    metrics.on_batch(batch.len());
    let started = Instant::now();
    if batch.len() == 1 {
        let (input, reply, trace) = &batch[0];
        let result = predict_quarantined(model, metrics, input, trace);
        trace.record_since(Stage::Execute, started);
        let _ = reply.send(result);
        return;
    }
    let Some(pool) = pool.filter(|p| p.workers() > 1) else {
        predict_shard(model, metrics, batch, started, false);
        return;
    };
    let split = split_contiguous(batch, pool.workers());
    metrics.on_pool_fanout(split.len());
    let (done_tx, done_rx) = mpsc::channel();
    let dispatched = split.len();
    for shard in split {
        metrics.on_pool_shard(shard.len());
        let model = Arc::clone(model);
        let metrics = Arc::clone(metrics);
        let signal = SignalOnDrop(done_tx.clone());
        pool.dispatch(Box::new(move || {
            let _signal = signal;
            predict_shard(&model, &metrics, shard, started, true);
        }));
    }
    drop(done_tx);
    // Fan-in: wait for every shard before draining the next batch, so the
    // pool can never run ahead of the queue it serves.
    for _ in 0..dispatched {
        let _ = done_rx.recv();
    }
}

/// Predicts one contiguous shard of a drained batch and replies to its
/// jobs in order. Spans are recorded **before** replying — the HTTP layer
/// finalizes a trace as soon as its reply lands, so a span stamped after
/// the reply would be lost. Each rider's `execute` span runs from the
/// whole batch's start (dispatch wait included: that is the model time
/// its reply actually waited on); pooled shards additionally record their
/// own `shard_execute` window.
fn predict_shard(
    model: &AnyModel,
    metrics: &Metrics,
    shard: Vec<PredictJob>,
    batch_started: Instant,
    pooled: bool,
) {
    let shard_started = Instant::now();
    let inputs: Vec<&[u8]> = shard.iter().map(|(input, _, _)| &input[..]).collect();
    let coalesced = catch_unwind(AssertUnwindSafe(|| {
        for input in &inputs {
            maybe_inject_panic(input);
        }
        model.predict_batch(&inputs)
    }));
    match coalesced {
        Ok(Ok(predictions)) => {
            let finished = Instant::now();
            for ((_, reply, trace), prediction) in shard.iter().zip(predictions) {
                if pooled {
                    trace.record_span(Stage::ShardExecute, shard_started, finished);
                }
                trace.record_span(Stage::Execute, batch_started, finished);
                let _ = reply.send(Ok(prediction));
            }
        }
        // A shard fails fast on its lowest-index bad input — or panics on
        // its first poisoned one — which would punish every rider in the
        // shard; fall back to per-job predicts so each request gets
        // exactly its own error, and only the truly poisoned jobs count
        // as panics. Other shards never notice.
        Ok(Err(_)) | Err(_) => {
            for (input, reply, trace) in shard {
                let result = predict_quarantined(model, metrics, &input, &trace);
                let finished = Instant::now();
                if pooled {
                    trace.record_span(Stage::ShardExecute, shard_started, finished);
                }
                trace.record_span(Stage::Execute, batch_started, finished);
                let _ = reply.send(result);
            }
        }
    }
}

/// Applies the drained training/feedback jobs to one private clone of the
/// current snapshot and publishes the result with a single version bump.
///
/// Train jobs coalesce: their examples concatenate into one
/// `partial_fit_batch`. That call is atomic, so if it rejects a bad
/// example — or panics on a poisoned one — the worker falls back to
/// per-job batches, each applied **transactionally** to a trial clone
/// inside its own `catch_unwind`: the clone is committed only on success,
/// so a panicking job can never publish a half-updated model. Feedback
/// jobs run after training, in queue order, with the same quarantine.
/// Panics happen on private clones before publish, so the published
/// lineage stays monotonic no matter which jobs were poisoned.
fn execute_updates(shared: &SharedModel, metrics: &Metrics, jobs: Vec<Job>) {
    let execute_started = Instant::now();
    let snapshot = shared.snapshot();
    // Cheap by construction: the encoder is Arc-shared, and a dense
    // model's classes are copy-on-write, so this and the trial clones
    // below copy pointers; a train copies only the classes it touches.
    let mut model = (*snapshot).clone();
    let mut applied_total = 0usize;
    let mut feedback_updates = 0usize;
    // Exactly what gets applied, in application order: the delta record
    // appended to the write-ahead log (and streamed to followers) before
    // this batch's publish, so replaying it is bit-exact.
    let mut ops: Vec<DeltaOp> = Vec::new();

    // Partition, preserving queue order within each kind. Every traced
    // job in the coalesced batch shares the execute/WAL/publish spans —
    // that is the wall time its acknowledgement actually waited on.
    let traces: Vec<Trace> = jobs.iter().map(|job| job.trace().clone()).collect();
    let mut trains = Vec::new();
    let mut feedbacks = Vec::new();
    for job in jobs {
        match job {
            Job::Train { examples, reply, trace } => trains.push((examples, reply, trace)),
            Job::Feedback { input, label, reply, trace } => {
                feedbacks.push((input, label, reply, trace));
            }
            Job::Predict { .. } | Job::Swap { .. } => {
                unreachable!("predicts and swaps split off before updates")
            }
        }
    }

    // Defer train replies until the version is known (post-publish).
    let mut train_results: Vec<(Reply<TrainOutcome>, Result<usize, ServeError>)> =
        Vec::with_capacity(trains.len());
    if !trains.is_empty() {
        let coalesced: Vec<(&[u8], usize)> = trains
            .iter()
            .flat_map(|(examples, _, _)| examples.iter().map(|(i, l)| (&i[..], *l)))
            .collect();
        let fast_path = catch_unwind(AssertUnwindSafe(|| {
            let mut trial = model.clone();
            for (input, _) in &coalesced {
                maybe_inject_panic(input);
            }
            trial.partial_fit_batch(&coalesced).map(|applied| (trial, applied))
        }));
        match fast_path {
            Ok(Ok((trial, applied))) => {
                debug_assert_eq!(applied, coalesced.len());
                model = trial;
                applied_total += applied;
                for (examples, reply, _) in trains {
                    train_results.push((reply, Ok(examples.len())));
                    ops.extend(
                        examples.into_iter().map(|(input, label)| DeltaOp::Train { input, label }),
                    );
                }
            }
            // One bad example failed the coalesced batch (atomically) or
            // one poisoned example panicked it; re-apply per job so only
            // the guilty request errors.
            Ok(Err(_)) | Err(_) => {
                for (examples, reply, trace) in trains {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut trial = model.clone();
                        for (input, _) in &examples {
                            maybe_inject_panic(input);
                        }
                        let per_job: Vec<(&[u8], usize)> =
                            examples.iter().map(|(i, l)| (&i[..], *l)).collect();
                        trial.partial_fit_batch(&per_job).map(|applied| (trial, applied))
                    }));
                    let result = match outcome {
                        Ok(Ok((trial, applied))) => {
                            model = trial;
                            applied_total += applied;
                            ops.extend(
                                examples
                                    .into_iter()
                                    .map(|(input, label)| DeltaOp::Train { input, label }),
                            );
                            Ok(applied)
                        }
                        Ok(Err(e)) => Err(ServeError::from(e)),
                        Err(_) => {
                            metrics.on_worker_panic();
                            trace.set_terminal("panic");
                            Err(ServeError::Panicked(
                                "model panicked absorbing this request's examples".into(),
                            ))
                        }
                    };
                    train_results.push((reply, result));
                }
            }
        }
    }

    let mut feedback_results: Vec<(Reply<FeedbackOutcome>, Result<hdc::Feedback, ServeError>)> =
        Vec::with_capacity(feedbacks.len());
    for (input, label, reply, trace) in feedbacks {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut trial = model.clone();
            maybe_inject_panic(&input);
            trial.feedback(&input[..], label).map(|fb| (trial, fb))
        }));
        let result = match outcome {
            Ok(Ok((trial, fb))) => {
                model = trial;
                if fb.updated {
                    feedback_updates += 1;
                    // Only *applied* feedback is logged: replaying it
                    // re-evaluates the mispredict gate against the same
                    // intermediate state, which by induction decides the
                    // same way.
                    ops.push(DeltaOp::Feedback { input, label });
                }
                Ok(fb)
            }
            Ok(Err(e)) => Err(ServeError::from(e)),
            Err(_) => {
                metrics.on_worker_panic();
                trace.set_terminal("panic");
                Err(ServeError::Panicked("model panicked applying this feedback".into()))
            }
        };
        feedback_results.push((reply, result));
    }

    // Publish once: any absorbed example or applied feedback bumps the
    // version by exactly 1 for the whole coalesced update batch. Before
    // the publish — and therefore before any acknowledgement — the batch
    // is appended to the write-ahead log as one fsynced record, so a 200
    // means the update is on stable storage. The deterministic counter
    // rescale runs first: it is part of the published state, and replay
    // reproduces it by running the same check after the record's ops.
    let changed = applied_total > 0 || feedback_updates > 0;
    let execute_done = Instant::now();
    for trace in &traces {
        trace.record_span(Stage::Execute, execute_started, execute_done);
    }
    let version = if changed {
        wal::maybe_rescale(&mut model);
        let record = DeltaRecord {
            version: shared.version() + 1,
            ops,
            trace: traces.iter().find_map(Trace::id).map(str::to_owned),
        };
        let mut slot = shared.wal_lock();
        if let Some(log) = slot.as_mut() {
            let append_started = Instant::now();
            if let Err(e) = log.append(&record) {
                drop(slot);
                metrics.on_wal_append_error();
                // Nothing publishes: acked ⟹ durable, so an update that
                // could not be logged must fail instead of being served
                // from memory only. Jobs that already failed keep their
                // own (accurate) errors; feedback that applied no update
                // contributed nothing to the record and reports normally.
                let version = shared.version();
                for (reply, result) in train_results {
                    let _ = reply.send(result.and(Err(ServeError::Internal(format!(
                        "update not applied: write-ahead log append failed: {e}"
                    )))));
                }
                for (reply, result) in feedback_results {
                    let _ = reply.send(match result {
                        Ok(fb) if fb.updated => Err(ServeError::Internal(format!(
                            "update not applied: write-ahead log append failed: {e}"
                        ))),
                        other => other.map(|fb| FeedbackOutcome {
                            updated: fb.updated,
                            prediction: fb.prediction,
                            version,
                        }),
                    });
                }
                return;
            }
            metrics.on_wal_append();
            let append_done = Instant::now();
            for trace in &traces {
                trace.record_span(Stage::WalAppend, append_started, append_done);
            }
        }
        drop(slot);
        metrics.on_train_batch(applied_total + feedback_updates);
        let publish_started = Instant::now();
        let version = shared.publish(Arc::new(model), (applied_total + feedback_updates) as u64);
        debug_assert_eq!(version, record.version, "single writer: no publish can interleave");
        // The ring serves followers; records enter it only after their
        // version is live, so a follower can never apply a version its
        // leader has not published.
        shared.deltas().push(Arc::new(record));
        let publish_done = Instant::now();
        for trace in &traces {
            trace.record_span(Stage::Publish, publish_started, publish_done);
        }
        version
    } else {
        shared.version()
    };

    for (reply, result) in train_results {
        let _ = reply.send(result.map(|applied| TrainOutcome { applied, version }));
    }
    for (reply, result) in feedback_results {
        let _ = reply.send(result.map(|fb| FeedbackOutcome {
            updated: fb.updated,
            prediction: fb.prediction,
            version,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::memory::ValueEncoding;
    use hdc::prelude::*;

    fn model() -> Arc<SharedModel> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 1_024,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 9,
        })
        .unwrap();
        let mut model = HdcClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[224u8; 16][..], 1).unwrap();
        model.finalize();
        Arc::new(SharedModel::standalone(model))
    }

    #[test]
    fn single_predict_round_trips() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher =
            Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), BatchConfig::default());
        let got = batcher.predict(vec![224u8; 16], Trace::off()).unwrap();
        assert_eq!(got.class, shared.snapshot().predict(&[224u8; 16][..]).unwrap().class);
    }

    #[test]
    fn split_contiguous_covers_every_item_in_order() {
        // The shard planner must (a) keep items contiguous and ordered,
        // (b) never emit an empty shard, (c) emit at most `workers`
        // shards, and (d) cope with len < workers, len == workers, and
        // chunk arithmetic that yields fewer shards than workers
        // (e.g. 9 items / 4 workers -> ceil(9/4)=3 -> 3 shards).
        for len in [0usize, 1, 2, 3, 7, 9, 16, 19, 64] {
            for workers in [1usize, 2, 3, 4, 8, 64] {
                let items: Vec<usize> = (0..len).collect();
                let shards = split_contiguous(items, workers);
                assert!(shards.len() <= workers.max(1), "len {len} workers {workers}");
                assert!(
                    shards.iter().all(|s| !s.is_empty()) || len == 0,
                    "empty shard at len {len} workers {workers}"
                );
                let reassembled: Vec<usize> = shards.into_iter().flatten().collect();
                assert_eq!(
                    reassembled,
                    (0..len).collect::<Vec<_>>(),
                    "len {len} workers {workers}: order or coverage broken"
                );
            }
        }
    }

    #[test]
    fn pooled_predicts_match_inline_bit_for_bit() {
        let shared = model();
        let snapshot = shared.snapshot();
        let inputs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i.wrapping_mul(37); 16]).collect();
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let direct = snapshot.predict_batch(&refs).unwrap();
        for workers in [1usize, 2, 3, 8] {
            let metrics = Arc::new(Metrics::new());
            let config = BatchConfig { predict_workers: workers, ..BatchConfig::default() };
            let batcher = Batcher::start(Arc::clone(&shared), metrics, config);
            let answers = batcher.predict_batch_direct(inputs.clone(), &Trace::off()).unwrap();
            for (actual, expected) in answers.iter().zip(&direct) {
                assert_eq!(actual.class, expected.class);
                assert_eq!(
                    actual.similarity.to_bits(),
                    expected.similarity.to_bits(),
                    "{workers} workers: similarity drifted"
                );
            }
        }
    }

    #[test]
    fn concurrent_predicts_coalesce() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let config = BatchConfig {
            max_batch: 64,
            max_linger: Duration::from_millis(20),
            ..BatchConfig::default()
        };
        let batcher = Arc::new(Batcher::start(shared, Arc::clone(&metrics), config));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    for _ in 0..5 {
                        batcher.predict(vec![224u8; 16], Trace::off()).unwrap();
                    }
                });
            }
        });
        // 8 threads × 5 requests with a 20 ms linger must coalesce: if
        // every one of the 40 predicts ran alone, the mean stays 1.0.
        assert!(
            metrics.mean_batch_size() > 1.0,
            "expected coalescing, mean batch size {}",
            metrics.mean_batch_size()
        );
    }

    #[test]
    fn lone_client_does_not_linger_for_batch_mates() {
        // Each grace slice is 250 ms. A fresh worker lingers once; after a
        // drain of one job it must not wait again, so 8 back-to-back
        // predicts from one thread finish well inside the 2 s that waiting
        // out a slice each would take.
        let config = BatchConfig { max_linger: Duration::from_secs(2), ..BatchConfig::default() };
        let batcher = Batcher::start(model(), Arc::new(Metrics::new()), config);
        let started = Instant::now();
        for _ in 0..8 {
            batcher.predict(vec![224u8; 16], Trace::off()).unwrap();
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "8 lone predicts took {elapsed:?}");
    }

    #[test]
    fn snapshot_predictions_survive_later_trains_bit_for_bit() {
        // Trains publish copy-on-write clones; a snapshot taken before
        // them must keep answering exactly as it did.
        let shared = model();
        let batcher =
            Batcher::start(Arc::clone(&shared), Arc::new(Metrics::new()), BatchConfig::default());
        let probes: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i.wrapping_mul(32); 16]).collect();
        let snapshot = shared.snapshot();
        let answers = |model: &AnyModel| -> Vec<(usize, u64)> {
            probes
                .iter()
                .map(|p| model.predict(&p[..]).unwrap())
                .map(|p| (p.class, p.similarity.to_bits()))
                .collect()
        };
        let before = answers(&snapshot);
        for i in 0..6u8 {
            batcher
                .train(vec![(vec![i.wrapping_mul(40); 16], usize::from(i % 2))], Trace::off())
                .unwrap();
        }
        assert_eq!(shared.version(), 6);
        assert_eq!(answers(&snapshot), before, "a published train leaked into an older snapshot");
        assert_ne!(answers(&shared.snapshot()), before, "the trains moved the live model");
    }

    #[test]
    fn batch_size_1_config_never_coalesces() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher =
            Arc::new(Batcher::start(shared, Arc::clone(&metrics), BatchConfig::batch_size_1()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    for _ in 0..10 {
                        batcher.predict(vec![0u8; 16], Trace::off()).unwrap();
                    }
                });
            }
        });
        assert_eq!(metrics.mean_batch_size(), 1.0);
    }

    #[test]
    fn bad_input_in_batch_fails_only_that_request() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let config = BatchConfig {
            max_batch: 16,
            max_linger: Duration::from_millis(20),
            ..BatchConfig::default()
        };
        let batcher = Arc::new(Batcher::start(shared, metrics, config));
        std::thread::scope(|scope| {
            let good = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.predict(vec![224u8; 16], Trace::off())
            });
            let bad = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.predict(vec![224u8; 3], Trace::off()) // wrong shape
            });
            assert!(good.join().unwrap().is_ok());
            let err = bad.join().unwrap().unwrap_err();
            assert_eq!(err.status(), 400, "wrong-shape input must 400, got {err}");
        });
    }

    #[test]
    fn train_updates_predictions_and_version() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher =
            Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), BatchConfig::default());
        assert_eq!(shared.version(), 0);

        // Hammer the model with mid-grey images labeled class 0 until the
        // prediction flips (the grey probe starts closer to class 1 or is
        // borderline; a couple of updates settle it firmly into class 0).
        let probe = vec![128u8; 16];
        let mut version = 0;
        for _ in 0..8 {
            let outcome = batcher.train(vec![(probe.clone(), 0)], Trace::off()).unwrap();
            assert_eq!(outcome.applied, 1);
            assert!(outcome.version > version, "version must be monotonic");
            version = outcome.version;
        }
        assert_eq!(shared.version(), version);
        assert_eq!(shared.trained_examples(), 8);
        let prediction = batcher.predict(probe, Trace::off()).unwrap();
        assert_eq!(prediction.class, 0, "training must move the decision boundary");

        // The oracle: the swapped-in model matches offline partial_fit.
        assert!(shared.snapshot().is_finalized());
    }

    #[test]
    fn train_bad_example_fails_only_its_request() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let config = BatchConfig {
            max_batch: 16,
            max_linger: Duration::from_millis(20),
            ..BatchConfig::default()
        };
        let batcher = Arc::new(Batcher::start(Arc::clone(&shared), metrics, config));
        std::thread::scope(|scope| {
            let good = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.train(vec![(vec![224u8; 16], 1)], Trace::off())
            });
            let bad_shape = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.train(vec![(vec![1u8; 3], 0)], Trace::off())
            });
            let bad_label = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.train(vec![(vec![224u8; 16], 9)], Trace::off())
            });
            assert_eq!(good.join().unwrap().unwrap().applied, 1);
            assert_eq!(bad_shape.join().unwrap().unwrap_err().status(), 400);
            assert_eq!(bad_label.join().unwrap().unwrap_err().status(), 400);
        });
        assert_eq!(shared.trained_examples(), 1, "only the good example is absorbed");
        assert!(batcher.train(vec![], Trace::off()).is_err(), "empty train request rejected");
    }

    #[test]
    fn feedback_updates_only_on_mistake() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher =
            Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), BatchConfig::default());

        // Correct label: no update, version unchanged.
        let outcome = batcher.feedback(vec![224u8; 16], 1, Trace::off()).unwrap();
        assert!(!outcome.updated);
        assert_eq!(outcome.prediction.class, 1);
        assert_eq!(outcome.version, 0);

        // Deliberately wrong-side label: the model mispredicts relative to
        // it, so an adaptive update applies and the version bumps.
        let mut updated = false;
        for _ in 0..8 {
            let outcome = batcher.feedback(vec![224u8; 16], 0, Trace::off()).unwrap();
            if outcome.updated {
                updated = true;
                assert!(outcome.version > 0);
                break;
            }
        }
        assert!(updated, "mispredicting feedback must eventually update");
        assert!(batcher.feedback(vec![0u8; 16], 9, Trace::off()).unwrap_err().status() == 400);
    }

    #[test]
    fn drop_stops_worker_and_rejects_new_work() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(shared, metrics, BatchConfig::default());
        drop(batcher); // must not hang
    }

    #[test]
    fn full_queue_sheds_with_503_but_swaps_ride_through() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        // max_queue = 0 is deterministic maintenance mode: every client
        // job sheds without racing the worker's drain speed.
        let config = BatchConfig { max_queue: 0, ..BatchConfig::default() };
        let batcher = Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), config);

        let err = batcher.predict(vec![0u8; 16], Trace::off()).unwrap_err();
        assert_eq!(err.status(), 503, "full queue must shed, got {err}");
        let err = batcher.train(vec![(vec![0u8; 16], 0)], Trace::off()).unwrap_err();
        assert_eq!(err.status(), 503);
        assert_eq!(metrics.shed_total(), 2);

        // A hot reload is exempt: shedding it would break the reload
        // contract. Lineage continues from the current version.
        let replacement = (*shared.snapshot()).clone();
        assert!(batcher.swap(replacement).is_ok(), "swap must bypass the queue bound");
    }

    #[test]
    fn stale_queued_jobs_expire_with_504() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        // A 1 ns deadline expires every job deterministically: the hop
        // from enqueue through condvar wakeup to drain always costs more.
        let config = BatchConfig {
            queue_deadline: Duration::from_nanos(1),
            max_linger: Duration::ZERO,
            ..BatchConfig::default()
        };
        let batcher = Batcher::start(shared, Arc::clone(&metrics), config);
        let err = batcher.predict(vec![0u8; 16], Trace::off()).unwrap_err();
        assert_eq!(err.status(), 504, "stale job must expire, got {err}");
        assert_eq!(metrics.deadline_expired_total(), 1);
    }

    #[test]
    fn injected_panic_quarantines_only_the_poisoned_job() {
        // The gate gives this test the process-global hook end-to-end
        // (arm → predict → train → feedback → disarm) so concurrent tests
        // never observe it half-armed. Fill 231 collides with no other
        // test input.
        let _hook = panic_injection_gate();
        const FILL: u8 = 231;
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher =
            Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), BatchConfig::default());

        inject_panic_fill(Some(FILL));
        let err = batcher.predict(vec![FILL; 16], Trace::off()).unwrap_err();
        assert_eq!(err.status(), 500, "poisoned predict must 500, got {err}");
        assert!(matches!(err, ServeError::Panicked(_)));
        let err = batcher.train(vec![(vec![FILL; 16], 0)], Trace::off()).unwrap_err();
        assert!(matches!(err, ServeError::Panicked(_)), "poisoned train must quarantine");
        let err = batcher.feedback(vec![FILL; 16], 0, Trace::off()).unwrap_err();
        assert!(matches!(err, ServeError::Panicked(_)), "poisoned feedback must quarantine");
        assert_eq!(metrics.worker_panics_total(), 3, "each poisoned job counts exactly once");

        // The worker survives, the model still serves, and training —
        // hence the published lineage — continues monotonically.
        inject_panic_fill(None);
        let version_before = shared.version();
        assert!(
            batcher.predict(vec![224u8; 16], Trace::off()).is_ok(),
            "worker must survive the panics"
        );
        let outcome = batcher.train(vec![(vec![224u8; 16], 1)], Trace::off()).unwrap();
        assert!(outcome.version > version_before, "lineage stays monotonic after panics");
        assert_eq!(shared.version(), outcome.version);
    }

    #[test]
    fn concurrent_poisoned_and_healthy_jobs_coexist_in_one_batch() {
        let _hook = panic_injection_gate();
        const FILL: u8 = 231;
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let config = BatchConfig {
            max_batch: 16,
            max_linger: Duration::from_millis(20),
            ..Default::default()
        };
        let batcher = Arc::new(Batcher::start(shared, Arc::clone(&metrics), config));
        inject_panic_fill(Some(FILL));
        std::thread::scope(|scope| {
            let good = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.predict(vec![224u8; 16], Trace::off())
            });
            let poisoned = scope.spawn({
                let batcher = Arc::clone(&batcher);
                move || batcher.predict(vec![FILL; 16], Trace::off())
            });
            assert!(good.join().unwrap().is_ok(), "healthy rider must not share the quarantine");
            let err = poisoned.join().unwrap().unwrap_err();
            assert_eq!(err.status(), 500);
        });
        inject_panic_fill(None);
    }

    #[test]
    fn debug_impl_tolerates_poisoned_queue_mutex() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(shared, metrics, BatchConfig::default());

        // Poison the queue mutex the hard way: panic while holding it.
        let poisoner = Arc::clone(&batcher.shared);
        let _ = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = poisoner.queue.lock().unwrap();
                panic!("deliberate poison");
            })
            .unwrap()
            .join();
        assert!(batcher.shared.queue.is_poisoned(), "test precondition");

        // The one place a worker panic used to cascade into the accept
        // path: Debug formatting. It — and enqueue — must keep working.
        let rendered = format!("{batcher:?}");
        assert!(rendered.contains("pending="), "{rendered}");
        assert!(
            batcher.predict(vec![0u8; 16], Trace::off()).is_ok(),
            "accept path survives poison"
        );
    }

    #[test]
    fn traced_faults_mark_terminals_and_deltas_carry_the_trace_id() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());

        // A shed job's trace ends at terminal "shed".
        let config = BatchConfig { max_queue: 0, ..BatchConfig::default() };
        let batcher = Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), config);
        let trace = Trace::new("shed-1", true);
        let err = batcher.predict(vec![0u8; 16], trace.clone()).unwrap_err();
        assert_eq!(err.status(), 503);
        assert_eq!(trace.finalize(503, 1).unwrap().terminal, "shed");
        drop(batcher);

        // A deadline-expired job's trace ends at terminal "queue_deadline".
        let config = BatchConfig {
            queue_deadline: Duration::from_nanos(1),
            max_linger: Duration::ZERO,
            ..BatchConfig::default()
        };
        let batcher = Batcher::start(Arc::clone(&shared), Arc::clone(&metrics), config);
        let trace = Trace::new("late-1", true);
        let err = batcher.predict(vec![0u8; 16], trace.clone()).unwrap_err();
        assert_eq!(err.status(), 504);
        assert_eq!(trace.finalize(504, 1).unwrap().terminal, "queue_deadline");
        drop(batcher);

        // A traced train stamps its id onto the streamed delta record,
        // so the write can be followed to any follower that applies it.
        let batcher = Batcher::start(Arc::clone(&shared), metrics, BatchConfig::default());
        batcher.train(vec![(vec![224u8; 16], 1)], Trace::new("train-1", true)).unwrap();
        let deltas = shared.deltas().collect_after(0, Duration::ZERO).unwrap();
        assert_eq!(deltas.last().unwrap().trace.as_deref(), Some("train-1"));
    }

    #[test]
    fn queue_depth_histogram_records_enqueues() {
        let shared = model();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(shared, Arc::clone(&metrics), BatchConfig::default());
        batcher.predict(vec![0u8; 16], Trace::off()).unwrap();
        batcher.predict(vec![0u8; 16], Trace::off()).unwrap();
        let total: u64 = metrics.queue_depth_hist().iter().sum();
        assert_eq!(total, 2, "every accepted enqueue lands in the depth histogram");
    }
}
