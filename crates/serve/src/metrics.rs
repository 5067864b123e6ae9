//! Live server metrics: lock-free counters and fixed-bucket histograms.
//!
//! Everything is `AtomicU64` with relaxed ordering — the counters are
//! statistical, not synchronization points — so the hot path pays a few
//! uncontended atomic adds per request. Quantiles (p50/p99) come from
//! fixed power-of-two latency buckets: no allocation, no locks, bounded
//! error of at most one bucket width, which is plenty for a load report.

use crate::json::Json;
use crate::trace::{TraceRecord, TraceRing, STAGE_COUNT, STAGE_NAMES};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Number of power-of-two latency buckets: bucket `i` holds samples with
/// `us < 2^(i+1)` (see [`latency_bucket_index`]), the last bucket is
/// open-ended (≥ ~8.4 s).
pub const LATENCY_BUCKETS: usize = 24;

/// The bucket a latency sample of `us` microseconds lands in.
///
/// Bucket `i` holds samples satisfying `us < 2^(i+1)`, equivalently
/// `2^i <= us < 2^(i+1)` for `i > 0`, with bucket 0 also absorbing the
/// 0µs and 1µs samples. An *exact* power-of-two sample `us == 2^k` is
/// therefore the **smallest** value in bucket `k`, not the largest in
/// bucket `k-1` — the documented boundary is exclusive on the upper
/// edge. The last bucket is open-ended.
pub fn latency_bucket_index(us: u64) -> usize {
    // 64 - leading_zeros(us|1) - 1 = floor(log2(max(us,1))).
    (64 - (us | 1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1)
}

/// The exclusive upper bound (µs) of latency bucket `i`: samples in the
/// bucket satisfy `us < latency_bucket_bound_us(i)`. The last bucket is
/// open-ended; its nominal bound is returned anyway so quantiles have a
/// finite answer.
pub fn latency_bucket_bound_us(bucket: usize) -> u64 {
    1u64 << (bucket.min(LATENCY_BUCKETS - 1) + 1)
}

/// Number of batch-size buckets: sizes `1..=MAX-1` exactly, the last
/// bucket collects everything larger.
const BATCH_BUCKETS: usize = 65;

/// Number of power-of-two queue-depth buckets: bucket `i` holds enqueue
/// samples that observed a depth `< 2^i` jobs already waiting (bucket 0 is
/// an empty queue), the last bucket is open-ended.
const QUEUE_DEPTH_BUCKETS: usize = 12;

/// Number of predict-pool occupancy buckets: occupancies `1..=MAX-1`
/// exactly (shards dispatched per fan-out), the last bucket collects
/// everything larger.
const POOL_OCCUPANCY_BUCKETS: usize = 17;

/// Completed traces kept in the main ring (`GET /debug/traces`). Sized so
/// a burst of probe traffic at the end of a soak run does not evict the
/// fault traces the audit wants to see.
const TRACE_RING_CAPACITY: usize = 512;

/// Slow traces kept in the dedicated ring (`GET /debug/traces/slow`) —
/// smaller, but slow requests are rare so they survive much longer here
/// than in the main ring.
const SLOW_RING_CAPACITY: usize = 64;

/// Per-stage, per-model latency histograms fed by completed traces: the
/// same power-of-two buckets as the end-to-end histogram, one row per
/// [`Stage`](crate::trace::Stage), plus sum/count for means.
#[derive(Debug)]
pub struct StageHist {
    buckets: [[AtomicU64; LATENCY_BUCKETS]; STAGE_COUNT],
    sum_us: [AtomicU64; STAGE_COUNT],
    count: [AtomicU64; STAGE_COUNT],
}

impl StageHist {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sum_us: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observed duration for `stage`.
    fn observe(&self, stage: usize, us: u64) {
        self.buckets[stage][latency_bucket_index(us)].fetch_add(1, Relaxed);
        self.sum_us[stage].fetch_add(us, Relaxed);
        self.count[stage].fetch_add(1, Relaxed);
    }

    /// Samples recorded for `stage` (index into
    /// [`STAGE_NAMES`]).
    pub fn stage_count(&self, stage: usize) -> u64 {
        self.count[stage].load(Relaxed)
    }

    /// Sum of recorded durations (µs) for `stage`.
    pub fn stage_sum_us(&self, stage: usize) -> u64 {
        self.sum_us[stage].load(Relaxed)
    }

    /// Snapshot of `stage`'s bucket counts.
    pub fn stage_buckets(&self, stage: usize) -> Vec<u64> {
        self.buckets[stage].iter().map(|c| c.load(Relaxed)).collect()
    }
}

/// Shared, append-only server statistics.
#[derive(Debug)]
pub struct Metrics {
    /// Requests accepted off the wire (any route, any outcome).
    requests_total: AtomicU64,
    /// Responses by status class.
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Predict requests and the individual inputs they carried.
    predict_requests: AtomicU64,
    predict_inputs: AtomicU64,
    /// Coalesced batch sizes actually executed by the batchers.
    batch_count: AtomicU64,
    batch_inputs: AtomicU64,
    batch_max: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// End-to-end predict latency (request handler enter → reply ready).
    latency_count: AtomicU64,
    latency_sum_us: AtomicU64,
    latency_hist: [AtomicU64; LATENCY_BUCKETS],
    /// Online learning: `/v1/train` requests and the examples they
    /// carried that were absorbed.
    train_requests: AtomicU64,
    train_examples: AtomicU64,
    /// Coalesced update batches actually published by the batchers (one
    /// model-version bump each) and the examples they absorbed.
    train_batches: AtomicU64,
    train_batch_examples: AtomicU64,
    /// `/v1/feedback` requests and how many applied an adaptive update.
    feedback_requests: AtomicU64,
    feedback_applied: AtomicU64,
    /// Overload/robustness accounting: requests shed because a job queue
    /// was full (503), requests whose queue wait expired (504), jobs
    /// quarantined because the model panicked executing them (500),
    /// worker threads restarted after an escaped panic, and requests whose
    /// handler panicked outside the model (500).
    shed_total: AtomicU64,
    deadline_expired_total: AtomicU64,
    worker_panics_total: AtomicU64,
    worker_respawns_total: AtomicU64,
    handler_panics_total: AtomicU64,
    /// Queue depth observed by each successful enqueue (jobs already
    /// waiting), in power-of-two buckets.
    queue_depth_hist: [AtomicU64; QUEUE_DEPTH_BUCKETS],
    /// Predict-pool accounting: batches fanned out across executor
    /// threads, how many shards each fan-out occupied, how large the
    /// shards were, and the per-model configured worker count (a gauge,
    /// set once per batcher start).
    pool_fanouts_total: AtomicU64,
    pool_occupancy_hist: [AtomicU64; POOL_OCCUPANCY_BUCKETS],
    pool_shard_hist: [AtomicU64; BATCH_BUCKETS],
    predict_workers: RwLock<BTreeMap<String, u64>>,
    /// Durability: delta records fsynced to a write-ahead log before
    /// publish, appends that failed (the batch was refused), and records
    /// replayed from log tails during crash recovery.
    wal_appends_total: AtomicU64,
    wal_append_errors_total: AtomicU64,
    wal_records_replayed: AtomicU64,
    /// Replication (follower side): delta records applied from the
    /// leader, full re-bootstraps (snapshot transfer), and poll errors
    /// against the leader's `/v1/deltas`.
    replica_records_applied_total: AtomicU64,
    replica_resets_total: AtomicU64,
    replica_poll_errors_total: AtomicU64,
    /// Tracing: the completed-trace ring (`/debug/traces`), the slow-trace
    /// ring (`/debug/traces/slow`), the master switch (`X-Request-Id`
    /// still echoes when off; only span/ring/histogram recording stops),
    /// and the slow threshold in µs (0 = disabled).
    traces: TraceRing,
    slow_traces: TraceRing,
    trace_enabled: AtomicBool,
    slow_request_us: AtomicU64,
    /// Per-model stage histograms, keyed by model name ("" for requests
    /// that never resolved a model). Written once per completed trace;
    /// the read lock is uncontended after the first request per model.
    stage_hists: RwLock<BTreeMap<String, Arc<StageHist>>>,
    /// Process vitals: monotonic start (uptime) and its wall-clock echo.
    started: Instant,
    start_epoch_secs: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Self {
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            predict_requests: AtomicU64::new(0),
            predict_inputs: AtomicU64::new(0),
            batch_count: AtomicU64::new(0),
            batch_inputs: AtomicU64::new(0),
            batch_max: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_count: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            train_requests: AtomicU64::new(0),
            train_examples: AtomicU64::new(0),
            train_batches: AtomicU64::new(0),
            train_batch_examples: AtomicU64::new(0),
            feedback_requests: AtomicU64::new(0),
            feedback_applied: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            deadline_expired_total: AtomicU64::new(0),
            worker_panics_total: AtomicU64::new(0),
            worker_respawns_total: AtomicU64::new(0),
            handler_panics_total: AtomicU64::new(0),
            queue_depth_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            pool_fanouts_total: AtomicU64::new(0),
            pool_occupancy_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            pool_shard_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            predict_workers: RwLock::new(BTreeMap::new()),
            wal_appends_total: AtomicU64::new(0),
            wal_append_errors_total: AtomicU64::new(0),
            wal_records_replayed: AtomicU64::new(0),
            replica_records_applied_total: AtomicU64::new(0),
            replica_resets_total: AtomicU64::new(0),
            replica_poll_errors_total: AtomicU64::new(0),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            slow_traces: TraceRing::new(SLOW_RING_CAPACITY),
            trace_enabled: AtomicBool::new(true),
            slow_request_us: AtomicU64::new(0),
            stage_hists: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
            start_epoch_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Counts one accepted request.
    pub fn on_request(&self) {
        self.requests_total.fetch_add(1, Relaxed);
    }

    /// Counts one response by status class.
    pub fn on_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Relaxed);
    }

    /// Counts one predict request carrying `inputs` individual inputs.
    pub fn on_predict(&self, inputs: usize) {
        self.predict_requests.fetch_add(1, Relaxed);
        self.predict_inputs.fetch_add(inputs as u64, Relaxed);
    }

    /// Records one coalesced batch execution of `size` queries.
    pub fn on_batch(&self, size: usize) {
        self.batch_count.fetch_add(1, Relaxed);
        self.batch_inputs.fetch_add(size as u64, Relaxed);
        self.batch_max.fetch_max(size as u64, Relaxed);
        let bucket = (size.max(1) - 1).min(BATCH_BUCKETS - 1);
        self.batch_hist[bucket].fetch_add(1, Relaxed);
    }

    /// Records one end-to-end predict latency sample.
    pub fn on_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_count.fetch_add(1, Relaxed);
        self.latency_sum_us.fetch_add(us, Relaxed);
        self.latency_hist[latency_bucket_index(us)].fetch_add(1, Relaxed);
    }

    /// Counts one `/v1/train` request whose `examples` were absorbed.
    pub fn on_train(&self, examples: usize) {
        self.train_requests.fetch_add(1, Relaxed);
        self.train_examples.fetch_add(examples as u64, Relaxed);
    }

    /// Records one coalesced update batch published by a batcher worker
    /// (one model-version bump absorbing `examples` examples/updates).
    pub fn on_train_batch(&self, examples: usize) {
        self.train_batches.fetch_add(1, Relaxed);
        self.train_batch_examples.fetch_add(examples as u64, Relaxed);
    }

    /// Counts one `/v1/feedback` request and whether it applied an update.
    pub fn on_feedback(&self, applied: bool) {
        self.feedback_requests.fetch_add(1, Relaxed);
        if applied {
            self.feedback_applied.fetch_add(1, Relaxed);
        }
    }

    /// Counts one request shed because its model's job queue was full.
    pub fn on_shed(&self) {
        self.shed_total.fetch_add(1, Relaxed);
    }

    /// Counts one queued job whose wait deadline expired before execution.
    pub fn on_deadline_expired(&self) {
        self.deadline_expired_total.fetch_add(1, Relaxed);
    }

    /// Counts one job quarantined because the model panicked executing it.
    pub fn on_worker_panic(&self) {
        self.worker_panics_total.fetch_add(1, Relaxed);
    }

    /// Counts one batcher worker restart after a panic escaped the
    /// per-batch isolation.
    pub fn on_worker_respawn(&self) {
        self.worker_respawns_total.fetch_add(1, Relaxed);
    }

    /// Counts one request whose handler panicked (answered 500 by the
    /// accept thread, which keeps serving).
    pub fn on_handler_panic(&self) {
        self.handler_panics_total.fetch_add(1, Relaxed);
    }

    /// Records the queue depth (jobs already waiting) one successful
    /// enqueue observed.
    pub fn on_enqueue_depth(&self, depth: usize) {
        // Bucket 0 holds depth 0; bucket i holds depth < 2^i.
        let bucket = (usize::BITS - depth.leading_zeros()) as usize;
        self.queue_depth_hist[bucket.min(QUEUE_DEPTH_BUCKETS - 1)].fetch_add(1, Relaxed);
    }

    /// Records one predict batch fanned out across the executor pool,
    /// occupying `shards` executors.
    pub fn on_pool_fanout(&self, shards: usize) {
        self.pool_fanouts_total.fetch_add(1, Relaxed);
        let bucket = (shards.max(1) - 1).min(POOL_OCCUPANCY_BUCKETS - 1);
        self.pool_occupancy_hist[bucket].fetch_add(1, Relaxed);
    }

    /// Records the size of one contiguous shard handed to an executor.
    pub fn on_pool_shard(&self, size: usize) {
        let bucket = (size.max(1) - 1).min(BATCH_BUCKETS - 1);
        self.pool_shard_hist[bucket].fetch_add(1, Relaxed);
    }

    /// Sets the predict-pool worker gauge for `model` (the configured
    /// executor count, recorded when its batcher starts).
    pub fn set_predict_workers(&self, model: &str, workers: usize) {
        let mut map =
            self.predict_workers.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.insert(model.to_string(), workers as u64);
    }

    /// Snapshot of the per-model predict-worker gauges.
    pub fn predict_workers(&self) -> Vec<(String, u64)> {
        self.predict_workers
            .read()
            .map(|map| map.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Predict batches fanned out across the executor pool.
    pub fn pool_fanouts_total(&self) -> u64 {
        self.pool_fanouts_total.load(Relaxed)
    }

    /// Snapshot of the pool-occupancy histogram (bucket `i` = `i+1`
    /// shards, last bucket open-ended).
    pub fn pool_occupancy_hist(&self) -> Vec<u64> {
        self.pool_occupancy_hist.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Snapshot of the shard-size histogram (bucket `i` = `i+1` inputs,
    /// last bucket open-ended).
    pub fn pool_shard_hist(&self) -> Vec<u64> {
        self.pool_shard_hist.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Counts one delta record fsynced to a write-ahead log.
    pub fn on_wal_append(&self) {
        self.wal_appends_total.fetch_add(1, Relaxed);
    }

    /// Counts one refused update batch: the write-ahead log append
    /// failed, so the new model version was never published.
    pub fn on_wal_append_error(&self) {
        self.wal_append_errors_total.fetch_add(1, Relaxed);
    }

    /// Counts `records` replayed from a write-ahead log tail while
    /// recovering a model at load time.
    pub fn on_wal_replay(&self, records: u64) {
        self.wal_records_replayed.fetch_add(records, Relaxed);
    }

    /// Counts `records` delta records applied from the leader's feed.
    pub fn on_replica_applied(&self, records: u64) {
        self.replica_records_applied_total.fetch_add(records, Relaxed);
    }

    /// Counts one full follower re-bootstrap (snapshot transfer).
    pub fn on_replica_reset(&self) {
        self.replica_resets_total.fetch_add(1, Relaxed);
    }

    /// Counts one failed poll against the leader.
    pub fn on_replica_poll_error(&self) {
        self.replica_poll_errors_total.fetch_add(1, Relaxed);
    }

    /// Turns per-request trace recording on or off. `X-Request-Id`
    /// echoing is part of the HTTP contract and stays on regardless; this
    /// gates only span accumulation, ring pushes, and stage histograms —
    /// exactly the work the `serve_trace_overhead` bench row measures.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.trace_enabled.store(enabled, Relaxed);
    }

    /// Whether per-request trace recording is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled.load(Relaxed)
    }

    /// Sets the slow-request threshold (µs). Requests whose end-to-end
    /// time meets it are copied into the slow ring and logged. 0 disables.
    pub fn set_slow_request_us(&self, us: u64) {
        self.slow_request_us.store(us, Relaxed);
    }

    /// The current slow-request threshold in µs (0 = disabled).
    pub fn slow_request_us(&self) -> u64 {
        self.slow_request_us.load(Relaxed)
    }

    /// Absorbs one completed trace: pushes it into the ring, feeds the
    /// per-model stage histograms, and — when the slow threshold is set
    /// and met — copies it into the slow ring. Returns `true` when the
    /// record qualified as slow so the caller can emit the log line.
    pub fn on_trace(&self, record: &TraceRecord) -> bool {
        let hist = self.stage_hist_for(&record.model);
        for (stage, &us) in record.stages.iter().enumerate() {
            // Stages the request never entered stay zero and are not
            // counted — a predict must not smear the write-only stages'
            // distributions with zeros.
            if us > 0 {
                hist.observe(stage, us);
            }
        }
        self.traces.push(record.clone());
        let threshold = self.slow_request_us.load(Relaxed);
        let slow = threshold > 0 && record.total_us >= threshold;
        if slow {
            self.slow_traces.push(record.clone());
        }
        slow
    }

    /// The completed-trace ring behind `GET /debug/traces`.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// The slow-trace ring behind `GET /debug/traces/slow`.
    pub fn slow_traces(&self) -> &TraceRing {
        &self.slow_traces
    }

    /// The stage histogram for `model`, creating it on first use.
    fn stage_hist_for(&self, model: &str) -> Arc<StageHist> {
        if let Ok(map) = self.stage_hists.read() {
            if let Some(hist) = map.get(model) {
                return Arc::clone(hist);
            }
        }
        let mut map = self.stage_hists.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(map.entry(model.to_owned()).or_insert_with(|| Arc::new(StageHist::new())))
    }

    /// Snapshot of the per-model stage histograms (model name → hist).
    pub fn stage_hists(&self) -> Vec<(String, Arc<StageHist>)> {
        self.stage_hists
            .read()
            .map(|map| map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect())
            .unwrap_or_default()
    }

    /// Seconds this process (strictly: this `Metrics`) has been up.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Wall-clock seconds since the epoch when this process started.
    pub fn start_epoch_secs(&self) -> u64 {
        self.start_epoch_secs
    }

    /// Delta records fsynced to write-ahead logs so far.
    pub fn wal_appends_total(&self) -> u64 {
        self.wal_appends_total.load(Relaxed)
    }

    /// Update batches refused because the log append failed.
    pub fn wal_append_errors_total(&self) -> u64 {
        self.wal_append_errors_total.load(Relaxed)
    }

    /// Records replayed from log tails during crash recovery.
    pub fn wal_records_replayed(&self) -> u64 {
        self.wal_records_replayed.load(Relaxed)
    }

    /// Delta records this follower applied from its leader.
    pub fn replica_records_applied_total(&self) -> u64 {
        self.replica_records_applied_total.load(Relaxed)
    }

    /// Requests shed so far (503).
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Relaxed)
    }

    /// Queue-wait deadline expiries so far (504).
    pub fn deadline_expired_total(&self) -> u64 {
        self.deadline_expired_total.load(Relaxed)
    }

    /// Jobs quarantined by a model panic so far (500).
    pub fn worker_panics_total(&self) -> u64 {
        self.worker_panics_total.load(Relaxed)
    }

    /// Batcher workers respawned after an escaped panic.
    pub fn worker_respawns_total(&self) -> u64 {
        self.worker_respawns_total.load(Relaxed)
    }

    /// Requests whose handler panicked so far (500).
    pub fn handler_panics_total(&self) -> u64 {
        self.handler_panics_total.load(Relaxed)
    }

    /// Snapshot of the queue-depth histogram counts, one per
    /// power-of-two bucket (bucket 0 = empty queue, last = open-ended).
    pub fn queue_depth_hist(&self) -> Vec<u64> {
        self.queue_depth_hist.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Total examples absorbed through `/v1/train`.
    pub fn train_examples(&self) -> u64 {
        self.train_examples.load(Relaxed)
    }

    /// Published update batches (= total model-version bumps across all
    /// models recording into this sink).
    pub fn train_batches(&self) -> u64 {
        self.train_batches.load(Relaxed)
    }

    /// Mean examples per published update batch (0 when none ran) — the
    /// training-side coalescing proof, analogous to
    /// [`mean_batch_size`](Self::mean_batch_size).
    pub fn mean_train_batch_size(&self) -> f64 {
        let count = self.train_batches.load(Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.train_batch_examples.load(Relaxed) as f64 / count as f64
    }

    /// Executed batches and the inputs they held, so far: a window's mean
    /// batch size is the ratio of the two deltas.
    pub(crate) fn batch_totals(&self) -> (u64, u64) {
        (self.batch_count.load(Relaxed), self.batch_inputs.load(Relaxed))
    }

    /// Mean executed batch size (0 when nothing ran yet).
    pub fn mean_batch_size(&self) -> f64 {
        let count = self.batch_count.load(Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.batch_inputs.load(Relaxed) as f64 / count as f64
    }

    /// The `q`-quantile latency in microseconds, as the upper bound of the
    /// bucket the quantile falls in (0 with no samples).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let total = self.latency_count.load(Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.latency_hist.iter().enumerate() {
            seen += bucket.load(Relaxed);
            if seen >= rank {
                return latency_bucket_bound_us(i);
            }
        }
        latency_bucket_bound_us(LATENCY_BUCKETS - 1)
    }

    /// Total requests seen so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Relaxed)
    }

    /// Renders the full snapshot as the `/metrics` JSON document.
    pub fn render(&self) -> Json {
        let batch_hist: Vec<Json> = self
            .batch_hist
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Relaxed) > 0)
            .map(|(i, c)| {
                let label = if i == BATCH_BUCKETS - 1 {
                    format!("{}+", i + 1)
                } else {
                    (i + 1).to_string()
                };
                Json::obj([("size", Json::from(label)), ("count", Json::from(c.load(Relaxed)))])
            })
            .collect();
        let latency_hist: Vec<Json> = self
            .latency_hist
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Relaxed) > 0)
            .map(|(i, c)| {
                Json::obj([
                    ("le_us", Json::from(1u64 << (i + 1))),
                    ("count", Json::from(c.load(Relaxed))),
                ])
            })
            .collect();
        let latency_count = self.latency_count.load(Relaxed);
        let mean_latency = if latency_count == 0 {
            0.0
        } else {
            self.latency_sum_us.load(Relaxed) as f64 / latency_count as f64
        };
        let queue_depth_hist: Vec<Json> = self
            .queue_depth_hist
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Relaxed) > 0)
            .map(|(i, c)| {
                Json::obj([
                    ("lt_depth", Json::from(1u64 << i)),
                    ("count", Json::from(c.load(Relaxed))),
                ])
            })
            .collect();
        let size_hist = |hist: &[AtomicU64]| -> Vec<Json> {
            hist.iter()
                .enumerate()
                .filter(|(_, c)| c.load(Relaxed) > 0)
                .map(|(i, c)| {
                    let label = if i == hist.len() - 1 {
                        format!("{}+", i + 1)
                    } else {
                        (i + 1).to_string()
                    };
                    Json::obj([("size", Json::from(label)), ("count", Json::from(c.load(Relaxed)))])
                })
                .collect()
        };
        let pool_workers = Json::Obj(
            self.predict_workers()
                .into_iter()
                .map(|(model, workers)| (model, Json::from(workers)))
                .collect(),
        );
        Json::obj([
            ("requests_total", Json::from(self.requests_total.load(Relaxed))),
            (
                "responses",
                Json::obj([
                    ("2xx", Json::from(self.responses_2xx.load(Relaxed))),
                    ("4xx", Json::from(self.responses_4xx.load(Relaxed))),
                    ("5xx", Json::from(self.responses_5xx.load(Relaxed))),
                ]),
            ),
            (
                "predict",
                Json::obj([
                    ("requests", Json::from(self.predict_requests.load(Relaxed))),
                    ("inputs", Json::from(self.predict_inputs.load(Relaxed))),
                ]),
            ),
            (
                "batches",
                Json::obj([
                    ("count", Json::from(self.batch_count.load(Relaxed))),
                    ("inputs", Json::from(self.batch_inputs.load(Relaxed))),
                    ("mean_size", Json::from(self.mean_batch_size())),
                    ("max_size", Json::from(self.batch_max.load(Relaxed))),
                    ("hist", Json::Arr(batch_hist)),
                ]),
            ),
            (
                "predict_pool",
                Json::obj([
                    ("workers", pool_workers),
                    ("fanouts", Json::from(self.pool_fanouts_total.load(Relaxed))),
                    ("occupancy_hist", Json::Arr(size_hist(&self.pool_occupancy_hist))),
                    ("shard_size_hist", Json::Arr(size_hist(&self.pool_shard_hist))),
                ]),
            ),
            (
                "training",
                Json::obj([
                    ("requests", Json::from(self.train_requests.load(Relaxed))),
                    ("examples", Json::from(self.train_examples.load(Relaxed))),
                    ("batches", Json::from(self.train_batches.load(Relaxed))),
                    ("batch_examples", Json::from(self.train_batch_examples.load(Relaxed))),
                    ("mean_batch_size", Json::from(self.mean_train_batch_size())),
                    (
                        "feedback",
                        Json::obj([
                            ("requests", Json::from(self.feedback_requests.load(Relaxed))),
                            ("applied", Json::from(self.feedback_applied.load(Relaxed))),
                        ]),
                    ),
                ]),
            ),
            (
                "overload",
                Json::obj([
                    ("shed_total", Json::from(self.shed_total.load(Relaxed))),
                    (
                        "deadline_expired_total",
                        Json::from(self.deadline_expired_total.load(Relaxed)),
                    ),
                    ("worker_panics_total", Json::from(self.worker_panics_total.load(Relaxed))),
                    ("worker_respawns_total", Json::from(self.worker_respawns_total.load(Relaxed))),
                    ("handler_panics_total", Json::from(self.handler_panics_total.load(Relaxed))),
                    ("queue_depth_hist", Json::Arr(queue_depth_hist)),
                ]),
            ),
            (
                "durability",
                Json::obj([
                    ("wal_appends_total", Json::from(self.wal_appends_total.load(Relaxed))),
                    (
                        "wal_append_errors_total",
                        Json::from(self.wal_append_errors_total.load(Relaxed)),
                    ),
                    ("wal_records_replayed", Json::from(self.wal_records_replayed.load(Relaxed))),
                ]),
            ),
            (
                "replication",
                Json::obj([
                    (
                        "records_applied_total",
                        Json::from(self.replica_records_applied_total.load(Relaxed)),
                    ),
                    ("resets_total", Json::from(self.replica_resets_total.load(Relaxed))),
                    ("poll_errors_total", Json::from(self.replica_poll_errors_total.load(Relaxed))),
                ]),
            ),
            (
                "latency_us",
                Json::obj([
                    ("count", Json::from(latency_count)),
                    ("mean", Json::from(mean_latency)),
                    ("p50", Json::from(self.latency_quantile_us(0.50))),
                    ("p99", Json::from(self.latency_quantile_us(0.99))),
                    ("hist", Json::Arr(latency_hist)),
                ]),
            ),
            (
                "process",
                Json::obj([
                    ("start_time_unix", Json::from(self.start_epoch_secs)),
                    ("uptime_secs", Json::from(self.uptime_secs())),
                    ("version", Json::from(env!("CARGO_PKG_VERSION"))),
                    ("rss_kb", rss_current_kb().map_or(Json::Null, Json::from)),
                    ("kernel_backend", Json::from(hdc::kernel::backend::active().name())),
                    ("cpu_features", Json::from(hdc::kernel::backend::cpu_features())),
                ]),
            ),
        ])
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4). The JSON surface from [`render`](Self::render)
    /// stays canonical; this is a parallel view over the same atomics.
    ///
    /// Naming: everything is prefixed `hdc_`, counters end in `_total`,
    /// histograms follow the `_bucket{le=…}` / `_sum` / `_count`
    /// convention with **cumulative** bucket counts. Power-of-two bucket
    /// `i` of the internal histograms holds `us < 2^(i+1)`; since samples
    /// are integral µs that is exactly `le = 2^(i+1) - 1`.
    pub fn render_prometheus(&self) -> String {
        fn counter(out: &mut String, name: &str, help: &str, value: u64) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        }
        let mut out = String::with_capacity(8 * 1024);
        counter(
            &mut out,
            "hdc_requests_total",
            "Requests accepted off the wire.",
            self.requests_total.load(Relaxed),
        );
        let classes = [
            ("2xx", self.responses_2xx.load(Relaxed)),
            ("4xx", self.responses_4xx.load(Relaxed)),
            ("5xx", self.responses_5xx.load(Relaxed)),
        ];
        out.push_str("# HELP hdc_responses_total Responses by status class.\n");
        out.push_str("# TYPE hdc_responses_total counter\n");
        for (class, value) in classes {
            out.push_str(&format!("hdc_responses_total{{class=\"{class}\"}} {value}\n"));
        }
        counter(
            &mut out,
            "hdc_predict_requests_total",
            "Predict requests.",
            self.predict_requests.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_predict_inputs_total",
            "Individual inputs carried by predict requests.",
            self.predict_inputs.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_train_requests_total",
            "Train requests.",
            self.train_requests.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_train_examples_total",
            "Examples absorbed through /v1/train.",
            self.train_examples.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_train_batches_total",
            "Coalesced update batches published (one version bump each).",
            self.train_batches.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_feedback_requests_total",
            "Feedback requests.",
            self.feedback_requests.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_feedback_applied_total",
            "Feedback requests that applied an adaptive update.",
            self.feedback_applied.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_shed_total",
            "Requests shed because a job queue was full (503).",
            self.shed_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_deadline_expired_total",
            "Queued jobs whose wait deadline expired (504).",
            self.deadline_expired_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_worker_panics_total",
            "Jobs quarantined by a model panic (500).",
            self.worker_panics_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_worker_respawns_total",
            "Batcher workers restarted after an escaped panic.",
            self.worker_respawns_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_handler_panics_total",
            "Requests whose handler panicked (500); the accept thread kept serving.",
            self.handler_panics_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_wal_appends_total",
            "Delta records fsynced to write-ahead logs.",
            self.wal_appends_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_wal_append_errors_total",
            "Update batches refused because the WAL append failed.",
            self.wal_append_errors_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_wal_records_replayed_total",
            "Records replayed from WAL tails during crash recovery.",
            self.wal_records_replayed.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_replica_records_applied_total",
            "Delta records applied from the leader.",
            self.replica_records_applied_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_replica_resets_total",
            "Full follower re-bootstraps (snapshot transfer).",
            self.replica_resets_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_replica_poll_errors_total",
            "Failed polls against the leader.",
            self.replica_poll_errors_total.load(Relaxed),
        );
        counter(
            &mut out,
            "hdc_traces_recorded_total",
            "Completed traces pushed into the debug ring.",
            self.traces.pushed(),
        );
        counter(
            &mut out,
            "hdc_traces_slow_total",
            "Traces that met the slow-request threshold.",
            self.slow_traces.pushed(),
        );

        // End-to-end request latency: a real Prometheus histogram (we have
        // sum + count), cumulative buckets.
        out.push_str("# HELP hdc_request_latency_us End-to-end request latency.\n");
        out.push_str("# TYPE hdc_request_latency_us histogram\n");
        let mut cumulative = 0u64;
        for (i, bucket) in self.latency_hist.iter().enumerate() {
            cumulative += bucket.load(Relaxed);
            out.push_str(&format!(
                "hdc_request_latency_us_bucket{{le=\"{}\"}} {cumulative}\n",
                latency_bucket_bound_us(i) - 1
            ));
        }
        out.push_str(&format!("hdc_request_latency_us_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "hdc_request_latency_us_sum {}\n",
            self.latency_sum_us.load(Relaxed)
        ));
        out.push_str(&format!(
            "hdc_request_latency_us_count {}\n",
            self.latency_count.load(Relaxed)
        ));

        // Coalesced batch sizes: histogram over exact sizes 1..=64, +Inf.
        out.push_str("# HELP hdc_batch_size Coalesced batch sizes executed.\n");
        out.push_str("# TYPE hdc_batch_size histogram\n");
        let mut cumulative = 0u64;
        for (i, bucket) in self.batch_hist.iter().enumerate().take(BATCH_BUCKETS - 1) {
            cumulative += bucket.load(Relaxed);
            out.push_str(&format!("hdc_batch_size_bucket{{le=\"{}\"}} {cumulative}\n", i + 1));
        }
        cumulative += self.batch_hist[BATCH_BUCKETS - 1].load(Relaxed);
        out.push_str(&format!("hdc_batch_size_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("hdc_batch_size_sum {}\n", self.batch_inputs.load(Relaxed)));
        out.push_str(&format!("hdc_batch_size_count {}\n", self.batch_count.load(Relaxed)));

        // Queue depth at enqueue: labeled counter (no meaningful sum).
        out.push_str(
            "# HELP hdc_queue_depth_observations_total Enqueues by observed queue depth.\n",
        );
        out.push_str("# TYPE hdc_queue_depth_observations_total counter\n");
        for (i, bucket) in self.queue_depth_hist.iter().enumerate() {
            let value = bucket.load(Relaxed);
            if value > 0 {
                out.push_str(&format!(
                    "hdc_queue_depth_observations_total{{lt=\"{}\"}} {value}\n",
                    1u64 << i
                ));
            }
        }

        // Predict pool: the per-model worker gauge, fan-out counter, and
        // occupancy / shard-size histograms.
        let pool_workers = self.predict_workers();
        if !pool_workers.is_empty() {
            out.push_str(
                "# HELP hdc_predict_workers Configured predict-pool executors per model.\n",
            );
            out.push_str("# TYPE hdc_predict_workers gauge\n");
            for (model, workers) in &pool_workers {
                out.push_str(&format!("hdc_predict_workers{{model=\"{model}\"}} {workers}\n"));
            }
        }
        counter(
            &mut out,
            "hdc_pool_fanouts_total",
            "Predict batches fanned out across the executor pool.",
            self.pool_fanouts_total.load(Relaxed),
        );
        out.push_str("# HELP hdc_pool_occupancy Executors occupied per pool fan-out.\n");
        out.push_str("# TYPE hdc_pool_occupancy histogram\n");
        let mut cumulative = 0u64;
        for (i, bucket) in
            self.pool_occupancy_hist.iter().enumerate().take(POOL_OCCUPANCY_BUCKETS - 1)
        {
            cumulative += bucket.load(Relaxed);
            out.push_str(&format!("hdc_pool_occupancy_bucket{{le=\"{}\"}} {cumulative}\n", i + 1));
        }
        cumulative += self.pool_occupancy_hist[POOL_OCCUPANCY_BUCKETS - 1].load(Relaxed);
        out.push_str(&format!("hdc_pool_occupancy_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("hdc_pool_occupancy_count {cumulative}\n"));
        out.push_str("# HELP hdc_pool_shard_size Inputs per contiguous pool shard.\n");
        out.push_str("# TYPE hdc_pool_shard_size histogram\n");
        let mut cumulative = 0u64;
        for (i, bucket) in self.pool_shard_hist.iter().enumerate().take(BATCH_BUCKETS - 1) {
            cumulative += bucket.load(Relaxed);
            out.push_str(&format!("hdc_pool_shard_size_bucket{{le=\"{}\"}} {cumulative}\n", i + 1));
        }
        cumulative += self.pool_shard_hist[BATCH_BUCKETS - 1].load(Relaxed);
        out.push_str(&format!("hdc_pool_shard_size_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("hdc_pool_shard_size_count {cumulative}\n"));

        // Per-stage, per-model latency: one histogram family, labeled.
        out.push_str("# HELP hdc_stage_latency_us Per-stage request latency by model.\n");
        out.push_str("# TYPE hdc_stage_latency_us histogram\n");
        for (model, hist) in self.stage_hists() {
            for (stage, stage_name) in STAGE_NAMES.iter().enumerate() {
                if hist.stage_count(stage) == 0 {
                    continue;
                }
                let mut cumulative = 0u64;
                for (i, count) in hist.stage_buckets(stage).into_iter().enumerate() {
                    cumulative += count;
                    if count > 0 || i == LATENCY_BUCKETS - 1 {
                        out.push_str(&format!(
                            "hdc_stage_latency_us_bucket{{model=\"{model}\",stage=\"{stage_name}\",le=\"{}\"}} {cumulative}\n",
                            latency_bucket_bound_us(i) - 1
                        ));
                    }
                }
                out.push_str(&format!(
                    "hdc_stage_latency_us_bucket{{model=\"{model}\",stage=\"{stage_name}\",le=\"+Inf\"}} {cumulative}\n",
                ));
                out.push_str(&format!(
                    "hdc_stage_latency_us_sum{{model=\"{model}\",stage=\"{stage_name}\"}} {}\n",
                    hist.stage_sum_us(stage)
                ));
                out.push_str(&format!(
                    "hdc_stage_latency_us_count{{model=\"{model}\",stage=\"{stage_name}\"}} {}\n",
                    hist.stage_count(stage)
                ));
            }
        }

        // Process vitals.
        out.push_str("# HELP hdc_process_start_time_seconds Unix start time.\n");
        out.push_str("# TYPE hdc_process_start_time_seconds gauge\n");
        out.push_str(&format!("hdc_process_start_time_seconds {}\n", self.start_epoch_secs));
        out.push_str("# HELP hdc_process_uptime_seconds Seconds since start.\n");
        out.push_str("# TYPE hdc_process_uptime_seconds gauge\n");
        out.push_str(&format!("hdc_process_uptime_seconds {}\n", self.uptime_secs()));
        if let Some(rss) = rss_current_kb() {
            out.push_str("# HELP hdc_process_resident_memory_kilobytes Current RSS.\n");
            out.push_str("# TYPE hdc_process_resident_memory_kilobytes gauge\n");
            out.push_str(&format!("hdc_process_resident_memory_kilobytes {rss}\n"));
        }
        out.push_str("# HELP hdc_process_kernel_backend Active kernel dispatch tier as a label.\n");
        out.push_str("# TYPE hdc_process_kernel_backend gauge\n");
        out.push_str(&format!(
            "hdc_process_kernel_backend{{backend=\"{}\"}} 1\n",
            hdc::kernel::backend::active().name()
        ));
        out.push_str("# HELP hdc_build_info Build metadata as labels.\n");
        out.push_str("# TYPE hdc_build_info gauge\n");
        out.push_str(&format!("hdc_build_info{{version=\"{}\"}} 1\n", env!("CARGO_PKG_VERSION")));
        out
    }
}

/// A field from `/proc/self/status`, in kB — `None` off Linux or when the
/// field is missing (the serving code treats that as "unknown", never 0).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            let number = rest.split_whitespace().next()?;
            return number.parse().ok();
        }
    }
    None
}

/// Current resident set size in kB (`VmRSS`), `None` off Linux.
pub fn rss_current_kb() -> Option<u64> {
    proc_status_kb("VmRSS")
}

/// Peak resident set size in kB (`VmHWM`), `None` off Linux.
pub fn rss_peak_kb() -> Option<u64> {
    proc_status_kb("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_classes() {
        let m = Metrics::new();
        m.on_request();
        m.on_request();
        m.on_response(200);
        m.on_response(404);
        m.on_response(500);
        assert_eq!(m.requests_total(), 2);
        let snap = m.render();
        assert_eq!(snap.get("responses").unwrap().get("2xx").unwrap().as_f64(), Some(1.0));
        assert_eq!(snap.get("responses").unwrap().get("4xx").unwrap().as_f64(), Some(1.0));
        assert_eq!(snap.get("responses").unwrap().get("5xx").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn batch_histogram_and_mean() {
        let m = Metrics::new();
        m.on_batch(1);
        m.on_batch(4);
        m.on_batch(4);
        m.on_batch(7);
        assert!((m.mean_batch_size() - 4.0).abs() < 1e-12);
        let snap = m.render();
        let batches = snap.get("batches").unwrap();
        assert_eq!(batches.get("max_size").unwrap().as_f64(), Some(7.0));
        let hist = batches.get("hist").unwrap().as_array().unwrap();
        let four = hist
            .iter()
            .find(|b| b.get("size").unwrap().as_str() == Some("4"))
            .expect("bucket for size 4");
        assert_eq!(four.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn oversized_batches_fold_into_last_bucket() {
        let m = Metrics::new();
        m.on_batch(500);
        let snap = m.render();
        let hist = snap.get("batches").unwrap().get("hist").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].get("size").unwrap().as_str(), Some("65+"));
    }

    #[test]
    fn pool_counters_render_in_json_and_prometheus() {
        let m = Metrics::new();
        m.set_predict_workers("default", 3);
        m.on_pool_fanout(3);
        m.on_pool_fanout(2);
        m.on_pool_shard(7);
        m.on_pool_shard(6);
        m.on_pool_shard(6);
        assert_eq!(m.pool_fanouts_total(), 2);
        assert_eq!(m.pool_occupancy_hist().iter().sum::<u64>(), 2);
        assert_eq!(m.pool_shard_hist().iter().sum::<u64>(), 3);
        assert_eq!(m.predict_workers(), vec![("default".to_owned(), 3)]);

        let snap = m.render();
        let pool = snap.get("predict_pool").unwrap();
        assert_eq!(pool.get("workers").unwrap().get("default").unwrap().as_f64(), Some(3.0));
        assert_eq!(pool.get("fanouts").unwrap().as_f64(), Some(2.0));
        let occupancy = pool.get("occupancy_hist").unwrap().as_array().unwrap();
        let three = occupancy
            .iter()
            .find(|b| b.get("size").unwrap().as_str() == Some("3"))
            .expect("occupancy bucket for 3 executors");
        assert_eq!(three.get("count").unwrap().as_f64(), Some(1.0));
        let shard = pool.get("shard_size_hist").unwrap().as_array().unwrap();
        let six = shard
            .iter()
            .find(|b| b.get("size").unwrap().as_str() == Some("6"))
            .expect("shard bucket for size 6");
        assert_eq!(six.get("count").unwrap().as_f64(), Some(2.0));

        let prom = m.render_prometheus();
        assert!(prom.contains("hdc_predict_workers{model=\"default\"} 3"), "{prom}");
        assert!(prom.contains("hdc_pool_fanouts_total 2"), "{prom}");
        assert!(prom.contains("hdc_pool_occupancy_count 2"), "{prom}");
        assert!(prom.contains("hdc_pool_shard_size_count 3"), "{prom}");
    }

    #[test]
    fn oversized_pool_occupancy_folds_into_last_bucket() {
        let m = Metrics::new();
        m.on_pool_fanout(500);
        m.on_pool_shard(500);
        let snap = m.render();
        let pool = snap.get("predict_pool").unwrap();
        let occupancy = pool.get("occupancy_hist").unwrap().as_array().unwrap();
        assert_eq!(occupancy.len(), 1);
        assert_eq!(occupancy[0].get("size").unwrap().as_str(), Some("17+"));
        let shard = pool.get("shard_size_hist").unwrap().as_array().unwrap();
        assert_eq!(shard.len(), 1);
        assert_eq!(shard[0].get("size").unwrap().as_str(), Some("65+"));
    }

    #[test]
    fn latency_quantiles_from_buckets() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.on_latency(Duration::from_micros(100)); // bucket < 128
        }
        m.on_latency(Duration::from_micros(5_000)); // bucket < 8192
        assert_eq!(m.latency_quantile_us(0.50), 128);
        assert_eq!(m.latency_quantile_us(0.99), 128);
        assert_eq!(m.latency_quantile_us(1.0), 8192);
    }

    #[test]
    fn training_counters_and_render() {
        let m = Metrics::new();
        m.on_train(3);
        m.on_train(1);
        m.on_train_batch(4);
        m.on_feedback(true);
        m.on_feedback(false);
        assert_eq!(m.train_examples(), 4);
        assert!((m.mean_train_batch_size() - 4.0).abs() < 1e-12);
        let snap = m.render();
        let training = snap.get("training").unwrap();
        assert_eq!(training.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(training.get("examples").unwrap().as_f64(), Some(4.0));
        assert_eq!(training.get("batches").unwrap().as_f64(), Some(1.0));
        let feedback = training.get("feedback").unwrap();
        assert_eq!(feedback.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(feedback.get("applied").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn overload_counters_and_queue_depth_histogram() {
        let m = Metrics::new();
        m.on_shed();
        m.on_shed();
        m.on_deadline_expired();
        m.on_worker_panic();
        m.on_worker_respawn();
        m.on_enqueue_depth(0);
        m.on_enqueue_depth(1);
        m.on_enqueue_depth(3);
        m.on_enqueue_depth(100_000); // folds into the open-ended bucket
        assert_eq!(m.shed_total(), 2);
        assert_eq!(m.deadline_expired_total(), 1);
        assert_eq!(m.worker_panics_total(), 1);
        assert_eq!(m.worker_respawns_total(), 1);
        let snap = m.render();
        let overload = snap.get("overload").expect("overload section");
        assert_eq!(overload.get("shed_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(overload.get("deadline_expired_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(overload.get("worker_panics_total").unwrap().as_f64(), Some(1.0));
        let hist = overload.get("queue_depth_hist").unwrap().as_array().unwrap();
        // depth 0 -> bucket "<1", depth 1 -> "<2", depth 3 -> "<4",
        // depth 100k -> the open-ended last bucket.
        assert_eq!(hist.len(), 4, "{hist:?}");
        assert_eq!(hist[0].get("lt_depth").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist[1].get("lt_depth").unwrap().as_f64(), Some(2.0));
        assert_eq!(hist[2].get("lt_depth").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn durability_and_replication_counters_render() {
        let m = Metrics::new();
        m.on_wal_append();
        m.on_wal_append();
        m.on_wal_append_error();
        m.on_wal_replay(7);
        m.on_replica_applied(3);
        m.on_replica_reset();
        m.on_replica_poll_error();
        assert_eq!(m.wal_appends_total(), 2);
        assert_eq!(m.wal_append_errors_total(), 1);
        assert_eq!(m.wal_records_replayed(), 7);
        assert_eq!(m.replica_records_applied_total(), 3);
        let snap = m.render();
        let durability = snap.get("durability").expect("durability section");
        assert_eq!(durability.get("wal_appends_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(durability.get("wal_records_replayed").unwrap().as_f64(), Some(7.0));
        let replication = snap.get("replication").expect("replication section");
        assert_eq!(replication.get("records_applied_total").unwrap().as_f64(), Some(3.0));
        assert_eq!(replication.get("resets_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(replication.get("poll_errors_total").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn empty_metrics_render() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile_us(0.99), 0);
        assert_eq!(m.mean_batch_size(), 0.0);
        let rendered = m.render().render();
        assert!(rendered.contains("\"requests_total\":0"), "{rendered}");
    }

    #[test]
    fn process_section_reports_vitals() {
        let m = Metrics::new();
        let snap = m.render();
        let process = snap.get("process").expect("process section");
        assert_eq!(process.get("version").unwrap().as_str(), Some(env!("CARGO_PKG_VERSION")));
        assert!(process.get("start_time_unix").unwrap().as_f64().unwrap() > 0.0);
        assert!(process.get("uptime_secs").unwrap().as_f64().is_some());
        // On Linux VmRSS must be present and nonzero; elsewhere null.
        if cfg!(target_os = "linux") {
            assert!(process.get("rss_kb").unwrap().as_f64().unwrap() > 0.0);
        }
        // The active kernel dispatch tier is an operational fact — an
        // operator reading /metrics must be able to tell whether this
        // process is on SIMD or the portable fallback.
        let backend = process.get("kernel_backend").unwrap().as_str().unwrap();
        assert_eq!(backend, hdc::kernel::backend::active().name());
        assert!(process.get("cpu_features").unwrap().as_str().is_some());
    }

    #[test]
    fn bucket_index_and_bound_agree() {
        for us in [0u64, 1, 2, 3, 4, 127, 128, 129, 1 << 20, u64::MAX] {
            let i = latency_bucket_index(us);
            if i < LATENCY_BUCKETS - 1 {
                assert!(us < latency_bucket_bound_us(i), "us={us} bucket={i}");
            }
            if i > 0 {
                assert!(us >= latency_bucket_bound_us(i - 1), "us={us} bucket={i}");
            }
        }
        // The exact power-of-two sample opens its bucket, not closes the
        // previous one: 128 = 2^7 lands in bucket 7 (64 <= us < 256... no:
        // bucket 7 covers 128 <= us < 256).
        assert_eq!(latency_bucket_index(128), 7);
        assert_eq!(latency_bucket_index(127), 6);
    }

    #[test]
    fn traces_feed_ring_hists_and_slow_ring() {
        let m = Metrics::new();
        m.set_slow_request_us(1_000);
        let mut fast = crate::trace::TraceRecord::synthetic(
            "fast".into(),
            "default".into(),
            "reply_write",
            200,
        );
        fast.status = 200;
        fast.stages[crate::trace::Stage::QueueWait as usize] = 50;
        fast.stages[crate::trace::Stage::Execute as usize] = 120;
        assert!(!m.on_trace(&fast), "under the threshold");
        let mut slow = fast.clone();
        slow.id = "slow".into();
        slow.total_us = 5_000;
        assert!(m.on_trace(&slow), "at/over the threshold");
        assert_eq!(m.traces().snapshot().len(), 2);
        let slow_snap = m.slow_traces().snapshot();
        assert_eq!(slow_snap.len(), 1);
        assert_eq!(slow_snap[0].id, "slow");
        let hists = m.stage_hists();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "default");
        assert_eq!(hists[0].1.stage_count(crate::trace::Stage::Execute as usize), 2);
        assert_eq!(hists[0].1.stage_sum_us(crate::trace::Stage::Execute as usize), 240);
        // Zero stages (head parse etc.) were skipped, not counted.
        assert_eq!(hists[0].1.stage_count(crate::trace::Stage::WalAppend as usize), 0);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let m = Metrics::new();
        m.on_request();
        m.on_response(200);
        m.on_latency(Duration::from_micros(300));
        m.on_batch(4);
        m.on_enqueue_depth(2);
        let mut record =
            crate::trace::TraceRecord::synthetic("t1".into(), "default".into(), "reply_write", 400);
        record.stages[crate::trace::Stage::Execute as usize] = 300;
        m.on_trace(&record);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE hdc_requests_total counter\nhdc_requests_total 1\n"));
        assert!(text.contains("hdc_responses_total{class=\"2xx\"} 1"), "{text}");
        assert!(text.contains("hdc_request_latency_us_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("hdc_request_latency_us_count 1"), "{text}");
        assert!(text.contains("hdc_batch_size_sum 4"), "{text}");
        assert!(
            text.contains("hdc_stage_latency_us_count{model=\"default\",stage=\"execute\"} 1"),
            "{text}"
        );
        assert!(text.contains("hdc_build_info{version="), "{text}");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("value separator");
            assert!(!series.is_empty(), "{line}");
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "unparsable value in {line}");
        }
    }
}
