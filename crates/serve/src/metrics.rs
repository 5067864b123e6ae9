//! Live server metrics: lock-free counters and fixed-bucket histograms,
//! and the two views of `GET /metrics`.
//!
//! Everything is `AtomicU64` with relaxed ordering — the counters are
//! statistical, not synchronization points — so the hot path pays a few
//! uncontended atomic adds per request. Quantiles (p50/p99) come from
//! fixed power-of-two latency buckets: no allocation, no locks, bounded
//! error of at most one bucket width, which is plenty for a load report.
//!
//! Both views render one table of rows, `ROWS`. A row says once where its
//! metric sits in the JSON document, its Prometheus family, kind, labels
//! and help text, and how to read it: from [`Metrics`], or from the
//! registry's models and replication state that a [`Scrape`] carries.
//! Histogram rows name their bucket layout, which labels the buckets in
//! both views. The two emitters name no metric, so a metric added as a
//! row shows in both; only rows marked derived (means and quantiles) are
//! JSON-only. A unit test checks that every other row appears in both
//! views with equal values.

use crate::json::Json;
use crate::replica::{ReplicaState, SyncStatus};
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
/// [`Stage`](crate::trace::Stage), plus each row's sum for means.
#[derive(Debug)]
pub struct StageHist {
    buckets: [[AtomicU64; LATENCY_BUCKETS]; STAGE_COUNT],
    sum_us: [AtomicU64; STAGE_COUNT],
}

impl StageHist {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sum_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observed duration for `stage`.
    fn observe(&self, stage: usize, us: u64) {
        self.buckets[stage][latency_bucket_index(us)].fetch_add(1, Relaxed);
        self.sum_us[stage].fetch_add(us, Relaxed);
    }

    /// Samples recorded for `stage` (index into [`STAGE_NAMES`]): the
    /// total over its buckets.
    pub fn stage_count(&self, stage: usize) -> u64 {
        self.buckets[stage].iter().map(|c| c.load(Relaxed)).sum()
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
        // Only the stages the request entered count (a sub-µs one at 0):
        // a predict must not smear the write-only stages with zeros.
        for (stage, us) in record.entered_stages() {
            hist.observe(stage, us);
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
        mean(&self.train_batch_examples, &self.train_batches)
    }

    /// Executed batches and the inputs they held, so far: a window's mean
    /// batch size is the ratio of the two deltas.
    pub(crate) fn batch_totals(&self) -> (u64, u64) {
        (self.batch_count.load(Relaxed), self.batch_inputs.load(Relaxed))
    }

    /// Mean executed batch size (0 when nothing ran yet).
    pub fn mean_batch_size(&self) -> f64 {
        mean(&self.batch_inputs, &self.batch_count)
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

    /// The `/metrics` views of this sink alone, without registry rows.
    pub fn scrape(&self) -> Scrape<'_> {
        Scrape { metrics: self, models: Vec::new(), replica: None }
    }
}

/// What one `/metrics` scrape reads: the shared [`Metrics`] plus the
/// rows the model registry holds. [`json`](Self::json) and
/// [`prometheus`](Self::prometheus) render the same table of rows.
pub struct Scrape<'a> {
    /// The process-wide counters, histograms and trace rings.
    pub metrics: &'a Metrics,
    /// `(name, version, generation)` of each served model.
    pub models: Vec<(String, u64, u64)>,
    /// A follower's replication state; `None` on a leader.
    pub replica: Option<Arc<ReplicaState>>,
}

impl Scrape<'_> {
    /// The canonical JSON document.
    pub fn json(&self) -> Json {
        emit_json(&self.read())
    }

    /// The Prometheus text exposition (version 0.0.4).
    pub fn prometheus(&self) -> String {
        emit_prometheus(&self.read())
    }

    /// Reads every row that applies to this process, once.
    fn read(&self) -> Vec<(&'static Row, Vec<Series>)> {
        ROWS.iter().filter_map(|row| Some((row, (row.read)(self)?))).collect()
    }
}

/// How a row is exposed: its Prometheus `# TYPE`, or JSON only.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    /// A string, exposed in Prometheus as the value of the row's last
    /// label on a constant 1.
    Info,
    /// Bucketed observations. With a sum, JSON holds `{count, <sum key>,
    /// hist}` at the row's path and Prometheus adds `_sum`; without one,
    /// JSON holds the bare bucket array.
    Histogram(Buckets, Option<&'static str>),
    /// Computed from other rows (means, quantiles): JSON only.
    Derived,
}

/// A histogram's bucket layout, from which both views label its buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Buckets {
    /// Power-of-two µs (see [`latency_bucket_index`]). JSON `le_us` is
    /// the exclusive bound 2^(i+1); Prometheus `le` is 2^(i+1) - 1, the
    /// same edge for integral µs. The last bucket is open: JSON labels it
    /// `"+Inf"` and Prometheus folds it into `+Inf`.
    Micros,
    /// Exact sizes: bucket `i` holds `i + 1`, the last everything larger.
    /// JSON labels the last `"N+"`; Prometheus folds it into `+Inf`.
    Sizes,
    /// Power-of-two queue depths: bucket `i` holds depths `< 2^i`. With
    /// no meaningful sum, Prometheus gets a counter per non-empty bucket,
    /// labelled `lt`.
    Depths,
}

/// One metric, described once: where it sits in each view and how to
/// read it. A new metric is one more row in [`ROWS`].
struct Row {
    /// Dotted JSON path: a `*` segment takes the next label value as its
    /// key; a segment ending in `[]` is an array of objects, one per label
    /// value, named by their `"name"` field.
    json: &'static str,
    /// Prometheus family name (unused by derived rows).
    prom: &'static str,
    kind: Kind,
    /// Prometheus label names, outermost first.
    labels: &'static [&'static str],
    help: &'static str,
    /// The row's series, `None` where it does not apply (a leader has
    /// no follower rows).
    read: fn(&Scrape<'_>) -> Option<Vec<Series>>,
}

/// One reading of a row: a value for each of its labels, and a sample.
struct Series {
    labels: Vec<String>,
    sample: Sample,
}

enum Sample {
    Num(u64),
    Real(f64),
    Text(String),
    Flag(bool),
    /// Bucket counts and the sum of the observations.
    Hist(Vec<u64>, u64),
    /// Not measurable here: JSON `null`, no Prometheus sample.
    Unknown,
}

/// `sum / count`, 0 while `count` is 0.
fn mean(sum: &AtomicU64, count: &AtomicU64) -> f64 {
    let count = count.load(Relaxed);
    if count == 0 {
        return 0.0;
    }
    sum.load(Relaxed) as f64 / count as f64
}

fn one(sample: Sample) -> Option<Vec<Series>> {
    Some(vec![Series { labels: Vec::new(), sample }])
}

fn num(value: u64) -> Option<Vec<Series>> {
    one(Sample::Num(value))
}

fn count(counter: &AtomicU64) -> Option<Vec<Series>> {
    num(counter.load(Relaxed))
}

fn hist(buckets: &[AtomicU64], sum: u64) -> Option<Vec<Series>> {
    one(Sample::Hist(buckets.iter().map(|c| c.load(Relaxed)).collect(), sum))
}

fn by_label(values: impl IntoIterator<Item = (String, u64)>) -> Option<Vec<Series>> {
    Some(
        values
            .into_iter()
            .map(|(label, value)| Series { labels: vec![label], sample: Sample::Num(value) })
            .collect(),
    )
}

/// Every `/metrics` row, in Prometheus exposition order.
#[rustfmt::skip]
static ROWS: &[Row] = {
    use Buckets::*;
    use Kind::*;
    &[
    // JSON path / Prometheus family / kind / labels / help / read
    Row { json: "requests_total", prom: "hdc_requests_total", kind: Counter, labels: &[],
        help: "Requests accepted off the wire (any route, any outcome).",
        read: |s| count(&s.metrics.requests_total) },
    Row { json: "responses.*", prom: "hdc_responses_total", kind: Counter, labels: &["class"],
        help: "Responses by status class.",
        read: |s| {
            let m = s.metrics;
            let classes = [("2xx", &m.responses_2xx), ("4xx", &m.responses_4xx),
                           ("5xx", &m.responses_5xx)];
            by_label(classes.map(|(class, counter)| (class.to_owned(), counter.load(Relaxed))))
        } },
    Row { json: "predict.requests", prom: "hdc_predict_requests_total", kind: Counter, labels: &[],
        help: "Predict requests.",
        read: |s| count(&s.metrics.predict_requests) },
    Row { json: "predict.inputs", prom: "hdc_predict_inputs_total", kind: Counter, labels: &[],
        help: "Individual inputs carried by predict requests.",
        read: |s| count(&s.metrics.predict_inputs) },
    Row { json: "training.requests", prom: "hdc_train_requests_total", kind: Counter, labels: &[],
        help: "Train requests.",
        read: |s| count(&s.metrics.train_requests) },
    Row { json: "training.examples", prom: "hdc_train_examples_total", kind: Counter, labels: &[],
        help: "Examples absorbed through /v1/train.",
        read: |s| count(&s.metrics.train_examples) },
    Row { json: "training.batches", prom: "hdc_train_batches_total", kind: Counter, labels: &[],
        help: "Coalesced update batches published (one version bump each).",
        read: |s| count(&s.metrics.train_batches) },
    Row { json: "training.batch_examples", prom: "hdc_train_batch_examples_total", kind: Counter,
        labels: &[], help: "Examples and applied feedback absorbed by published update batches.",
        read: |s| count(&s.metrics.train_batch_examples) },
    Row { json: "training.mean_batch_size", prom: "", kind: Derived, labels: &[],
        help: "Mean examples per published update batch.",
        read: |s| one(Sample::Real(s.metrics.mean_train_batch_size())) },
    Row { json: "training.feedback.requests", prom: "hdc_feedback_requests_total", kind: Counter,
        labels: &[], help: "Feedback requests.",
        read: |s| count(&s.metrics.feedback_requests) },
    Row { json: "training.feedback.applied", prom: "hdc_feedback_applied_total", kind: Counter,
        labels: &[], help: "Feedback requests that applied an adaptive update.",
        read: |s| count(&s.metrics.feedback_applied) },
    Row { json: "overload.shed_total", prom: "hdc_shed_total", kind: Counter, labels: &[],
        help: "Requests shed because a job queue was full (503).",
        read: |s| count(&s.metrics.shed_total) },
    Row { json: "overload.deadline_expired_total", prom: "hdc_deadline_expired_total", kind: Counter,
        labels: &[], help: "Queued jobs whose wait deadline expired (504).",
        read: |s| count(&s.metrics.deadline_expired_total) },
    Row { json: "overload.worker_panics_total", prom: "hdc_worker_panics_total", kind: Counter,
        labels: &[], help: "Jobs quarantined by a model panic (500).",
        read: |s| count(&s.metrics.worker_panics_total) },
    Row { json: "overload.worker_respawns_total", prom: "hdc_worker_respawns_total", kind: Counter,
        labels: &[], help: "Batcher workers restarted after an escaped panic.",
        read: |s| count(&s.metrics.worker_respawns_total) },
    Row { json: "overload.handler_panics_total", prom: "hdc_handler_panics_total", kind: Counter,
        labels: &[], help: "Requests whose handler panicked (500); the accept thread kept serving.",
        read: |s| count(&s.metrics.handler_panics_total) },
    Row { json: "durability.wal_appends_total", prom: "hdc_wal_appends_total", kind: Counter,
        labels: &[], help: "Delta records fsynced to write-ahead logs.",
        read: |s| count(&s.metrics.wal_appends_total) },
    Row { json: "durability.wal_append_errors_total", prom: "hdc_wal_append_errors_total",
        kind: Counter, labels: &[], help: "Update batches refused because the WAL append failed.",
        read: |s| count(&s.metrics.wal_append_errors_total) },
    Row { json: "durability.wal_records_replayed", prom: "hdc_wal_records_replayed_total",
        kind: Counter, labels: &[], help: "Records replayed from WAL tails during crash recovery.",
        read: |s| count(&s.metrics.wal_records_replayed) },
    Row { json: "replication.records_applied_total", prom: "hdc_replica_records_applied_total",
        kind: Counter, labels: &[], help: "Delta records applied from the leader.",
        read: |s| count(&s.metrics.replica_records_applied_total) },
    Row { json: "replication.resets_total", prom: "hdc_replica_resets_total", kind: Counter,
        labels: &[], help: "Full follower re-bootstraps (snapshot transfer).",
        read: |s| count(&s.metrics.replica_resets_total) },
    Row { json: "replication.poll_errors_total", prom: "hdc_replica_poll_errors_total",
        kind: Counter, labels: &[], help: "Failed polls against the leader.",
        read: |s| count(&s.metrics.replica_poll_errors_total) },
    Row { json: "tracing.recorded_total", prom: "hdc_traces_recorded_total", kind: Counter,
        labels: &[], help: "Completed traces pushed into the debug ring.",
        read: |s| num(s.metrics.traces.pushed()) },
    Row { json: "tracing.slow_total", prom: "hdc_traces_slow_total", kind: Counter, labels: &[],
        help: "Traces that met the slow-request threshold.",
        read: |s| num(s.metrics.slow_traces.pushed()) },
    Row { json: "latency_us", prom: "hdc_request_latency_us", kind: Histogram(Micros, Some("sum_us")),
        labels: &[], help: "Handler latency of predict, train and feedback requests, in µs.",
        read: |s| hist(&s.metrics.latency_hist, s.metrics.latency_sum_us.load(Relaxed)) },
    Row { json: "latency_us.mean", prom: "", kind: Derived, labels: &[],
        help: "Mean handler latency, in µs.",
        read: |s| one(Sample::Real(mean(&s.metrics.latency_sum_us, &s.metrics.latency_count))) },
    Row { json: "latency_us.p50", prom: "", kind: Derived, labels: &[],
        help: "Median handler latency: the upper bound of its bucket, in µs.",
        read: |s| num(s.metrics.latency_quantile_us(0.50)) },
    Row { json: "latency_us.p99", prom: "", kind: Derived, labels: &[],
        help: "99th-percentile handler latency: the upper bound of its bucket, in µs.",
        read: |s| num(s.metrics.latency_quantile_us(0.99)) },
    Row { json: "batches", prom: "hdc_batch_size", kind: Histogram(Sizes, Some("inputs")), labels: &[],
        help: "Coalesced batch sizes executed.",
        read: |s| hist(&s.metrics.batch_hist, s.metrics.batch_inputs.load(Relaxed)) },
    Row { json: "batches.mean_size", prom: "", kind: Derived, labels: &[],
        help: "Mean coalesced batch size executed.",
        read: |s| one(Sample::Real(s.metrics.mean_batch_size())) },
    Row { json: "batches.max_size", prom: "hdc_batch_size_max", kind: Gauge, labels: &[],
        help: "Largest coalesced batch executed.",
        read: |s| count(&s.metrics.batch_max) },
    Row { json: "overload.queue_depth_hist", prom: "hdc_queue_depth_observations_total",
        kind: Histogram(Depths, None), labels: &[], help: "Enqueues by observed queue depth.",
        read: |s| hist(&s.metrics.queue_depth_hist, 0) },
    Row { json: "predict_pool.workers.*", prom: "hdc_predict_workers", kind: Gauge, labels: &["model"],
        help: "Configured predict-pool executors per model.",
        read: |s| by_label(s.metrics.predict_workers()) },
    Row { json: "predict_pool.fanouts", prom: "hdc_pool_fanouts_total", kind: Counter, labels: &[],
        help: "Predict batches fanned out across the executor pool.",
        read: |s| count(&s.metrics.pool_fanouts_total) },
    Row { json: "predict_pool.occupancy_hist", prom: "hdc_pool_occupancy",
        kind: Histogram(Sizes, None), labels: &[], help: "Executors occupied per pool fan-out.",
        read: |s| hist(&s.metrics.pool_occupancy_hist, 0) },
    Row { json: "predict_pool.shard_size_hist", prom: "hdc_pool_shard_size",
        kind: Histogram(Sizes, None), labels: &[], help: "Inputs per contiguous pool shard.",
        read: |s| hist(&s.metrics.pool_shard_hist, 0) },
    Row { json: "stage_latency_us.*.*", prom: "hdc_stage_latency_us",
        kind: Histogram(Micros, Some("sum_us")), labels: &["model", "stage"],
        help: "Per-stage request latency by model, in µs, over the stages each request entered.",
        read: stage_series },
    Row { json: "process.start_time_unix", prom: "hdc_process_start_time_seconds", kind: Gauge,
        labels: &[], help: "Unix start time.",
        read: |s| num(s.metrics.start_epoch_secs) },
    Row { json: "process.uptime_secs", prom: "hdc_process_uptime_seconds", kind: Gauge, labels: &[],
        help: "Seconds since start.",
        read: |s| num(s.metrics.uptime_secs()) },
    Row { json: "process.rss_kb", prom: "hdc_process_resident_memory_kilobytes", kind: Gauge,
        labels: &[], help: "Current resident set size.",
        read: |_| one(rss_current_kb().map_or(Sample::Unknown, Sample::Num)) },
    Row { json: "process.kernel_backend", prom: "hdc_process_kernel_backend", kind: Info,
        labels: &["backend"], help: "Active kernel dispatch tier.",
        read: |_| one(Sample::Text(hdc::kernel::backend::active().name().to_owned())) },
    Row { json: "process.cpu_features", prom: "hdc_process_cpu_features", kind: Info,
        labels: &["features"], help: "CPU features the kernel dispatch detected.",
        read: |_| one(Sample::Text(hdc::kernel::backend::cpu_features().to_owned())) },
    Row { json: "process.version", prom: "hdc_build_info", kind: Info, labels: &["version"],
        help: "Build version.",
        read: |_| one(Sample::Text(env!("CARGO_PKG_VERSION").to_owned())) },
    Row { json: "models[].version", prom: "hdc_model_version", kind: Gauge, labels: &["model"],
        help: "Training version of each served model (one bump per published update batch).",
        read: |s| by_label(s.models.iter().map(|(name, version, _)| (name.clone(), *version))) },
    Row { json: "models[].generation", prom: "hdc_model_generation", kind: Gauge, labels: &["model"],
        help: "Load generation of each served model (one bump per install).",
        read: |s| by_label(s.models.iter().map(|(name, _, generation)| (name.clone(), *generation))) },
    Row { json: "replication.leader", prom: "hdc_replica_leader", kind: Info, labels: &["leader"],
        help: "The leader this follower replicates.",
        read: |s| s.replica.as_ref().and_then(|r| one(Sample::Text(r.leader().to_owned()))) },
    Row { json: "replication.ready", prom: "hdc_replica_ready", kind: Gauge, labels: &[],
        help: "1 once every model this follower tracks has caught up.",
        read: |s| s.replica.as_ref().and_then(|r| one(Sample::Flag(r.is_ready()))) },
    Row { json: "replication.max_lag", prom: "hdc_replica_max_lag", kind: Gauge, labels: &[],
        help: "Versions the furthest-behind model trails its leader.",
        read: |s| s.replica.as_ref().and_then(|r| num(r.max_lag())) },
    Row { json: "replication.models[].leader_version", prom: "hdc_replica_leader_version",
        kind: Gauge, labels: &["model"], help: "Newest version the leader reported, per model.",
        read: |s| synced(s, |status| status.leader_version) },
    Row { json: "replication.models[].applied_version", prom: "hdc_replica_applied_version",
        kind: Gauge, labels: &["model"], help: "Newest version applied locally, per model.",
        read: |s| synced(s, |status| status.applied_version) },
    Row { json: "replication.models[].lag", prom: "hdc_replica_lag", kind: Gauge, labels: &["model"],
        help: "Versions each model trails its leader.",
        read: |s| synced(s, SyncStatus::lag) },
    ]
};

/// A follower's per-model replication position, through `field`.
fn synced(s: &Scrape<'_>, field: fn(&SyncStatus) -> u64) -> Option<Vec<Series>> {
    let replica = s.replica.as_ref()?;
    by_label(replica.sync_status().into_iter().map(|(name, status)| (name, field(&status))))
}

/// One series per model and stage that has samples.
fn stage_series(s: &Scrape<'_>) -> Option<Vec<Series>> {
    let mut series = Vec::new();
    for (model, hist) in s.metrics.stage_hists() {
        for (stage, name) in STAGE_NAMES.iter().enumerate() {
            let buckets = hist.stage_buckets(stage);
            if buckets.iter().any(|&n| n > 0) {
                series.push(Series {
                    labels: vec![model.clone(), (*name).to_owned()],
                    sample: Sample::Hist(buckets, hist.stage_sum_us(stage)),
                });
            }
        }
    }
    Some(series)
}

impl Buckets {
    /// The JSON bucket array: the non-empty buckets, each `{<bound>, count}`.
    fn json(self, counts: &[u64]) -> Json {
        let last = counts.len() - 1;
        let buckets = counts.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(i, &n)| {
            let (key, bound) = match self {
                Buckets::Micros if i == last => ("le_us", Json::from("+Inf")),
                Buckets::Micros => ("le_us", Json::from(latency_bucket_bound_us(i))),
                Buckets::Sizes if i == last => ("size", Json::from(format!("{}+", i + 1))),
                Buckets::Sizes => ("size", Json::from((i + 1).to_string())),
                Buckets::Depths => ("lt_depth", Json::from(1u64 << i)),
            };
            Json::obj([(key, bound), ("count", Json::from(n))])
        });
        Json::Arr(buckets.collect())
    }
}

/// Renders read rows as the JSON document: each series at its row's path.
fn emit_json(rows: &[(&'static Row, Vec<Series>)]) -> Json {
    let mut doc = BTreeMap::new();
    for (row, series) in rows {
        if series.is_empty() {
            // A labelled row with nothing to show still has its container.
            place(&mut doc, row.json, &[], Json::Null);
        }
        for Series { labels, sample } in series {
            let value = match sample {
                Sample::Num(value) => Json::from(*value),
                Sample::Real(value) => Json::from(*value),
                Sample::Text(text) => Json::from(text.as_str()),
                Sample::Flag(flag) => Json::from(*flag),
                Sample::Unknown => Json::Null,
                Sample::Hist(counts, sum) => {
                    let Kind::Histogram(buckets, sum_key) = row.kind else {
                        unreachable!("only histogram rows read buckets")
                    };
                    let Some(sum_key) = sum_key else {
                        place(&mut doc, row.json, labels, buckets.json(counts));
                        continue;
                    };
                    let at = |key: &str| format!("{}.{key}", row.json);
                    let total: u64 = counts.iter().sum();
                    place(&mut doc, &at("count"), labels, Json::from(total));
                    place(&mut doc, &at(sum_key), labels, Json::from(*sum));
                    place(&mut doc, &at("hist"), labels, buckets.json(counts));
                    continue;
                }
            };
            place(&mut doc, row.json, labels, value);
        }
    }
    Json::Obj(doc)
}

/// Puts `value` at the dotted JSON `path` (see [`Row::json`]), taking a
/// label value for each `*` and `[]` segment. When the labels run out
/// at such a segment (a row with no series), only the containers above
/// it are created.
fn place(doc: &mut BTreeMap<String, Json>, path: &str, labels: &[String], value: Json) {
    let (segment, rest) = path.split_once('.').unwrap_or((path, ""));
    let (key, labels) = match (segment, labels.split_first()) {
        ("*", Some((key, labels))) => (key.clone(), labels),
        ("*", None) => return,
        _ => (segment.trim_end_matches("[]").to_owned(), labels),
    };
    if rest.is_empty() {
        doc.insert(key, value);
    } else if segment.ends_with("[]") {
        let Json::Arr(items) = doc.entry(key).or_insert_with(|| Json::Arr(Vec::new())) else {
            return;
        };
        let Some((name, labels)) = labels.split_first() else { return };
        let named = |item: &Json| item.get("name").and_then(Json::as_str) == Some(name);
        let at = items.iter().position(named).unwrap_or_else(|| {
            items.push(Json::obj([("name", Json::from(name.as_str()))]));
            items.len() - 1
        });
        if let Json::Obj(item) = &mut items[at] {
            place(item, rest, labels, value);
        }
    } else if let Json::Obj(child) = doc.entry(key).or_insert_with(|| Json::Obj(BTreeMap::new())) {
        place(child, rest, labels, value);
    }
}

/// Renders read rows as Prometheus text: `# HELP` and `# TYPE` once per
/// family that has samples, then its samples. Histogram buckets are
/// cumulative and end at `+Inf`.
fn emit_prometheus(rows: &[(&'static Row, Vec<Series>)]) -> String {
    let mut out = String::with_capacity(8 * 1024);
    for (row, series) in rows {
        let kind = match row.kind {
            Kind::Derived => continue,
            Kind::Counter | Kind::Histogram(Buckets::Depths, _) => "counter",
            Kind::Gauge | Kind::Info => "gauge",
            Kind::Histogram(..) => "histogram",
        };
        let mut samples = String::new();
        for Series { labels, sample } in series {
            let pairs: Vec<String> =
                row.labels.iter().zip(labels).map(|(name, value)| label(name, value)).collect();
            let mut line = |suffix: &str, extra: Option<String>, value: &dyn std::fmt::Display| {
                let all: Vec<&str> =
                    pairs.iter().map(String::as_str).chain(extra.as_deref()).collect();
                let labels =
                    if all.is_empty() { String::new() } else { format!("{{{}}}", all.join(",")) };
                samples.push_str(&format!("{}{suffix}{labels} {value}\n", row.prom));
            };
            match sample {
                Sample::Num(value) => line("", None, value),
                Sample::Flag(flag) => line("", None, &u8::from(*flag)),
                Sample::Text(text) => {
                    let name = row.labels.last().expect("an info row names its label");
                    line("", Some(label(name, text)), &1)
                }
                Sample::Real(_) | Sample::Unknown => {}
                Sample::Hist(counts, sum) => {
                    let Kind::Histogram(buckets, sum_key) = row.kind else {
                        unreachable!("only histogram rows read buckets")
                    };
                    if buckets == Buckets::Depths {
                        for (i, n) in counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
                            line("", Some(format!("lt=\"{}\"", 1u64 << i)), n);
                        }
                        continue;
                    }
                    // A labelled family (a series per model and stage)
                    // prints only its non-empty buckets. The open last
                    // bucket is `+Inf`'s.
                    let sparse = !pairs.is_empty();
                    let last = counts.len() - 1;
                    let mut total = 0;
                    for (i, &n) in counts.iter().enumerate() {
                        total += n;
                        let le = match buckets {
                            _ if i == last => continue,
                            Buckets::Sizes => i as u64 + 1,
                            _ => latency_bucket_bound_us(i) - 1,
                        };
                        if !sparse || n > 0 {
                            line("_bucket", Some(format!("le=\"{le}\"")), &total);
                        }
                    }
                    line("_bucket", Some("le=\"+Inf\"".to_owned()), &total);
                    if sum_key.is_some() {
                        line("_sum", None, sum);
                    }
                    line("_count", None, &total);
                }
            }
        }
        if !samples.is_empty() {
            out.push_str(&format!("# HELP {0} {1}\n# TYPE {0} {kind}\n", row.prom, row.help));
            out.push_str(&samples);
        }
    }
    out
}

/// A Prometheus label pair, its value escaped as text format 0.0.4 asks:
/// `\`, `"` and newline.
fn label(name: &str, value: &str) -> String {
    let value = value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
    format!("{name}=\"{value}\"")
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
    use crate::trace::{Stage, Trace};

    #[test]
    fn counts_and_classes() {
        let m = Metrics::new();
        m.on_request();
        m.on_request();
        m.on_response(200);
        m.on_response(404);
        m.on_response(500);
        assert_eq!(m.requests_total(), 2);
        let snap = m.scrape().json();
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
        let snap = m.scrape().json();
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
        let snap = m.scrape().json();
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

        let snap = m.scrape().json();
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

        let prom = m.scrape().prometheus();
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
        let snap = m.scrape().json();
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
        let snap = m.scrape().json();
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
        let snap = m.scrape().json();
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
        let snap = m.scrape().json();
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
        let rendered = m.scrape().json().render();
        assert!(rendered.contains("\"requests_total\":0"), "{rendered}");
    }

    #[test]
    fn process_section_reports_vitals() {
        let m = Metrics::new();
        let snap = m.scrape().json();
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

    /// Removes and returns the JSON value at a row's `path` for one
    /// series' `labels` (the path grammar of [`Row::json`]).
    fn take(doc: &mut Json, path: &str, labels: &[String]) -> Option<Json> {
        let Json::Obj(map) = doc else { return None };
        let (segment, rest) = path.split_once('.').unwrap_or((path, ""));
        let (key, labels) = match segment {
            "*" => labels.split_first().map(|(key, labels)| (key.as_str(), labels))?,
            _ => (segment.trim_end_matches("[]"), labels),
        };
        if rest.is_empty() {
            return map.remove(key);
        }
        let child = map.get_mut(key)?;
        if !segment.ends_with("[]") {
            return take(child, rest, labels);
        }
        let (name, labels) = labels.split_first()?;
        let Json::Arr(items) = child else { return None };
        let item =
            items.iter_mut().find(|item| item.get("name").and_then(Json::as_str) == Some(name))?;
        take(item, rest, labels)
    }

    /// Every scalar left in `doc` apart from the `name` of a named object.
    fn leftovers(doc: &Json, at: &str, out: &mut Vec<String>) {
        match doc {
            Json::Obj(map) => {
                for (key, value) in map {
                    if key != "name" || !matches!(value, Json::Str(_)) {
                        leftovers(value, &format!("{at}.{key}"), out);
                    }
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    leftovers(item, &format!("{at}[{i}]"), out);
                }
            }
            other => out.push(format!("{at} = {other}")),
        }
    }

    /// A Prometheus series key as the exposition writes it.
    fn series(name: &str, labels: &[String]) -> String {
        if labels.is_empty() {
            name.to_owned()
        } else {
            format!("{name}{{{}}}", labels.join(","))
        }
    }

    /// Decodes one JSON bucket array into a full-length count vector.
    fn json_buckets(buckets: Buckets, hist: &Json, len: usize) -> Vec<u64> {
        let mut counts = vec![0; len];
        for bucket in hist.as_array().expect("a bucket array") {
            let index = match buckets {
                Buckets::Micros => match bucket.get("le_us").unwrap() {
                    Json::Str(open) if open == "+Inf" => len - 1,
                    le => le.as_f64().unwrap().log2() as usize - 1,
                },
                Buckets::Depths => {
                    bucket.get("lt_depth").unwrap().as_f64().unwrap().log2() as usize
                }
                Buckets::Sizes => {
                    let size = bucket.get("size").unwrap().as_str().unwrap();
                    size.trim_end_matches('+').parse::<usize>().unwrap() - 1
                }
            };
            counts[index] += bucket.get("count").unwrap().as_f64().unwrap() as u64;
        }
        counts
    }

    #[test]
    fn json_and_prometheus_carry_every_row_with_equal_values() {
        // Every row gets a distinct non-zero value, so a row that reads
        // or lands in the wrong place cannot match by accident.
        let m = Metrics::new();
        let repeat = |times: u64, f: &dyn Fn()| (0..times).for_each(|_| f());
        repeat(103, &|| m.on_request());
        for (status, times) in [(200, 137), (404, 139), (500, 149)] {
            repeat(times, &|| m.on_response(status));
        }
        repeat(7, &|| m.on_predict(3));
        repeat(11, &|| m.on_train(2));
        repeat(13, &|| m.on_train_batch(3));
        repeat(17, &|| m.on_feedback(true));
        repeat(2, &|| m.on_feedback(false));
        repeat(23, &|| m.on_shed());
        repeat(29, &|| m.on_deadline_expired());
        repeat(31, &|| m.on_worker_panic());
        repeat(37, &|| m.on_worker_respawn());
        repeat(41, &|| m.on_handler_panic());
        repeat(43, &|| m.on_wal_append());
        repeat(47, &|| m.on_wal_append_error());
        m.on_wal_replay(53);
        m.on_replica_applied(59);
        repeat(61, &|| m.on_replica_reset());
        repeat(67, &|| m.on_replica_poll_error());
        for size in [1, 4, 4, 64, 70] {
            m.on_batch(size);
        }
        for us in [0, 3, 300, 300, 20_000_000] {
            m.on_latency(Duration::from_micros(us));
        }
        for depth in [0, 3, 3, 100_000] {
            m.on_enqueue_depth(depth);
        }
        repeat(73, &|| m.on_pool_fanout(2));
        m.on_pool_fanout(40);
        for size in [6, 6, 1, 100] {
            m.on_pool_shard(size);
        }
        m.set_predict_workers("default", 79);
        m.set_predict_workers("second", 83);
        m.set_slow_request_us(1_000);
        for (i, model) in ["default", "default", "second"].into_iter().enumerate() {
            let trace = Trace::new(&format!("t{i}"), true);
            trace.set_model(model);
            for stage in [Stage::HeadParse, Stage::QueueWait, Stage::Execute, Stage::ReplyWrite] {
                trace.record(stage, (stage as u64 + 1) * 10 + i as u64);
            }
            trace.record(Stage::BodyRead, 0);
            if model == "default" {
                trace.record(Stage::WalAppend, 900 + i as u64);
                trace.record(Stage::Publish, 5);
            }
            m.on_trace(&trace.finalize(200, 2_000 * i as u64).unwrap());
        }
        let replica = Arc::new(ReplicaState::new("10.0.0.7:9000"));
        replica.expect_models(&["default".into(), "second".into()]);
        replica.note_sync("default", 107, 107, 1);
        replica.note_sync("second", 127, 127, 1);
        replica.note_sync("default", 113, 109, 2);
        replica.note_sync("second", 131, 126, 3);
        let scrape = Scrape {
            metrics: &m,
            models: vec![("default".into(), 89, 97), ("second".into(), 101, 151)],
            replica: Some(replica),
        };

        // Both views render from one reading, so even the process vitals
        // (uptime, RSS) agree.
        let rows = scrape.read();
        assert_eq!(rows.len(), ROWS.len(), "every row applies to a follower");
        let mut json = emit_json(&rows);
        let text = emit_prometheus(&rows);
        let mut prom: BTreeMap<String, String> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect("a sample line");
                (series.to_owned(), value.to_owned())
            })
            .collect();

        const DERIVED: [&str; 5] = [
            "training.mean_batch_size",
            "latency_us.mean",
            "latency_us.p50",
            "latency_us.p99",
            "batches.mean_size",
        ];
        let mut numbers = Vec::new();
        for (row, read) in &rows {
            assert_eq!(row.kind == Kind::Derived, DERIVED.contains(&row.json), "{}", row.json);
            assert!(!read.is_empty(), "{} has no series", row.json);
            for Series { labels, sample } in read {
                let mut pairs: Vec<String> =
                    row.labels.iter().zip(labels).map(|(name, value)| label(name, value)).collect();
                // A histogram with a sum shares its path with its siblings.
                let in_json = match row.kind {
                    Kind::Histogram(_, Some(_)) => None,
                    _ => take(&mut json, row.json, labels),
                };
                let mut in_prom = |suffix: &str, extra: &[String]| {
                    let all = [&pairs[..], extra].concat();
                    prom.remove(&series(&format!("{}{suffix}", row.prom), &all))
                };
                let where_ = format!("{} {labels:?}", row.json);
                match sample {
                    Sample::Real(_) | Sample::Num(_) if row.kind == Kind::Derived => {
                        assert!(in_json.is_some(), "{where_} missing from JSON");
                    }
                    Sample::Num(value) => {
                        assert_eq!(
                            in_json.and_then(|v| v.as_f64()),
                            Some(*value as f64),
                            "{where_}"
                        );
                        assert_eq!(in_prom("", &[]), Some(value.to_string()), "{where_}");
                        if !row.json.starts_with("process.") && row.json != "replication.max_lag" {
                            numbers.push(*value);
                        }
                    }
                    Sample::Flag(flag) => {
                        assert_eq!(in_json.and_then(|v| v.as_bool()), Some(*flag), "{where_}");
                        assert_eq!(in_prom("", &[]), Some(u8::from(*flag).to_string()), "{where_}");
                    }
                    Sample::Text(text) => {
                        assert_eq!(in_json.as_ref().and_then(Json::as_str), Some(text.as_str()));
                        let info = label(row.labels.last().unwrap(), text);
                        assert_eq!(in_prom("", &[info]), Some("1".to_owned()), "{where_}");
                    }
                    Sample::Unknown => assert_eq!(in_json, Some(Json::Null), "{where_}"),
                    Sample::Real(_) => unreachable!("only derived rows are real"),
                    Sample::Hist(counts, sum) => {
                        let Kind::Histogram(buckets, sum_key) = row.kind else { unreachable!() };
                        assert!(counts.iter().any(|&n| n > 0), "{where_} is empty");
                        let total: u64 = counts.iter().sum();
                        // JSON: the bucket array, plus count and sum.
                        let hist = match sum_key {
                            None => in_json,
                            Some(sum_key) => {
                                let at = |key: &str| format!("{}.{key}", row.json);
                                let count = take(&mut json, &at("count"), labels);
                                assert_eq!(count.and_then(|v| v.as_f64()), Some(total as f64));
                                let json_sum = take(&mut json, &at(sum_key), labels);
                                assert_eq!(json_sum.and_then(|v| v.as_f64()), Some(*sum as f64));
                                assert_eq!(in_prom("_sum", &[]), Some(sum.to_string()), "{where_}");
                                assert_eq!(in_prom("_count", &[]), Some(total.to_string()));
                                take(&mut json, &at("hist"), labels)
                            }
                        };
                        let hist = hist.unwrap_or_else(|| panic!("{where_} missing from JSON"));
                        assert_eq!(&json_buckets(buckets, &hist, counts.len()), counts, "{where_}");
                        // Prometheus: de-cumulate the `le` buckets.
                        let mut from_prom = vec![0; counts.len()];
                        if buckets == Buckets::Depths {
                            for (i, n) in from_prom.iter_mut().enumerate() {
                                let lt = format!("lt=\"{}\"", 1u64 << i);
                                *n = in_prom("", &[lt]).map_or(0, |v| v.parse().unwrap());
                            }
                        } else {
                            if sum_key.is_none() {
                                assert_eq!(in_prom("_count", &[]), Some(total.to_string()));
                            }
                            let inf = in_prom("_bucket", &["le=\"+Inf\"".to_owned()]);
                            assert_eq!(inf, Some(total.to_string()), "{where_}");
                            let mut below = 0;
                            for (i, n) in from_prom.iter_mut().enumerate() {
                                let le = match buckets {
                                    _ if i + 1 == counts.len() => None,
                                    Buckets::Sizes => Some(i as u64 + 1),
                                    _ => Some(latency_bucket_bound_us(i) - 1),
                                };
                                let cumulative = match le {
                                    Some(le) => in_prom("_bucket", &[format!("le=\"{le}\"")])
                                        .map(|v| v.parse::<u64>().unwrap()),
                                    None => Some(total), // the open last bucket is +Inf's
                                };
                                if let Some(cumulative) = cumulative {
                                    *n = cumulative - below;
                                    below = cumulative;
                                }
                            }
                        }
                        assert_eq!(&from_prom, counts, "{where_}");
                    }
                }
                pairs.clear();
            }
        }
        let mut left = Vec::new();
        leftovers(&json, "", &mut left);
        assert!(left.is_empty(), "JSON values no row accounts for: {left:?}");
        assert!(prom.is_empty(), "Prometheus samples no row accounts for: {prom:?}");
        let mut distinct = numbers.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), numbers.len(), "values repeat: {numbers:?}");
        assert!(!numbers.contains(&0), "{numbers:?}");
    }

    #[test]
    fn label_values_are_escaped_and_read_back() {
        let names = ["a\"b\\c", "line\nbreak"];
        let m = Metrics::new();
        let models = names.iter().map(|name| (name.to_string(), 3, 1)).collect();
        let text = Scrape { metrics: &m, models, replica: None }.prometheus();

        let checker = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/check_prom_text.py");
        let mut child = std::process::Command::new("python3")
            .arg(checker)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("python3 runs the exposition checker");
        std::io::Write::write_all(child.stdin.as_mut().unwrap(), text.as_bytes()).unwrap();
        assert!(child.wait().unwrap().success(), "the checker rejects:\n{text}");

        // Unescaping each version gauge's label gives the model names back.
        let mut read_back: Vec<String> = text
            .lines()
            .filter_map(|line| line.strip_prefix("hdc_model_version{model=\""))
            .map(|rest| {
                let (value, _) = rest.rsplit_once("\"}").expect("a closed label");
                let mut name = String::new();
                let mut chars = value.chars();
                while let Some(c) = chars.next() {
                    name.push(match c {
                        '\\' => match chars.next().expect("an escaped character") {
                            'n' => '\n',
                            other => other,
                        },
                        c => c,
                    });
                }
                name
            })
            .collect();
        read_back.sort();
        assert_eq!(read_back, names);
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
        let text = m.scrape().prometheus();
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
