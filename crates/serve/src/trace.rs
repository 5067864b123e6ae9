//! Per-request tracing: trace ids, stage spans, and the completed-trace
//! ring buffer behind `GET /debug/traces`.
//!
//! Every request that reaches the server gets a trace id — either the
//! client's `X-Request-Id` header or a generated one — which is echoed on
//! the response (all of them, including pre-routing 400/408/413 rejects)
//! and stamped on every record the request leaves behind: the span in the
//! trace ring, the per-stage latency histograms in
//! [`Metrics`](crate::metrics::Metrics), the slow-request log line, and —
//! for writes — the WAL/replication [`DeltaRecord`](crate::wal::DeltaRecord),
//! so one id follows a write from the leader's socket to every follower's
//! apply loop.
//!
//! A request's life is measured as **stage durations** (µs), one slot per
//! [`Stage`]: head parse, body read, queue wait (enqueue → drain), the
//! coalesced batch execute, WAL append + fsync, publish, and the reply
//! write. The record also keeps which stages the request entered, so a
//! stage that took under 1 µs still shows, at 0; stages it never entered
//! are absent. The request carries one [`Trace`] value from the socket
//! through the batcher and back; when tracing is off that value is
//! empty and every call on it does nothing. The *terminal stage*
//! names where the request's story ended — `reply_write` for the happy
//! path, or the fault that cut it short (`shed`, `queue_deadline`,
//! `panic`, …) — which is what lets the soak harness assert every
//! injected fault is visible in the ring, not just in a counter.
//!
//! The ring itself is a fixed-size claim-then-publish buffer: writers
//! claim a slot with one lock-free `fetch_add`, then publish the record
//! under that slot's own mutex (held only for the move). With
//! `forbid(unsafe_code)` an actual seqlock is off the table; the per-slot
//! guard gives the same property readers care about — a snapshot never
//! observes a half-written record — while writers on different slots
//! never contend.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The measured stages of a request, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Reading + parsing the request head (status line and headers).
    HeadParse = 0,
    /// Reading the `Content-Length` body off the socket.
    BodyRead = 1,
    /// Waiting in the model's job queue: enqueue → worker drain.
    QueueWait = 2,
    /// Executing inside the coalesced batch (predict or update).
    Execute = 3,
    /// Executing this request's shard on a predict-pool executor (the
    /// slice of [`Stage::Execute`] spent on the shard itself; stays zero
    /// when the batch ran inline on the batcher thread). For explicit
    /// batches the request's shards accumulate into this one slot.
    ShardExecute = 4,
    /// Appending + fsyncing the WAL record (writes only).
    WalAppend = 5,
    /// Publishing the new model version (writes only).
    Publish = 6,
    /// Writing the response bytes back to the socket.
    ReplyWrite = 7,
}

/// Number of measured stages (the length of [`STAGE_NAMES`]).
pub const STAGE_COUNT: usize = 8;

/// Stage names, indexed by `Stage as usize` — the vocabulary shared by
/// `/debug/traces`, the per-stage histograms, and the docs.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "head_parse",
    "body_read",
    "queue_wait",
    "execute",
    "shard_execute",
    "wal_append",
    "publish",
    "reply_write",
];

/// Terminal-stage names a trace can end on beyond the happy-path
/// `reply_write`: the faults. Index 0 is the "unset" sentinel resolved to
/// `reply_write` at finalize.
const TERMINALS: [&str; 8] = [
    "reply_write",    // 0: default — the request completed and was written back
    "shed",           // 1: queue full, rejected before enqueue (503)
    "queue_deadline", // 2: expired in the queue before execution (504)
    "panic",          // 3: the model panicked on this input; job quarantined (500)
    "head_parse",     // 4: rejected while reading the head (400/408/431/505)
    "body_read",      // 5: rejected while reading the body (400/408/413)
    "execute",        // 6: failed during execution (4xx/5xx from the model)
    "recovery",       // 7: synthetic — WAL replay at startup, not a request
];

fn terminal_index(name: &str) -> usize {
    TERMINALS.iter().position(|t| *t == name).unwrap_or(0)
}

/// A request's trace as the serving path carries it: the spans of one
/// in-flight request when tracing is on, nothing when it is off. Every
/// method is a no-op on an off trace, which allocates nothing, so traced
/// and untraced requests run the same code. Clones share the spans: the
/// HTTP layer, the batcher worker and the pool executors stamp one
/// record, which [`finalize`](Self::finalize) freezes after the reply is
/// written.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Arc<Spans>>);

/// The live state of an on [`Trace`]. Stage slots are relaxed atomics:
/// each stage has one writer (the thread executing it), and readers
/// never observe a slot mid-update.
#[derive(Debug)]
struct Spans {
    id: String,
    model: Mutex<String>,
    stages: [AtomicU64; STAGE_COUNT],
    /// Bit `i` is set once stage `i` is recorded, even at 0 µs.
    entered: AtomicU32,
    terminal: AtomicUsize,
}

impl Trace {
    /// A trace that records nothing.
    pub const fn off() -> Self {
        Trace(None)
    }

    /// Starts a trace with the given id (client-provided or generated)
    /// when `enabled`, an off trace otherwise.
    pub fn new(id: &str, enabled: bool) -> Self {
        Trace(enabled.then(|| {
            Arc::new(Spans {
                id: id.to_owned(),
                model: Mutex::new(String::new()),
                stages: std::array::from_fn(|_| AtomicU64::new(0)),
                entered: AtomicU32::new(0),
                terminal: AtomicUsize::new(0),
            })
        }))
    }

    /// The trace id echoed in `X-Request-Id`, `None` when off.
    pub fn id(&self) -> Option<&str> {
        self.0.as_deref().map(|spans| spans.id.as_str())
    }

    /// Names the model this request resolved to (once known).
    pub fn set_model(&self, model: &str) {
        if let Some(spans) = &self.0 {
            let mut slot = spans.model.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_empty() {
                slot.push_str(model);
            }
        }
    }

    /// Records a stage's duration and marks the stage entered. Repeated
    /// records accumulate (a retried per-job fallback adds to the same
    /// execute slot).
    pub fn record(&self, stage: Stage, us: u64) {
        if let Some(spans) = &self.0 {
            spans.stages[stage as usize].fetch_add(us, Relaxed);
            spans.entered.fetch_or(1 << stage as u32, Relaxed);
        }
    }

    /// Records a duration measured as an `Instant` pair, in whole µs.
    pub fn record_span(&self, stage: Stage, from: Instant, to: Instant) {
        self.record(stage, to.saturating_duration_since(from).as_micros() as u64);
    }

    /// Records `stage` as running from `from` until now; an off trace
    /// does not read the clock.
    pub fn record_since(&self, stage: Stage, from: Instant) {
        if self.0.is_some() {
            self.record_span(stage, from, Instant::now());
        }
    }

    /// Marks the terminal stage — where this request's story ended. First
    /// writer wins: a shed or panic set by the batcher is never
    /// overwritten by the server's generic finalize.
    pub fn set_terminal(&self, name: &str) {
        if let Some(spans) = &self.0 {
            // Naming `reply_write` (index 0, the unset sentinel) is a no-op.
            let _ = spans.terminal.compare_exchange(0, terminal_index(name), Relaxed, Relaxed);
        }
    }

    /// Freezes the trace into an immutable record, `None` when off.
    pub fn finalize(&self, status: u16, total_us: u64) -> Option<TraceRecord> {
        let spans = self.0.as_deref()?;
        Some(TraceRecord {
            id: spans.id.clone(),
            model: spans.model.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            status,
            total_us,
            stages: std::array::from_fn(|i| spans.stages[i].load(Relaxed)),
            entered: spans.entered.load(Relaxed),
            terminal: TERMINALS[spans.terminal.load(Relaxed)],
        })
    }
}

/// One completed request, as stored in the trace ring and rendered by
/// `GET /debug/traces`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace id (echoed to the client in `X-Request-Id`).
    pub id: String,
    /// The model the request resolved to (empty for non-model routes).
    pub model: String,
    /// The HTTP status the request was answered with.
    pub status: u16,
    /// End-to-end duration in µs: first head byte → reply written.
    pub total_us: u64,
    /// Per-stage durations in µs, indexed like [`STAGE_NAMES`]; stages
    /// the request never entered are zero.
    pub stages: [u64; STAGE_COUNT],
    /// Bit `i` is set when the request entered stage `i`, so a stage that
    /// took under 1 µs still counts (see [`entered_stages`](Self::entered_stages)).
    pub entered: u32,
    /// Where the request ended: `reply_write`, or the fault that cut it
    /// short (`shed` / `queue_deadline` / `panic` / …).
    pub terminal: &'static str,
}

impl TraceRecord {
    /// A synthetic record for non-request events that must still be
    /// visible in the ring (e.g. WAL replay after a crash).
    pub fn synthetic(id: String, model: String, terminal: &'static str, total_us: u64) -> Self {
        Self {
            id,
            model,
            status: 0,
            total_us,
            stages: [0; STAGE_COUNT],
            entered: 0,
            terminal: TERMINALS[terminal_index(terminal)],
        }
    }

    /// The stages the request entered, in pipeline order, with their µs.
    /// A stage recorded at 0 µs is entered; so is any stage with a
    /// nonzero duration (records built by hand set only `stages`).
    pub fn entered_stages(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..STAGE_COUNT)
            .filter(|&i| self.entered & (1 << i) != 0 || self.stages[i] > 0)
            .map(|i| (i, self.stages[i]))
    }
}

/// Fixed-size ring of the most recent completed traces.
///
/// Writers claim the next slot with a single `fetch_add` (lock-free — no
/// writer ever waits on another writer for a *different* slot), then move
/// the record in under that slot's own mutex. Readers snapshotting take
/// each slot's guard just long enough to clone; a record is therefore
/// observed fully or not at all, never torn. Poisoned slots (a panicking
/// writer) are recovered rather than propagated.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding the `capacity` most recent records.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// How many records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (the ring keeps the last `capacity`).
    pub fn pushed(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Publishes a completed trace, evicting the oldest record once full.
    pub fn push(&self, record: TraceRecord) {
        let claim = self.head.fetch_add(1, Relaxed) as usize % self.slots.len();
        let mut slot = self.slots[claim].lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(record);
    }

    /// Clones out the current contents, oldest first. Records being
    /// concurrently overwritten appear either as their old or their new
    /// value — never as a mixture.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Relaxed) as usize;
        let cap = self.slots.len();
        let mut out = Vec::with_capacity(cap.min(head));
        // Oldest slot is `head % cap` once the ring has wrapped; before
        // that, slot 0.
        let start = if head >= cap { head % cap } else { 0 };
        for offset in 0..cap {
            let index = (start + offset) % cap;
            let slot = self.slots[index].lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(record) = slot.as_ref() {
                out.push(record.clone());
            }
        }
        out
    }
}

/// Generates a trace id for requests that did not bring their own:
/// 16 hex chars mixing a process-wide counter with wall-clock nanos, so
/// ids are unique within a process and overwhelmingly unique across the
/// fleet without needing a PRNG dependency.
pub fn generate_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // SplitMix64-style scramble of (nanos, counter) — cheap, collision-
    // resistant enough for correlation ids (not security tokens).
    let mut x = nanos ^ count.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    format!("{x:016x}")
}

/// Whether `id` is acceptable as a client-provided trace id: 1..=64
/// visible ASCII chars (no spaces or controls, so it can never corrupt a
/// header line or a key=value log line).
pub fn valid_id(id: &str) -> bool {
    !id.is_empty() && id.len() <= 64 && id.bytes().all(|b| (0x21..=0x7e).contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn stage_names_line_up_with_the_enum() {
        assert_eq!(STAGE_NAMES[Stage::HeadParse as usize], "head_parse");
        assert_eq!(STAGE_NAMES[Stage::QueueWait as usize], "queue_wait");
        assert_eq!(STAGE_NAMES[Stage::ShardExecute as usize], "shard_execute");
        assert_eq!(STAGE_NAMES[Stage::ReplyWrite as usize], "reply_write");
        assert_eq!(STAGE_NAMES.len(), STAGE_COUNT);
    }

    #[test]
    fn finalize_captures_stages_and_terminal() {
        let trace = Trace::new("abc", true);
        trace.set_model("default");
        trace.set_model("ignored-second-name");
        trace.record(Stage::QueueWait, 100);
        trace.record(Stage::Execute, 40);
        trace.record(Stage::Execute, 10); // accumulates
        let record = trace.finalize(200, 200).unwrap();
        assert_eq!(record.id, "abc");
        assert_eq!(record.model, "default");
        assert_eq!(record.stages[Stage::QueueWait as usize], 100);
        assert_eq!(record.stages[Stage::Execute as usize], 50);
        assert_eq!(record.terminal, "reply_write");
    }

    #[test]
    fn first_terminal_wins() {
        let trace = Trace::new("x", true);
        trace.set_terminal("reply_write");
        trace.set_terminal("shed");
        trace.set_terminal("panic");
        assert_eq!(trace.finalize(503, 10).unwrap().terminal, "shed");
    }

    #[test]
    fn a_stage_recorded_at_zero_us_is_entered() {
        let trace = Trace::new("fast", true);
        trace.record(Stage::HeadParse, 0);
        trace.record(Stage::Execute, 7);
        let record = trace.finalize(200, 7).unwrap();
        let entered: Vec<(usize, u64)> = record.entered_stages().collect();
        assert_eq!(entered, [(Stage::HeadParse as usize, 0), (Stage::Execute as usize, 7)]);
    }

    #[test]
    fn an_off_trace_records_nothing() {
        let trace = Trace::new("ignored", false);
        trace.set_model("default");
        trace.record(Stage::Execute, 5);
        trace.set_terminal("panic");
        assert_eq!(trace.id(), None);
        assert_eq!(trace.finalize(200, 5), None);
    }

    #[test]
    fn ring_keeps_the_most_recent_records_in_order() {
        let ring = TraceRing::new(4);
        for i in 0..6u64 {
            ring.push(TraceRecord::synthetic(format!("t{i}"), String::new(), "reply_write", i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<&str> = snap.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["t2", "t3", "t4", "t5"]);
        assert_eq!(ring.pushed(), 6);
    }

    #[test]
    fn concurrent_writers_wrap_without_tearing() {
        // Each record encodes its identity redundantly (id == "w<total_us>");
        // a torn read would surface as a mismatch.
        let ring = TraceRing::new(8);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for writer in 0..4u64 {
                let ring = &ring;
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = writer;
                    while !stop.load(Relaxed) {
                        ring.push(TraceRecord::synthetic(
                            format!("w{i}"),
                            String::new(),
                            "reply_write",
                            i,
                        ));
                        i += 4;
                    }
                });
            }
            let ring = &ring;
            // At least 2,000 snapshots, then on until the writers have
            // wrapped the ring: on a loaded host they may not have been
            // scheduled yet. The deadline only bounds a hung writer.
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            let mut snapshots = 0;
            while snapshots < 2_000 || (ring.pushed() <= 8 && Instant::now() < deadline) {
                for record in ring.snapshot() {
                    assert_eq!(
                        record.id,
                        format!("w{}", record.total_us),
                        "torn record observed: {record:?}"
                    );
                }
                snapshots += 1;
            }
            stop.store(true, Relaxed);
        });
        assert!(ring.pushed() > 8, "writers must have wrapped the ring");
    }

    #[test]
    fn generated_ids_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1_000 {
            let id = generate_id();
            assert!(valid_id(&id), "{id}");
            assert!(seen.insert(id), "generated id collided");
        }
    }

    #[test]
    fn id_validation_rejects_junk() {
        assert!(valid_id("abc-123_XY.z"));
        assert!(!valid_id(""));
        assert!(!valid_id("has space"));
        assert!(!valid_id("ctrl\r\nchars"));
        assert!(!valid_id(&"x".repeat(65)));
    }
}
