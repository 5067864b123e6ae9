//! The serving half: the model behind `hdc-serve`, configured as
//! `hdtest-cli serve --model FILE` configures it (model loaded from disk
//! with its write-ahead log, 200 µs linger), driven over loopback HTTP by
//! closed-loop keep-alive clients. Every fifth request of a client is a
//! `/v1/train`, the rest are `/v1/predict`. With tracing on, the server's
//! own per-stage sums (`/metrics?format=prometheus`) split each request's
//! time into its layers; what no stage covers is reported as
//! `serve_unattributed_us`.

use crate::{median, percentile, Metric, Outcome, Testbed};
use hdc::io::save_pixel_classifier;
use hdc::prelude::*;
use hdc_serve::{BatchConfig, Metrics, Registry, Server, ServerConfig};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `hdtest-cli serve`'s default `--linger-us`.
const LINGER: Duration = Duration::from_micros(200);
/// One request in this many is an online-training request: one train per
/// four predicts, the mix `serve-loadgen` sends
/// (`LoadgenConfig::train_requests_per_client`).
const TRAIN_EVERY: usize = 5;
/// Served predictions compared with the in-process model, before the
/// traffic and again after it.
const PROBES: usize = 20;
/// The start of each serving round whose latencies are not recorded:
/// requests right after a campaign round find colder caches.
const WARMUP: Duration = Duration::from_millis(50);
/// Samples a reported percentile leaves beyond it.
const TAIL_SAMPLES: usize = 10;
/// Server stages (as `/metrics` names them) and the per-layer metric each
/// one is reported as, in request order. `shard_execute` is left out: it
/// is a part of `execute`.
const STAGES: [(&str, &str); 7] = [
    ("head_parse", "serve_head_parse_us"),
    ("body_read", "serve_body_read_us"),
    ("queue_wait", "serve_queue_wait_us"),
    ("execute", "serve_execute_us"),
    ("wal_append", "serve_wal_append_us"),
    ("publish", "serve_publish_us"),
    ("reply_write", "serve_reply_write_us"),
];

/// Persists `model` under `dir`, loads it the way the CLI does, serves it
/// on an ephemeral loopback port and waits for its first answer.
pub fn start(model: &HdcClassifier<PixelEncoder>, dir: &Path) -> io::Result<Server> {
    fs::create_dir_all(dir)?;
    let path = fs::canonicalize(dir)?.join("model.hdc");
    let mut file = BufWriter::new(File::create(&path)?);
    save_pixel_classifier(model, &mut file).map_err(io::Error::other)?;
    file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    let batch = BatchConfig { max_linger: LINGER, ..BatchConfig::default() };
    let registry = Registry::new(Arc::new(Metrics::new()), batch);
    registry.load("default", &path).map_err(io::Error::other)?;
    let server = Server::start(Arc::new(registry), &ServerConfig::default())?;
    let body = predict_body(&vec![0u8; 28 * 28]);
    let reply = Conn::connect(server.addr())?.post("/v1/predict", &body)?;
    if reply.0 != 200 {
        return Err(io::Error::other(format!("first predict answered {}", reply.0)));
    }
    Ok(server)
}

/// A minimal keep-alive HTTP/1.1 client, independent of the server crate's
/// own client.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.send(&format!(
            "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.send(&format!("GET {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: 0\r\n\r\n"))
    }

    fn send(&mut self, request: &str) -> io::Result<(u16, String)> {
        self.writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(io::Error::other)?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(io::Error::other)?))
    }
}

fn pixels_json(pixels: &[u8]) -> String {
    let values: Vec<String> = pixels.iter().map(u8::to_string).collect();
    values.join(",")
}

fn predict_body(pixels: &[u8]) -> String {
    format!("{{\"model\":\"default\",\"input\":[{}]}}", pixels_json(pixels))
}

fn train_body(pixels: &[u8], label: usize) -> String {
    format!("{{\"model\":\"default\",\"input\":[{}],\"label\":{label}}}", pixels_json(pixels))
}

/// The unsigned integer value of `"field":` in a flat JSON reply.
fn field(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let start = body.find(&key)? + key.len();
    let digits: String =
        body[start..].trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Compares the served class of each probe input with `model`'s own.
fn probe(conn: &mut Conn, model: &HdcClassifier<PixelEncoder>, inputs: &[&[u8]]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, &pixels) in inputs.iter().enumerate() {
        let expected = Model::predict(model, pixels).map(|p| p.class);
        match (conn.post("/v1/predict", &predict_body(pixels)), expected) {
            (Ok((200, body)), Ok(expected)) if field(&body, "class") == Some(expected as u64) => {}
            (reply, expected) => errors
                .push(format!("probe {i}: served {reply:?}, in-process model says {expected:?}")),
        }
    }
    errors
}

/// `hdc_stage_latency_us_sum` per stage, plus the coalesced batch-size
/// totals, from the Prometheus view of `/metrics`.
#[derive(Default)]
struct Scrape {
    stage_us: BTreeMap<String, f64>,
    batches: f64,
    batch_inputs: f64,
}

fn scrape(conn: &mut Conn) -> io::Result<Scrape> {
    let (status, text) = conn.get("/metrics?format=prometheus")?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    let mut out = Scrape::default();
    for line in text.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        if let Some(labels) = key.strip_prefix("hdc_stage_latency_us_sum{") {
            if labels.contains("model=\"default\"") {
                if let Some(stage) =
                    labels.split("stage=\"").nth(1).and_then(|s| s.split('"').next())
                {
                    out.stage_us.insert(stage.to_owned(), value);
                }
            }
        } else if key == "hdc_batch_size_count" {
            out.batches = value;
        } else if key == "hdc_batch_size_sum" {
            out.batch_inputs = value;
        }
    }
    Ok(out)
}

/// The request bodies every client draws from.
struct Bodies {
    predict: Vec<String>,
    train: Vec<String>,
}

/// Latencies and outcomes of one client's round.
#[derive(Default)]
struct RoundLog {
    /// Latencies of the requests sent after the round's warm-up.
    predict_ms: Vec<f64>,
    train_ms: Vec<f64>,
    /// Every answered request and their summed latency.
    answered: u64,
    answered_ms: f64,
    /// Indices into the training examples the server acknowledged.
    trained: Vec<usize>,
    failed: u64,
    errors: Vec<String>,
}

/// One closed-loop client: its connection and how far its request
/// sequence has got.
struct Client {
    id: usize,
    conn: Conn,
    sent: usize,
    predicts: usize,
    trains: usize,
}

impl Client {
    fn run_for(&mut self, clients: usize, bodies: &Bodies, duration: Duration) -> RoundLog {
        let mut log = RoundLog::default();
        let started = Instant::now();
        while started.elapsed() < duration {
            let is_train = self.sent % TRAIN_EVERY == TRAIN_EVERY - 1;
            self.sent += 1;
            let (path, example, body) = if is_train {
                let example = (self.id + self.trains * clients) % bodies.train.len();
                self.trains += 1;
                ("/v1/train", example, &bodies.train[example])
            } else {
                let input = (self.id * 7 + self.predicts * clients) % bodies.predict.len();
                self.predicts += 1;
                ("/v1/predict", input, &bodies.predict[input])
            };
            let began = Instant::now();
            let warm = began.duration_since(started) >= WARMUP;
            let reply = self.conn.post(path, body);
            let ms = began.elapsed().as_secs_f64() * 1e3;
            let ok = match &reply {
                Ok((200, body)) if is_train => field(body, "trained") == Some(1),
                Ok((200, body)) => field(body, "class").is_some_and(|c| c < crate::CLASSES as u64),
                _ => false,
            };
            if !ok {
                log.failed += 1;
                log.errors.push(format!("client {} {path}: {reply:?}", self.id));
                if reply.is_err() {
                    break;
                }
                continue;
            }
            log.answered += 1;
            log.answered_ms += ms;
            if is_train {
                log.trained.push(example);
            }
            match (warm, is_train) {
                (false, _) => {}
                (true, true) => log.train_ms.push(ms),
                (true, false) => log.predict_ms.push(ms),
            }
        }
        log
    }
}

/// The served traffic, run a round at a time between the campaign rounds.
pub struct Traffic<'a> {
    testbed: &'a Testbed,
    trace: bool,
    addr: SocketAddr,
    clients: Vec<Client>,
    bodies: Bodies,
    before: io::Result<Scrape>,
    /// Each round's predict and train latencies in ms, after its warm-up.
    predict_ms: Vec<Vec<f64>>,
    train_ms: Vec<Vec<f64>>,
    requests: u64,
    latency_ms: f64,
    trained: Vec<usize>,
    outcome: Outcome,
}

impl<'a> Traffic<'a> {
    /// Connects `clients` clients and checks the served model against the
    /// in-process one.
    pub fn new(
        addr: SocketAddr,
        testbed: &'a Testbed,
        clients: usize,
        trace: bool,
    ) -> io::Result<Self> {
        let mut admin = Conn::connect(addr)?;
        let clients = (0..clients)
            .map(|id| {
                Ok(Client { id, conn: Conn::connect(addr)?, sent: 0, predicts: 0, trains: 0 })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let bodies = Bodies {
            predict: testbed
                .predict_inputs
                .iter()
                .map(|image| predict_body(image.as_slice()))
                .collect(),
            train: testbed
                .train_examples
                .iter()
                .map(|(image, label)| train_body(image.as_slice(), *label))
                .collect(),
        };
        let mut outcome = Outcome::default();
        outcome.errors.extend(probe(&mut admin, &testbed.model, &probes(testbed)));
        let before = if trace { scrape(&mut admin) } else { Ok(Scrape::default()) };
        Ok(Traffic {
            testbed,
            trace,
            addr,
            clients,
            bodies,
            before,
            predict_ms: Vec::new(),
            train_ms: Vec::new(),
            requests: 0,
            latency_ms: 0.0,
            trained: Vec::new(),
            outcome,
        })
    }

    /// Every client sends requests back to back until `duration` has
    /// passed.
    pub fn run_for(&mut self, duration: Duration) {
        let count = self.clients.len();
        let bodies = &self.bodies;
        let logs: Vec<RoundLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| scope.spawn(move || client.run_for(count, bodies, duration)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let (mut predict_ms, mut train_ms) = (Vec::new(), Vec::new());
        for log in logs {
            self.outcome.failed += log.failed;
            self.outcome.errors.extend(log.errors);
            predict_ms.extend(log.predict_ms);
            train_ms.extend(log.train_ms);
            self.trained.extend(log.trained);
            self.requests += log.answered;
            self.latency_ms += log.answered_ms;
        }
        if predict_ms.is_empty() || train_ms.is_empty() {
            self.outcome.errors.push("a serving round completed no predict or no train".into());
        } else {
            self.predict_ms.push(predict_ms);
            self.train_ms.push(train_ms);
        }
    }

    /// The serving metrics over all rounds.
    pub fn finish(self) -> Outcome {
        let mut outcome = self.outcome;
        // A fresh connection: the server closes keep-alive connections
        // that stayed idle as long as a whole run may take.
        let mut admin = match Conn::connect(self.addr) {
            Ok(conn) => conn,
            Err(e) => {
                outcome.errors.push(format!("cannot connect: {e}"));
                return outcome;
            }
        };
        let after = if self.trace { scrape(&mut admin) } else { Ok(Scrape::default()) };
        outcome.attempted = self.requests + outcome.failed;
        // Online training is order-independent (integer counter sums), so
        // the served model must now answer exactly like the in-process
        // model trained on the same acknowledged examples.
        let mut oracle = self.testbed.model.clone();
        let examples = self.trained.iter().map(|&i| {
            let (image, label) = &self.testbed.train_examples[i];
            (image.as_slice(), *label)
        });
        match oracle.partial_fit_batch(examples) {
            Ok(_) => outcome.errors.extend(probe(&mut admin, &oracle, &probes(self.testbed))),
            Err(e) => outcome.errors.push(format!("oracle training failed: {e}")),
        }
        if self.predict_ms.is_empty() {
            return outcome;
        }
        eprintln!(
            "perfbench: serving {} client(s): {} requests, {} trained, {} rounds",
            self.clients.len(),
            self.requests,
            self.trained.len(),
            self.predict_ms.len()
        );
        if !self.trace {
            outcome.metrics = vec![
                Metric {
                    name: "predict_p50_ms",
                    value: percentile(&self.predict_ms.concat(), 50.0),
                    unit: "ms",
                },
                Metric {
                    name: "predict_p99_ms",
                    value: windowed_p99(&self.predict_ms),
                    unit: "ms",
                },
                Metric {
                    name: "train_p50_ms",
                    value: percentile(&self.train_ms.concat(), 50.0),
                    unit: "ms",
                },
            ];
            return outcome;
        }
        let (before, after) = match (self.before, after) {
            (Ok(before), Ok(after)) => (before, after),
            (Err(e), _) | (_, Err(e)) => {
                outcome.errors.push(format!("cannot scrape /metrics: {e}"));
                return outcome;
            }
        };
        let requests = self.requests as f64;
        let stage = |name: &str| {
            let sum = |s: &Scrape| s.stage_us.get(name).copied().unwrap_or(0.0);
            (sum(&after) - sum(&before)) / requests
        };
        let mut metrics: Vec<Metric> = STAGES
            .iter()
            .map(|&(stage_name, name)| Metric { name, value: stage(stage_name), unit: "us" })
            .collect();
        let attributed: f64 = metrics.iter().map(|m| m.value).sum();
        metrics.push(Metric {
            name: "serve_unattributed_us",
            value: self.latency_ms * 1e3 / requests - attributed,
            unit: "us",
        });
        metrics.push(Metric {
            name: "serve_batch_size",
            value: (after.batch_inputs - before.batch_inputs)
                / (after.batches - before.batches).max(1.0),
            unit: "count",
        });
        outcome.metrics = metrics;
        outcome
    }
}

/// The median over windows of each window's 99th percentile. Consecutive
/// rounds merge into one window until it holds enough samples to leave
/// `TAIL_SAMPLES` beyond the percentile. A tail over the whole run would
/// follow the worst second of machine noise; the median over windows
/// does not.
fn windowed_p99(rounds: &[Vec<f64>]) -> f64 {
    let needed = TAIL_SAMPLES * 100;
    let mut per_window = Vec::new();
    let mut window = Vec::new();
    for round in rounds {
        window.extend_from_slice(round);
        if window.len() >= needed {
            per_window.push(percentile(&window, 99.0));
            window.clear();
        }
    }
    if per_window.is_empty() {
        per_window.push(percentile(&window, 99.0));
    }
    median(&per_window)
}

fn probes(testbed: &Testbed) -> Vec<&[u8]> {
    testbed.predict_inputs.iter().take(PROBES).map(|image| image.as_slice()).collect()
}
