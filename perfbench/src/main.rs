//! One benchmark for this reproduction's two end-to-end workloads: the
//! paper's fuzz campaign (HDTest Alg. 1 over unlabeled digits with a
//! Table II mutation strategy) and the served request (`/v1/predict` and
//! `/v1/train` over HTTP) at the paper's D = 10,000. Both halves run
//! against the same freshly trained model, so every workload reports every
//! metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse_lone --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: scratch files (the served model and
//! its write-ahead log) live under `.perfbench_work/` there and are removed
//! at exit. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload with
//! timers around each layer and reports the per-layer metrics instead.

mod fuzz;
mod serve;

use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::{Dataset, GrayImage};
use hdtest::mutation::Strategy;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The paper's hypervector dimension.
const DIM: usize = 10_000;
/// Digit classes.
const CLASSES: usize = 10;
/// Labeled training images per class for the model under test.
const TRAIN_PER_CLASS: usize = 100;
/// Unlabeled images per class in the campaign's input pool.
const FUZZ_PER_CLASS: usize = 100;
/// Images per class in the served traffic: predict inputs and online
/// training examples.
const TRAFFIC_PER_CLASS: usize = 30;
/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Seconds of one campaign round and of one serving round.
const ROUND_SECS: f64 = 0.5;

/// One workload: the campaign half runs one Table II strategy, the serving
/// half runs `clients` closed-loop keep-alive clients.
struct Workload {
    name: &'static str,
    strategy: Strategy,
    clients: usize,
}

/// Each workload exercises what the other bypasses. Encoding a mutant
/// incrementally from its parent pays when few pixels change (`rand`) and
/// not when every pixel moves (`shift`); closing a batch without lingering
/// pays for lone requests (one client) and not when several clients fill
/// batches. `BENCHMARK.json` records the same reasons. The client counts
/// are chosen for those two paths, not taken from measured traffic; four
/// is the count `serve-loadgen`'s own coalescing test runs.
const WORKLOADS: [Workload; 2] = [
    Workload { name: "sparse_lone", strategy: Strategy::Rand, clients: 1 },
    Workload { name: "dense_busy", strategy: Strategy::Shift, clients: 4 },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 finaliser: derives independent streams from the run seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a run's inputs are made of, generated from `--seed`.
pub struct Testbed {
    /// The model under test and behind the server.
    pub model: HdcClassifier<PixelEncoder>,
    /// The labeled images `model` was trained on.
    pub training_set: Dataset,
    /// Unlabeled campaign inputs.
    pub fuzz_images: Vec<GrayImage>,
    /// Served predict inputs.
    pub predict_inputs: Vec<GrayImage>,
    /// Served online-training examples.
    pub train_examples: Vec<(GrayImage, usize)>,
}

fn build_testbed(seed: u64) -> Testbed {
    let mut generator =
        SynthGenerator::new(SynthConfig { seed: derive(seed, 1), ..Default::default() });
    let training_set = generator.dataset(TRAIN_PER_CLASS);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: DIM,
        width: 28,
        height: 28,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: derive(seed, 2),
    })
    .expect("the paper's encoder configuration is valid");
    let mut model = HdcClassifier::new(encoder, CLASSES);
    model.train_batch(training_set.pairs()).expect("generated training data is well-formed");
    let fuzz = generator.dataset(FUZZ_PER_CLASS).shuffled(derive(seed, 3));
    let traffic = generator.dataset(TRAFFIC_PER_CLASS).shuffled(derive(seed, 4));
    Testbed {
        model,
        training_set,
        fuzz_images: fuzz.images().to_vec(),
        predict_inputs: traffic.images().to_vec(),
        train_examples: traffic.iter().map(|(image, label)| (image.clone(), label)).collect(),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one half of a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of wrong outputs; empty when every output checked out.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn print_result(outcomes: &[Outcome]) {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut correct = attempted > 0;
    for error in outcomes.iter().flat_map(|o| &o.errors) {
        eprintln!("perfbench: wrong output: {error}");
        correct = false;
    }
    let mut metrics = Vec::new();
    for m in outcomes.iter().flat_map(|o| &o.metrics) {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            correct = false;
            continue;
        }
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let work_dir = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));

    // Set-up: generate the inputs, train the model, persist it, load it
    // into a fresh server and get one answer. Repeated so `setup_s` is a
    // median; the last set-up is the one measured.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for attempt in 0..SETUP_REPEATS {
        drop(ready.take());
        let started = Instant::now();
        let testbed = build_testbed(args.seed);
        let server = serve::start(&testbed.model, &work_dir.join(format!("setup-{attempt}")))
            .unwrap_or_else(|e| {
                eprintln!("perfbench: server set-up failed: {e}");
                std::process::exit(1);
            });
        setup_times.push(started.elapsed().as_secs_f64());
        ready = Some((testbed, server));
    }
    let (testbed, server) = ready.expect("at least one set-up ran");

    eprintln!(
        "perfbench: workload {} (campaign: {}, serving: {} client(s)), seed {}, trace {}, \
         set-ups {:.3?} s",
        workload.name,
        workload.strategy.name(),
        workload.clients,
        args.seed,
        u8::from(args.trace),
        setup_times,
    );
    let mut campaign =
        fuzz::Fuzzing::new(&testbed, workload.strategy, derive(args.seed, 5), args.trace)
            .unwrap_or_else(|e| {
                eprintln!("perfbench: cannot train the timed model: {e}");
                std::process::exit(1);
            });
    let mut traffic = serve::Traffic::new(server.addr(), &testbed, workload.clients, args.trace)
        .unwrap_or_else(|e| {
            eprintln!("perfbench: cannot connect the clients: {e}");
            std::process::exit(1);
        });
    // The campaign and the serving traffic alternate in short rounds, so
    // both sample the machine across the whole run. A campaign round ends
    // with its last whole chunk, so it can run past `ROUND_SECS`.
    let round = Duration::from_secs_f64(ROUND_SECS);
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < args.seconds {
        campaign.run_for(round);
        traffic.run_for(round);
    }
    let (fuzz, serving) = (campaign.finish(), traffic.finish());
    drop(server);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");

    let mut outcomes = vec![fuzz, serving];
    if !args.trace {
        outcomes.push(Outcome {
            metrics: vec![Metric { name: "setup_s", value: median(&setup_times), unit: "s" }],
            ..Outcome::default()
        });
    }
    print_result(&outcomes);
}
