//! Subcommand implementations.

use crate::args::{Args, ArgsError};
use hdc::binary::BinaryClassifier;
use hdc::io::{load_any, save_pixel_classifier};
use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::{pgm, Dataset, GrayImage};
use hdtest::prelude::*;
use hdtest::report::{fmt2, fmt3, fmt_pct, write_records_csv, TextTable};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

type CliResult = Result<(), Box<dyn Error>>;

/// `gen-data`: synthesize a digit dataset and write IDX pairs.
pub fn gen_data(args: Args) -> CliResult {
    let out = args.required("out")?.to_owned();
    let train_per_class: usize = args.get_or("train", 200)?;
    let test_per_class: usize = args.get_or("test", 50)?;
    let seed: u64 = args.get_or("seed", 42)?;

    let dir = Path::new(&out);
    std::fs::create_dir_all(dir)?;
    let mut generator = SynthGenerator::new(SynthConfig { seed, ..Default::default() });

    for (name, per_class) in [("train", train_per_class), ("test", test_per_class)] {
        let ds = generator.dataset(per_class);
        let images = BufWriter::new(File::create(dir.join(format!("{name}-images.idx")))?);
        let labels = BufWriter::new(File::create(dir.join(format!("{name}-labels.idx")))?);
        ds.write_idx(images, labels)?;
        println!("wrote {} {name} images to {}", ds.len(), dir.display());
    }
    Ok(())
}

fn load_dataset(images: &str, labels: Option<&str>) -> Result<Dataset, Box<dyn Error>> {
    let image_reader = BufReader::new(File::open(images)?);
    match labels {
        Some(labels) => {
            let label_reader = BufReader::new(File::open(labels)?);
            Ok(Dataset::read_idx(image_reader, label_reader)?)
        }
        None => {
            let images = hdc_data::idx::read_images(image_reader)?;
            let labels = vec![0usize; images.len()];
            Ok(Dataset::new(images, labels).map_err(|e| e.to_string())?)
        }
    }
}

/// `train`: one-shot training from IDX files into a model file of either
/// kind (`--kind dense|binary` selects the `HDC1` or `HDB1` format; every
/// other subcommand auto-detects the kind on load) — or, with
/// `--serve-url HOST:PORT`, **online training of a live server**: the
/// labeled examples stream to `POST /v1/train` in chunks (riding the
/// server's request coalescer into `partial_fit_batch`), and the command
/// reports the model version before and after. If the target turns out
/// to be a replication follower (writes answered 409), the stream
/// follows the leader address in the response body — one hop, no loops.
pub fn train(args: Args) -> CliResult {
    let images = args.required("images")?.to_owned();
    let labels = args.required("labels")?.to_owned();
    if let Some(url) = args.get("serve-url") {
        let url = url.to_owned();
        let model = args.get("serve-model").unwrap_or("default").to_owned();
        let chunk: usize = args.get_or("chunk", 32)?;
        let dataset = load_dataset(&images, Some(&labels))?;
        return train_remote(&url, &model, chunk, &dataset);
    }
    let out = args.required("out")?.to_owned();
    let dim: usize = args.get_or("dim", hdc::DEFAULT_DIM)?;
    let levels: usize = args.get_or("levels", 256)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let kind: ModelKind = args.get("kind").unwrap_or("dense").parse()?;

    let dataset = load_dataset(&images, Some(&labels))?;
    let first = dataset.image(0);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: first.width(),
        height: first.height(),
        levels,
        value_encoding: ValueEncoding::Random,
        seed,
    })?;
    let num_classes = dataset.labels().iter().copied().max().unwrap_or(0) + 1;

    let start = std::time::Instant::now();
    let model: AnyModel = match kind {
        ModelKind::Dense => {
            let mut model = HdcClassifier::new(encoder, num_classes);
            model.train_batch(dataset.pairs())?;
            model.into()
        }
        ModelKind::Binary => {
            let mut model = BinaryClassifier::new(encoder, num_classes);
            model.train_batch(dataset.pairs())?;
            model.into()
        }
    };
    println!(
        "trained {num_classes}-class {kind} model (D = {dim}) on {} images in {}s",
        dataset.len(),
        fmt2(start.elapsed().as_secs_f64())
    );
    model.save(BufWriter::new(File::create(&out)?))?;
    println!("model written to {out}");
    Ok(())
}

/// A small jitter (0..=250ms) derived from the wall clock's nanoseconds —
/// enough to de-synchronize concurrent CLI retries without a PRNG dep.
fn retry_jitter() -> std::time::Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    std::time::Duration::from_millis(u64::from(nanos % 251))
}

/// POSTs one training chunk, retrying transient failures: connect/transport
/// errors get a fresh connection, and shed (503) responses back off for the
/// server's `Retry-After` hint (plus jitter) before trying again. Anything
/// else — success or a hard error — returns to the caller.
fn post_with_retry(
    client: &mut hdc_serve::Client,
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
) -> Result<hdc_serve::Response, Box<dyn Error>> {
    use std::time::Duration;
    const MAX_ATTEMPTS: u32 = 6;
    let mut backoff = Duration::from_millis(100);
    for attempt in 1..=MAX_ATTEMPTS {
        let outcome = client.post(path, body);
        match outcome {
            Ok(response) if response.status == 503 && attempt < MAX_ATTEMPTS => {
                let wait = response
                    .retry_after_secs()
                    .map_or(backoff, Duration::from_secs)
                    .min(Duration::from_secs(5))
                    + retry_jitter();
                eprintln!("server shedding load (503); retrying in {}ms", wait.as_millis());
                std::thread::sleep(wait);
            }
            Ok(response) => return Ok(response),
            Err(e) if attempt < MAX_ATTEMPTS => {
                // Transport error mid-request: the connection state is
                // unknown, so reconnect before the next attempt.
                let wait = backoff + retry_jitter();
                eprintln!("transient error ({e}); reconnecting in {}ms", wait.as_millis());
                std::thread::sleep(wait);
                *client = hdc_serve::Client::connect(addr)?;
            }
            Err(e) => {
                return Err(format!("{path} failed after {MAX_ATTEMPTS} attempts: {e}").into())
            }
        }
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
    unreachable!("loop returns on the final attempt")
}

/// Resolves an `http://HOST:PORT` / `HOST:PORT` string to a socket
/// address. `ToSocketAddrs` resolves hostnames too (`localhost:8080`),
/// not just literal IP:PORT.
fn resolve_host_port(url: &str) -> Result<std::net::SocketAddr, Box<dyn Error>> {
    use std::net::ToSocketAddrs;
    let host_port = url.strip_prefix("http://").unwrap_or(url).trim_end_matches('/');
    host_port
        .to_socket_addrs()
        .map_err(|e| format!("'{url}' is not HOST:PORT: {e}"))?
        .next()
        .ok_or_else(|| format!("'{url}' resolved to no address").into())
}

/// Streams a labeled dataset to a running server's `/v1/train` endpoint.
///
/// A 409 response means the target is a replication follower; the body
/// carries the leader's address and the stream re-aims there. Exactly
/// one hop is followed — a second 409 (misconfigured topology, or two
/// followers pointing at each other) is a hard error, so redirect loops
/// cannot happen.
fn train_remote(url: &str, model: &str, chunk: usize, dataset: &Dataset) -> CliResult {
    use hdc_serve::{Client, Json};

    let mut addr = resolve_host_port(url).map_err(|e| format!("--serve-url is invalid: {e}"))?;
    let mut client = Client::connect(addr)?;
    let mut followed_leader = false;

    let version_of = |client: &mut Client, model: &str| -> Result<f64, Box<dyn Error>> {
        let response = client.get("/v1/models")?;
        let doc = response.json()?;
        let entry = doc
            .get("models")
            .and_then(Json::as_array)
            .and_then(|models| {
                models.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(model))
            })
            .ok_or_else(|| format!("server has no model '{model}'"))?;
        Ok(entry.get("version").and_then(Json::as_f64).unwrap_or(0.0))
    };

    // Best-effort: a follower that has not bootstrapped this model yet
    // does not list it, but can still redirect the writes; the train
    // posts themselves are the authority on whether the name exists.
    let before = version_of(&mut client, model).unwrap_or(0.0);
    let start = std::time::Instant::now();
    let mut sent = 0usize;
    let pairs: Vec<(&[u8], usize)> = dataset.pairs().collect();
    for batch in pairs.chunks(chunk.max(1)) {
        let body = Client::train_batch_body(model, batch);
        let mut response = post_with_retry(&mut client, addr, "/v1/train", &body)?;
        if response.status == 409 && !followed_leader {
            let leader = response
                .json()
                .ok()
                .and_then(|doc| doc.get("leader").and_then(Json::as_str).map(str::to_owned))
                .ok_or("server rejected writes (409) without naming a leader")?;
            eprintln!("{addr} is a follower; re-aiming writes at its leader {leader}");
            addr = resolve_host_port(&leader)
                .map_err(|e| format!("follower named an unusable leader: {e}"))?;
            client = Client::connect(addr)?;
            followed_leader = true;
            response = post_with_retry(&mut client, addr, "/v1/train", &body)?;
        }
        if !response.is_success() {
            return Err(format!(
                "/v1/train failed after {sent} examples: {} {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            )
            .into());
        }
        sent += batch.len();
    }
    let after = version_of(&mut client, model)?;
    println!(
        "streamed {sent} examples to {addr} model '{model}' in {}s: version {before} -> {after}",
        fmt2(start.elapsed().as_secs_f64())
    );
    Ok(())
}

/// `eval`: accuracy of a stored model (either kind, auto-detected) over
/// labeled IDX data.
pub fn eval(args: Args) -> CliResult {
    let model_path = args.required("model")?.to_owned();
    let images = args.required("images")?.to_owned();
    let labels = args.required("labels")?.to_owned();

    let model = load_any(BufReader::new(File::open(&model_path)?))?;
    let dataset = load_dataset(&images, Some(&labels))?;
    let accuracy = model.accuracy(dataset.pairs())?;
    println!(
        "accuracy of {} model over {} images: {}",
        model.kind(),
        dataset.len(),
        fmt_pct(accuracy)
    );

    let mut table = TextTable::new(["class", "count", "accuracy"]);
    for class in 0..model.num_classes() {
        let subset = dataset.filter_class(class);
        if subset.is_empty() {
            continue;
        }
        let acc = model.accuracy(subset.pairs())?;
        table.push_row([class.to_string(), subset.len().to_string(), fmt_pct(acc)]);
    }
    println!("{}", table.render());

    let cm = hdc::ConfusionMatrix::evaluate(&model, dataset.pairs())?;
    println!("confusion matrix (rows = true class, cols = predicted):");
    println!("{}", cm.render());
    Ok(())
}

fn parse_strategy(name: &str) -> Result<Strategy, Box<dyn Error>> {
    Strategy::ALL.into_iter().find(|s| s.name() == name).ok_or_else(|| {
        format!("unknown strategy '{name}'; valid: {}", Strategy::ALL.map(|s| s.name()).join(", "))
            .into()
    })
}

/// `fuzz`: an HDTest campaign over unlabeled images. The model kind is
/// auto-detected: dense and binarized classifiers fuzz through the same
/// unified `Model`/`TargetModel` surface.
pub fn fuzz(args: Args) -> CliResult {
    let model_path = args.required("model")?.to_owned();
    let images_path = args.required("images")?.to_owned();
    let strategy = parse_strategy(args.get("strategy").unwrap_or("gauss"))?;
    let budget: f64 = args.get_or("budget", 1.0)?;
    if !(budget.is_finite() && budget > 0.0) {
        return Err(ArgsError(format!(
            "flag --budget: the L2 budget must be a positive, finite number, got '{budget}'"
        ))
        .into());
    }
    let count: usize = args.get_or("count", usize::MAX)?;
    let seed: u64 = args.get_or("seed", 1234)?;
    let unguided: bool = args.get_or("unguided", false)?;
    let minimize_output: bool = args.get_or("minimize", false)?;

    let model = load_any(BufReader::new(File::open(&model_path)?))?;
    let dataset = load_dataset(&images_path, None)?;
    let images: Vec<GrayImage> = dataset.images().iter().take(count).cloned().collect();

    let campaign = Campaign::new(
        &model,
        CampaignConfig {
            strategy,
            l2_budget: strategy.distance_meaningful().then_some(budget),
            seed,
            fuzz: FuzzConfig {
                guidance: if unguided { Guidance::Unguided } else { Guidance::DistanceGuided },
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let report = campaign.run(&images)?;
    let stats = report.strategy_stats();

    let mut table = TextTable::new(["metric", "value"]);
    table.push_row(["strategy".to_owned(), stats.strategy.clone()]);
    table.push_row(["inputs".to_owned(), stats.inputs.to_string()]);
    table.push_row(["adversarial images".to_owned(), stats.successes.to_string()]);
    table.push_row(["success rate".to_owned(), fmt_pct(stats.success_rate())]);
    table.push_row(["avg norm. L1".to_owned(), fmt3(stats.avg_l1)]);
    table.push_row(["avg norm. L2".to_owned(), fmt3(stats.avg_l2)]);
    table.push_row(["avg #iterations".to_owned(), fmt2(stats.avg_iterations)]);
    table.push_row([
        "time / 1k generated (s)".to_owned(),
        stats.time_per_1k().map(|d| fmt2(d.as_secs_f64())).unwrap_or_else(|| "n/a".to_owned()),
    ]);
    println!("{}", table.render());

    if minimize_output && !report.corpus.is_empty() {
        let mut before = 0usize;
        let mut after = 0usize;
        for example in report.corpus.iter() {
            let m = hdtest::minimize(
                &model,
                &example.original,
                &example.adversarial,
                example.reference_label,
                hdtest::MinimizeConfig::default(),
            )?;
            before += m.pixels_before;
            after += m.pixels_after;
        }
        println!(
            "minimization: {before} -> {after} total changed pixels across the corpus \
             ({:.1}% reduction)",
            100.0 * (1.0 - after as f64 / before.max(1) as f64)
        );
    }

    if let Some(csv) = args.get("csv") {
        write_records_csv(&report.records, BufWriter::new(File::create(csv)?))?;
        println!("per-input records written to {csv}");
    }
    if let Some(dir) = args.get("out-dir") {
        let dir = Path::new(dir);
        for (k, example) in report.corpus.iter().enumerate() {
            pgm::save_pgm(&example.original, dir.join(format!("{k:04}_original.pgm")))?;
            pgm::save_pgm(&example.adversarial, dir.join(format!("{k:04}_adversarial.pgm")))?;
        }
        println!("{} adversarial pairs written to {}", report.corpus.len(), dir.display());
    }
    Ok(())
}

/// `serve`: long-lived HTTP inference server over stored models.
///
/// `--model F` registers one model as `default`; `--models a=f1,b=f2`
/// registers several by name (both may be combined). Model kinds are
/// auto-detected from the file magic, so dense and binarized models serve
/// side by side. `--model-dir DIR` jails every `/v1/reload` read and
/// `/v1/snapshot` write (and the startup loads) inside `DIR` — escaping
/// paths get a 403. Requests coalesce into packed batch predicts; see the
/// `hdc-serve` crate docs for the endpoint reference and `/metrics` for
/// live batch/latency histograms.
///
/// `--follower-of HOST:PORT` turns the process into a **replication
/// follower**: it bootstraps every model from the leader's `/v1/export`,
/// tails `/v1/deltas` to stay current, answers writes with 409 (body
/// names the leader), and reports `ready` in `/healthz` only once caught
/// up. A follower needs no `--model`/`--models` — the model set is
/// discovered from the leader.
pub fn serve(args: Args) -> CliResult {
    use hdc_serve::{BatchConfig, Metrics, Registry, Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_owned();
    let workers: usize = args.get_or("workers", 8)?;
    let max_batch: usize = args.get_or("max-batch", 64)?;
    let linger_us: u64 = args.get_or("linger-us", 200)?;
    let max_queue: usize = args.get_or("max-queue", BatchConfig::default().max_queue)?;
    let queue_deadline_ms: u64 =
        args.get_or("queue-deadline-ms", BatchConfig::default().queue_deadline.as_millis() as u64)?;
    let predict_workers: usize =
        args.get_or("predict-workers", hdc::batch::resolved_parallelism())?;
    let request_deadline_secs: u64 =
        args.get_or("request-deadline-secs", ServerConfig::default().request_deadline.as_secs())?;
    let slow_request_ms: u64 =
        args.get_or("slow-request-ms", ServerConfig::default().slow_request_ms)?;
    if let Some(raw) = args.get("log-level") {
        let level: hdc_serve::log::Level = raw.parse().map_err(|e| format!("--log-level: {e}"))?;
        hdc_serve::log::set_level(level);
    }

    // Pin the kernel dispatch tier before any model loads (the first
    // kernel call freezes the choice process-wide). A bad or unsupported
    // tier must not take the server down: warn and serve on the portable
    // fallback instead — the operator asked for "slower", never "down".
    use hdc::kernel::backend;
    if let Some(raw) = args.get("kernel-backend") {
        match raw.parse::<hdc::kernel::Backend>() {
            Ok(requested) => {
                let actual = backend::force(requested);
                if actual != requested {
                    hdc_serve::log::warn(
                        "serve.start",
                        "requested kernel backend unavailable, using fallback",
                        &[("requested", requested.to_string()), ("actual", actual.to_string())],
                    );
                }
            }
            Err(e) => hdc_serve::log::warn(
                "serve.start",
                "ignoring --kernel-backend",
                &[("error", e), ("actual", backend::active().to_string())],
            ),
        }
    }
    hdc_serve::log::info(
        "serve.start",
        "kernel backend selected",
        &[
            ("backend", backend::active().to_string()),
            ("cpu_features", backend::cpu_features().to_string()),
        ],
    );

    let mut models: Vec<(String, String)> = Vec::new();
    if let Some(path) = args.get("model") {
        models.push(("default".to_owned(), path.to_owned()));
    }
    if let Some(spec) = args.get("models") {
        for pair in spec.split(',') {
            let Some((name, path)) = pair.split_once('=') else {
                return Err(format!("--models entry '{pair}' is not name=path").into());
            };
            models.push((name.trim().to_owned(), path.trim().to_owned()));
        }
    }
    let follower_of = args.get("follower-of").map(str::to_owned);
    if models.is_empty() && follower_of.is_none() {
        return Err("serve needs --model FILE or --models name=file[,name=file...] \
                    (or --follower-of HOST:PORT to replicate a leader's models)"
            .into());
    }

    let batch = BatchConfig {
        max_batch,
        max_linger: Duration::from_micros(linger_us),
        max_queue,
        queue_deadline: Duration::from_millis(queue_deadline_ms),
        predict_workers,
    };
    let mut registry = Registry::new(Arc::new(Metrics::new()), batch);
    if let Some(dir) = args.get("model-dir") {
        registry = registry.with_model_dir(Path::new(dir))?;
        println!("model paths jailed to {dir} (escapes get 403)");
    }
    let registry = Arc::new(registry);
    for (name, path) in &models {
        // Startup paths are relative to the operator's cwd; absolutize
        // them so the jail (whose *request* paths resolve relative to
        // --model-dir instead) judges the real location.
        let resolved = std::fs::canonicalize(path)
            .map_err(|e| format!("cannot open model file {path}: {e}"))?;
        let info = registry.load(name, &resolved)?;
        println!(
            "loaded {} model '{name}' from {path}: D = {}, {} classes, {}x{} inputs",
            info.kind, info.dim, info.classes, info.width, info.height
        );
    }

    // Start the replication tail *before* accepting connections, so the
    // very first request already sees follower semantics (writes 409,
    // /healthz not ready until caught up).
    let _replica = match &follower_of {
        Some(leader) => {
            let replica = hdc_serve::Replica::start(Arc::clone(&registry), leader)?;
            println!(
                "following leader at {leader}: models bootstrap from its /v1/export, \
                 writes here get 409, /healthz reports ready once caught up"
            );
            Some(replica)
        }
        None => None,
    };

    let config = ServerConfig {
        addr,
        workers,
        request_deadline: Duration::from_secs(request_deadline_secs),
        slow_request_ms,
        ..ServerConfig::default()
    };
    let mut server = Server::start(registry, &config)?;
    println!(
        "serving {} model(s) on http://{} ({} workers, max batch {}, linger {}us, \
         queue {} jobs / {}ms deadline, {} predict executor(s))",
        models.len(),
        server.addr(),
        workers,
        max_batch,
        linger_us,
        max_queue,
        queue_deadline_ms,
        predict_workers
    );
    println!(
        "endpoints: GET /healthz | GET /healthz/live | GET /v1/models | GET /metrics | \
         GET /debug/traces | GET /debug/traces/slow | GET /v1/export | GET /v1/deltas | \
         POST /v1/predict | POST /v1/train | POST /v1/feedback | POST /v1/snapshot | \
         POST /v1/reload"
    );
    server.join();
    Ok(())
}

/// `defend`: fuzz, retrain on half the corpus, re-attack, store the
/// hardened model. Dense models only — the §V-D retraining defense is
/// defined on the dense accumulators.
pub fn defend(args: Args) -> CliResult {
    let model_path = args.required("model")?.to_owned();
    let images_path = args.required("images")?.to_owned();
    let out = args.required("out")?.to_owned();
    let strategy = parse_strategy(args.get("strategy").unwrap_or("gauss"))?;
    let seed: u64 = args.get_or("seed", 1234)?;

    let AnyModel::Dense(mut model) = load_any(BufReader::new(File::open(&model_path)?))? else {
        return Err("defend requires a dense (HDC1) model; \
                    fuzz and eval accept either kind"
            .into());
    };
    let dataset = load_dataset(&images_path, None)?;

    let campaign = Campaign::new(
        &model,
        CampaignConfig {
            strategy,
            l2_budget: strategy.distance_meaningful().then_some(1.0),
            seed,
            ..Default::default()
        },
    );
    let corpus = campaign.run(dataset.images())?.corpus;
    println!("generated {} adversarial images with {}", corpus.len(), strategy);
    if corpus.len() < 2 {
        return Err("corpus too small to split for the defense".into());
    }

    let report = retraining_defense(
        &mut model,
        &corpus,
        DefenseConfig { retrain_fraction: 0.5, seed, retrain_passes: 1 },
    )?;
    println!(
        "attack success: {} -> {} (drop {})",
        fmt_pct(report.success_before),
        fmt_pct(report.success_after),
        fmt_pct(report.drop())
    );
    save_pixel_classifier(&model, BufWriter::new(File::create(&out)?))?;
    println!("hardened model written to {out}");
    Ok(())
}
