//! `hdtest` — command-line front end for the HDTest reproduction.
//!
//! ```text
//! hdtest-cli gen-data --out data --train 200 --test 50 [--seed 42]
//! hdtest-cli train    --images data/train-images.idx --labels data/train-labels.idx \
//!                 --out model.hdc [--dim 10000] [--seed 7]
//! hdtest-cli eval     --model model.hdc --images data/test-images.idx --labels data/test-labels.idx
//! hdtest-cli fuzz     --model model.hdc --images data/test-images.idx --strategy gauss \
//!                 [--budget 1.0] [--count 100] [--seed 1234] [--csv records.csv] [--out-dir adv]
//! hdtest-cli defend   --model model.hdc --images data/test-images.idx --out hardened.hdc
//! hdtest-cli serve    --model model.hdc [--addr 127.0.0.1:8080] [--max-batch 64]
//! hdtest-cli repro    table2 [--scale quick|full]
//! ```

mod args;
mod commands;
mod repro;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
hdtest-cli — differential fuzz testing of HDC classifiers (DAC 2021 reproduction)

USAGE:
  hdtest-cli <command> [--flag value]...

COMMANDS:
  gen-data   generate a synthetic digit dataset as IDX files
             --out DIR [--train N] [--test N] [--seed N]
  train      one-shot train an HDC model from IDX files (dense or binarized;
             every other command auto-detects the kind), or stream labeled
             examples to a live server's /v1/train (online learning)
             --images F --labels F --out F [--kind dense|binary] [--dim N]
             [--levels N] [--seed N]
             --images F --labels F --serve-url HOST:PORT [--serve-model NAME] [--chunk N]
  eval       evaluate a model (either kind) on labeled IDX data
             --model F --images F --labels F
  fuzz       run an HDTest campaign over unlabeled IDX images (either kind)
             --model F --images F [--strategy gauss|rand|row_rand|col_rand|row&col_rand|shift]
             [--budget L2] [--count N] [--seed N] [--csv F] [--out-dir DIR]
             [--unguided true] [--minimize true]
  defend     adversarial-retraining defense (fuzz, retrain, re-attack)
             --model F --images F --out F [--strategy S] [--seed N]
  serve      HTTP inference server with request coalescing, online learning
             (/v1/train, /v1/feedback, /v1/snapshot), a write-ahead delta
             log for crash recovery, and live metrics; dense and binarized
             models serve side by side (auto-detected)
             --model F | --models name=file[,name=file...]
             [--addr HOST:PORT] [--workers N] [--max-batch N]
             [--linger-us N: the most a batch waits for batch-mates, default
              200; it waits only after a drain of several jobs, so a lone
              client never does]
             [--model-dir DIR: jail reload/snapshot paths, escapes get 403]
             [--max-queue N: bound the job queue, full sheds with 503]
             [--queue-deadline-ms N: queued too long gets 504, 0 disables]
             [--predict-workers N: predict executor threads per model;
              drained batches shard across them, default = core count,
              1 keeps predicts on the batcher thread]
             [--request-deadline-secs N: slow request reads get 408, 0 disables]
             [--follower-of HOST:PORT: replicate that leader instead of
              serving writes; models bootstrap from the leader, writes
              get 409 naming it, /healthz turns ready once caught up]
             [--slow-request-ms N: requests slower than this are copied to
              /debug/traces/slow and logged with their stage breakdown,
              0 disables]
             [--log-level error|warn|info|debug: stderr log verbosity]
             [--kernel-backend scalar|portable|avx2: force the kernel
              dispatch tier (default: best supported; also settable via
              HDC_KERNEL_BACKEND). An unsupported tier warns and falls
              back to portable rather than failing startup]
  repro      print one of the paper's tables or figures, computed on the
             synthetic-digit testbed (accuracy, table2, fig7, guided,
             defense, samples, biterrors, differential, budget, compound,
             topn, vulnerable; samples also writes PGMs under out/figures)
             <table> [--scale quick|full]

Every run is deterministic given its seeds.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &argv[1..];

    let result = match command {
        "gen-data" => Args::parse(rest, &["out", "train", "test", "seed"])
            .map_err(Into::into)
            .and_then(commands::gen_data),
        "train" => Args::parse(
            rest,
            &[
                "images",
                "labels",
                "out",
                "kind",
                "dim",
                "levels",
                "seed",
                "serve-url",
                "serve-model",
                "chunk",
            ],
        )
        .map_err(Into::into)
        .and_then(commands::train),
        "eval" => Args::parse(rest, &["model", "images", "labels"])
            .map_err(Into::into)
            .and_then(commands::eval),
        "fuzz" => Args::parse(
            rest,
            &[
                "model", "images", "strategy", "budget", "count", "seed", "csv", "out-dir",
                "unguided", "minimize",
            ],
        )
        .map_err(Into::into)
        .and_then(commands::fuzz),
        "defend" => Args::parse(rest, &["model", "images", "out", "strategy", "seed"])
            .map_err(Into::into)
            .and_then(commands::defend),
        "serve" => Args::parse(
            rest,
            &[
                "model",
                "models",
                "addr",
                "workers",
                "max-batch",
                "linger-us",
                "model-dir",
                "max-queue",
                "queue-deadline-ms",
                "predict-workers",
                "request-deadline-secs",
                "follower-of",
                "slow-request-ms",
                "log-level",
                "kernel-backend",
            ],
        )
        .map_err(Into::into)
        .and_then(commands::serve),
        "repro" => repro::repro(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
