//! `repro`: prints one of the paper's tables or figures, computed by
//! `hdtest::repro` on a fresh testbed.

use crate::args::{Args, ArgsError};
use hdc_data::pgm;
use hdtest::prelude::*;
use hdtest::report::{fmt2, fmt3, fmt_pct, TextTable};
use hdtest::repro::{self, Scale, Testbed, DATA_SEED, MODEL_SEED};
use std::error::Error;
use std::path::Path;

type CliResult = Result<(), Box<dyn Error>>;
type Print = fn(&Testbed) -> CliResult;

/// Each table's name, experiment id, title and printer.
#[rustfmt::skip]
const TABLES: [(&str, &str, &str, Print); 12] = [
    ("accuracy", "E1", "HDC model accuracy (paper §V-A, ~90% on MNIST)", accuracy),
    ("table2", "E2", "Table II — mutation strategy comparison", table2),
    ("fig7", "E3", "Fig. 7 — per-class distances and iterations (gauss)", fig7),
    ("guided", "E4", "guided vs unguided fuzzing (§IV, ~12% speedup)", guided),
    ("defense", "E5", "retraining defense (§V-D, Fig. 8)", defense),
    ("samples", "E6", "sample adversarial images (Figs. 1, 4-6)", samples),
    ("biterrors", "E7", "hardware bit errors vs adversarial inputs (§II framing)", biterrors),
    ("differential", "E8", "cross-model differential fuzzing (two implementations)", differential),
    ("budget", "E9", "L2 budget sweep (§IV user-controlled constraint)", budget),
    ("compound", "E10", "independent vs joint mutation strategies (§IV)", compound),
    ("topn", "E11", "top-N seed survival ablation (paper fixes N = 3)", topn),
    ("vulnerable", "E12", "vulnerable cases: margin vs fuzzing effort (§V-B)", vulnerable),
];

/// `repro <table> [--scale quick|full]`: builds the testbed (full scale
/// unless told otherwise) and prints the table.
pub fn repro(argv: &[String]) -> CliResult {
    let names = TABLES.map(|(name, ..)| name).join(", ");
    let table = argv.first().and_then(|name| TABLES.iter().find(|(known, ..)| known == name));
    let Some(&(_, id, title, print)) = table else {
        let given =
            argv.first().map_or("no table".to_owned(), |name| format!("unknown table '{name}'"));
        return Err(ArgsError(format!("repro: {given}; valid tables: {names}")).into());
    };
    let scale: Scale =
        Args::parse(&argv[1..], &["scale"])?.get("scale").unwrap_or("full").parse()?;
    println!("=== {id}: {title} ===");
    println!(
        "dataset: synthetic digits (MNIST substitute, seed {DATA_SEED}); \
         model: pixel encoder D=10000, random value memory (seed {MODEL_SEED}); \
         scale: {scale:?}"
    );
    println!();
    print(&Testbed::new(scale)?)
}

fn accuracy(testbed: &Testbed) -> CliResult {
    let result = repro::accuracy(testbed)?;
    println!("train accuracy: {}", fmt_pct(result.train));
    println!("test accuracy:  {}  (paper: ~90% on MNIST)", fmt_pct(result.test));
    println!();
    let mut per_class = TextTable::new(["class", "test accuracy", "margin (mean)"]);
    for (class, (accuracy, margin)) in result.per_class.iter().enumerate() {
        per_class.push_row([class.to_string(), fmt_pct(*accuracy), format!("{margin:.4}")]);
    }
    println!("{}", per_class.render());
    println!("confusion matrix (rows = true class, cols = predicted):");
    println!("{}", result.confusion.render());
    if let Some((t, p, count)) = result.confusion.top_confusion() {
        println!("most frequent confusion: true {t} predicted as {p} ({count} times)\n");
    }
    println!("ablation: hypervector dimension vs accuracy");
    let mut by_dim = TextTable::new(["D", "test accuracy"]);
    for (dim, accuracy) in &result.by_dim {
        by_dim.push_row([dim.to_string(), fmt_pct(*accuracy)]);
    }
    println!("{}", by_dim.render());
    println!("ablation: value-memory encoding (paper uses random)");
    let mut by_encoding = TextTable::new(["value encoding", "test accuracy"]);
    for (encoding, accuracy) in &result.by_encoding {
        by_encoding.push_row([encoding.to_string(), fmt_pct(*accuracy)]);
    }
    println!("{}", by_encoding.render());
    Ok(())
}

fn table2(testbed: &Testbed) -> CliResult {
    let stats = repro::table2(testbed)?;
    println!("fuzzing {} unlabeled images per strategy\n", testbed.fuzz_pool.len());
    let row = |name: &str, cell: &dyn Fn(&StrategyStats) -> String| {
        std::iter::once(name.to_owned()).chain(stats.iter().map(cell)).collect::<Vec<_>>()
    };
    let mut table = TextTable::new(row("Metric", &|s| match s.strategy.as_str() {
        "shift" => "shift*".to_owned(),
        name => name.to_owned(),
    }));
    table.push_row(row("Avg. Norm. Dist. L1", &|s| fmt3(s.avg_l1)));
    table.push_row(row("Avg. Norm. Dist. L2", &|s| fmt3(s.avg_l2)));
    table.push_row(row("Avg. #Iter.", &|s| fmt2(s.avg_iterations)));
    table.push_row(row("Time Per-1K Gen. Img. (s)", &|s| {
        s.time_per_1k().map_or_else(|| "n/a".to_owned(), |d| fmt2(d.as_secs_f64()))
    }));
    table.push_row(row("Success rate", &|s| fmt_pct(s.success_rate())));
    println!("{}", table.render());
    println!("* shift distances are not meaningful (all pixels move); reported for completeness");
    for s in &stats {
        let seconds = s.elapsed.as_secs_f64();
        eprintln!(
            "  [{}] {} adversarial / {} inputs in {seconds:.1}s",
            s.strategy, s.successes, s.inputs
        );
    }
    eprintln!();
    Ok(())
}

fn fig7(testbed: &Testbed) -> CliResult {
    let by_class = repro::fig7(testbed)?;
    let mut table =
        TextTable::new(["class", "inputs", "successes", "avg L1", "avg L2", "avg #iter"]);
    for c in &by_class {
        table.push_row([
            c.class.to_string(),
            c.inputs.to_string(),
            c.successes.to_string(),
            fmt3(c.avg_l1),
            fmt3(c.avg_l2),
            fmt2(c.avg_iterations),
        ]);
    }
    println!("{}", table.render());
    let fuzzed = || by_class.iter().filter(|c| c.inputs > 0);
    let by_iterations =
        |a: &&ClassStats, b: &&ClassStats| a.avg_iterations.total_cmp(&b.avg_iterations);
    let hardest = fuzzed().max_by(by_iterations).expect("ten classes");
    let easiest = fuzzed().min_by(by_iterations).expect("ten classes");
    println!(
        "hardest class by iterations: {} ({} avg) — paper observes \"1\" is hardest",
        hardest.class,
        fmt2(hardest.avg_iterations)
    );
    println!(
        "easiest class by iterations: {} ({} avg) — paper observes \"9\" is among the easiest",
        easiest.class,
        fmt2(easiest.avg_iterations)
    );
    Ok(())
}

fn guided(testbed: &Testbed) -> CliResult {
    let runs = repro::guided(testbed)?;
    let mut table = TextTable::new([
        "strategy",
        "guidance",
        "avg #iter",
        "candidates",
        "successes",
        "wall time (s)",
    ]);
    for (guidance, stats, candidates) in &runs {
        table.push_row([
            stats.strategy.clone(),
            guidance.to_string(),
            fmt2(stats.avg_iterations),
            candidates.to_string(),
            stats.successes.to_string(),
            fmt2(stats.elapsed.as_secs_f64()),
        ]);
    }
    for pair in runs.chunks(2) {
        let [(_, guided, _), (_, unguided, _)] = pair else { unreachable!("runs come in pairs") };
        let speedup = (unguided.avg_iterations - guided.avg_iterations) / unguided.avg_iterations;
        println!(
            "{}: guided needs {} fewer iterations than unguided (paper: ~12% average)",
            guided.strategy,
            fmt_pct(speedup)
        );
    }
    println!();
    println!("{}", table.render());
    Ok(())
}

fn defense(testbed: &Testbed) -> CliResult {
    let repro::Defense { generated, report, accuracy: (before, after) } = repro::defense(testbed)?;
    println!("generated {generated} adversarial images (paper: 1000)");
    let mut table = TextTable::new(["quantity", "value"]);
    table.push_row(["retraining subset".to_owned(), report.retrain_count.to_string()]);
    table.push_row(["attack subset (unseen)".to_owned(), report.attack_count.to_string()]);
    table.push_row(["attack success before retraining".to_owned(), fmt_pct(report.success_before)]);
    table.push_row(["attack success after retraining".to_owned(), fmt_pct(report.success_after)]);
    table.push_row(["drop (paper: > 20%)".to_owned(), fmt_pct(report.drop())]);
    table.push_row(["clean test accuracy before".to_owned(), fmt_pct(before)]);
    table.push_row(["clean test accuracy after".to_owned(), fmt_pct(after)]);
    println!("{}", table.render());
    if report.drop() > 0.20 {
        println!("reproduced: attack success dropped by more than 20%");
    } else {
        println!(
            "note: drop of {} is below the paper's 20% claim at this scale",
            fmt_pct(report.drop())
        );
    }
    Ok(())
}

/// Writes up to four PGM triples (original, changed pixels, adversarial)
/// per strategy under `out/figures/` and prints the first as ASCII.
fn samples(testbed: &Testbed) -> CliResult {
    let out_dir = Path::new("out/figures");
    for report in repro::samples(testbed)? {
        let inputs = report.records.len();
        let strategy = report.strategy;
        println!(
            "--- {strategy} ({} adversarial images from {inputs} inputs) ---",
            report.corpus.len()
        );
        for (k, example) in report.corpus.iter().take(4).enumerate() {
            let (original, adversarial) = (&example.original, &example.adversarial);
            let stem = out_dir.join(format!("{}_{k}", strategy.name().replace('&', "_")));
            pgm::save_pgm(original, stem.with_extension("original.pgm"))?;
            pgm::save_pgm(
                &pgm::diff_image(original, adversarial),
                stem.with_extension("mutated_pixels.pgm"),
            )?;
            pgm::save_pgm(adversarial, stem.with_extension("adversarial.pgm"))?;
            if k > 0 {
                continue;
            }
            println!(
                "predicted \"{}\" originally, \"{}\" after mutation \
                 ({} pixels changed, L1={:.2}, L2={:.2}, {} iterations)",
                example.reference_label,
                example.adversarial_label,
                example.mutated_pixels(),
                example.l1,
                example.l2,
                example.iterations
            );
            let panels = [
                pgm::to_ascii(original),
                pgm::diff_mask(original, adversarial),
                pgm::to_ascii(adversarial),
            ];
            let lines: Vec<Vec<&str>> = panels.iter().map(|p| p.lines().collect()).collect();
            println!("{:<30}{:<30}adversarial", "original", "mutated pixels");
            for i in 0..lines.iter().map(Vec::len).max().unwrap_or(0) {
                let cell = |panel: usize| lines[panel].get(i).copied().unwrap_or("");
                println!("{:<30}{:<30}{}", cell(0), cell(1), cell(2));
            }
            println!();
        }
    }
    println!("PGM files written under {}", out_dir.display());
    Ok(())
}

fn biterrors(testbed: &Testbed) -> CliResult {
    let (points, stats) = repro::biterrors(testbed)?;
    let mut table = TextTable::new(["AM bit-error rate", "flipped bits", "test accuracy"]);
    for p in &points {
        table.push_row([
            format!("{:.0}%", p.bit_error_rate * 100.0),
            p.flipped.to_string(),
            fmt_pct(p.accuracy),
        ]);
    }
    println!("hardware fault injection (per-component flips in the AM):");
    println!("{}", table.render());
    println!(
        "adversarial side: {} of {} inputs flipped at mean L2 = {:.3} \
         (≈{:.1} of one full-scale pixel)",
        stats.successes, stats.inputs, stats.avg_l2, stats.avg_l2,
    );
    println!();
    println!(
        "contrast: ~{} AM bits flipped cost {} accuracy, while input \
         perturbations under one pixel's worth of L2 fool {} of inputs —",
        points[3].flipped,
        fmt_pct(points[0].accuracy - points[3].accuracy),
        fmt_pct(stats.success_rate()),
    );
    println!("HDC is hardware-robust but algorithmically fragile, which is the paper's premise.");
    Ok(())
}

fn differential(testbed: &Testbed) -> CliResult {
    let repro::Differential { accuracy: (reference, variant), outcomes } =
        repro::differential(testbed)?;
    println!("reference D=10000 accuracy: {:.1}%", 100.0 * reference);
    println!("variant   D=2000  accuracy: {:.1}%", 100.0 * variant);
    println!();
    let immediate = outcomes
        .iter()
        .filter(|o| matches!(o, CrossModelOutcome::ImmediateDisagreement { .. }))
        .count();
    let found: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| match o {
            CrossModelOutcome::Found(d) => Some(d.iterations as f64),
            _ => None,
        })
        .collect();
    let mut table = TextTable::new(["outcome", "count"]);
    table.push_row([
        "models already disagree (no mutation needed)".to_owned(),
        immediate.to_string(),
    ]);
    table.push_row(["discrepancy found by fuzzing".to_owned(), found.len().to_string()]);
    let exhausted = outcomes.len() - immediate - found.len();
    table.push_row(["agree throughout budget".to_owned(), exhausted.to_string()]);
    println!("{}", table.render());
    if !found.is_empty() {
        let mean = found.iter().sum::<f64>() / found.len() as f64;
        println!("mean iterations to a fuzzed discrepancy: {}", fmt2(mean));
    }
    println!(
        "\n{} of {} inputs expose reference/variant divergence within the L2 < 1 budget —",
        immediate + found.len(),
        outcomes.len()
    );
    println!("shrinking D for deployment changes model behaviour on near-boundary inputs.");
    Ok(())
}

fn budget(testbed: &Testbed) -> CliResult {
    let mut table = TextTable::new(["L2 budget", "success rate", "avg #iter", "avg L2 at success"]);
    for (budget, stats) in repro::budget(testbed)? {
        table.push_row([
            format!("{budget}"),
            fmt_pct(stats.success_rate()),
            fmt2(stats.avg_iterations),
            fmt3(stats.avg_l2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "tighter budgets keep perturbations smaller but cost success rate and \
         iterations — the §IV trade-off, quantified."
    );
    Ok(())
}

fn compound(testbed: &Testbed) -> CliResult {
    let mut table = TextTable::new(["strategy", "success rate", "avg #iter", "avg L1", "avg L2"]);
    for (name, stats) in repro::compound(testbed)? {
        table.push_row([
            name.to_owned(),
            fmt_pct(stats.success_rate()),
            fmt2(stats.avg_iterations),
            fmt3(stats.avg_l1),
            fmt3(stats.avg_l2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "joint strategies inherit gauss's speed while rand applications pull \
         the accumulated distance down — the compromise §IV anticipates."
    );
    Ok(())
}

fn topn(testbed: &Testbed) -> CliResult {
    let mut table = TextTable::new(["top-N", "success rate", "avg #iter", "wall time (s)"]);
    for (top_n, stats) in repro::topn(testbed)? {
        table.push_row([
            top_n.to_string(),
            fmt_pct(stats.success_rate()),
            fmt2(stats.avg_iterations),
            fmt2(stats.elapsed.as_secs_f64()),
        ]);
    }
    println!("{}", table.render());
    println!("the paper fixes N = 3 without ablating it.");
    Ok(())
}

fn vulnerable(testbed: &Testbed) -> CliResult {
    let (analysis, stats) = repro::vulnerable(testbed)?;
    println!(
        "margin ↔ iterations Spearman correlation: {}",
        fmt3(analysis.margin_iterations_correlation)
    );
    println!(
        "margin ↔ adversarial-L2 Spearman correlation: {}",
        fmt3(analysis.margin_l2_correlation)
    );
    println!();
    println!("a positive correlation means the (statically computable) prediction margin");
    println!("predicts which inputs resist fuzzing — defenders can triage without fuzzing.");
    println!();
    let mut table =
        TextTable::new(["rank", "input", "class", "margin", "iterations", "L2 to flip"]);
    for (rank, record) in analysis.most_vulnerable(10).iter().enumerate() {
        table.push_row([
            (rank + 1).to_string(),
            record.input_index.to_string(),
            record.reference_label.to_string(),
            format!("{:.4}", record.margin),
            record.iterations.to_string(),
            record.l2.map(fmt3).unwrap_or_default(),
        ]);
    }
    println!("most vulnerable inputs (smallest perturbation to flip):");
    println!("{}", table.render());
    let mut buckets = [0usize; 5];
    for r in &analysis.records {
        buckets[match r.iterations {
            0..=1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            _ => 4,
        }] += 1;
    }
    let mut hist = TextTable::new(["iterations", "inputs"]);
    for (label, count) in ["1", "2-3", "4-7", "8-15", "16+"].into_iter().zip(buckets) {
        hist.push_row([label.to_owned(), count.to_string()]);
    }
    println!("fuzzing-effort distribution:");
    println!("{}", hist.render());
    println!("mean iterations: {}", fmt2(stats.avg_iterations));
    Ok(())
}
