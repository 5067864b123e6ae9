//! The paper's claims that hold at quick scale, checked on the rows
//! `hdtest::repro` computes: data seed 42, model seed 7, fuzz seed 1234,
//! D = 10,000 and 100 fuzzing inputs. Where the reproduction departs from
//! the paper (listed in the `hdtest::repro` docs), nothing is asserted.

use hdtest::prelude::*;
use hdtest::repro::{self, Scale, Testbed};
use std::sync::OnceLock;

fn testbed() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(|| Testbed::new(Scale::Quick).expect("the quick testbed builds"))
}

fn iterations(stats: &[StrategyStats]) -> Vec<f64> {
    stats.iter().map(|s| s.avg_iterations).collect()
}

#[test]
fn table2_orders_distances_and_iterations_as_the_paper_does() {
    let stats = repro::table2(testbed()).expect("table II runs");
    let [gauss, rand, row_col, _shift] = &stats[..] else { panic!("four strategies: {stats:?}") };
    // L2: rand 0.169 < gauss 0.448 < row&col 0.487 (paper 0.09 < 0.38 < 0.65).
    let l2 = [rand.avg_l2, gauss.avg_l2, row_col.avg_l2];
    assert!(l2[0] < l2[1] && l2[1] < l2[2], "L2 rand, gauss, row&col: {l2:?}");
    // Iterations: gauss 2.29 < row&col 9.06 < rand 9.60 (paper 1.46 < 7.94 < 12.18).
    let iters = [gauss.avg_iterations, row_col.avg_iterations, rand.avg_iterations];
    assert!(
        iters[0] < iters[1] && iters[1] < iters[2],
        "iterations gauss, row&col, rand: {iters:?}"
    );
    // rand perturbs least: 1.926 against gauss 6.295 and row&col 5.290.
    assert!(rand.avg_l1 < gauss.avg_l1.min(row_col.avg_l1), "L1: {stats:?}");
}

#[test]
fn guided_search_needs_fewer_iterations_than_unguided() {
    // rand 9.60 vs 12.96, gauss 2.29 vs 2.57 (paper: 12% faster on average).
    let runs = repro::guided(testbed()).expect("guided runs");
    for pair in runs.chunks(2) {
        let [(Guidance::DistanceGuided, guided, _), (Guidance::Unguided, unguided, _)] = pair
        else {
            panic!("guided, then unguided: {runs:?}")
        };
        assert!(
            guided.avg_iterations < unguided.avg_iterations,
            "{}: guided {} vs unguided {}",
            guided.strategy,
            guided.avg_iterations,
            unguided.avg_iterations
        );
    }
}

#[test]
fn iterations_rise_with_top_n() {
    // 8.82, 9.60, 9.86 and 11.86 at N = 1, 3, 5 and 9.
    let rows = repro::topn(testbed()).expect("top-N runs");
    let (top_ns, stats): (Vec<usize>, Vec<StrategyStats>) = rows.into_iter().unzip();
    assert_eq!(top_ns, [1, 3, 5, 9]);
    let iters = iterations(&stats);
    assert!(iters.windows(2).all(|w| w[0] < w[1]), "iterations by N: {iters:?}");
}

#[test]
fn retraining_lowers_attack_success() {
    // 100% -> 82% (the paper reports a drop of more than 20%).
    let defense = repro::defense(testbed()).expect("defense runs");
    let report = defense.report;
    assert!(
        report.success_after < report.success_before,
        "attack success {} -> {}",
        report.success_before,
        report.success_after
    );
}
