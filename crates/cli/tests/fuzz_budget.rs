//! `hdtest-cli fuzz --budget` is validated at the boundary: a budget that
//! is not a positive, finite L2 distance is a usage error (exit 1) before
//! any file is opened.

use std::process::Command;

fn fuzz_with_budget(budget: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hdtest-cli"))
        .args(["fuzz", "--model", "no-such.hdc", "--images", "no-such.idx", "--budget", budget])
        .output()
        .expect("run hdtest-cli");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unusable_budgets_are_usage_errors() {
    for budget in ["-1", "-0.5", "0", "NaN", "inf", "-inf"] {
        let (code, stderr) = fuzz_with_budget(budget);
        assert_eq!(code, Some(1), "--budget {budget}: {stderr}");
        assert!(stderr.contains("--budget"), "--budget {budget}: {stderr}");
    }
}

#[test]
fn a_positive_budget_gets_past_validation() {
    // The missing model file is the first thing to fail.
    let (code, stderr) = fuzz_with_budget("0.5");
    assert_eq!(code, Some(1));
    assert!(!stderr.contains("--budget"), "{stderr}");
}
