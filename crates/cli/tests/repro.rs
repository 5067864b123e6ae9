//! `hdtest-cli repro <table>` prints the paper's tables from
//! `hdtest::repro`; an unknown table or scale name is a usage error.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdtest-cli"))
        .arg("repro")
        .args(args)
        .output()
        .expect("run hdtest-cli")
}

#[test]
fn table2_prints_every_strategy_and_the_l2_row() {
    let out = repro(&["table2", "--scale", "quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let cells = |first: &str| -> Vec<String> {
        let line = stdout.lines().find(|line| line.starts_with(first));
        let line = line.unwrap_or_else(|| panic!("no '{first}' row in:\n{stdout}"));
        line[first.len()..].split_whitespace().map(str::to_owned).collect()
    };
    assert!(stdout.contains("scale: Quick"), "{stdout}");
    assert_eq!(cells("Metric"), ["gauss", "rand", "row&col_rand", "shift*"]);
    // The quick-scale values the `hdtest::repro` docs cite.
    assert_eq!(cells("Avg. Norm. Dist. L2"), ["0.448", "0.169", "0.487", "7.077"]);
}

#[test]
fn an_unknown_table_or_scale_is_a_usage_error_naming_the_valid_ones() {
    for args in [&["table3"][..], &[]] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        for name in ["accuracy", "table2", "fig7", "guided", "defense", "topn", "vulnerable"] {
            assert!(stderr.contains(name), "{args:?}: {stderr}");
        }
    }
    let stderr = String::from_utf8_lossy(&repro(&["table3"]).stderr).into_owned();
    assert!(stderr.contains("unknown table 'table3'"), "{stderr}");

    let out = repro(&["table2", "--scale", "huge"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown scale 'huge'; valid: quick, full"), "{stderr}");
}
