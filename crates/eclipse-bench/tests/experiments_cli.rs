//! The `experiments` command line: known experiment names run, and any
//! other name or option (or `--out` without a directory) fails with the
//! usage before anything runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary")
}

#[test]
fn unknown_names_and_bad_options_print_usage_and_exit_2() {
    for args in [
        &["shard"][..],
        &["table5", "shard"],
        &["--quick", "table5"],
        &["table5", "--out"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_known_name_runs_its_experiment() {
    let out = experiments(&["table5"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== table5: "), "{stdout}");
}
