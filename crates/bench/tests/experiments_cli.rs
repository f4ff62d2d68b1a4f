//! The `experiments` binary's command line: `-h`/`--help` and an unknown
//! artifact are answered before any experiment context (and so any worker
//! pool) is built.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    for flag in ["-h", "--help"] {
        let out = experiments(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: experiments <"),
            "{flag}: {stdout}"
        );
        assert!(stdout.contains("ablation|all>"), "{flag}: {stdout}");
        // No pool announcement: nothing was built.
        assert!(out.stderr.is_empty(), "{flag}: {:?}", out.stderr);
    }
}

#[test]
fn unknown_artifact_is_rejected_before_any_work() {
    let out = experiments(&["fig99", "--cycles", "1000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown artifact: fig99\nusage: "),
        "{stderr}"
    );
    assert!(!stderr.contains("[pool:"), "no context was built: {stderr}");
}
