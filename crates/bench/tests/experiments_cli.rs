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

#[test]
fn unrecognised_env_knobs_exit_two_before_any_work() {
    let cases = [
        ("WS_EXEC_THREADS", "0", "positive integer"),
        ("WS_EXEC_THREADS", "four", "positive integer"),
        ("WS_EXEC_THREADS", "-3", "positive integer"),
        ("WS_SIM_FASTFORWARD", "no", "0, false, off"),
    ];
    for bin in [
        env!("CARGO_BIN_EXE_experiments"),
        env!("CARGO_BIN_EXE_verify-predictions"),
    ] {
        for (var, value, accepted) in cases {
            let out = Command::new(bin)
                .env(var, value)
                .arg("--help")
                .output()
                .expect("the binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {var}={value}");
            assert!(out.stdout.is_empty(), "{bin} {var}={value}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("{var}=")), "{stderr}");
            assert!(stderr.contains(accepted), "{stderr}");
        }
    }
    // The values CI and the benchmark set stay valid.
    for (var, value) in [("WS_EXEC_THREADS", "2"), ("WS_SIM_FASTFORWARD", "0")] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .env(var, value)
            .arg("--help")
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(0), "{var}={value}");
    }
}
