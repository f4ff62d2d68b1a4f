//! Pins the single-kernel mode's report byte for byte: FNV-1a 64 over the
//! whole stdout of `gpu-sim` with the default arguments and with
//! `--ctas-per-sm 2 --sched rr`. The mode runs its kernel under the Quota
//! policy with one cap; the constants were recorded from the hand-written
//! launch loop that policy replaced, so a mismatch is a behaviour change.
//! Fast-forward follows the environment, and both settings must hit the
//! same constant.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn single_kernel_reports_are_pinned() {
    let cases: [(&[&str], u64); 2] = [
        (&[], 0x8ab6_2a93_777b_5a08),
        (
            &["--ctas-per-sm", "2", "--sched", "rr"],
            0x3a35_0372_e3bd_1172,
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gpu-sim"))
            .args(args)
            .output()
            .expect("gpu-sim binary runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {text}");
        let got = fnv1a(&out.stdout);
        assert_eq!(got, want, "{args:?}: got {got:#018x}, stdout:\n{text}");
    }
}
