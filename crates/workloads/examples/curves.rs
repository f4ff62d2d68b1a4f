//! Calibration scratchpad: prints each benchmark's IPC-vs-CTA-count curve
//! (the raw data behind Fig. 3a) so the synthetic parameterization can be
//! eyeballed quickly. The real figure generator lives in `ws-bench`.

use warped_slicer::{run_with_cta_cap, RunConfig};
use ws_workloads::suite;

fn main() {
    let cycles: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    for b in suite() {
        let max = b.max_ctas_baseline();
        print!("{:4} (max {max}): ", b.abbrev);
        let mut ipcs = Vec::new();
        for n in 1..=max {
            ipcs.push(run_with_cta_cap(&b.desc, n, cycles, &RunConfig::default()));
        }
        let best = ipcs.iter().fold(0.0f64, |a, &x| a.max(x));
        for ipc in &ipcs {
            print!("{:5.2} ", ipc / best);
        }
        println!("  (peak IPC {best:.1})");
    }
}
