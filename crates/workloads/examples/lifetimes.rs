//! Scratch: per-benchmark CTA lifetime at full isolation occupancy.
use gpu_sim::KernelId;
use warped_slicer::{Driver, PolicyKind, RunConfig};
use ws_workloads::suite;

fn main() {
    for b in suite() {
        let cycles = 60_000u64;
        let mut run = Driver::new(
            &RunConfig::default(),
            std::slice::from_ref(&b.desc),
            &PolicyKind::LeftOver,
        );
        run.advance_to(cycles);
        let gpu = run.gpu();
        let meta = gpu.kernel_meta(KernelId(0));
        let resident: u32 = gpu.sms().map(|s| s.resident_ctas()).sum();
        let avg_life = if meta.completed_ctas > 0 {
            (f64::from(resident) * cycles as f64) / meta.completed_ctas as f64
        } else {
            f64::INFINITY
        };
        println!(
            "{:4}: completed {:5}, resident {:3}, avg CTA lifetime ~{:.0} cycles",
            b.abbrev, meta.completed_ctas, resident, avg_life
        );
    }
}
