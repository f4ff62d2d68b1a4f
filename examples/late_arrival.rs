//! Dynamic kernel arrival (the paper's Fig. 2e): one kernel owns the GPU,
//! a second arrives mid-run, and the Warped-Slicer re-profiles and
//! re-partitions around it without evicting anything.
//!
//! ```text
//! cargo run --release --example late_arrival [FIRST] [SECOND] [ARRIVAL_CYCLE]
//! ```

use warped_slicer_repro::gpu_sim::KernelId;
use warped_slicer_repro::warped_slicer::policy::Controller;
use warped_slicer_repro::warped_slicer::{
    Driver, RunConfig, WarpedSlicerConfig, WarpedSlicerController,
};
use warped_slicer_repro::ws_workloads::by_abbrev;

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next().unwrap_or_else(|| "IMG".to_string());
    let second = args.next().unwrap_or_else(|| "MVP".to_string());
    let arrival: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(30_000);

    let (Some(a), Some(b)) = (by_abbrev(&first), by_abbrev(&second)) else {
        eprintln!("unknown benchmark; try BLK BFS DXT HOT IMG KNN LBM MM MVP NN");
        std::process::exit(1);
    };

    let controller = WarpedSlicerController::new(WarpedSlicerConfig::scaled_for(60_000));
    let mut run = Driver::with_controller(&RunConfig::default(), Box::new(controller));
    let ka = run.add_kernel(a.desc.clone());

    println!("cycle {:>6}: {} launches alone", 0, a.abbrev);
    let mut kb: Option<KernelId> = None;
    let mut last_decision_at = u64::MAX;
    let total = arrival * 3;
    let mut now = 0;
    while now < total {
        if now == arrival {
            kb = Some(run.add_kernel(b.desc.clone()));
            println!("cycle {now:>6}: {} arrives -> re-profiling", b.abbrev);
        }
        // Step to just past the controller's next intervention (the only
        // cycles at which it decides), the arrival or the end, whichever is
        // nearest: each step holds at most one decision, and fast-forward
        // may skip the dead cycles in between.
        let mut next = run
            .controller()
            .next_intervention()
            .map_or(total, |at| at.max(now) + 1)
            .min(total);
        if now < arrival {
            next = next.min(arrival);
        }
        run.advance_to(next);
        now = next;
        if let Some(d) = run.controller().decision() {
            if d.decided_at != last_decision_at {
                last_decision_at = d.decided_at;
                match (&d.quotas, d.spatial_fallback) {
                    (Some(q), _) => {
                        println!("cycle {:>6}: partition decided: quotas {q:?}", d.decided_at);
                    }
                    (None, true) => {
                        println!(
                            "cycle {:>6}: fell back to spatial multitasking",
                            d.decided_at
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    let gpu = run.gpu();
    println!("\nAfter {total} cycles:");
    println!(
        "  {}: {:>10} warp instructions (ran the whole time)",
        a.abbrev,
        gpu.kernel_insts(ka)
    );
    if let Some(kb) = kb {
        println!(
            "  {}: {:>10} warp instructions (arrived at {arrival})",
            b.abbrev,
            gpu.kernel_insts(kb)
        );
    }
    println!(
        "  re-profiles triggered: {}",
        run.controller().reprofile_count()
    );
    let sm0 = gpu.sm(0);
    println!(
        "  SM0 residency: {} x {} CTAs + {} x {} CTAs",
        a.abbrev,
        sm0.kernel_ctas(0),
        b.abbrev,
        sm0.kernel_ctas(1)
    );
}
