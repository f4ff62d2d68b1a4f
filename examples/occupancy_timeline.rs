//! Visualize the Warped-Slicer's lifecycle as a per-SM occupancy timeline:
//! profiling (a CTA-count ramp across SMs), the partition decision, the
//! drain of over-quota CTAs, and the steady-state slice.
//!
//! Each printed row is one sampling instant; each column is one SM showing
//! `a:b` resident CTA counts for the two kernels.
//!
//! ```text
//! cargo run --release --example occupancy_timeline [BENCH_A] [BENCH_B]
//! ```

use warped_slicer_repro::gpu_sim::KernelId;
use warped_slicer_repro::warped_slicer::{Driver, PolicyKind, RunConfig, WarpedSlicerConfig};
use warped_slicer_repro::ws_workloads::by_abbrev;

fn main() {
    let mut args = std::env::args().skip(1);
    let a = args.next().unwrap_or_else(|| "IMG".to_string());
    let b = args.next().unwrap_or_else(|| "NN".to_string());
    let (Some(ba), Some(bb)) = (by_abbrev(&a), by_abbrev(&b)) else {
        eprintln!("unknown benchmark; try BLK BFS DXT HOT IMG KNN LBM MM MVP NN");
        std::process::exit(1);
    };

    let mut run = Driver::new(
        &RunConfig::default(),
        &[ba.desc.clone(), bb.desc.clone()],
        &PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(60_000)),
    );
    let num_sms = run.gpu().num_sms();

    println!(
        "{}:{} residency per SM over time ({} = kernel 0, {} = kernel 1)\n",
        ba.abbrev, bb.abbrev, ba.abbrev, bb.abbrev
    );
    print!("{:>7} ", "cycle");
    for s in 0..num_sms {
        print!("{s:^5}");
    }
    println!(" phase");

    let total = 80_000u64;
    let step = 4_000u64;
    let mut decided_at = None;
    let mut now = 0;
    while now < total {
        // Step to just past the controller's next intervention (the only
        // cycles at which it decides) or to the next sampling instant,
        // whichever is nearer: each step holds at most one decision, and
        // fast-forward may skip the dead cycles in between.
        let next_row = (now / step + 1) * step;
        let next = run
            .controller()
            .next_intervention()
            .map_or(next_row, |at| at.max(now) + 1)
            .min(next_row);
        run.advance_to(next);
        now = next;
        if decided_at.is_none() {
            if let Some(d) = run.controller().decision() {
                decided_at = Some((d.decided_at, d.quotas.clone(), d.spatial_fallback));
            }
        }
        if now % step == 0 {
            print!("{now:>7} ");
            for s in 0..num_sms {
                let sm = run.gpu().sm(s);
                print!("{:>2}:{:<2}", sm.kernel_ctas(0), sm.kernel_ctas(1));
            }
            let phase = match &decided_at {
                None => "profiling".to_string(),
                Some((at, q, fallback)) if now <= at + step => match (q, fallback) {
                    (Some(q), _) => format!("decided {q:?} @ {at}"),
                    (None, true) => format!("spatial fallback @ {at}"),
                    _ => String::new(),
                },
                Some((_, Some(q), _)) => format!("running (quota {q:?})"),
                Some((_, None, _)) => "running (spatial)".to_string(),
            };
            println!(" {phase}");
        }
    }
    let gpu = run.gpu();
    println!(
        "\nkernel instructions: {} = {}, {} = {}",
        ba.abbrev,
        gpu.kernel_insts(KernelId(0)),
        bb.abbrev,
        gpu.kernel_insts(KernelId(1)),
    );
}
