//! Quickstart: simulate one GPGPU kernel on the ISCA-baseline GPU and print
//! its throughput and stall profile.
//!
//! ```text
//! cargo run --release --example quickstart [BENCH] [CYCLES]
//! ```

use warped_slicer_repro::gpu_sim::KernelId;
use warped_slicer_repro::warped_slicer::{collect_stats, Driver, PolicyKind, RunConfig};
use warped_slicer_repro::ws_workloads::by_abbrev;

fn main() {
    let mut args = std::env::args().skip(1);
    let abbrev = args.next().unwrap_or_else(|| "IMG".to_string());
    let cycles: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(50_000);

    let Some(bench) = by_abbrev(&abbrev) else {
        eprintln!("unknown benchmark {abbrev}; try BLK BFS DXT HOT IMG KNN LBM MM MVP NN");
        std::process::exit(1);
    };

    println!(
        "{} ({}), {} cycles on the Table I GPU",
        bench.abbrev, bench.full_name, cycles
    );

    // Left-Over keeps every SM as full as it can be.
    let mut run = Driver::new(
        &RunConfig::default(),
        std::slice::from_ref(&bench.desc),
        &PolicyKind::LeftOver,
    );
    run.advance_to(cycles);
    let gpu = run.gpu();
    let k = KernelId(0);

    println!("  instructions : {}", gpu.kernel_insts(k));
    println!("  IPC (GPU)    : {:.2}", gpu.total_ipc());
    println!("  CTAs finished: {}", gpu.kernel_meta(k).completed_ctas);
    let mem = gpu.mem_stats();
    println!(
        "  L2           : {} accesses, {:.1}% miss",
        mem.total.l2_accesses,
        100.0 * mem.total.l2_misses as f64 / mem.total.l2_accesses.max(1) as f64
    );
    println!(
        "  DRAM         : {} transactions ({:.1}% bus busy)",
        gpu.mem().dram_serviced(),
        100.0 * gpu.mem().dram_busy_fraction(cycles)
    );

    let stalls = collect_stats(gpu).stalls;
    let total = (cycles * 16 * 2) as f64;
    let mut profile = [
        ("long memory", stalls.mem),
        ("short RAW", stalls.raw),
        ("exec resource", stalls.exec),
        ("ibuffer empty", stalls.ibuffer),
    ]
    .map(|(name, n)| (name, n as f64 / total));
    profile.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("  stall profile (scheduler-cycles):");
    for (name, frac) in profile {
        println!("    {name:<18} {:5.1}%", frac * 100.0);
    }
}
