//! Randomized equivalence tests for the event-horizon fast-forward path.
//!
//! The contract (DESIGN.md §9) is that skipping dead cycles changes *only*
//! wall-clock time: every counter in every statistics structure must be
//! byte-identical to the naive one-tick-at-a-time loop. These tests drive
//! randomly generated kernel mixes — including barriers, partition-window
//! changes, and mid-run kernel halts — through both modes and compare the
//! full `Debug` rendering of the final state.
//!
//! Cases are generated with the in-tree deterministic `SimRng`
//! (xoshiro256++) so the suite runs with `--offline` and replays
//! identically everywhere; each assertion carries its case index, which
//! together with the fixed seed reproduces the exact inputs.

use gpu_sim::{
    AccessPattern, Gpu, GpuConfig, KernelDesc, KernelId, PartitionWindow, ProgramSpec, Region,
    SchedulerKind, SimRng, Sm,
};

/// A scripted mid-run intervention, applied at a fixed cycle in both modes.
#[derive(Debug, Clone)]
enum Action {
    /// Halt kernel-slot `k` (drains its CTAs and frees its resources).
    Halt(usize),
    /// Constrain kernel-slot `k` on SM `sm` to the given partition window.
    Window(usize, usize, Option<PartitionWindow>),
    /// Sweep-launch every kernel onto every SM that will take it.
    Relaunch,
}

/// One randomized scenario: a kernel mix, an initial residency, and a
/// timeline of interventions.
#[derive(Debug, Clone)]
struct Scenario {
    config: GpuConfig,
    scheduler: SchedulerKind,
    kernels: Vec<KernelDesc>,
    /// `(kernel slot, sm, launches)` triples applied before cycle 0.
    placements: Vec<(usize, usize, usize)>,
    /// Cycle-sorted interventions.
    script: Vec<(u64, Action)>,
    total_cycles: u64,
}

fn random_kernel(rng: &mut SimRng, slot: usize) -> KernelDesc {
    let barrier_frac = [0.0, 0.0, 0.06, 0.15][rng.range_usize(4)];
    let seed = rng.next_u64();
    KernelDesc {
        name: format!("k{slot}"),
        grid_ctas: 16 + rng.range_u64(240),
        threads_per_cta: 64 * (1 + rng.range_u64(4) as u32),
        regs_per_thread: 16 + 8 * rng.range_u64(3) as u32,
        shmem_per_cta: 2048 * rng.range_u64(3) as u32,
        program: ProgramSpec {
            body_len: 16 + rng.range_usize(48),
            gload_frac: 0.05 + 0.35 * rng.unit_f64(),
            sfu_frac: 0.1 * rng.unit_f64(),
            shmem_frac: 0.1 * rng.unit_f64(),
            barrier_frac,
            dep_distance: 2 + rng.range_usize(8),
            seed,
            ..ProgramSpec::default()
        }
        .generate()
        .expect("valid spec"),
        iterations: 2 + rng.range_u64(4) as u32,
        pattern: if rng.unit_f64() < 0.5 {
            AccessPattern::Streaming {
                transactions: 1 + rng.range_u64(3) as u32,
            }
        } else {
            AccessPattern::Random {
                footprint_lines: 1 << (10 + rng.range_u64(6)),
                transactions: 1 + rng.range_u64(3) as u32,
            }
        },
        icache_miss_rate: 0.0,
        shmem_conflict_degree: 1,
        seed,
    }
}

fn random_scenario(rng: &mut SimRng) -> Scenario {
    let mut config = GpuConfig::isca_baseline();
    // Fewer SMs keeps the naive arm of the A/B affordable without losing
    // any of the interesting machinery (barriers, MSHRs, DRAM contention).
    config.num_sms = 4 + 4 * rng.range_u64(2) as u32;
    let num_sms = config.num_sms as usize;
    let nk = 1 + rng.range_usize(3);
    let kernels: Vec<KernelDesc> = (0..nk).map(|s| random_kernel(rng, s)).collect();

    // Sparse, random residency: some SMs empty (pure dead cycles), some
    // partly filled, some saturated.
    let mut placements = Vec::new();
    for sm in 0..num_sms {
        if rng.unit_f64() < 0.35 {
            continue; // leave this SM idle
        }
        let k = rng.range_usize(nk);
        let launches = 1 + rng.range_usize(6);
        placements.push((k, sm, launches));
    }

    let total_cycles = 4_000 + rng.range_u64(6_000);
    let mut script = Vec::new();
    let events = rng.range_usize(4);
    for _ in 0..events {
        let at = 500 + rng.range_u64(total_cycles - 1_000);
        let action = match rng.range_usize(4) {
            0 => Action::Halt(rng.range_usize(nk)),
            1 => Action::Relaunch,
            2 => Action::Window(rng.range_usize(nk), rng.range_usize(num_sms), None),
            _ => {
                let half = PartitionWindow {
                    regs: Region {
                        start: 0,
                        len: config.sm.max_registers / 2,
                    },
                    shmem: Region {
                        start: 0,
                        len: config.sm.shared_mem_bytes / 2,
                    },
                    max_ctas: config.sm.max_ctas / 2,
                    max_threads: config.sm.max_threads / 2,
                };
                Action::Window(rng.range_usize(nk), rng.range_usize(num_sms), Some(half))
            }
        };
        script.push((at, action));
    }
    script.sort_by_key(|&(at, _)| at);

    Scenario {
        config,
        scheduler: if rng.unit_f64() < 0.5 {
            SchedulerKind::GreedyThenOldest
        } else {
            SchedulerKind::RoundRobin
        },
        kernels,
        placements,
        script,
        total_cycles,
    }
}

/// Advances to `end`, fast-forwarding through dead spans when the GPU has
/// it enabled (a no-op otherwise, so the same driver serves both arms).
fn run_to(gpu: &mut Gpu, end: u64) {
    while gpu.cycle() < end {
        gpu.tick();
        let _ = gpu.fast_forward(end);
    }
}

/// Everything the fast-forward path must reproduce bit-for-bit, rendered
/// through `Debug` so every counter is compared, plus the per-SM IPC values
/// the Warped-Slicer profiler consumes.
fn run_scenario(sc: &Scenario, ff: bool) -> (String, u64) {
    let mut gpu = Gpu::new(sc.config.clone(), sc.scheduler);
    gpu.set_fast_forward(ff);
    let ids: Vec<KernelId> = sc
        .kernels
        .iter()
        .map(|d| gpu.add_kernel(d.clone()))
        .collect();
    for &(k, sm, launches) in &sc.placements {
        for _ in 0..launches {
            if !gpu.try_launch(ids[k], sm) {
                break;
            }
        }
    }
    for &(at, ref action) in &sc.script {
        run_to(&mut gpu, at);
        match *action {
            Action::Halt(k) => gpu.halt_kernel(ids[k]),
            Action::Window(k, sm, w) => {
                gpu.set_window(sm, ids[k], w);
                // A widened window may admit new CTAs; launch like a
                // controller would.
                for &kid in &ids {
                    while gpu.try_launch(kid, sm) {}
                }
            }
            Action::Relaunch => {
                for sm in 0..gpu.num_sms() {
                    for &kid in &ids {
                        while gpu.try_launch(kid, sm) {}
                    }
                }
            }
        }
    }
    run_to(&mut gpu, sc.total_cycles);

    let insts: Vec<u64> = ids.iter().map(|&k| gpu.kernel_insts(k)).collect();
    let ipc: Vec<f64> = gpu.sms().map(|sm| sm.stats().ipc()).collect();
    let state = format!(
        "cycle={} insts={:?} ipc={:?} sms={:?} mem={:?}",
        gpu.cycle(),
        insts,
        ipc,
        gpu.sms().map(Sm::stats).collect::<Vec<_>>(),
        gpu.mem_stats(),
    );
    (state, gpu.skipped_cycles())
}

#[test]
fn fast_forward_is_byte_identical_across_random_mixes() {
    let mut rng = SimRng::seed_from_u64(0xFFF0_0001);
    let mut total_skipped = 0u64;
    let mut total_cycles = 0u64;
    const CASES: usize = 52;
    for case in 0..CASES {
        let sc = random_scenario(&mut rng);
        let (naive, naive_skipped) = run_scenario(&sc, false);
        let (fast, skipped) = run_scenario(&sc, true);
        assert_eq!(naive_skipped, 0, "case {case}: naive arm must not skip");
        assert_eq!(
            naive, fast,
            "case {case}: fast-forward diverged from the naive loop\nscenario: {sc:?}"
        );
        total_skipped += skipped;
        total_cycles += sc.total_cycles;
    }
    // The property is vacuous if no case ever fast-forwards: random sparse
    // residency must produce a meaningful volume of dead cycles.
    assert!(
        total_skipped > total_cycles / 20,
        "fast-forward only skipped {total_skipped} of {total_cycles} cycles — \
         the scenarios no longer exercise the skip path"
    );
}

#[test]
fn fast_forward_matches_under_barrier_heavy_load() {
    // Dedicated barrier stress: every warp of a CTA must rendezvous, which
    // exercises the horizon rule that barrier-parked warps contribute
    // fetch events but no issue events.
    let mut rng = SimRng::seed_from_u64(0xFFF0_0002);
    for case in 0..6 {
        let mut sc = random_scenario(&mut rng);
        for k in &mut sc.kernels {
            let spec = ProgramSpec {
                barrier_frac: 0.25,
                body_len: 24,
                dep_distance: 3,
                seed: k.seed,
                ..ProgramSpec::default()
            };
            k.program = spec.generate().expect("valid spec");
            k.threads_per_cta = 256;
        }
        sc.total_cycles = 3_000;
        let (naive, _) = run_scenario(&sc, false);
        let (fast, _) = run_scenario(&sc, true);
        assert_eq!(naive, fast, "barrier case {case} diverged");
    }
}
