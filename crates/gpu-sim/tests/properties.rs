//! Randomized property tests for the simulator substrate: windowed
//! allocation, cache geometry, DRAM channel behaviour, and whole-SM
//! conservation laws.
//!
//! Cases are generated with the in-tree deterministic `SimRng`
//! (xoshiro256++) so the suite runs with `--offline` and replays
//! identically everywhere; each assertion carries its case index, which
//! together with the fixed seed reproduces the exact inputs.

use gpu_sim::{
    dram::{DramChannel, DramRequest},
    Gpu, GpuConfig, KernelDesc, LinearAllocator, ProbeResult, ProgramSpec, Region, SchedulerKind,
    SetAssocCache, SimRng,
};

#[test]
fn windowed_allocations_stay_inside_their_window() {
    let mut rng = SimRng::seed_from_u64(0xA110_0001);
    for case in 0..48 {
        let window_start = rng.range_u64(200) as u32;
        let window_len = 1 + rng.range_u64(199) as u32;
        let mut alloc = LinearAllocator::new(256);
        let window = Region {
            start: window_start,
            len: window_len.min(256 - window_start.min(256)),
        };
        let mut live: Vec<Region> = Vec::new();
        let requests = 1 + rng.range_usize(19);
        for _ in 0..requests {
            let len = 1 + rng.range_u64(39) as u32;
            if let Some(r) = alloc.alloc_in_window(len, window) {
                if r.len > 0 {
                    assert!(window.contains(&r), "case {case}: {r:?} outside {window:?}");
                    for l in &live {
                        assert!(
                            r.end() <= l.start || l.end() <= r.start,
                            "case {case}: {r:?} overlaps {l:?}"
                        );
                    }
                    live.push(r);
                }
            }
        }
    }
}

#[test]
fn disjoint_windows_never_collide() {
    let mut rng = SimRng::seed_from_u64(0xA110_0002);
    for case in 0..48 {
        let mut alloc = LinearAllocator::new(256);
        let wa = Region { start: 0, len: 128 };
        let wb = Region {
            start: 128,
            len: 128,
        };
        let mut in_a = Vec::new();
        let mut in_b = Vec::new();
        let rounds = 1 + rng.range_usize(11);
        for _ in 0..rounds {
            let la = 1 + rng.range_u64(29) as u32;
            let lb = 1 + rng.range_u64(29) as u32;
            if let Some(r) = alloc.alloc_in_window(la, wa) {
                in_a.push(r);
            }
            if let Some(r) = alloc.alloc_in_window(lb, wb) {
                in_b.push(r);
            }
        }
        for a in &in_a {
            assert!(a.len == 0 || wa.contains(a), "case {case}: {a:?}");
        }
        for b in &in_b {
            assert!(b.len == 0 || wb.contains(b), "case {case}: {b:?}");
        }
    }
}

#[test]
fn cache_miss_rate_reflects_footprint() {
    let mut rng = SimRng::seed_from_u64(0xA110_0003);
    for case in 0..48 {
        let footprint = 1 + rng.range_u64(63);
        let passes = 2 + rng.range_u64(4) as u32;
        // 32-line fully covered footprints converge to 100% hits after the
        // first pass; larger-than-cache footprints keep missing.
        let mut cache = SetAssocCache::new(32 * 128, 4, 128);
        let mut last_pass_misses = 0u64;
        for pass in 0..passes {
            last_pass_misses = 0;
            for line in 0..footprint {
                if cache.access(line) == ProbeResult::Miss {
                    cache.fill(line);
                    if pass == passes - 1 {
                        last_pass_misses += 1;
                    }
                }
            }
        }
        if footprint <= 32 {
            assert_eq!(
                last_pass_misses, 0,
                "case {case}: resident footprint must hit"
            );
        } else {
            assert!(
                last_pass_misses > 0,
                "case {case}: oversized footprint must miss"
            );
        }
    }
}

#[test]
fn dram_completions_cover_all_requests() {
    let mut rng = SimRng::seed_from_u64(0xA110_0004);
    for case in 0..48 {
        let lines: Vec<u64> = (0..1 + rng.range_usize(23))
            .map(|_| rng.range_u64(512))
            .collect();
        let cfg = GpuConfig::isca_baseline();
        let mut ch = DramChannel::new(&cfg.mem, cfg.core_per_dram_clock());
        let mut pending = lines.len();
        let mut submitted = 0usize;
        let mut now = 0u64;
        let mut seen = Vec::new();
        while pending > 0 && now < 100_000 {
            if submitted < lines.len() && ch.can_accept() {
                ch.enqueue(DramRequest {
                    line: lines[submitted],
                    tag: submitted as u64,
                    arrival: now,
                });
                submitted += 1;
            }
            if let Some(c) = ch.tick(now) {
                assert!(c.ready_at >= now, "case {case}");
                seen.push(c.req.tag);
                pending -= 1;
            }
            now += 1;
        }
        assert_eq!(pending, 0, "case {case}: all requests serviced");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), lines.len(), "case {case}: each exactly once");
    }
}

#[test]
fn sm_residency_is_conserved_under_random_launch_churn() {
    let mut rng = SimRng::seed_from_u64(0xA110_0005);
    for case in 0..24 {
        let seeds: Vec<u64> = (0..1 + rng.range_usize(3))
            .map(|_| 1 + rng.range_u64(999))
            .collect();
        let cycles = 200 + rng.range_u64(1_300);
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let ids: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                gpu.add_kernel(KernelDesc {
                    name: format!("k{i}"),
                    grid_ctas: 64,
                    threads_per_cta: 32 + 32 * (seed % 4) as u32,
                    regs_per_thread: 8 + (seed % 16) as u32,
                    shmem_per_cta: (seed % 5) as u32 * 1024,
                    program: ProgramSpec {
                        body_len: 24,
                        gload_frac: 0.1,
                        dep_distance: 4,
                        seed,
                        ..ProgramSpec::default()
                    }
                    .generate()
                    .expect("valid spec"),
                    iterations: 2,
                    pattern: gpu_sim::AccessPattern::Streaming { transactions: 1 },
                    icache_miss_rate: 0.0,
                    shmem_conflict_degree: 1,
                    seed,
                })
            })
            .collect();
        for c in 0..cycles {
            // Deterministic churny launching.
            let k = ids[(c as usize) % ids.len()];
            let sm = (c as usize * 7) % gpu.num_sms();
            let _ = gpu.try_launch(k, sm);
            gpu.tick();
        }
        // Conservation: per-SM accounting matches per-kernel residency sums.
        for sm in gpu.sms() {
            let total: u32 = (0..ids.len()).map(|k| sm.kernel_ctas(k)).sum();
            assert_eq!(total, sm.resident_ctas(), "case {case}");
        }
        // Dispatched = completed + resident.
        for &k in &ids {
            let meta = gpu.kernel_meta(k);
            let resident: u64 = (0..gpu.num_sms())
                .map(|s| u64::from(gpu.sm(s).kernel_ctas(k.0)))
                .sum();
            assert_eq!(
                meta.dispatched_ctas,
                meta.completed_ctas + resident,
                "case {case}"
            );
        }
    }
}
