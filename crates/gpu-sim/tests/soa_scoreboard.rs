//! Property tests for the struct-of-arrays warp scoreboard.
//!
//! The SM maintains per-slot bitmasks (residency, finished, barrier,
//! i-buffer, mem-pending, head op class, fetch-open) plus head- and
//! fetch-readiness arrays and their wakeup calendars incrementally, and the
//! schedulers select warps by mask intersection. These tests drive random
//! issue/fill/barrier/launch/evict sequences with the in-tree deterministic
//! `SimRng`, ticking one cycle at a time and jumping 64 or more cycles at
//! random, and re-derive the scoreboard from the `Option<Warp>` slots (the
//! naive oracle) after every step; any stale bit panics with the slot and
//! field that diverged. The calendar-derived issue classification and fetch
//! eligibility are checked against a per-slot reference walk on the same
//! random table states, advanced to cycles at and ahead of the SM's clock.
//! The oracle runs at i-buffer depths of 1, 2 and 4, with a kernel whose
//! 3-instruction body is shorter than the deepest i-buffer, so the
//! i-buffer's window onto the program wraps inside one buffer.

use gpu_sim::{
    AccessPattern, GpuConfig, IssueClasses, KernelDesc, KernelId, MemSubsystem, OpClass,
    ProgramSpec, SchedulerKind, SimRng, Sm, StallReason, PENDING_LOAD,
};

fn kernel(name: &str, spec: ProgramSpec, iterations: u32, seed: u64) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_ctas: 1024,
        threads_per_cta: 128,
        regs_per_thread: 16,
        shmem_per_cta: 0,
        program: spec.generate().expect("valid spec"),
        iterations,
        pattern: AccessPattern::Random {
            footprint_lines: 1 << 14,
            transactions: 2,
        },
        icache_miss_rate: 0.05,
        shmem_conflict_degree: 1,
        seed,
    }
}

/// The behaviour classes the scoreboard must track: serial ALU/SFU chains
/// (RAW bits, both arithmetic op-class masks), load-heavy streams with some
/// shared-memory traffic (mem-pending bits, MSHR fills, LSU-class heads),
/// barrier-synchronized CTAs (barrier park/release), and a 3-instruction
/// body (a load, an SFU op and a barrier) that the i-buffer window wraps
/// around many times.
fn kernel_mix() -> Vec<KernelDesc> {
    vec![
        kernel(
            "alu",
            ProgramSpec {
                body_len: 24,
                dep_distance: 2,
                sfu_frac: 0.25,
                gload_frac: 0.0,
                ..ProgramSpec::default()
            },
            3,
            11,
        ),
        kernel(
            "mem",
            ProgramSpec {
                body_len: 24,
                dep_distance: 3,
                gload_frac: 0.4,
                gstore_frac: 0.1,
                shmem_frac: 0.1,
                ..ProgramSpec::default()
            },
            2,
            13,
        ),
        kernel(
            "bar",
            ProgramSpec {
                body_len: 24,
                dep_distance: 4,
                gload_frac: 0.2,
                barrier_frac: 0.15,
                ..ProgramSpec::default()
            },
            2,
            17,
        ),
        kernel(
            "short",
            ProgramSpec {
                body_len: 3,
                dep_distance: 1,
                sfu_frac: 0.34,
                gload_frac: 0.33,
                barrier_frac: 0.33,
                ..ProgramSpec::default()
            },
            16,
            19,
        ),
    ]
}

/// The baseline configuration with latencies that reach past the calendar
/// ring of 64 cycles: an SFU result 80 cycles out (a RAW stamp in the far
/// set) and an i-cache miss that delays the next fetch by 72 cycles.
fn config() -> GpuConfig {
    let mut cfg = GpuConfig::isca_baseline();
    cfg.sm.sfu_latency = 80;
    cfg.sm.icache_miss_penalty = 70;
    cfg
}

/// The i-buffer depths the oracle runs at: one entry (every issue empties
/// the window), the baseline's two, and four (deeper than the short
/// kernel's body).
const IBUFFER_DEPTHS: [u32; 3] = [1, 2, 4];

/// Drives `steps` random launch/evict/tick+fill steps on a fresh SM under
/// `kind` with `ibuffer` i-buffer entries per warp, calling
/// `check(sm, rng, step)` after every step. Ticks advance the clock one
/// cycle, except that about one in thirty jumps 64 to 319 cycles ahead
/// first, as a fast-forward skip would. Returns the instructions issued per
/// kernel.
fn random_sequence(
    kind: SchedulerKind,
    seed: u64,
    steps: u64,
    ibuffer: u32,
    mut check: impl FnMut(&Sm, &mut SimRng, u64),
) -> Vec<u64> {
    let mut cfg = config();
    cfg.sm.ibuffer_entries = ibuffer;
    let descs = kernel_mix();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut sm = Sm::new(0, &cfg, kind);
    let mut mem = MemSubsystem::new(&cfg);
    let mut kernel_insts = vec![0u64; descs.len()];
    let mut responses = Vec::new();
    let mut cta_counter = vec![0u64; descs.len()];
    let mut now = 0u64;
    for step in 0..steps {
        let roll = rng.range_u64(100);
        if roll < 8 {
            // Launch a CTA of a random kernel (may fail when full).
            let k = rng.range_usize(descs.len());
            if sm.launch_cta(&descs[k], KernelId(k), cta_counter[k]) {
                cta_counter[k] += 1;
            }
        } else if roll < 10 {
            // Evict a random kernel mid-flight (stale fills must be
            // dropped by generation checks, bits must clear).
            let k = rng.range_usize(descs.len());
            sm.evict_kernel(k, &descs[k]);
        } else {
            if roll < 13 {
                now += 63 + rng.range_u64(256);
            }
            sm.tick(now, &mut mem, &descs, &mut kernel_insts);
            responses.clear();
            mem.tick(now, &mut responses);
            let lines: Vec<_> = responses.iter().map(|r| r.line).collect();
            sm.on_fill_batch(&lines, now);
            now += 1;
        }
        check(&sm, &mut rng, step);
    }
    kernel_insts
}

/// Random issue/fill/barrier/exit sequences: every step (tick, fill batch,
/// launch, evict) is followed by a full oracle re-derivation of every mask
/// (op-class and fetch-open included), array and calendar bucket. 6 seeds x
/// both scheduler kinds x 1500 steps each at the baseline i-buffer depth,
/// and 2 seeds x both kinds at each other depth.
#[test]
fn bitmask_scoreboard_matches_naive_oracle_under_random_sequences() {
    // Instructions the short kernel issued behind a 4-entry i-buffer, where
    // its window wraps inside one buffer.
    let mut short_wrapped = 0u64;
    let cases = IBUFFER_DEPTHS.into_iter().flat_map(|ib| {
        let seeds = if ib == 2 { 6 } else { 2 };
        [SchedulerKind::GreedyThenOldest, SchedulerKind::RoundRobin]
            .into_iter()
            .flat_map(move |k| (0..seeds).map(move |s| (s, k, ib)))
    });
    for (case, kind, ib) in cases {
        let seed = 0x50A0_0000 + case * 7 + u64::from(matches!(kind, SchedulerKind::RoundRobin));
        let issued = random_sequence(kind, seed, 1500, ib, |sm, _, step| {
            sm.check_scoreboard();
            // The mask views must agree with their per-slot getters too.
            let t = sm.scoreboard();
            assert_eq!(
                t.live(),
                t.resident_mask()
                    & !{
                        let mut f = 0u64;
                        for slot in 0..sm.warp_slot_count() {
                            if sm.warp(slot).is_some_and(gpu_sim::Warp::finished) {
                                f |= 1 << slot;
                            }
                        }
                        f
                    },
                "case {case} ib {ib} step {step}: live() disagrees with warps"
            );
        });
        assert!(
            issued.iter().sum::<u64>() > 0,
            "case {case} ib {ib}: sequences must make progress"
        );
        if ib == 4 {
            short_wrapped += issued[3];
        }
    }
    assert!(
        short_wrapped > 0,
        "the short-body kernel never issued at depth 4"
    );
}

/// The per-slot classification the mask path replaced: walk the
/// scheduler's warps one by one and branch on each head instruction.
fn reference_classes(
    sm: &Sm,
    owned: impl Iterator<Item = usize>,
    now: u64,
    (alu_ok, sfu_ok, lsu_ok): (bool, bool, bool),
) -> IssueClasses {
    let mut c = IssueClasses::default();
    for slot in owned {
        let Some(w) = sm.warp(slot).filter(|w| !w.finished()) else {
            continue;
        };
        let bit = 1u64 << slot;
        let class = if w.at_barrier {
            &mut c.barrier
        } else {
            match w.head_state() {
                None => &mut c.ibuffer,
                Some((PENDING_LOAD, _)) => &mut c.mem,
                Some((ready, _)) if ready > now => &mut c.raw,
                Some((_, op)) => {
                    let free = match op {
                        OpClass::Alu => alu_ok,
                        OpClass::Sfu => sfu_ok,
                        OpClass::Barrier => true,
                        _ => lsu_ok,
                    };
                    if free {
                        &mut c.issuable
                    } else {
                        &mut c.exec
                    }
                }
            }
        };
        *class |= bit;
    }
    c
}

/// The Fig. 1 attribution over per-class counts, as the per-slot scan
/// computed it: Idle without candidates, else the first maximum.
fn reference_stall(cand: u64, c: &IssueClasses) -> StallReason {
    if cand == 0 {
        return StallReason::Idle;
    }
    let counts = [
        (c.mem.count_ones(), StallReason::LongMemoryLatency),
        (c.raw.count_ones(), StallReason::ShortRawHazard),
        (c.exec.count_ones(), StallReason::ExecResource),
        (c.ibuffer.count_ones(), StallReason::IbufferEmpty),
        (c.barrier.count_ones(), StallReason::Barrier),
    ];
    let mut best = counts[0];
    for &c in &counts[1..] {
        if c.0 > best.0 {
            best = c;
        }
    }
    best.1
}

/// On random table states, the calendar-derived issuable set, stall classes
/// and stall reason, and the fetch-due mask and next fetch cycle, equal a
/// per-slot reference walk over the warps — under every unit-availability
/// mix, on a copy of the table advanced from the SM's clock by 0, 1, up to
/// 63, or 64 to 319 cycles (the bucket-clearing and the rebuilding advance).
/// The advanced copy must also pass the oracle check, and the sequences
/// must put head and fetch stamps past the ring (the calendars' far sets).
#[test]
fn calendar_classification_matches_per_slot_reference() {
    let num_sched = config().sm.num_schedulers as usize;
    let mut probes = 0u64;
    let (mut far_head, mut far_fetch) = (0u64, 0u64);
    for (case, kind) in [SchedulerKind::GreedyThenOldest, SchedulerKind::RoundRobin]
        .into_iter()
        .flat_map(|k| (0..3u64).map(move |s| (s, k)))
    {
        let seed = 0xC1A5_0000 + case * 5 + u64::from(matches!(kind, SchedulerKind::RoundRobin));
        // Each seed of a kind runs at a different i-buffer depth.
        let ib = IBUFFER_DEPTHS[case as usize];
        random_sequence(kind, seed, 1500, ib, |sm, rng, step| {
            let n = sm.warp_slot_count();
            let warps: Vec<_> = (0..n).map(|s| sm.warp(s).cloned()).collect();
            let clock = sm.scoreboard().clock();
            let at = clock
                + match rng.range_u64(4) {
                    0 => 0,
                    1 => 1,
                    2 => 2 + rng.range_u64(62),
                    _ => 64 + rng.range_u64(256),
                };
            let mut t = sm.scoreboard().clone();
            t.advance(at);
            t.assert_matches(&warps);
            let units = (
                rng.range_u64(2) == 0,
                rng.range_u64(2) == 0,
                rng.range_u64(2) == 0,
            );
            for sched in 0..num_sched {
                let owned = (sched..n).step_by(num_sched);
                let cand = owned.clone().fold(0u64, |m, s| m | 1 << s) & t.live();
                let masks = t.classify_issue(cand, at, units.0, units.1, units.2);
                let reference = reference_classes(sm, owned, at, units);
                assert_eq!(
                    masks, reference,
                    "case {case} step {step} sched {sched} at {at} units {units:?}"
                );
                if masks.issuable == 0 {
                    assert_eq!(
                        masks.stall_reason(),
                        reference_stall(cand, &reference),
                        "case {case} step {step} sched {sched}: stall reason"
                    );
                }
                probes += 1;
            }
            let mut due = 0u64;
            let mut next = u64::MAX;
            for (slot, w) in warps.iter().enumerate() {
                let Some(w) = w.as_ref().filter(|w| !w.finished()) else {
                    continue;
                };
                let f = w.fetch_ready_at();
                due |= u64::from(f <= at) << slot;
                next = next.min(f);
                far_fetch += u64::from(f != u64::MAX && f >= clock + 64);
                if let Some((ready, _)) = w.head_state() {
                    far_head += u64::from(ready != PENDING_LOAD && ready >= clock + 64);
                }
            }
            assert_eq!(
                t.fetch_due(at),
                due,
                "case {case} step {step}: fetch_due at {at}"
            );
            assert_eq!(t.next_fetch(), next, "case {case} step {step}: next_fetch");
        });
    }
    assert!(probes > 0);
    assert!(far_head > 0, "no head stamp ever reached the far set");
    assert!(far_fetch > 0, "no fetch stamp ever reached the far set");
}

/// The single-popcount occupancy accumulator must equal the old per-warp
/// accumulation (count live warps slot by slot every cycle) on a
/// heterogeneous co-run that launches, retires, and evicts CTAs.
#[test]
fn count_ones_occupancy_matches_per_warp_accumulation() {
    let cfg = GpuConfig::isca_baseline();
    let descs = kernel_mix();
    let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
    let mut mem = MemSubsystem::new(&cfg);
    let mut kernel_insts = vec![0u64; descs.len()];
    let mut responses = Vec::new();
    for c in 0..2 {
        assert!(sm.launch_cta(&descs[0], KernelId(0), c));
        assert!(sm.launch_cta(&descs[1], KernelId(1), c));
    }
    let mut expected: u128 = 0;
    for now in 0..4000u64 {
        if now == 1000 {
            assert!(sm.launch_cta(&descs[2], KernelId(2), 0));
        }
        if now == 2500 {
            sm.evict_kernel(1, &descs[1]);
        }
        sm.tick(now, &mut mem, &descs, &mut kernel_insts);
        responses.clear();
        mem.tick(now, &mut responses);
        for r in &responses {
            sm.on_fill(r.line, now);
        }
        // Old-style accumulation: walk every slot, count live warps.
        let mut live = 0u32;
        for slot in 0..sm.warp_slot_count() {
            if sm.warp(slot).is_some_and(|w| !w.finished()) {
                live += 1;
            }
        }
        expected += u128::from(live);
    }
    assert!(expected > 0, "co-run must have live warps");
    assert_eq!(
        sm.stats().warps_active_acc,
        expected,
        "popcount accumulator must match per-warp accumulation"
    );
    let max_warps = cfg.sm.max_warps();
    let avg = sm.stats().avg_warp_occupancy(max_warps);
    let manual = expected as f64 / (4000.0 * f64::from(max_warps));
    assert!(
        (avg - manual).abs() < 1e-12,
        "avg_warp_occupancy ({avg}) must match manual average ({manual})"
    );
}
