//! Exact per-policy outcome pins: every multiprogramming policy, run
//! through `make_controller` on two pairs (and a mid-run arrival
//! scenario), must reproduce a fixed digest of its simulated outcome.
//!
//! Each digest is FNV-1a 64 over the `Debug` text of the outcome's
//! statistics, finish cycles, total cycles, final instruction counts,
//! last-progress cycles and decision (`ff_skipped_cycles` and the trace are
//! left out: they describe how the run was simulated, not what it
//! computed). Every case runs with fast-forward forced on and forced off,
//! and both must hit the same pinned constant, so the suite also checks
//! the event-horizon contract per policy.
//!
//! The Warped-Slicer's decision audit is pinned the same way: FNV-1a 64
//! over its JSONL records ([`audit_jsonl`]), so the order of every
//! prediction, scaling, water-filling, fallback, phase-monitor and store
//! record is part of the pin, not only the decision it ends in.
//!
//! The constants pin the controllers' behaviour; a change that moves one is
//! a behaviour change, not a refactor. On a mismatch the test prints every
//! case's actual digest.

use gpu_sim::{Gpu, KernelDesc, KernelId};
use warped_slicer::{
    audit_jsonl, collect_stats, execute, make_controller, run_isolation, Controller, DecisionAudit,
    PolicyKind, RunConfig, SharedCurveStore, SimJob, SimOutcome, WarpedSlicerConfig,
};
use ws_workloads::by_abbrev;

/// Isolation budget that fixes each kernel's equal-work target; small so
/// the whole suite stays test-fast.
const ISOLATION: u64 = 8_000;

const PAIRS: [(&str, &str); 2] = [("IMG", "NN"), ("LBM", "BLK")];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn outcome_digest(o: &SimOutcome) -> u64 {
    fnv1a(&format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}",
        o.stats, o.finish_cycle, o.total_cycles, o.end_insts, o.last_progress_cycle, o.decision
    ))
}

fn audit_digest(audit: Option<&DecisionAudit>) -> u64 {
    fnv1a(&audit_jsonl(audit.expect("an audited Warped-Slicer run")))
}

fn run_cfg(fast_forward: bool) -> RunConfig {
    RunConfig {
        isolation_cycles: ISOLATION,
        fast_forward: Some(fast_forward),
        ..RunConfig::default()
    }
}

fn desc(abbrev: &str) -> KernelDesc {
    by_abbrev(abbrev).expect("suite benchmark").desc
}

fn ws(predict: bool) -> PolicyKind {
    PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        predict,
        ..WarpedSlicerConfig::scaled_for(ISOLATION)
    })
}

/// The equal-work co-run of `pair` under `policy`.
fn corun(pair: (&str, &str), policy: &PolicyKind, fast_forward: bool) -> SimOutcome {
    let cfg = run_cfg(fast_forward);
    let (a, b) = (desc(pair.0), desc(pair.1));
    let targets = [
        run_isolation(&a, &cfg).target_insts,
        run_isolation(&b, &cfg).target_insts,
    ];
    execute(&SimJob::corun(&[&a, &b], &targets, policy, &cfg))
}

/// Checks `policy` on every pair, fast-forward on and off, against
/// `expected` (one digest per pair).
fn check_policy(name: &str, policy: &PolicyKind, expected: [u64; 2]) {
    let mut failures = Vec::new();
    for (pair, want) in PAIRS.into_iter().zip(expected) {
        for ff in [true, false] {
            let got = outcome_digest(&corun(pair, policy, ff));
            if got != want {
                failures.push(format!(
                    "{name} {}+{} ff={ff}: got {got:#018x}, pinned {want:#018x}",
                    pair.0, pair.1
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn left_over_outcomes_are_pinned() {
    check_policy(
        "Left-Over",
        &PolicyKind::LeftOver,
        [0xb3db_a9f4_28f1_3be9, 0xb138_5884_1d56_2895],
    );
}

#[test]
fn fcfs_outcomes_are_pinned() {
    check_policy(
        "FCFS",
        &PolicyKind::Fcfs,
        [0xce6e_6955_76ec_7384, 0xbf00_8405_24af_b545],
    );
}

#[test]
fn even_outcomes_are_pinned() {
    check_policy(
        "Even",
        &PolicyKind::Even,
        [0x0fde_d2c6_70c9_4e77, 0xd336_8ec8_a997_4d44],
    );
}

#[test]
fn spatial_outcomes_are_pinned() {
    check_policy(
        "Spatial",
        &PolicyKind::Spatial,
        [0x51c5_4dba_9a82_a7ec, 0xa281_11de_c0bc_9c4d],
    );
}

#[test]
fn quota_outcomes_are_pinned() {
    check_policy(
        "Quota",
        &PolicyKind::Quota(vec![2, 3]),
        [0xe59e_39ed_235a_f3a7, 0xc089_988f_4c80_4d76],
    );
}

#[test]
fn quota_sample_outcome_is_pinned() {
    // The single-kernel capped run behind every sweep sample.
    for ff in [true, false] {
        let job = SimJob::cta_cap(&desc("IMG"), 3, 4_000, &run_cfg(ff));
        let got = outcome_digest(&execute(&job));
        assert_eq!(got, 0x6462_2a11_bdd8_a687, "ff={ff}: got {got:#018x}");
    }
}

#[test]
fn warped_slicer_outcomes_are_pinned() {
    check_policy(
        "Warped-Slicer",
        &ws(false),
        [0x5605_e794_0614_53c0, 0xdf5d_fdf1_22b6_e0f3],
    );
}

#[test]
fn predicted_warped_slicer_outcomes_are_pinned() {
    check_policy(
        "Warped-Slicer (predicted ramp)",
        &ws(true),
        [0x8a79_504e_b075_a595, 0x48b6_4e2e_5f1b_951b],
    );
}

#[test]
fn spatial_fallback_outcomes_are_pinned() {
    let policy = PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        loss_threshold: Some(0.001),
        predict: false,
        ..WarpedSlicerConfig::scaled_for(ISOLATION)
    });
    let d = corun(PAIRS[1], &policy, true)
        .decision
        .expect("the Warped-Slicer decides");
    assert!(d.spatial_fallback, "a 0.1% loss bound must fall back");
    check_policy(
        "Warped-Slicer (spatial fallback)",
        &policy,
        [0x5c43_070a_218a_c367, 0xaa8e_daaa_f964_1801],
    );
}

/// Drives `policy` by hand: IMG and NN from cycle 0, MM arriving at
/// `ARRIVE`, IMG halted at `HALT`, stop at `END`. Fast-forward follows the
/// runner's rule: skip only while the launch signature is unchanged, never
/// past the controller's next intervention or the next scripted event, so
/// every scripted event happens at the top of an iteration.
fn late_arrival(policy: &PolicyKind, fast_forward: bool) -> (Gpu, Box<dyn Controller>) {
    const ARRIVE: u64 = 6_000;
    const HALT: u64 = 14_000;
    const END: u64 = 20_000;
    let cfg = run_cfg(fast_forward);
    let mut gpu = Gpu::new(cfg.gpu.clone(), cfg.scheduler);
    gpu.set_fast_forward(fast_forward);
    gpu.add_kernel(desc("IMG"));
    gpu.add_kernel(desc("NN"));
    let mut controller = make_controller(policy);
    let mut sig = (gpu.total_completed(), gpu.halted_kernels());
    while gpu.cycle() < END {
        if gpu.cycle() == ARRIVE {
            gpu.add_kernel(desc("MM"));
        }
        if gpu.cycle() == HALT {
            gpu.halt_kernel(KernelId(0));
        }
        controller.on_cycle(&mut gpu);
        gpu.tick();
        let now = (gpu.total_completed(), gpu.halted_kernels());
        if now == sig {
            let boundary = [ARRIVE, HALT, END]
                .into_iter()
                .find(|&c| c > gpu.cycle())
                .unwrap_or(END);
            let limit = controller
                .next_intervention()
                .map_or(boundary, |iv| iv.min(boundary));
            let _ = gpu.fast_forward(limit);
        }
        sig = now;
    }
    (gpu, controller)
}

fn late_arrival_digest(policy: &PolicyKind, fast_forward: bool) -> u64 {
    let (gpu, controller) = late_arrival(policy, fast_forward);
    let insts: Vec<u64> = gpu
        .kernel_ids()
        .iter()
        .map(|&k| gpu.kernel_insts(k))
        .collect();
    fnv1a(&format!(
        "{:?}|{}|{:?}|{:?}",
        collect_stats(&gpu),
        gpu.cycle(),
        insts,
        controller.decision()
    ))
}

#[test]
fn late_arrival_outcomes_are_pinned() {
    let cases = [
        ("Even", PolicyKind::Even, 0x5239_52ab_3bfe_ab01_u64),
        ("Warped-Slicer", ws(false), 0xfdf2_7335_e6e9_5c33),
    ];
    let mut failures = Vec::new();
    for (name, policy, want) in &cases {
        for ff in [true, false] {
            let got = late_arrival_digest(policy, ff);
            if got != *want {
                failures.push(format!(
                    "{name} ff={ff}: got {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn audited(predict: bool, store: Option<SharedCurveStore>) -> PolicyKind {
    PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        predict,
        audit: true,
        store,
        ..WarpedSlicerConfig::scaled_for(ISOLATION)
    })
}

/// Checks every audited case, fast-forward on and off, against its pinned
/// audit digest: both pairs with prediction off and on, the mid-run
/// arrival's re-profile, and a store-attached cold run followed by a warm
/// run of the same pair (a fresh store per fast-forward cell).
#[test]
fn warped_slicer_audit_trails_are_pinned() {
    let mut failures = Vec::new();
    let mut check = |case: String, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{case}: got {got:#018x}, pinned {want:#018x}"));
        }
    };
    for ff in [true, false] {
        let pinned = [
            (false, [0x2903_6e7c_d0a4_c884_u64, 0x5a69_0484_0789_05de]),
            (true, [0xec03_183d_4342_b20e, 0x9b0c_9211_e0ac_52fe]),
        ];
        for (predict, expected) in pinned {
            for (pair, want) in PAIRS.into_iter().zip(expected) {
                let o = corun(pair, &audited(predict, None), ff);
                let case = format!("{}+{} predict={predict} ff={ff}", pair.0, pair.1);
                check(case, audit_digest(o.audit.as_ref()), want);
            }
        }
        let (_, controller) = late_arrival(&audited(false, None), ff);
        check(
            format!("late arrival ff={ff}"),
            audit_digest(controller.audit()),
            0x5855_8e84_634d_8b52,
        );
        let store = SharedCurveStore::with_capacity(8);
        let pinned = [
            ("cold", 0x29f1_14e3_b0f1_69b2_u64),
            ("warm", 0xf968_e373_8126_9280),
        ];
        for (run, want) in pinned {
            let o = corun(PAIRS[0], &audited(true, Some(store.clone())), ff);
            check(
                format!("store {run} ff={ff}"),
                audit_digest(o.audit.as_ref()),
                want,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
