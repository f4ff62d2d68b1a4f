//! ws-store contract tests: the persisted curve cache must be *invisible*
//! in decision space — a warm-hit water-fill decision is byte-identical to
//! the uncached one for the same curves, across the full
//! insert → serialize → load → lookup round-trip — and a phase-monitor
//! trigger invalidates exactly the affected key, nothing else. The key
//! encoder tests pin that every feature and config field reaches the key,
//! and that the encoding cannot change without a format-version bump.

use gpu_sim::GpuConfig;
use warped_slicer::phase::PhaseMonitor;
use warped_slicer::policy::{PolicyKind, WarpedSlicerConfig};
use warped_slicer::resources::ResourceVec;
use warped_slicer::runner::{execute, run_isolation, RunConfig, SimJob, TraceOptions};
use warped_slicer::store::{
    CurveStore, KernelSignature, SharedCurveStore, StoreEntry, STORE_FORMAT_VERSION,
};
use warped_slicer::waterfill::{water_fill, KernelCurve};
use ws_analyze::{extract_features, Features};
use ws_workloads::by_abbrev;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_curve(rng: &mut gpu_sim::SimRng, len: usize) -> Vec<f64> {
    // Arbitrary positive values with full-precision mantissas: the divisor
    // is deliberately not a power of two, so curve points exercise the
    // shortest-roundtrip serialization on non-trivial bit patterns.
    (0..len)
        .map(|_| (1 + rng.next_u64() % 100_000) as f64 / 7_001.0)
        .collect()
}

#[test]
fn store_round_trip_reproduces_water_fill_quotas_byte_identically() {
    let cfg = GpuConfig::isca_baseline();
    let suite = ws_workloads::suite();
    let capacity = ResourceVec::sm_capacity(&cfg.sm);
    let mut rng = gpu_sim::SimRng::seed_from_u64(0x570e_0001);
    let mut feasible = 0usize;
    for round in 0..40 {
        // A random co-run: 2-3 distinct suite kernels with random curves.
        let k = 2 + (rng.next_u64() % 2) as usize;
        let mut picks: Vec<usize> = Vec::new();
        while picks.len() < k {
            let i = (rng.next_u64() as usize) % suite.len();
            if !picks.contains(&i) {
                picks.push(i);
            }
        }
        let descs: Vec<_> = picks.iter().map(|&i| &suite[i].desc).collect();
        let sigs: Vec<KernelSignature> = descs
            .iter()
            .map(|d| KernelSignature::derive(d, &cfg).expect("suite kernels pass pre-flight"))
            .collect();
        let curves: Vec<Vec<f64>> = descs
            .iter()
            .map(|_| {
                let len = 3 + (rng.next_u64() % 6) as usize;
                random_curve(&mut rng, len)
            })
            .collect();

        // The uncached path: water-fill straight from the in-memory curves.
        let kernels: Vec<KernelCurve> = descs
            .iter()
            .zip(&curves)
            .map(|(d, perf)| KernelCurve {
                perf: perf.clone(),
                cta_cost: ResourceVec::cta_cost(d),
            })
            .collect();
        let uncached = water_fill(&kernels, capacity);

        // The store path: insert, serialize, load, look up, water-fill.
        let mut store = CurveStore::new(8);
        for (sig, perf) in sigs.iter().zip(&curves) {
            assert!(
                store.insert(sig.key, StoreEntry::measured(sig, perf.clone())),
                "round {round}: finite curves insert"
            );
        }
        let text = store.to_jsonl();
        warped_slicer::validate_jsonl(&text).expect("store file is schema-valid");
        let mut loaded = CurveStore::from_jsonl(&text).expect("store file loads");
        let looked: Vec<Vec<f64>> = sigs
            .iter()
            .map(|s| loaded.lookup(&s.key).expect("warm hit").perf.clone())
            .collect();
        for (orig, got) in curves.iter().zip(&looked) {
            assert_eq!(bits(orig), bits(got), "round {round}: curve bits survive");
        }
        let cached_kernels: Vec<KernelCurve> = descs
            .iter()
            .zip(&looked)
            .map(|(d, perf)| KernelCurve {
                perf: perf.clone(),
                cta_cost: ResourceVec::cta_cost(d),
            })
            .collect();
        match (uncached, water_fill(&cached_kernels, capacity)) {
            (Some(u), Some(c)) => {
                assert_eq!(u.ctas, c.ctas, "round {round}: quotas byte-identical");
                assert_eq!(bits(&u.perf), bits(&c.perf), "round {round}: perf bits");
                feasible += 1;
            }
            (None, None) => {}
            (u, c) => panic!("round {round}: feasibility diverged: {u:?} vs {c:?}"),
        }
    }
    assert!(feasible > 10, "only {feasible}/40 rounds were feasible");
}

#[test]
fn phase_monitor_trigger_invalidates_exactly_the_affected_key() {
    // The controller's invalidation contract, driven by the real monitor:
    // whatever kernel's IPC collapses, exactly that kernel's key leaves the
    // store; every other entry keeps hitting, and the re-profile's insert
    // restores the key.
    let cfg = GpuConfig::isca_baseline();
    let suite = ws_workloads::suite();
    let sigs: Vec<KernelSignature> = suite
        .iter()
        .map(|b| KernelSignature::derive(&b.desc, &cfg).expect("suite kernels pass pre-flight"))
        .collect();
    for (i, a) in sigs.iter().enumerate() {
        for b in sigs.iter().skip(i + 1) {
            assert_ne!(a.key, b.key, "suite signatures are pairwise distinct");
        }
    }
    let mut rng = gpu_sim::SimRng::seed_from_u64(0x570e_0002);
    for round in 0..20 {
        let mut store = CurveStore::new(sigs.len());
        for sig in &sigs {
            store.insert(
                sig.key,
                StoreEntry::measured(sig, random_curve(&mut rng, 8)),
            );
        }
        let victim = (rng.next_u64() as usize) % sigs.len();
        let mut monitors: Vec<PhaseMonitor> =
            sigs.iter().map(|_| PhaseMonitor::paper_default()).collect();
        let mut invalidations = 0usize;
        for window in 0..12 {
            for (i, m) in monitors.iter_mut().enumerate() {
                // Steady 2.0 IPC everywhere; the victim collapses to 0.4
                // (an 80 % sustained drop) from window 5 on.
                let ipc = if i == victim && window >= 5 { 0.4 } else { 2.0 };
                if m.observe(ipc) {
                    assert_eq!(i, victim, "round {round}: only the collapse triggers");
                    assert!(store.invalidate(&sigs[i].key));
                    invalidations += 1;
                }
            }
        }
        assert_eq!(invalidations, 1, "round {round}: one sustained collapse");
        for (i, sig) in sigs.iter().enumerate() {
            assert_eq!(
                store.peek(&sig.key).is_some(),
                i != victim,
                "round {round}: exactly the victim's entry is gone"
            );
        }
        // The re-profile replaces the entry; lookups hit again.
        store.insert(
            sigs[victim].key,
            StoreEntry::measured(&sigs[victim], random_curve(&mut rng, 8)),
        );
        assert!(store.lookup(&sigs[victim].key).is_some());
        assert_eq!(store.len(), sigs.len());
    }
}

#[test]
fn traced_corun_decides_warm_from_the_store_with_identical_quotas() {
    // End-to-end through the runner: the same traced co-run job executed
    // twice against one shared store. The first run profiles cold and
    // inserts; the second decides warm — earlier, from memoized curves, and
    // with a byte-identical quota vector. The exported JSONL carries the
    // store_miss/store_hit audit records and stays schema-valid.
    let cfg = RunConfig {
        isolation_cycles: 12_000,
        trace: Some(TraceOptions::default()),
        ..RunConfig::default()
    };
    let a = by_abbrev("IMG").unwrap().desc;
    let b = by_abbrev("NN").unwrap().desc;
    let ta = run_isolation(&a, &cfg).target_insts;
    let tb = run_isolation(&b, &cfg).target_insts;
    let store = SharedCurveStore::with_capacity(8);
    let policy = PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        store: Some(store.clone()),
        ..WarpedSlicerConfig::scaled_for(12_000)
    });
    let job = SimJob::corun(&[&a, &b], &[ta, tb], &policy, &cfg);

    let cold = execute(&job);
    assert_eq!(store.with(|s| s.len()), 2, "cold run memoized both curves");
    let warm = execute(&job);

    let cold_d = cold.decision.as_ref().expect("cold decision");
    let warm_d = warm.decision.as_ref().expect("warm decision");
    assert!(
        warm_d.decided_at < cold_d.decided_at,
        "warm decision ({}) must beat the cold profile ({})",
        warm_d.decided_at,
        cold_d.decided_at
    );
    assert_eq!(warm_d.quotas, cold_d.quotas, "quota vectors byte-identical");
    assert_eq!(warm_d.spatial_fallback, cold_d.spatial_fallback);
    for (w, c) in warm_d.measured_curves.iter().zip(&cold_d.measured_curves) {
        assert_eq!(bits(w), bits(c), "warm curves bit-equal to cold");
    }

    let cold_text =
        warped_slicer::tracefmt::jsonl(&cold, "IMG_NN", "warped-slicer", &["IMG", "NN"]);
    let warm_text =
        warped_slicer::tracefmt::jsonl(&warm, "IMG_NN", "warped-slicer", &["IMG", "NN"]);
    warped_slicer::validate_jsonl(&cold_text).expect("cold trace schema-valid");
    warped_slicer::validate_jsonl(&warm_text).expect("warm trace schema-valid");
    assert!(cold_text.contains("\"type\":\"store_miss\""));
    assert!(warm_text.contains("\"type\":\"store_hit\""));
    assert!(
        !warm_text.contains("\"type\":\"scaled_point\""),
        "no profiling samples on the warm path"
    );
}

/// IMG's feature vector under the baseline config.
fn img_features(cfg: &GpuConfig) -> Features {
    extract_features(&by_abbrev("IMG").unwrap().desc, cfg).expect("IMG passes pre-flight")
}

/// The smallest possible change to a float: flip its lowest bit.
fn nudge(v: &mut f64) {
    *v = f64::from_bits(v.to_bits() ^ 1);
}

/// A named accessor for one `GpuConfig` integer.
type ConfigField = (&'static str, fn(&mut GpuConfig) -> &mut u32);

/// Every integer of `GpuConfig`, by name: all 40 are `u32`.
fn config_fields() -> [ConfigField; 40] {
    macro_rules! fields {
        ($($($f:ident).+),* $(,)?) => {
            [$((
                stringify!($($f).+),
                (|c: &mut GpuConfig| &mut c.$($f).+) as fn(&mut GpuConfig) -> &mut u32,
            )),*]
        };
    }
    fields![
        num_sms,
        core_clock_mhz,
        sm.max_threads,
        sm.max_registers,
        sm.max_ctas,
        sm.shared_mem_bytes,
        sm.num_schedulers,
        sm.simt_width,
        sm.sfu_width,
        sm.lsu_width,
        sm.alu_latency,
        sm.sfu_latency,
        sm.shmem_latency,
        sm.l1_hit_latency,
        sm.ibuffer_entries,
        sm.fetch_latency,
        sm.icache_miss_penalty,
        sm.fetch_width,
        l1.size_bytes,
        l1.assoc,
        l1.line_bytes,
        l1.mshr_entries,
        l1.mshr_max_merged,
        l2.size_bytes_per_channel,
        l2.assoc,
        l2.line_bytes,
        l2.latency,
        mem.num_channels,
        mem.banks_per_channel,
        mem.row_bytes,
        mem.timing.t_cl,
        mem.timing.t_rp,
        mem.timing.t_rc,
        mem.timing.t_ras,
        mem.timing.t_rcd,
        mem.timing.t_rrd,
        mem.timing.t_burst,
        mem.dram_clock_mhz,
        mem.icnt_latency,
        mem.dram_queue_entries,
    ]
}

#[test]
fn gpu_sig_changes_with_every_config_field() {
    let base = GpuConfig::isca_baseline();
    let features = img_features(&base);
    let sig = |cfg: &GpuConfig| KernelSignature::from_features(&features, cfg).key;
    let base_key = sig(&base);
    let mut seen = vec![base_key.gpu_sig];
    for (name, field) in config_fields() {
        let mut cfg = base.clone();
        *field(&mut cfg) += 1;
        let key = sig(&cfg);
        assert!(
            !seen.contains(&key.gpu_sig),
            "{name}: gpu_sig unchanged or aliased"
        );
        assert_eq!(
            key.kernel_sig, base_key.kernel_sig,
            "{name}: kernel_sig moved"
        );
        seen.push(key.gpu_sig);
    }
}

#[test]
fn kernel_sig_changes_with_every_feature_field() {
    let cfg = GpuConfig::isca_baseline();
    let mut base = img_features(&cfg);
    // Start from "no dominant distance" so one mutator can take it to Some.
    base.metrics.dominant_raw_distance = None;
    assert!(
        !base.metrics.raw_histogram.is_empty(),
        "IMG reads registers"
    );
    type Mutator = (&'static str, fn(&mut Features));
    let mutators: [Mutator; 28] = [
        ("metrics.body_len", |f| f.metrics.body_len += 1),
        ("metrics.iterations", |f| f.metrics.iterations += 1),
        ("metrics.alu_frac", |f| nudge(&mut f.metrics.alu_frac)),
        ("metrics.sfu_frac", |f| nudge(&mut f.metrics.sfu_frac)),
        ("metrics.gload_frac", |f| nudge(&mut f.metrics.gload_frac)),
        ("metrics.gstore_frac", |f| nudge(&mut f.metrics.gstore_frac)),
        ("metrics.shmem_frac", |f| nudge(&mut f.metrics.shmem_frac)),
        ("metrics.barrier_frac", |f| {
            nudge(&mut f.metrics.barrier_frac)
        }),
        ("metrics.lsu_frac", |f| nudge(&mut f.metrics.lsu_frac)),
        ("metrics.global_traffic", |f| {
            nudge(&mut f.metrics.global_traffic)
        }),
        ("metrics.arithmetic_intensity", |f| {
            nudge(&mut f.metrics.arithmetic_intensity);
        }),
        ("metrics.median_raw_distance", |f| {
            f.metrics.median_raw_distance = f
                .metrics
                .median_raw_distance
                .map_or(Some(0), |d| Some(d + 1));
        }),
        ("metrics.dominant_raw_distance", |f| {
            f.metrics.dominant_raw_distance = Some(7);
        }),
        ("metrics.raw_histogram[0]", |f| {
            f.metrics.raw_histogram[0] += 1
        }),
        ("metrics.raw_histogram.len", |f| {
            f.metrics.raw_histogram.push(0)
        }),
        ("metrics.first_iter_uninit_reads", |f| {
            f.metrics.first_iter_uninit_reads += 1;
        }),
        ("metrics.max_ctas_by[0]", |f| f.metrics.max_ctas_by[0] ^= 1),
        ("metrics.max_ctas_by[3]", |f| f.metrics.max_ctas_by[3] ^= 1),
        ("metrics.max_ctas", |f| f.metrics.max_ctas += 1),
        ("warps_per_cta", |f| f.warps_per_cta += 1),
        ("max_ctas", |f| f.max_ctas += 1),
        ("max_ctas_by[1]", |f| f.max_ctas_by[1] ^= 1),
        ("max_ctas_by[2]", |f| f.max_ctas_by[2] ^= 1),
        ("phi_mem", |f| nudge(&mut f.phi_mem)),
        ("ilp", |f| nudge(&mut f.ilp)),
        ("mlp", |f| nudge(&mut f.mlp)),
        ("barrier_eff", |f| nudge(&mut f.barrier_eff)),
        ("traffic_per_inst", |f| nudge(&mut f.traffic_per_inst)),
    ];
    let base_sig = KernelSignature::from_features(&base, &cfg);
    let mut seen = vec![base_sig.key.kernel_sig];
    for (name, mutate) in mutators {
        let mut f = base.clone();
        mutate(&mut f);
        let sig = KernelSignature::from_features(&f, &cfg);
        // The derived tag is unchanged, so the field itself moved the key.
        assert_eq!(
            (sig.class, sig.archetype),
            (base_sig.class, base_sig.archetype),
            "{name}: mutation crossed a class/archetype threshold"
        );
        assert!(
            !seen.contains(&sig.key.kernel_sig),
            "{name}: kernel_sig unchanged or aliased"
        );
        assert_eq!(
            sig.key.gpu_sig, base_sig.key.gpu_sig,
            "{name}: gpu_sig moved"
        );
        seen.push(sig.key.kernel_sig);
    }
}

#[test]
fn distinct_suite_kernels_get_distinct_keys() {
    let cfg = GpuConfig::isca_baseline();
    let mut by_kernel: Vec<(&'static str, KernelSignature)> = Vec::new();
    let entries: Vec<_> = ws_workloads::suite()
        .into_iter()
        .chain(ws_workloads::extended_suite())
        .collect();
    assert_eq!(entries.len(), 21);
    for b in &entries {
        let sig = KernelSignature::derive(&b.desc, &cfg).expect("suite passes pre-flight");
        match by_kernel.iter().find(|(abbrev, _)| *abbrev == b.abbrev) {
            Some((_, seen)) => assert_eq!(*seen, sig, "{}: same kernel, same key", b.abbrev),
            None => by_kernel.push((b.abbrev, sig)),
        }
    }
    assert_eq!(
        by_kernel.len(),
        11,
        "suite and extended suite hold 11 kernels"
    );
    for (i, (a, sa)) in by_kernel.iter().enumerate() {
        for (b, sb) in &by_kernel[i + 1..] {
            assert_ne!(sa.key.kernel_sig, sb.key.kernel_sig, "{a} and {b} alias");
        }
    }
}

#[test]
fn img_key_is_pinned_to_the_format_version() {
    // Any change to the key encoding moves this pair, and must come with a
    // STORE_FORMAT_VERSION bump so persisted stores of the old encoding
    // are refused instead of silently missing.
    assert_eq!(STORE_FORMAT_VERSION, 3);
    let sig = KernelSignature::derive(&by_abbrev("IMG").unwrap().desc, &GpuConfig::isca_baseline())
        .expect("IMG passes pre-flight");
    assert_eq!(
        (sig.key.kernel_sig, sig.key.gpu_sig),
        (0x9262_6f6c_1c42_eb3e, 0xa89e_3848_fc47_892e),
        "IMG key under isca_baseline() changed: bump STORE_FORMAT_VERSION"
    );
}

#[test]
fn version_1_store_files_are_refused() {
    let v1 = "{\"type\":\"store_meta\",\"version\":1,\"capacity\":4,\"entries\":0}\n";
    let err = CurveStore::from_jsonl(v1).expect_err("v1 keys use the old encoding");
    assert!(err.contains("unsupported store format version 1"), "{err}");
}

#[test]
fn version_2_store_files_are_refused() {
    // A v2 entry keyed by IMG's byte-serial FNV-1a key: loading it under the
    // word encoding would only ever miss, so the file is refused outright.
    let v2 = "{\"type\":\"store_meta\",\"version\":2,\"capacity\":4,\"entries\":1}\n\
              {\"type\":\"store_entry\",\"kernel_sig\":\"c7da274b9fea8712\",\
              \"gpu_sig\":\"b3fdf1c2572aa967\",\"class\":\"compute\",\
              \"archetype\":\"compute-saturating\",\"perf\":[1.0],\"knee\":1}\n";
    let err = CurveStore::from_jsonl(v2).expect_err("v2 keys use the old encoding");
    assert!(err.contains("unsupported store format version 2"), "{err}");
}

/// Panics naming the first two entries of `keys` that share a key.
fn assert_distinct(keys: impl IntoIterator<Item = (String, u64)>) {
    let mut seen = std::collections::BTreeMap::new();
    for (what, key) in keys {
        if let Some(prev) = seen.insert(key, what.clone()) {
            panic!("{what} aliases {prev}");
        }
    }
}

#[test]
fn single_bit_flips_give_pairwise_distinct_keys() {
    // The word step is a bijection, so a flip in any one word must move the
    // key; the flips must also not collide with one another.
    let cfg = GpuConfig::isca_baseline();
    let base = img_features(&cfg);
    type FloatField = (&'static str, fn(&mut Features) -> &mut f64);
    let floats: [FloatField; 14] = [
        ("metrics.alu_frac", |f| &mut f.metrics.alu_frac),
        ("metrics.sfu_frac", |f| &mut f.metrics.sfu_frac),
        ("metrics.gload_frac", |f| &mut f.metrics.gload_frac),
        ("metrics.gstore_frac", |f| &mut f.metrics.gstore_frac),
        ("metrics.shmem_frac", |f| &mut f.metrics.shmem_frac),
        ("metrics.barrier_frac", |f| &mut f.metrics.barrier_frac),
        ("metrics.lsu_frac", |f| &mut f.metrics.lsu_frac),
        ("metrics.global_traffic", |f| &mut f.metrics.global_traffic),
        ("metrics.arithmetic_intensity", |f| {
            &mut f.metrics.arithmetic_intensity
        }),
        ("phi_mem", |f| &mut f.phi_mem),
        ("ilp", |f| &mut f.ilp),
        ("mlp", |f| &mut f.mlp),
        ("barrier_eff", |f| &mut f.barrier_eff),
        ("traffic_per_inst", |f| &mut f.traffic_per_inst),
    ];
    let kernel_sig = |f: &Features| KernelSignature::from_features(f, &cfg).key.kernel_sig;
    let mut keys = vec![("base kernel".to_string(), kernel_sig(&base))];
    for (name, field) in floats {
        for bit in 0..64 {
            let mut f = base.clone();
            let v = field(&mut f);
            *v = f64::from_bits(v.to_bits() ^ (1 << bit));
            keys.push((format!("{name} bit {bit}"), kernel_sig(&f)));
        }
    }
    assert_distinct(keys);

    let gpu_sig = |c: &GpuConfig| KernelSignature::from_features(&base, c).key.gpu_sig;
    let mut keys = vec![("base config".to_string(), gpu_sig(&cfg))];
    for (name, field) in config_fields() {
        for bit in 0..u32::BITS {
            let mut c = cfg.clone();
            *field(&mut c) ^= 1 << bit;
            keys.push((format!("{name} bit {bit}"), gpu_sig(&c)));
        }
    }
    assert_distinct(keys);
}
