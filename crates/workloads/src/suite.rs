//! The ten-benchmark suite of Table II, instantiated as synthetic kernels.
//!
//! Each benchmark is parameterized so the *mechanisms* behind its paper
//! behaviour are present: its grid/block geometry and register/shared-memory
//! demand are taken directly from Table II (they determine occupancy limits
//! and fragmentation), while its instruction mix, dependence distance and
//! memory pattern are chosen so that the benchmark lands in the right
//! scaling archetype of Fig. 3a and the right compute/memory/cache class.

use gpu_sim::{AccessPattern, GpuConfig, KernelDesc, ProgramSpec};

/// Workload class from Table II's `Type` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Low L2 MPKI, pipeline-bound.
    Compute,
    /// High L2 MPKI (>= 30 in the paper), DRAM-bandwidth-bound.
    Memory,
    /// L1-capacity-sensitive: performance peaks below full occupancy.
    Cache,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Compute => write!(f, "Compute"),
            Self::Memory => write!(f, "Memory"),
            Self::Cache => write!(f, "Cache"),
        }
    }
}

/// Scaling archetype of Fig. 3a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingArchetype {
    /// Performance keeps improving up to the occupancy limit (HOT).
    ComputeNonSaturating,
    /// Performance plateaus before the occupancy limit (IMG, DXT, MM).
    ComputeSaturating,
    /// Performance saturates very quickly on DRAM bandwidth (BLK, BFS, ...).
    MemorySaturating,
    /// Performance peaks and then degrades from L1 thrashing (NN, MVP).
    CacheSensitive,
}

/// Reference values from Table II of the paper, kept alongside each
/// benchmark for reporting and shape checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Register-file utilization (fraction).
    pub reg: f64,
    /// Shared-memory utilization (fraction).
    pub shm: f64,
    /// ALU pipeline utilization (fraction).
    pub alu: f64,
    /// SFU pipeline utilization (fraction).
    pub sfu: f64,
    /// LSU pipeline utilization (fraction).
    pub ls: f64,
    /// L2 misses per kilo warp instructions.
    pub l2_mpki: f64,
}

/// A written-down suppression of one static-analyzer rule for one
/// benchmark.
///
/// The `ws-analyze` verifier fails the gate on any diagnostic; a benchmark
/// that intentionally violates a rule carries a waiver *with a
/// justification*. An empty justification is itself a verifier error, so
/// waivers cannot silently accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiver {
    /// The analyzer rule identifier being waived (e.g. `"class-traffic"`).
    pub rule: &'static str,
    /// Why the violation is intentional. Must be non-empty.
    pub justification: &'static str,
}

/// One suite benchmark: descriptor plus classification metadata.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Table II abbreviation (BLK, BFS, ...).
    pub abbrev: &'static str,
    /// Full benchmark name.
    pub full_name: &'static str,
    /// The kernel the simulator executes.
    pub desc: KernelDesc,
    /// Compute/Memory/Cache class.
    pub class: WorkloadClass,
    /// Fig. 3a scaling archetype.
    pub archetype: ScalingArchetype,
    /// The paper's Table II row, for side-by-side reporting.
    pub paper: PaperRow,
    /// Static-analyzer rule suppressions, each with a written justification
    /// (see [`Waiver`]).
    pub waivers: &'static [Waiver],
}

impl Benchmark {
    /// Maximum CTAs per SM under the baseline configuration.
    #[must_use]
    pub fn max_ctas_baseline(&self) -> u32 {
        self.desc.max_ctas_per_sm(&GpuConfig::isca_baseline().sm)
    }
}

fn program(
    seed: u64,
    sfu: f64,
    gload: f64,
    gstore: f64,
    shmem: f64,
    dep: usize,
) -> gpu_sim::Program {
    program_with_barriers(seed, sfu, gload, gstore, shmem, 0.0, dep)
}

/// Tiled kernels (`DXT`, `HOT`, `MM`) synchronize between loading a tile
/// into shared memory and consuming it.
#[allow(clippy::too_many_arguments)]
fn program_with_barriers(
    seed: u64,
    sfu: f64,
    gload: f64,
    gstore: f64,
    shmem: f64,
    barrier: f64,
    dep: usize,
) -> gpu_sim::Program {
    ProgramSpec {
        body_len: 100,
        sfu_frac: sfu,
        gload_frac: gload,
        gstore_frac: gstore,
        shmem_frac: shmem,
        barrier_frac: barrier,
        dep_distance: dep,
        seed,
    }
    .generate()
    // Invariant: every suite spec is a static, valid mix (a positive body,
    // fractions non-negative and summing below 1). xtask-allow: no-unwrap
    .expect("static suite program spec")
}

/// Blackscholes: streaming memory-intensive with heavy SFU (exp/log) use.
#[must_use]
pub fn blk() -> Benchmark {
    Benchmark {
        abbrev: "BLK",
        full_name: "Blackscholes",
        desc: KernelDesc {
            name: "BLK".into(),
            grid_ctas: 4800,
            threads_per_cta: 128,
            regs_per_thread: 30,
            shmem_per_cta: 0,
            program: program(101, 0.15, 0.15, 0.05, 0.0, 8),
            iterations: 2,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 11,
        },
        class: WorkloadClass::Memory,
        archetype: ScalingArchetype::MemorySaturating,
        paper: PaperRow {
            reg: 0.95,
            shm: 0.0,
            alu: 0.48,
            sfu: 0.73,
            ls: 0.84,
            l2_mpki: 51.3,
        },
        waivers: &[],
    }
}

/// Breadth-first search: irregular, divergent, memory-intensive.
#[must_use]
pub fn bfs() -> Benchmark {
    Benchmark {
        abbrev: "BFS",
        full_name: "Breadth First Search",
        desc: KernelDesc {
            name: "BFS".into(),
            grid_ctas: 19540,
            threads_per_cta: 512,
            regs_per_thread: 15,
            shmem_per_cta: 0,
            program: program(102, 0.02, 0.08, 0.03, 0.0, 3),
            iterations: 1,
            pattern: AccessPattern::Random {
                footprint_lines: 12_288,
                transactions: 2,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 12,
        },
        class: WorkloadClass::Memory,
        archetype: ScalingArchetype::MemorySaturating,
        paper: PaperRow {
            reg: 0.71,
            shm: 0.0,
            alu: 0.14,
            sfu: 0.06,
            ls: 0.46,
            l2_mpki: 84.4,
        },
        waivers: &[],
    }
}

/// DXT compression: compute-intensive with a fetch-bound front end.
#[must_use]
pub fn dxt() -> Benchmark {
    Benchmark {
        abbrev: "DXT",
        full_name: "DXT Compression",
        desc: KernelDesc {
            name: "DXT".into(),
            grid_ctas: 107_520,
            threads_per_cta: 64,
            regs_per_thread: 36,
            shmem_per_cta: 2 * 1024,
            program: program_with_barriers(103, 0.10, 0.06, 0.02, 0.25, 0.02, 8),
            iterations: 8,
            pattern: AccessPattern::Tiled {
                tile_lines: 2,
                reuse: 32,
                transactions: 1,
            },
            icache_miss_rate: 0.15,
            shmem_conflict_degree: 1,
            seed: 13,
        },
        class: WorkloadClass::Compute,
        archetype: ScalingArchetype::ComputeSaturating,
        paper: PaperRow {
            reg: 0.56,
            shm: 0.33,
            alu: 0.47,
            sfu: 0.11,
            ls: 0.21,
            l2_mpki: 0.03,
        },
        waivers: &[],
    }
}

/// Hotspot: compute-intensive, non-saturating (keeps scaling with CTAs).
#[must_use]
pub fn hot() -> Benchmark {
    Benchmark {
        abbrev: "HOT",
        full_name: "Hotspot",
        desc: KernelDesc {
            name: "HOT".into(),
            grid_ctas: 73_960,
            threads_per_cta: 256,
            regs_per_thread: 18,
            shmem_per_cta: 1536,
            program: program_with_barriers(104, 0.06, 0.04, 0.02, 0.40, 0.02, 1),
            iterations: 3,
            pattern: AccessPattern::Tiled {
                tile_lines: 2,
                reuse: 16,
                transactions: 1,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 14,
        },
        class: WorkloadClass::Compute,
        archetype: ScalingArchetype::ComputeNonSaturating,
        paper: PaperRow {
            reg: 0.84,
            shm: 0.19,
            alu: 0.41,
            sfu: 0.22,
            ls: 0.75,
            l2_mpki: 5.8,
        },
        waivers: &[],
    }
}

/// Image denoising: ALU-dominated with a short dependence chain, so it
/// saturates once enough warps hide the ALU latency.
#[must_use]
pub fn img() -> Benchmark {
    Benchmark {
        abbrev: "IMG",
        full_name: "Image Denoising",
        desc: KernelDesc {
            name: "IMG".into(),
            grid_ctas: 20_400,
            threads_per_cta: 64,
            regs_per_thread: 28,
            shmem_per_cta: 0,
            program: program(105, 0.12, 0.05, 0.01, 0.0, 2),
            iterations: 6,
            pattern: AccessPattern::Tiled {
                tile_lines: 2,
                reuse: 32,
                transactions: 1,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 15,
        },
        class: WorkloadClass::Compute,
        archetype: ScalingArchetype::ComputeSaturating,
        paper: PaperRow {
            reg: 0.43,
            shm: 0.0,
            alu: 0.81,
            sfu: 0.30,
            ls: 0.11,
            l2_mpki: 0.3,
        },
        waivers: &[],
    }
}

/// K-nearest neighbour: irregular memory-intensive.
#[must_use]
pub fn knn() -> Benchmark {
    Benchmark {
        abbrev: "KNN",
        full_name: "K-Nearest Neighbor",
        desc: KernelDesc {
            name: "KNN".into(),
            grid_ctas: 26_730,
            threads_per_cta: 256,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: program(106, 0.10, 0.10, 0.03, 0.0, 4),
            iterations: 1,
            pattern: AccessPattern::Random {
                footprint_lines: 65_536,
                transactions: 2,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 16,
        },
        class: WorkloadClass::Memory,
        archetype: ScalingArchetype::MemorySaturating,
        paper: PaperRow {
            reg: 0.37,
            shm: 0.0,
            alu: 0.14,
            sfu: 0.26,
            ls: 0.42,
            l2_mpki: 100.0,
        },
        waivers: &[],
    }
}

/// Lattice-Boltzmann: the most extreme streaming memory benchmark.
#[must_use]
pub fn lbm() -> Benchmark {
    Benchmark {
        abbrev: "LBM",
        full_name: "Lattice-Boltzmann",
        desc: KernelDesc {
            name: "LBM".into(),
            grid_ctas: 180_000,
            threads_per_cta: 120,
            regs_per_thread: 34,
            shmem_per_cta: 0,
            program: program(107, 0.01, 0.38, 0.19, 0.0, 4),
            iterations: 1,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 17,
        },
        class: WorkloadClass::Memory,
        archetype: ScalingArchetype::MemorySaturating,
        paper: PaperRow {
            reg: 0.98,
            shm: 0.0,
            alu: 0.07,
            sfu: 0.01,
            ls: 1.0,
            l2_mpki: 166.6,
        },
        waivers: &[],
    }
}

/// Matrix multiply: tiled compute kernel with shared-memory blocking.
#[must_use]
pub fn mm() -> Benchmark {
    Benchmark {
        abbrev: "MM",
        full_name: "Matrix Multiply",
        desc: KernelDesc {
            name: "MM".into(),
            grid_ctas: 5280,
            threads_per_cta: 128,
            regs_per_thread: 28,
            shmem_per_cta: 304,
            program: program_with_barriers(108, 0.01, 0.10, 0.03, 0.30, 0.02, 4),
            iterations: 4,
            pattern: AccessPattern::Tiled {
                tile_lines: 2,
                reuse: 32,
                transactions: 1,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 18,
        },
        class: WorkloadClass::Compute,
        archetype: ScalingArchetype::ComputeSaturating,
        paper: PaperRow {
            reg: 0.86,
            shm: 0.05,
            alu: 0.52,
            sfu: 0.01,
            ls: 0.34,
            l2_mpki: 1.7,
        },
        waivers: &[],
    }
}

/// Matrix-vector product: streams matrix rows (L1/L2 misses) while reusing
/// the vector (L1-resident until co-resident CTAs thrash it).
#[must_use]
pub fn mvp() -> Benchmark {
    Benchmark {
        abbrev: "MVP",
        full_name: "Matrix Vector Product",
        desc: KernelDesc {
            name: "MVP".into(),
            grid_ctas: 7650,
            threads_per_cta: 192,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: program(109, 0.04, 0.45, 0.02, 0.0, 4),
            iterations: 1,
            pattern: AccessPattern::HotCold {
                hot_lines: 40,
                hot_frac: 0.65,
                transactions: 1,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 19,
        },
        class: WorkloadClass::Cache,
        archetype: ScalingArchetype::CacheSensitive,
        paper: PaperRow {
            reg: 0.74,
            shm: 0.0,
            alu: 0.09,
            sfu: 0.07,
            ls: 0.96,
            l2_mpki: 89.7,
        },
        waivers: &[],
    }
}

/// Neural network: reuses a small weight set (L1/L2-resident) plus small
/// per-CTA activations; sensitive to L1 capacity but low MPKI.
#[must_use]
pub fn nn() -> Benchmark {
    Benchmark {
        abbrev: "NN",
        full_name: "Neural Network",
        desc: KernelDesc {
            name: "NN".into(),
            grid_ctas: 540_000,
            threads_per_cta: 169,
            regs_per_thread: 23,
            shmem_per_cta: 0,
            program: program(110, 0.10, 0.30, 0.05, 0.0, 6),
            iterations: 2,
            pattern: AccessPattern::BoundedFootprint {
                private_lines: 16,
                shared_lines: 48,
                shared_frac: 0.6,
                transactions: 1,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 20,
        },
        class: WorkloadClass::Cache,
        archetype: ScalingArchetype::CacheSensitive,
        paper: PaperRow {
            reg: 0.94,
            shm: 0.0,
            alu: 0.43,
            sfu: 0.22,
            ls: 0.89,
            l2_mpki: 3.7,
        },
        waivers: &[],
    }
}

/// MUMmerGPU genome alignment: irregular suffix-tree traversal with highly
/// divergent memory accesses. It appears in the paper's Fig. 1 but not in
/// Table II (and is never paired), so it is *not* part of [`suite`]; use
/// [`extended_suite`] for Fig. 1. Its `paper` row is zeroed — the paper
/// reports no Table II entry for it.
#[must_use]
pub fn mum() -> Benchmark {
    Benchmark {
        abbrev: "MUM",
        full_name: "MUMmerGPU",
        desc: KernelDesc {
            name: "MUM".into(),
            grid_ctas: 7820,
            threads_per_cta: 256,
            regs_per_thread: 14,
            shmem_per_cta: 0,
            program: program(111, 0.02, 0.10, 0.02, 0.0, 3),
            iterations: 1,
            pattern: AccessPattern::Random {
                footprint_lines: 131_072,
                transactions: 4,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 21,
        },
        class: WorkloadClass::Memory,
        archetype: ScalingArchetype::MemorySaturating,
        paper: PaperRow {
            reg: 0.0,
            shm: 0.0,
            alu: 0.0,
            sfu: 0.0,
            ls: 0.0,
            l2_mpki: 0.0,
        },
        waivers: &[],
    }
}

type Constructor = fn() -> Benchmark;

/// Every benchmark constructor with its abbreviation, in Fig. 1 order: the
/// Table II suite with MUM between MVP and NN.
///
/// The one list [`suite`], [`extended_suite`] and [`by_abbrev`] read.
/// Building a benchmark generates its program, so a lookup calls only the
/// constructor it names (see DESIGN.md §3).
const CATALOGUE: [(&str, Constructor); 11] = [
    ("BLK", blk),
    ("BFS", bfs),
    ("DXT", dxt),
    ("HOT", hot),
    ("IMG", img),
    ("KNN", knn),
    ("LBM", lbm),
    ("MM", mm),
    ("MVP", mvp),
    ("MUM", mum),
    ("NN", nn),
];

/// The full ten-benchmark suite, in Table II order.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    CATALOGUE
        .iter()
        .filter(|(abbrev, _)| *abbrev != "MUM")
        .map(|(_, build)| build())
        .collect()
}

/// The Fig. 1 benchmark set: the Table II suite plus MUM, in the figure's
/// order.
#[must_use]
pub fn extended_suite() -> Vec<Benchmark> {
    CATALOGUE.iter().map(|(_, build)| build()).collect()
}

/// Looks a benchmark up by its Table II abbreviation (case-insensitive);
/// also resolves `MUM` (Fig. 1 only).
#[must_use]
pub fn by_abbrev(abbrev: &str) -> Option<Benchmark> {
    CATALOGUE
        .iter()
        .find(|(a, _)| a.eq_ignore_ascii_case(abbrev))
        .map(|(_, build)| build())
}

/// Reference lookup for tests: a scan of the built extended suite, which
/// the catalogue's [`by_abbrev`] must agree with.
#[cfg(test)]
pub(crate) fn reference_by_abbrev(abbrev: &str) -> Option<Benchmark> {
    extended_suite()
        .into_iter()
        .find(|b| b.abbrev.eq_ignore_ascii_case(abbrev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::OpClass;

    #[test]
    fn suite_has_ten_unique_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 10);
        let mut names: Vec<_> = s.iter().map(|b| b.abbrev).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn geometry_matches_table_ii() {
        // Grids are the paper's griddim x 10 so runs never exhaust their
        // input (the paper's own "large input size" principle); block
        // dimensions are exact.
        for (abbrev, grid, blk) in [
            ("BLK", 480, 128),
            ("BFS", 1954, 512),
            ("DXT", 10752, 64),
            ("HOT", 7396, 256),
            ("IMG", 2040, 64),
            ("KNN", 2673, 256),
            ("LBM", 18000, 120),
            ("MM", 528, 128),
            ("MVP", 765, 192),
            ("NN", 54000, 169),
        ] {
            let b = by_abbrev(abbrev).unwrap();
            assert_eq!(b.desc.grid_ctas, grid * 10, "{abbrev} griddim");
            assert_eq!(b.desc.threads_per_cta, blk, "{abbrev} blkdim");
        }
    }

    #[test]
    fn register_demand_tracks_paper_utilization() {
        // At max occupancy, register usage should be within 6 percentage
        // points of the paper's Table II utilization.
        let sm = GpuConfig::isca_baseline().sm;
        for b in suite() {
            let ctas = b.desc.max_ctas_per_sm(&sm);
            let used = f64::from(ctas * b.desc.regs_per_cta());
            let frac = used / f64::from(sm.max_registers);
            assert!(
                (frac - b.paper.reg).abs() < 0.06,
                "{}: modeled reg {frac:.2} vs paper {:.2}",
                b.abbrev,
                b.paper.reg
            );
        }
    }

    #[test]
    fn occupancy_limits_are_sensible() {
        for (abbrev, max_ctas) in [
            ("BLK", 8),
            ("BFS", 3),
            ("DXT", 8),
            ("HOT", 6),
            ("IMG", 8),
            ("KNN", 6),
            ("LBM", 8),
            ("MM", 8),
            ("MVP", 8),
            ("NN", 8),
        ] {
            let b = by_abbrev(abbrev).unwrap();
            assert_eq!(b.max_ctas_baseline(), max_ctas, "{abbrev} occupancy");
        }
    }

    #[test]
    fn classes_match_table_ii() {
        let memory = ["BLK", "BFS", "KNN", "LBM"];
        let compute = ["DXT", "HOT", "IMG", "MM"];
        let cache = ["MVP", "NN"];
        for m in memory {
            assert_eq!(by_abbrev(m).unwrap().class, WorkloadClass::Memory);
        }
        for c in compute {
            assert_eq!(by_abbrev(c).unwrap().class, WorkloadClass::Compute);
        }
        for c in cache {
            assert_eq!(by_abbrev(c).unwrap().class, WorkloadClass::Cache);
        }
    }

    #[test]
    fn memory_benchmarks_have_more_global_traffic_than_compute() {
        // Traffic = global-instruction fraction x transactions per access.
        let gmem = |b: &Benchmark| {
            (b.desc.program.fraction(OpClass::GlobalLoad)
                + b.desc.program.fraction(OpClass::GlobalStore))
                * f64::from(b.desc.pattern.transactions())
        };
        let min_mem = ["BLK", "BFS", "KNN", "LBM"]
            .iter()
            .map(|a| gmem(&by_abbrev(a).unwrap()))
            .fold(f64::INFINITY, f64::min);
        let max_compute = ["DXT", "HOT", "IMG", "MM"]
            .iter()
            .map(|a| gmem(&by_abbrev(a).unwrap()))
            .fold(0.0, f64::max);
        assert!(min_mem > max_compute);
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(by_abbrev("blk").is_some());
        assert!(by_abbrev("Nn").is_some());
        assert!(by_abbrev("XYZ").is_none());
    }

    /// Fig. 1 order; Table II order is the same without MUM.
    const FIG1_ORDER: [&str; 11] = [
        "BLK", "BFS", "DXT", "HOT", "IMG", "KNN", "LBM", "MM", "MVP", "MUM", "NN",
    ];

    #[test]
    fn suite_orders_are_pinned() {
        let abbrevs = |v: Vec<Benchmark>| v.iter().map(|b| b.abbrev).collect::<Vec<_>>();
        assert_eq!(abbrevs(extended_suite()), FIG1_ORDER);
        assert_eq!(
            abbrevs(suite()),
            ["BLK", "BFS", "DXT", "HOT", "IMG", "KNN", "LBM", "MM", "MVP", "NN"]
        );
    }

    #[test]
    fn catalogue_lookup_matches_the_suite_scan() {
        for abbrev in FIG1_ORDER {
            let mixed: String = abbrev
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 1 {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            for name in [abbrev.to_string(), abbrev.to_ascii_lowercase(), mixed] {
                let got = by_abbrev(&name).expect("catalogue resolves every member");
                let want = reference_by_abbrev(&name).expect("suite holds every member");
                assert_eq!(got.abbrev, want.abbrev, "{name}");
                assert_eq!(got.full_name, want.full_name, "{name}");
                assert_eq!(got.desc, want.desc, "{name}");
                assert_eq!(got.class, want.class, "{name}");
                assert_eq!(got.archetype, want.archetype, "{name}");
            }
        }
        assert!(by_abbrev("XYZ").is_none());
        assert!(reference_by_abbrev("XYZ").is_none());
    }

    #[test]
    fn all_benchmarks_have_distinct_seeds() {
        let mut seeds: Vec<u64> = extended_suite().iter().map(|b| b.desc.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 11);
    }

    #[test]
    fn extended_suite_adds_mum_for_fig1() {
        let ext = extended_suite();
        assert_eq!(ext.len(), 11);
        assert_eq!(ext[9].abbrev, "MUM");
        assert!(by_abbrev("MUM").is_some());
        assert!(!suite().iter().any(|b| b.abbrev == "MUM"));
    }

    #[test]
    fn tiled_kernels_carry_barriers() {
        for a in ["DXT", "HOT", "MM"] {
            let b = by_abbrev(a).unwrap();
            assert!(
                b.desc.program.fraction(OpClass::Barrier) > 0.0,
                "{a} should synchronize its tiles"
            );
        }
        assert_eq!(
            by_abbrev("BLK")
                .unwrap()
                .desc
                .program
                .fraction(OpClass::Barrier),
            0.0
        );
    }
}
