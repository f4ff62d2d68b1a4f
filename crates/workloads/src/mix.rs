//! Multiprogrammed workload construction: the 30 two-kernel pairs of
//! Fig. 6 / Table III and the 15 three-kernel combinations of Fig. 8.

use crate::suite::{suite, Benchmark};

/// Pairing category (Fig. 6's three sub-plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairCategory {
    /// A compute benchmark paired with a cache-sensitive benchmark.
    ComputeCache,
    /// A compute benchmark paired with a memory benchmark.
    ComputeMemory,
    /// Two compute benchmarks.
    ComputeCompute,
}

impl std::fmt::Display for PairCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ComputeCache => write!(f, "Compute + Cache"),
            Self::ComputeMemory => write!(f, "Compute + Memory"),
            Self::ComputeCompute => write!(f, "Compute + Compute"),
        }
    }
}

/// A two-kernel multiprogrammed workload.
#[derive(Debug, Clone)]
pub struct Pair {
    /// First kernel (listed first in Table III).
    pub a: Benchmark,
    /// Second kernel.
    pub b: Benchmark,
    /// Fig. 6 category.
    pub category: PairCategory,
}

impl Pair {
    /// `"DXT_MVP"`-style label used throughout the paper's figures.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}_{}", self.a.abbrev, self.b.abbrev)
    }
}

const COMPUTE: [&str; 4] = ["DXT", "HOT", "IMG", "MM"];
const MEMORY: [&str; 4] = ["BFS", "BLK", "KNN", "LBM"];
const CACHE: [&str; 2] = ["MVP", "NN"];
const COMPUTE_COMPUTE: [(&str, &str); 6] = [
    ("DXT", "IMG"),
    ("HOT", "DXT"),
    ("HOT", "IMG"),
    ("MM", "DXT"),
    ("MM", "HOT"),
    ("MM", "IMG"),
];

/// A copy of the `abbrev` member of an already-built `suite`.
fn member(suite: &[Benchmark], abbrev: &str) -> Benchmark {
    suite
        .iter()
        .find(|b| b.abbrev == abbrev)
        .cloned()
        // Invariant: abbreviations come from the static tables in this
        // module, all of which name suite members. xtask-allow: no-unwrap
        .expect("known benchmark")
}

fn pair(suite: &[Benchmark], a: &str, b: &str, category: PairCategory) -> Pair {
    Pair {
        a: member(suite, a),
        b: member(suite, b),
        category,
    }
}

/// Every `firsts x seconds` pair, firsts outermost.
fn cross(
    suite: &[Benchmark],
    firsts: &[&str],
    seconds: &[&str],
    category: PairCategory,
) -> Vec<Pair> {
    firsts
        .iter()
        .flat_map(|a| seconds.iter().map(move |b| pair(suite, a, b, category)))
        .collect()
}

fn compute_cache_in(suite: &[Benchmark]) -> Vec<Pair> {
    cross(suite, &COMPUTE, &CACHE, PairCategory::ComputeCache)
}

fn compute_memory_in(suite: &[Benchmark]) -> Vec<Pair> {
    cross(suite, &COMPUTE, &MEMORY, PairCategory::ComputeMemory)
}

fn compute_compute_in(suite: &[Benchmark]) -> Vec<Pair> {
    COMPUTE_COMPUTE
        .iter()
        .map(|(a, b)| pair(suite, a, b, PairCategory::ComputeCompute))
        .collect()
}

/// The eight Compute + Cache pairs, in Table III order.
#[must_use]
pub fn compute_cache_pairs() -> Vec<Pair> {
    compute_cache_in(&suite())
}

/// The sixteen Compute + Memory pairs, in Table III order.
#[must_use]
pub fn compute_memory_pairs() -> Vec<Pair> {
    compute_memory_in(&suite())
}

/// The six Compute + Compute pairs, in Table III order.
#[must_use]
pub fn compute_compute_pairs() -> Vec<Pair> {
    compute_compute_in(&suite())
}

/// All 30 evaluation pairs of Fig. 6, grouped by category.
#[must_use]
pub fn all_pairs() -> Vec<Pair> {
    let suite = suite();
    let mut v = compute_cache_in(&suite);
    v.extend(compute_memory_in(&suite));
    v.extend(compute_compute_in(&suite));
    v
}

/// A three-kernel multiprogrammed workload (Fig. 8).
#[derive(Debug, Clone)]
pub struct Triple {
    /// The memory or cache benchmark.
    pub a: Benchmark,
    /// First compute benchmark.
    pub b: Benchmark,
    /// Second compute benchmark.
    pub c: Benchmark,
}

impl Triple {
    /// `"BLK_IMG_DXT"`-style label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}_{}_{}", self.a.abbrev, self.b.abbrev, self.c.abbrev)
    }

    /// The three benchmarks in order.
    #[must_use]
    pub fn members(&self) -> [&Benchmark; 3] {
        [&self.a, &self.b, &self.c]
    }
}

/// The 15 three-kernel combinations of Fig. 8: each memory/cache benchmark
/// with each of the compute-compute pairs {IMG+DXT, MM+DXT, MM+IMG}.
///
/// BFS and HOT are excluded, as in the paper, because their CTA geometry is
/// too large to co-locate three kernels.
#[must_use]
pub fn all_triples() -> Vec<Triple> {
    let suite = suite();
    let firsts = ["BLK", "KNN", "LBM", "NN", "MVP"];
    let compute_pairs = [("IMG", "DXT"), ("MM", "DXT"), ("MM", "IMG")];
    firsts
        .iter()
        .flat_map(|a| {
            let suite = &suite;
            compute_pairs.iter().map(move |(b, c)| Triple {
                a: member(suite, a),
                b: member(suite, b),
                c: member(suite, c),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{reference_by_abbrev, WorkloadClass};

    #[test]
    fn thirty_pairs_total() {
        let pairs = all_pairs();
        assert_eq!(pairs.len(), 30);
        assert_eq!(compute_cache_pairs().len(), 8);
        assert_eq!(compute_memory_pairs().len(), 16);
        assert_eq!(compute_compute_pairs().len(), 6);
    }

    #[test]
    fn pair_labels_are_unique() {
        let mut labels: Vec<String> = all_pairs().iter().map(Pair::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 30);
    }

    #[test]
    fn categories_match_member_classes() {
        for p in all_pairs() {
            match p.category {
                PairCategory::ComputeCache => {
                    assert_eq!(p.a.class, WorkloadClass::Compute);
                    assert_eq!(p.b.class, WorkloadClass::Cache);
                }
                PairCategory::ComputeMemory => {
                    assert_eq!(p.a.class, WorkloadClass::Compute);
                    assert_eq!(p.b.class, WorkloadClass::Memory);
                }
                PairCategory::ComputeCompute => {
                    assert_eq!(p.a.class, WorkloadClass::Compute);
                    assert_eq!(p.b.class, WorkloadClass::Compute);
                }
            }
        }
    }

    #[test]
    fn fifteen_triples_excluding_bfs_and_hot() {
        let triples = all_triples();
        assert_eq!(triples.len(), 15);
        for t in &triples {
            for m in t.members() {
                assert_ne!(m.abbrev, "BFS");
                assert_ne!(m.abbrev, "HOT");
            }
            // Two compute kernels plus one memory/cache kernel.
            assert_eq!(t.b.class, WorkloadClass::Compute);
            assert_eq!(t.c.class, WorkloadClass::Compute);
            assert_ne!(t.a.class, WorkloadClass::Compute);
        }
    }

    #[test]
    fn table_iii_compute_compute_order() {
        let labels: Vec<String> = compute_compute_pairs().iter().map(Pair::label).collect();
        assert_eq!(
            labels,
            vec!["DXT_IMG", "HOT_DXT", "HOT_IMG", "MM_DXT", "MM_HOT", "MM_IMG"]
        );
    }

    #[test]
    fn fig8_first_triple_is_blk_img_dxt() {
        assert_eq!(all_triples()[0].label(), "BLK_IMG_DXT");
    }

    fn reference_member(abbrev: &str) -> Benchmark {
        reference_by_abbrev(abbrev).expect("known benchmark")
    }

    fn reference_pair(a: &str, b: &str, category: PairCategory) -> Pair {
        Pair {
            a: reference_member(a),
            b: reference_member(b),
            category,
        }
    }

    fn assert_same_members(label: &str, got: &[&Benchmark], want: &[&Benchmark]) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.abbrev, w.abbrev, "{label}");
            assert_eq!(g.desc, w.desc, "{label}: {}", g.abbrev);
        }
    }

    #[test]
    fn pairs_match_the_per_member_scan() {
        let mut want: Vec<Pair> = COMPUTE
            .iter()
            .flat_map(|c| {
                CACHE
                    .iter()
                    .map(move |k| reference_pair(c, k, PairCategory::ComputeCache))
            })
            .collect();
        want.extend(COMPUTE.iter().flat_map(|c| {
            MEMORY
                .iter()
                .map(move |m| reference_pair(c, m, PairCategory::ComputeMemory))
        }));
        want.extend(
            COMPUTE_COMPUTE
                .iter()
                .map(|(a, b)| reference_pair(a, b, PairCategory::ComputeCompute)),
        );
        let got = all_pairs();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.label(), w.label());
            assert_eq!(g.category, w.category, "{}", g.label());
            assert_same_members(&g.label(), &[&g.a, &g.b], &[&w.a, &w.b]);
        }
    }

    #[test]
    fn triples_match_the_per_member_scan() {
        let mut want = Vec::new();
        for a in ["BLK", "KNN", "LBM", "NN", "MVP"] {
            for (b, c) in [("IMG", "DXT"), ("MM", "DXT"), ("MM", "IMG")] {
                want.push(Triple {
                    a: reference_member(a),
                    b: reference_member(b),
                    c: reference_member(c),
                });
            }
        }
        let got = all_triples();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.label(), w.label());
            assert_same_members(&g.label(), &g.members(), &w.members());
        }
    }
}
