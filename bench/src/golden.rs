//! Golden digests of the program's outputs at the benchmark's standard
//! budgets and default seed, kept in `bench/golden/` and compiled in.
//!
//! A golden file holds one `<key> <digest>` line per output, where the
//! digest is the FNV-1a 64-bit hash of the output's text. `bless`
//! regenerates the files from the current code.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a 64-bit hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest string of `text`.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// One golden file.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    digests: BTreeMap<String, String>,
}

impl Golden {
    fn parse(text: &str) -> Self {
        let digests = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (k, d) = l.split_once(' ')?;
                Some((k.to_string(), d.trim().to_string()))
            })
            .collect();
        Self { digests }
    }

    /// Whether `text` is the golden output for `key` (an unknown key fails).
    pub fn matches(&self, key: &str, text: &str) -> bool {
        self.digests.get(key) == Some(&digest(text))
    }
}

/// Rendered artifacts of the `figures` workload.
pub fn figures() -> Golden {
    Golden::parse(include_str!("../golden/figures.txt"))
}

/// `SimOutcome` fingerprints of the `corun_dense` jobs (any seed: the seed
/// only orders the jobs).
pub fn corun_dense() -> Golden {
    Golden::parse(include_str!("../golden/corun_dense.txt"))
}

/// `SimOutcome` fingerprints of the `corun_sparse` jobs (any seed).
pub fn corun_sparse() -> Golden {
    Golden::parse(include_str!("../golden/corun_sparse.txt"))
}

/// Quota vectors of every pair's decision (any seed: a pair's decision does
/// not depend on the arrival order or the store's state).
pub fn decide() -> Golden {
    Golden::parse(include_str!("../golden/decide.txt"))
}

/// Writes a golden file from `(key, output)` pairs.
pub fn write(
    file: &str,
    header: &str,
    outputs: &BTreeMap<String, String>,
) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file);
    let mut text = format!("# {header}\n# Regenerate with: cargo run --release --manifest-path bench/Cargo.toml -- bless\n");
    for (k, out) in outputs {
        text.push_str(&format!("{k} {}\n", digest(out)));
    }
    std::fs::write(&path, text)?;
    Ok(path)
}
