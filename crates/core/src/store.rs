//! ws-store: a persistent, memoized performance-curve cache.
//!
//! Warped-Slicer re-runs the Fig. 4 profiling phase on every kernel
//! co-arrival, but a sharing service sees the same tenant kernels arrive
//! over and over. The store memoizes the *accepted* performance-vs-CTA
//! curve of each kernel under each GPU configuration: the first arrival
//! pays the prediction-pruned sweep and inserts its curve; repeat arrivals
//! hit the store and go straight to Algorithm 1 water-filling, skipping
//! profiling entirely.
//!
//! ## Key derivation
//!
//! A [`CurveKey`] is the pair of two streaming word hashes, each fed
//! field by field as fixed-width little-endian words (`f64` as its bits,
//! integers widened to `u64`, `Option` as a tag word, sequences
//! length-prefixed) and absorbing one whole word per step:
//!
//! * **kernel signature** — over the format-version prefix, the ws-analyze
//!   derived class/archetype tag (the same global-traffic and
//!   dominant-RAW-distance signals the `class-traffic` / `archetype-raw`
//!   consistency rules check) and every field of the [`Features`]
//!   fingerprint, so any change to the kernel's static feature vector
//!   yields a different key;
//! * **GPU-config hash** — over every integer of the [`GpuConfig`], so the
//!   same kernel profiled on a different machine model never aliases.
//!
//! Both bind their fields by exhaustive destructuring, so a new field is a
//! compile error until it is hashed. Keys are derived from static analysis
//! only — no simulated cycle, no string formatting — which is what makes
//! the warm path cheap.
//!
//! ## Invalidation and eviction discipline
//!
//! A [`PhaseMonitor`](crate::phase::PhaseMonitor) trigger means the cached
//! curve no longer describes the kernel's current phase: the controller
//! invalidates exactly the triggered kernel's key, re-profiles, and the new
//! decision replaces the entry. Capacity is bounded; eviction is
//! deterministic LRU-by-insertion-order (the oldest *inserted* entry goes
//! first — re-inserting an existing key refreshes its slot in place without
//! renewing its age), so two runs that perform the same inserts always hold
//! the same entries. Nothing about the store consults wall-clock time or
//! pointer identity.
//!
//! ## Persistence and byte-identity
//!
//! [`CurveStore::to_jsonl`] / [`CurveStore::from_jsonl`] round-trip the
//! store through a versioned JSONL format (`store_meta` header +
//! `store_entry` records) validated by [`crate::tracefmt::validate_jsonl`].
//! Curve points are serialized with Rust's shortest-roundtrip `f64`
//! formatting, which parses back bit-identically — so a warm-hit
//! water-fill decision made from a loaded entry is byte-identical to the
//! cold-path decision made from the freshly measured curve. Under
//! strict-invariants every insert checks that round-trip; non-finite curve
//! points (unrepresentable in JSON) are rejected at insert.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use gpu_sim::{
    DramTiming, GpuConfig, KernelDesc, KernelVerifyError, L1Config, L2Config, MemConfig, SmConfig,
};
use ws_analyze::{extract_features, knee_of, Features, StaticMetrics};

use crate::tracefmt::{self, Json};

/// On-disk format version written to (and required from) the
/// `store_meta` header. It is also hashed into every `kernel_sig`, so a
/// change to the key encoding bumps it and old keys can never alias new
/// ones.
pub const STORE_FORMAT_VERSION: u64 = 3;

/// Default bounded capacity of a [`CurveStore`].
pub const DEFAULT_STORE_CAPACITY: usize = 64;

/// Multiplier of the [`KeyHasher`] word step: any odd constant makes the
/// multiplication a bijection; this one (2^64 over the golden ratio) also
/// spreads every input bit across the high half of the product.
const KEY_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Streaming word hash over fixed-width little-endian words: deterministic,
/// dependency-free, stable across runs and platforms (unlike
/// `DefaultHasher`, whose keys are randomized). Every value goes in as one
/// or more 64-bit words, absorbed one word per step, so no two field
/// sequences share an encoding.
struct KeyHasher(u64);

impl KeyHasher {
    /// Starts from the FNV-1a 64 offset basis.
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one word: `h = (h ^ w) * KEY_MUL; h ^= h >> 32`. All three
    /// operations are bijections on `u64` (xor with a fixed value,
    /// multiplication by an odd constant, an xor-shift), so a fixed state
    /// maps distinct words to distinct states, and every later step maps
    /// distinct states to distinct states: two word sequences of equal
    /// length that differ in exactly one word always hash apart. The shift
    /// folds the product's well-mixed high half into the low bits the next
    /// word's xor lands on.
    fn u64(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(KEY_MUL);
        self.0 = h ^ (h >> 32);
    }

    fn usize(&mut self, v: usize) {
        self.u64(u64::try_from(v).unwrap_or(u64::MAX));
    }

    /// The exact bit pattern, so every distinct float is a distinct word.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A tag word (0 = `None`, 1 = `Some`), then the value.
    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.usize(v);
            }
        }
    }

    /// A length word, then the bytes packed eight to a little-endian
    /// word, the last one zero-padded.
    fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (w, b) in word.iter_mut().zip(chunk) {
                *w = *b;
            }
            self.u64(u64::from_le_bytes(word));
        }
    }
}

/// `kernel_sig`: the format-version prefix, the derived class/archetype
/// tag, and every field of `features`. The destructuring binds each field
/// by name with no `..`, so a field added to [`Features`] or
/// [`StaticMetrics`] fails to compile here instead of silently dropping
/// out of the key.
fn kernel_sig(class: &str, archetype: &str, features: &Features) -> u64 {
    let Features {
        metrics,
        warps_per_cta,
        max_ctas,
        max_ctas_by,
        phi_mem,
        ilp,
        mlp,
        barrier_eff,
        traffic_per_inst,
    } = features;
    let StaticMetrics {
        body_len,
        iterations,
        alu_frac,
        sfu_frac,
        gload_frac,
        gstore_frac,
        shmem_frac,
        barrier_frac,
        lsu_frac,
        global_traffic,
        arithmetic_intensity,
        median_raw_distance,
        dominant_raw_distance,
        raw_histogram,
        first_iter_uninit_reads,
        max_ctas_by: metric_max_ctas_by,
        max_ctas: metric_max_ctas,
    } = metrics;
    let mut h = KeyHasher::new();
    h.bytes(b"ws-store/v");
    h.u64(STORE_FORMAT_VERSION);
    h.bytes(class.as_bytes());
    h.bytes(archetype.as_bytes());
    for v in [body_len, first_iter_uninit_reads] {
        h.usize(*v);
    }
    for v in [iterations, metric_max_ctas, warps_per_cta, max_ctas]
        .into_iter()
        .chain(metric_max_ctas_by)
        .chain(max_ctas_by)
    {
        h.u64(u64::from(*v));
    }
    for v in [
        alu_frac,
        sfu_frac,
        gload_frac,
        gstore_frac,
        shmem_frac,
        barrier_frac,
        lsu_frac,
        global_traffic,
        arithmetic_intensity,
        phi_mem,
        ilp,
        mlp,
        barrier_eff,
        traffic_per_inst,
    ] {
        h.f64(*v);
    }
    h.opt_usize(*median_raw_distance);
    h.opt_usize(*dominant_raw_distance);
    h.usize(raw_histogram.len());
    for &n in raw_histogram {
        h.usize(n);
    }
    h.0
}

/// `gpu_sig`: all 40 integers of `cfg`, bound exhaustively like
/// [`kernel_sig`] so a new config field cannot escape the key.
fn gpu_sig(cfg: &GpuConfig) -> u64 {
    let GpuConfig {
        num_sms,
        core_clock_mhz,
        sm,
        l1,
        l2,
        mem,
    } = cfg;
    let SmConfig {
        max_threads,
        max_registers,
        max_ctas,
        shared_mem_bytes,
        num_schedulers,
        simt_width,
        sfu_width,
        lsu_width,
        alu_latency,
        sfu_latency,
        shmem_latency,
        l1_hit_latency,
        ibuffer_entries,
        fetch_latency,
        icache_miss_penalty,
        fetch_width,
    } = sm;
    let L1Config {
        size_bytes,
        assoc: l1_assoc,
        line_bytes: l1_line_bytes,
        mshr_entries,
        mshr_max_merged,
    } = l1;
    let L2Config {
        size_bytes_per_channel,
        assoc: l2_assoc,
        line_bytes: l2_line_bytes,
        latency,
    } = l2;
    let MemConfig {
        num_channels,
        banks_per_channel,
        row_bytes,
        timing,
        dram_clock_mhz,
        icnt_latency,
        dram_queue_entries,
    } = mem;
    let DramTiming {
        t_cl,
        t_rp,
        t_rc,
        t_ras,
        t_rcd,
        t_rrd,
        t_burst,
    } = timing;
    let mut h = KeyHasher::new();
    for v in [
        num_sms,
        core_clock_mhz,
        max_threads,
        max_registers,
        max_ctas,
        shared_mem_bytes,
        num_schedulers,
        simt_width,
        sfu_width,
        lsu_width,
        alu_latency,
        sfu_latency,
        shmem_latency,
        l1_hit_latency,
        ibuffer_entries,
        fetch_latency,
        icache_miss_penalty,
        fetch_width,
        size_bytes,
        l1_assoc,
        l1_line_bytes,
        mshr_entries,
        mshr_max_merged,
        size_bytes_per_channel,
        l2_assoc,
        l2_line_bytes,
        latency,
        num_channels,
        banks_per_channel,
        row_bytes,
        dram_clock_mhz,
        icnt_latency,
        dram_queue_entries,
        t_cl,
        t_rp,
        t_rc,
        t_ras,
        t_rcd,
        t_rrd,
        t_burst,
    ] {
        h.u64(u64::from(*v));
    }
    h.0
}

/// The ws-analyze-derived (class, archetype) tag for a feature vector,
/// mirroring the signals of the `class-traffic` / `archetype-raw`
/// consistency rules: global traffic separates memory- from compute-class
/// kernels, the dominant RAW dependence distance separates serializing
/// (non-saturating) from ILP-exposing (saturating) compute bodies.
#[must_use]
fn derived_signature(f: &Features) -> (&'static str, &'static str) {
    // Thresholds match ws-analyze's class-traffic rule bounds.
    const MEMORY_MIN_TRAFFIC: f64 = 0.15;
    const COMPUTE_MAX_TRAFFIC: f64 = 0.14;
    let traffic = f.metrics.global_traffic;
    if traffic >= MEMORY_MIN_TRAFFIC {
        ("memory", "memory-saturating")
    } else if traffic <= COMPUTE_MAX_TRAFFIC {
        match f.metrics.dominant_raw_distance {
            Some(d) if d <= 1 => ("compute", "compute-non-saturating"),
            Some(_) => ("compute", "compute-saturating"),
            None => ("compute", "compute-saturating"),
        }
    } else {
        ("mixed", "mixed")
    }
}

/// The store key: (kernel signature, GPU-config hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CurveKey {
    /// Word hash over the format version, the derived class/archetype tag
    /// and every [`Features`] field.
    pub kernel_sig: u64,
    /// Word hash over every [`GpuConfig`] field.
    pub gpu_sig: u64,
}

/// A derived kernel signature: the [`CurveKey`] plus the human-readable
/// class/archetype tag that went into it (kept for `store inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSignature {
    /// The store key.
    pub key: CurveKey,
    /// Derived workload class tag (`memory` / `compute` / `mixed`).
    pub class: &'static str,
    /// Derived scaling-archetype tag.
    pub archetype: &'static str,
}

impl KernelSignature {
    /// Derives the signature for `desc` under `cfg` from static analysis
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns the launch pre-flight's error when feature extraction
    /// rejects the kernel: it has no static features, hence no key.
    pub fn derive(desc: &KernelDesc, cfg: &GpuConfig) -> Result<Self, KernelVerifyError> {
        let features = extract_features(desc, cfg)?;
        Ok(Self::from_features(&features, cfg))
    }

    /// Builds the signature from an already-extracted feature vector.
    #[must_use]
    pub fn from_features(features: &Features, cfg: &GpuConfig) -> Self {
        let (class, archetype) = derived_signature(features);
        Self {
            key: CurveKey {
                kernel_sig: kernel_sig(class, archetype, features),
                gpu_sig: gpu_sig(cfg),
            },
            class,
            archetype,
        }
    }
}

/// One memoized performance curve.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Derived workload class tag at insert time.
    pub class: String,
    /// Derived scaling-archetype tag at insert time.
    pub archetype: String,
    /// `perf[j]` = accepted performance of the kernel with `j + 1` CTAs.
    pub perf: Vec<f64>,
    /// The curve's knee (smallest CTA count within tolerance of the peak).
    pub knee: u32,
}

impl StoreEntry {
    /// Builds an entry from a measured curve, deriving the knee and
    /// carrying the signature's class/archetype tag.
    #[must_use]
    pub fn measured(sig: &KernelSignature, perf: Vec<f64>) -> Self {
        let knee = knee_of(&perf);
        Self {
            class: sig.class.to_string(),
            archetype: sig.archetype.to_string(),
            perf,
            knee,
        }
    }
}

/// Lifetime counters of one [`CurveStore`] (in-memory only; not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Inserts that created a new entry.
    pub insertions: u64,
    /// Inserts that replaced an existing entry in place.
    pub replacements: u64,
    /// Entries removed by [`CurveStore::invalidate`].
    pub invalidations: u64,
    /// Entries removed by capacity eviction.
    pub evictions: u64,
}

/// The bounded, deterministic performance-curve cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveStore {
    capacity: usize,
    /// Key-ordered entries (`BTreeMap` so iteration is deterministic).
    entries: BTreeMap<CurveKey, StoreEntry>,
    /// Keys in insertion order; the front is the eviction candidate.
    order: Vec<CurveKey>,
    stats: StoreStats,
}

impl Default for CurveStore {
    fn default() -> Self {
        Self::new(DEFAULT_STORE_CAPACITY)
    }
}

/// Whether every curve point survives the JSONL round-trip bit-exactly:
/// finite, and shortest-roundtrip formatting parses back to the same bits.
fn roundtrip_exact(perf: &[f64]) -> bool {
    // `f64::from_str` (not `str::parse`) keeps the accounting call graph
    // free of a false edge into the trace parser's identically-named
    // `parse` method.
    use std::str::FromStr;
    perf.iter().all(|&v| {
        v.is_finite() && f64::from_str(&format!("{v}")).is_ok_and(|p| p.to_bits() == v.to_bits())
    })
}

impl CurveStore {
    /// Creates an empty store holding at most `capacity` entries
    /// (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            order: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// The bounded capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Looks up a key, counting the hit or miss.
    pub fn lookup(&mut self, key: &CurveKey) -> Option<&StoreEntry> {
        match self.entries.get(key) {
            Some(e) => {
                self.stats.hits = self.stats.hits.saturating_add(1);
                Some(e)
            }
            None => {
                self.stats.misses = self.stats.misses.saturating_add(1);
                None
            }
        }
    }

    /// Looks up a key without touching the hit/miss counters (diagnostics,
    /// `store inspect`).
    #[must_use]
    pub fn peek(&self, key: &CurveKey) -> Option<&StoreEntry> {
        self.entries.get(key)
    }

    /// Inserts (or replaces) an entry, evicting the oldest-inserted entries
    /// while over capacity. Replacing an existing key refreshes the entry
    /// in place without renewing its insertion age. Returns `false` —
    /// leaving the store untouched — when a curve point would not survive
    /// the JSONL round-trip bit-exactly (non-finite values); under
    /// strict-invariants that is a panic, because caching a curve that
    /// cannot be persisted exactly would break the warm-path byte-identity
    /// contract.
    pub fn insert(&mut self, key: CurveKey, entry: StoreEntry) -> bool {
        let exact = roundtrip_exact(&entry.perf);
        gpu_sim::strict_assert!(
            exact,
            "store entry for {key:?} has curve points that do not round-trip \
             through JSONL bit-exactly"
        );
        if !exact {
            return false;
        }
        if self.entries.insert(key, entry).is_some() {
            self.stats.replacements = self.stats.replacements.saturating_add(1);
        } else {
            self.stats.insertions = self.stats.insertions.saturating_add(1);
            self.order.push(key);
        }
        while self.entries.len() > self.capacity {
            if self.evict_oldest().is_none() {
                break;
            }
        }
        true
    }

    /// Evicts the oldest-inserted entry, returning its key.
    pub fn evict_oldest(&mut self) -> Option<CurveKey> {
        // Insertion-order bookkeeping invariant: `order` and `entries`
        // always hold the same key set.
        gpu_sim::strict_assert!(
            self.order.len() == self.entries.len(),
            "store order/entry bookkeeping diverged"
        );
        if self.order.is_empty() {
            return None;
        }
        let key = self.order.remove(0);
        if self.entries.remove(&key).is_some() {
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            Some(key)
        } else {
            None
        }
    }

    /// Removes exactly `key` (a phase-monitor trigger: the cached curve no
    /// longer describes the kernel). Returns whether an entry was removed.
    pub fn invalidate(&mut self, key: &CurveKey) -> bool {
        if self.entries.remove(key).is_none() {
            return false;
        }
        self.order.retain(|k| k != key);
        self.stats.invalidations = self.stats.invalidations.saturating_add(1);
        true
    }

    /// Entries in insertion order (oldest first), the order `to_jsonl`
    /// persists and `from_jsonl` restores.
    pub fn entries_in_insertion_order(&self) -> impl Iterator<Item = (&CurveKey, &StoreEntry)> {
        self.order
            .iter()
            .filter_map(|k| self.entries.get(k).map(|e| (k, e)))
    }

    /// Serializes the store as versioned JSONL: one `store_meta` header
    /// followed by one `store_entry` record per entry in insertion order.
    /// The output is schema-valid under
    /// [`crate::tracefmt::validate_jsonl`].
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"store_meta\",\"version\":{STORE_FORMAT_VERSION},\
             \"capacity\":{},\"entries\":{}}}\n",
            self.capacity,
            self.entries.len(),
        ));
        for (key, e) in self.entries_in_insertion_order() {
            let perf: Vec<String> = e.perf.iter().map(|v| format!("{v}")).collect();
            out.push_str(&format!(
                "{{\"type\":\"store_entry\",\"kernel_sig\":\"{:016x}\",\
                 \"gpu_sig\":\"{:016x}\",\"class\":\"{}\",\"archetype\":\"{}\",\
                 \"perf\":[{}],\"knee\":{}}}\n",
                key.kernel_sig,
                key.gpu_sig,
                tracefmt::esc(&e.class),
                tracefmt::esc(&e.archetype),
                perf.join(","),
                e.knee,
            ));
        }
        out
    }

    /// Loads a store from its JSONL serialization, restoring entries in
    /// file order (which is insertion order, so eviction behavior survives
    /// the round-trip).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending line: syntax errors,
    /// a missing or wrong-version `store_meta` header, or malformed
    /// entries.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let Some((idx, header)) = lines.next() else {
            return Err("empty store file (missing store_meta header)".to_string());
        };
        let meta = tracefmt::parse_line(header).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if meta.get("type").and_then(Json::as_str) != Some("store_meta") {
            return Err(format!("line {}: first record must be store_meta", idx + 1));
        }
        let version = meta
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: store_meta.version missing", idx + 1))?;
        if version != STORE_FORMAT_VERSION {
            return Err(format!(
                "unsupported store format version {version} (expected {STORE_FORMAT_VERSION})"
            ));
        }
        let capacity = meta
            .get("capacity")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: store_meta.capacity missing", idx + 1))?;
        let mut store = Self::new(usize::try_from(capacity).unwrap_or(usize::MAX));
        for (idx, line) in lines {
            let line_no = idx + 1;
            let v = tracefmt::parse_line(line).map_err(|e| format!("line {line_no}: {e}"))?;
            if v.get("type").and_then(Json::as_str) != Some("store_entry") {
                return Err(format!("line {line_no}: expected a store_entry record"));
            }
            let sig = |field: &str| -> Result<u64, String> {
                let s = v
                    .get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {line_no}: {field} missing"))?;
                u64::from_str_radix(s, 16)
                    .map_err(|_| format!("line {line_no}: {field} is not a hex hash"))
            };
            let key = CurveKey {
                kernel_sig: sig("kernel_sig")?,
                gpu_sig: sig("gpu_sig")?,
            };
            let text_field = |field: &str| -> Result<String, String> {
                v.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {line_no}: {field} missing"))
            };
            let perf: Vec<f64> = v
                .get("perf")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("line {line_no}: perf missing"))?
                .iter()
                .map(|j| {
                    j.as_f64()
                        .ok_or_else(|| format!("line {line_no}: non-numeric perf point"))
                })
                .collect::<Result<_, _>>()?;
            let knee = v
                .get("knee")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {line_no}: knee missing"))?;
            let entry = StoreEntry {
                class: text_field("class")?,
                archetype: text_field("archetype")?,
                perf,
                knee: u32::try_from(knee).unwrap_or(u32::MAX),
            };
            if !store.insert(key, entry) {
                return Err(format!(
                    "line {line_no}: curve points do not round-trip bit-exactly"
                ));
            }
        }
        // Loading is bookkeeping, not cache traffic: the inserts above must
        // not pollute the lifetime counters.
        store.stats = StoreStats::default();
        Ok(store)
    }
}

/// A cloneable handle to one shared [`CurveStore`], attachable to
/// [`WarpedSlicerConfig`](crate::policy::WarpedSlicerConfig). Equality is
/// handle identity (two clones of one handle are equal; two stores with
/// identical contents are not), matching the policy-config semantics of
/// "these controllers share one store".
#[derive(Debug, Clone)]
pub struct SharedCurveStore(Arc<Mutex<CurveStore>>);

impl PartialEq for SharedCurveStore {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for SharedCurveStore {
    fn default() -> Self {
        Self::new(CurveStore::default())
    }
}

impl SharedCurveStore {
    /// Wraps a store in a shareable handle.
    #[must_use]
    pub fn new(store: CurveStore) -> Self {
        Self(Arc::new(Mutex::new(store)))
    }

    /// Creates a handle to an empty store with the given capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(CurveStore::new(capacity))
    }

    /// Runs `f` with exclusive access to the store. A poisoned lock (a
    /// panicked co-user) is recovered: the store's state is plain data and
    /// every mutation leaves it consistent.
    pub fn with<R>(&self, f: impl FnOnce(&mut CurveStore) -> R) -> R {
        match self.0.lock() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use ws_workloads::by_abbrev;

    fn key(n: u64) -> CurveKey {
        CurveKey {
            kernel_sig: n,
            gpu_sig: 7,
        }
    }

    fn entry(v: f64) -> StoreEntry {
        StoreEntry {
            class: "compute".to_string(),
            archetype: "compute-saturating".to_string(),
            perf: vec![v, v * 2.0, v * 3.0],
            knee: 3,
        }
    }

    #[test]
    fn key_hasher_is_stable() {
        // Pinned reference values: the FNV-1a 64 offset basis as the empty
        // state, and one word step worked out by hand from the formula.
        let mut h = KeyHasher::new();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.u64(1);
        assert_eq!(h.0, 0x5a84_1910_3ebe_48e4);
    }

    #[test]
    fn byte_strings_pack_eight_to_a_word() {
        let hash = |f: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::new();
            f(&mut h);
            h.0
        };
        assert_eq!(
            hash(&|h| h.bytes(b"ws-store/v")),
            hash(&|h| {
                h.u64(10);
                h.u64(u64::from_le_bytes(*b"ws-store"));
                h.u64(u64::from_le_bytes(*b"/v\0\0\0\0\0\0"));
            })
        );
        assert_eq!(hash(&|h| h.bytes(b"")), hash(&|h| h.u64(0)));
    }

    #[test]
    fn encoder_words_are_unambiguous() {
        let hash = |f: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::new();
            f(&mut h);
            h.0
        };
        // A length prefix keeps adjacent strings from sliding into each
        // other; a tag word keeps `None` apart from `Some(0)`.
        assert_ne!(
            hash(&|h| {
                h.bytes(b"ab");
                h.bytes(b"c");
            }),
            hash(&|h| {
                h.bytes(b"a");
                h.bytes(b"bc");
            })
        );
        assert_ne!(
            hash(&|h| h.opt_usize(None)),
            hash(&|h| h.opt_usize(Some(0)))
        );
        assert_ne!(hash(&|h| h.f64(0.0)), hash(&|h| h.f64(-0.0)));
        assert_eq!(hash(&|h| h.usize(7)), hash(&|h| h.u64(7)));
    }

    #[test]
    fn derive_is_deterministic_and_config_sensitive() {
        let cfg = GpuConfig::isca_baseline();
        let desc = &by_abbrev("IMG").unwrap().desc;
        let a = KernelSignature::derive(desc, &cfg).expect("IMG passes pre-flight");
        let b = KernelSignature::derive(desc, &cfg).expect("second derivation");
        assert_eq!(a, b, "same kernel + config -> same key");
        let large = KernelSignature::derive(desc, &GpuConfig::large()).expect("large config");
        assert_ne!(a.key.gpu_sig, large.key.gpu_sig, "config hash differs");
        let other = KernelSignature::derive(&by_abbrev("NN").unwrap().desc, &cfg).expect("NN");
        assert_ne!(a.key.kernel_sig, other.key.kernel_sig, "kernels differ");
    }

    #[test]
    fn derive_reports_why_a_kernel_has_no_key() {
        let mut desc = by_abbrev("IMG").unwrap().desc;
        desc.threads_per_cta = 0;
        let err = KernelSignature::derive(&desc, &GpuConfig::isca_baseline())
            .expect_err("a zero-thread kernel fails pre-flight");
        assert_eq!(err.rule(), "zero-threads");
    }

    #[test]
    fn signature_tags_follow_the_consistency_rule_signals() {
        let cfg = GpuConfig::isca_baseline();
        for b in ws_workloads::suite() {
            let sig = KernelSignature::derive(&b.desc, &cfg).expect("suite passes pre-flight");
            assert!(
                ["memory", "compute", "mixed"].contains(&sig.class),
                "{}",
                sig.class
            );
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut s = CurveStore::new(4);
        assert!(s.lookup(&key(1)).is_none());
        assert!(s.insert(key(1), entry(1.0)));
        assert!(s.lookup(&key(1)).is_some());
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.insertions), (1, 1, 1));
    }

    #[test]
    fn eviction_is_oldest_insertion_first_and_replacement_keeps_age() {
        let mut s = CurveStore::new(2);
        s.insert(key(1), entry(1.0));
        s.insert(key(2), entry(2.0));
        // Replacing key 1 must not renew its age.
        s.insert(key(1), entry(9.0));
        s.insert(key(3), entry(3.0));
        assert_eq!(s.len(), 2);
        assert!(s.peek(&key(1)).is_none(), "oldest-inserted evicted");
        assert!(s.peek(&key(2)).is_some());
        assert!(s.peek(&key(3)).is_some());
        let st = s.stats();
        assert_eq!((st.evictions, st.replacements), (1, 1));
    }

    #[test]
    fn invalidate_removes_exactly_the_key() {
        let mut s = CurveStore::new(4);
        s.insert(key(1), entry(1.0));
        s.insert(key(2), entry(2.0));
        assert!(s.invalidate(&key(1)));
        assert!(!s.invalidate(&key(1)), "already gone");
        assert!(s.peek(&key(1)).is_none());
        assert!(s.peek(&key(2)).is_some(), "other keys untouched");
        assert_eq!(s.stats().invalidations, 1);
    }

    #[test]
    fn jsonl_round_trip_is_exact_and_schema_valid() {
        let mut s = CurveStore::new(8);
        s.insert(key(0xdead_beef), entry(0.1));
        s.insert(
            key(2),
            StoreEntry {
                class: "memory".to_string(),
                archetype: "memory-saturating".to_string(),
                perf: vec![1.0 / 3.0, 2.0 / 7.0, f64::MIN_POSITIVE],
                knee: 1,
            },
        );
        let text = s.to_jsonl();
        crate::tracefmt::validate_jsonl(&text).expect("schema-valid store file");
        let loaded = CurveStore::from_jsonl(&text).expect("loads");
        assert_eq!(loaded.capacity(), 8);
        assert_eq!(loaded.len(), 2);
        for (k, e) in s.entries_in_insertion_order() {
            let l = loaded.peek(k).expect("entry survives");
            assert_eq!(l.class, e.class);
            assert_eq!(l.knee, e.knee);
            let bits: Vec<u64> = e.perf.iter().map(|v| v.to_bits()).collect();
            let lbits: Vec<u64> = l.perf.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, lbits, "curve bits survive the round-trip");
        }
        // Insertion order (eviction order) also survives.
        let orig: Vec<CurveKey> = s.entries_in_insertion_order().map(|(k, _)| *k).collect();
        let got: Vec<CurveKey> = loaded
            .entries_in_insertion_order()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(orig, got);
    }

    #[test]
    fn malformed_store_files_are_rejected() {
        assert!(CurveStore::from_jsonl("").is_err(), "empty");
        assert!(
            CurveStore::from_jsonl("{\"type\":\"store_entry\"}").is_err(),
            "missing header"
        );
        let wrong_version = "{\"type\":\"store_meta\",\"version\":99,\"capacity\":4,\"entries\":0}";
        assert!(CurveStore::from_jsonl(wrong_version)
            .unwrap_err()
            .contains("version"));
        let bad_entry = format!(
            "{{\"type\":\"store_meta\",\"version\":{STORE_FORMAT_VERSION},\"capacity\":4,\
             \"entries\":1}}\n\
             {{\"type\":\"store_entry\",\"kernel_sig\":\"zz\",\"gpu_sig\":\"0\",\
             \"class\":\"c\",\"archetype\":\"a\",\"perf\":[1.0],\"knee\":1}}"
        );
        assert!(CurveStore::from_jsonl(&bad_entry)
            .unwrap_err()
            .contains("hex"));
    }

    #[test]
    fn non_finite_curves_are_rejected_at_insert() {
        let mut s = CurveStore::new(4);
        let mut e = entry(1.0);
        e.perf.push(f64::NAN);
        // Strict builds panic; release builds refuse the entry and leave
        // the store untouched.
        if let Some(inserted) = crate::strict::violation("round-trip", || s.insert(key(1), e)) {
            assert!(!inserted);
            assert!(s.is_empty());
            assert_eq!(s.stats(), StoreStats::default());
        }
    }

    #[test]
    fn shared_handle_equality_is_identity() {
        let a = SharedCurveStore::with_capacity(4);
        let b = a.clone();
        let c = SharedCurveStore::with_capacity(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.with(|s| {
            s.insert(key(1), entry(1.0));
        });
        assert_eq!(b.with(|s| s.len()), 1, "clones share one store");
    }
}
