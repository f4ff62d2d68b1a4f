//! The shared memory subsystem: interconnect, banked L2, DRAM channels.
//!
//! The L2 is sliced per memory channel (Table I: 128 KB/channel); a line's
//! channel is a simple modulo hash. Requests from all SMs meet here, which
//! is why even inter-SM *spatial* multitasking still shows L2 contention in
//! the paper (Sec. V-C) — the slices are shared no matter how SMs are
//! partitioned.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::access::LineAddr;
use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::GpuConfig;
use crate::dram::{DramChannel, DramRequest};
use crate::kernel::KernelId;

/// A request from an SM's L1 into the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target line.
    pub line: LineAddr,
    /// Requesting SM.
    pub sm_id: usize,
    /// Kernel the access belongs to (for per-kernel statistics).
    pub kernel: KernelId,
    /// Store traffic needs no response.
    pub is_store: bool,
}

/// A fill returning to an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The filled line.
    pub line: LineAddr,
    /// Destination SM.
    pub sm_id: usize,
}

/// Per-kernel memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMemStats {
    /// L2 probes attributed to the kernel.
    pub l2_accesses: u64,
    /// L2 misses attributed to the kernel.
    pub l2_misses: u64,
    /// DRAM read transactions.
    pub dram_reads: u64,
    /// DRAM write transactions.
    pub dram_writes: u64,
}

/// Aggregate memory-subsystem statistics.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Totals across kernels.
    pub total: KernelMemStats,
    /// Per-kernel-slot breakdown (indexed by `KernelId.0`).
    pub per_kernel: Vec<KernelMemStats>,
    /// DRAM transactions (reads + writes) attributed to each requesting SM.
    pub dram_by_sm: Vec<u64>,
}

impl MemStats {
    /// Pre-sizes the per-kernel and per-SM stat slots so the tick hot loop
    /// can index them directly: kernel ids are dense slot indices, so the
    /// resize-on-demand branch belongs at submission time, not in the
    /// per-cycle L2 loop.
    fn ensure_slots(&mut self, k: KernelId, sm: usize) {
        if self.per_kernel.len() <= k.0 {
            self.per_kernel.resize(k.0 + 1, KernelMemStats::default());
        }
        if self.dram_by_sm.len() <= sm {
            self.dram_by_sm.resize(sm + 1, 0);
        }
    }

    /// Statistics for kernel `k` (zeros if it never accessed memory).
    #[must_use]
    pub fn kernel(&self, k: KernelId) -> KernelMemStats {
        self.per_kernel.get(k.0).copied().unwrap_or_default()
    }

    /// DRAM transactions attributed to SM `sm` (zero if it never missed).
    #[must_use]
    pub fn dram_by_sm(&self, sm: usize) -> u64 {
        self.dram_by_sm.get(sm).copied().unwrap_or(0)
    }
}

/// One channel's load lines in flight to DRAM, as flat arrays sized
/// once: line `lines[i]` is awaited by the `counts[i]` SMs in row `i` of
/// `waiters`, one per merged load, in arrival order.
///
/// Two bounds from the config size it, so a DRAM read miss never
/// allocates:
///
/// * **lines** — a pending line is a read the channel holds between
///   `enqueue` and its data-ready cycle, so there are at most
///   [`DramChannel::max_outstanding`] of them;
/// * **waiters per line** — `num_sms`. An SM sends a load request only
///   when its MSHR allocates an entry for the line, and that entry lives
///   until the fill reaches the SM, after the pending line completes; so
///   while a line is pending each SM waits on it at most once.
///
/// A lookup is a linear scan of `lines`. A completed fill `swap_remove`s
/// its entry (moving the last entry's row into its place), so the
/// entries' order shifts, but nothing iterates them and each line's
/// waiters keep their order.
#[derive(Debug)]
struct PendingFills {
    lines: Vec<LineAddr>,
    counts: Vec<usize>,
    /// Row `i` (`width` wide) holds the SMs waiting on `lines[i]`.
    waiters: Box<[usize]>,
    width: usize,
}

impl PendingFills {
    /// A table for at most `lines` pending lines with `width` waiters each.
    fn new(lines: usize, width: usize) -> Self {
        Self {
            lines: Vec::with_capacity(lines),
            counts: Vec::with_capacity(lines),
            waiters: vec![0; lines.saturating_mul(width)].into_boxed_slice(),
            width,
        }
    }

    /// The entry tracking `line`, if it is in flight.
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Adds SM `sm_id` as the next waiter of entry `i`.
    fn push_waiter(&mut self, i: usize, sm_id: usize) {
        let n = self.counts[i];
        crate::strict_assert!(
            n < self.width,
            "pending fill of line {:#x} already has {n} waiters, one per SM",
            self.lines[i]
        );
        // Indexing the row, not the table: a waiter past the bound panics
        // instead of landing in the next entry's row.
        self.waiters[i * self.width..(i + 1) * self.width][n] = sm_id;
        self.counts[i] = n + 1;
    }

    /// Starts tracking `line`, which must not be in flight yet, with SM
    /// `sm_id` as its first waiter.
    fn track(&mut self, line: LineAddr, sm_id: usize) {
        crate::strict_assert!(
            self.lines.len() < self.lines.capacity(),
            "{} pending fills exceed the channel's {} outstanding reads",
            self.lines.len() + 1,
            self.lines.capacity()
        );
        self.lines.push(line);
        self.counts.push(0);
        self.push_waiter(self.lines.len() - 1, sm_id);
    }

    /// Stops tracking `line` and hands its waiting SMs to `wake` in
    /// arrival order; `false` if the line was not in flight.
    fn complete(&mut self, line: LineAddr, wake: impl FnMut(usize)) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        let width = self.width;
        self.waiters[i * width..i * width + self.counts[i]]
            .iter()
            .copied()
            .for_each(wake);
        let last = self.lines.len() - 1;
        if i != last {
            let moved = last * width..last * width + self.counts[last];
            self.waiters.copy_within(moved, i * width);
        }
        self.lines.swap_remove(i);
        self.counts.swap_remove(i);
        true
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timed<T: Ord> {
    ready: u64,
    payload: T,
}

/// Memory subsystem: one instance shared by all SMs.
#[derive(Debug)]
pub struct MemSubsystem {
    num_channels: usize,
    icnt_latency: u64,
    l2_latency: u64,
    /// Requests in flight on the SM->L2 interconnect.
    ingress: VecDeque<(u64, MemRequest)>,
    /// Per-channel L2 input queues.
    l2_in: Vec<VecDeque<MemRequest>>,
    /// Per-channel L2 slices.
    l2: Vec<SetAssocCache>,
    /// Per-channel DRAM channels.
    dram: Vec<DramChannel>,
    /// Load lines in flight to DRAM, per channel, with the SMs waiting on
    /// each.
    pending_fills: Vec<PendingFills>,
    /// Responses scheduled to arrive at SMs, ordered by ready time.
    responses: BinaryHeap<Reverse<Timed<(LineAddr, usize)>>>,
    /// DRAM completions waiting for their data-ready cycle, per channel.
    dram_done: BinaryHeap<Reverse<Timed<(usize, LineAddr)>>>,
    /// Bit `ch` set while L2 input queue `ch` is non-empty, so the per-tick
    /// slice loop (and the horizon) test one word instead of scanning every
    /// queue. Maintained at enqueue and after each slice services its head.
    l2_pending: u64,
    arrival_clock: u64,
    stats: MemStats,
}

impl MemSubsystem {
    /// Builds the memory subsystem for `cfg`, with every queue the tick
    /// path fills sized up front to the bound the config implies, so the
    /// tick path does not grow them as a fresh GPU warms up:
    ///
    /// * `ingress`: each SM submits at most one request per LSU unit per
    ///   cycle, and a request stays `icnt_latency` cycles;
    /// * `responses`: every load in the memory system holds one SM's MSHR
    ///   entry, so there are at most `num_sms x mshr_entries` loads, and
    ///   as many responses;
    /// * `dram_done` and the pending fills: at most
    ///   [`DramChannel::max_outstanding`] requests per channel;
    /// * `l2_in`: each queue starts with room for every load in the memory
    ///   system. Stores need no MSHR entry, so nothing bounds them, and a
    ///   store burst against a full DRAM queue may still grow it.
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        let n = cfg.mem.num_channels as usize;
        assert!(
            n <= 64,
            "l2_pending bitmask holds at most 64 channels, got {n}"
        );
        let ratio = cfg.core_per_dram_clock();
        let num_sms = cfg.num_sms as usize;
        let in_transit = num_sms
            .saturating_mul(cfg.sm.num_schedulers as usize)
            .saturating_mul(cfg.mem.icnt_latency as usize + 1);
        let loads = num_sms.saturating_mul(cfg.l1.mshr_entries as usize);
        let dram: Vec<DramChannel> = (0..n).map(|_| DramChannel::new(&cfg.mem, ratio)).collect();
        let mut stats = MemStats::default();
        stats.dram_by_sm.reserve(num_sms);
        Self {
            num_channels: n,
            icnt_latency: u64::from(cfg.mem.icnt_latency),
            l2_latency: u64::from(cfg.l2.latency),
            ingress: VecDeque::with_capacity(in_transit),
            l2_in: (0..n).map(|_| VecDeque::with_capacity(loads)).collect(),
            l2: (0..n)
                .map(|_| {
                    SetAssocCache::new(
                        cfg.l2.size_bytes_per_channel,
                        cfg.l2.assoc,
                        cfg.l2.line_bytes,
                    )
                })
                .collect(),
            pending_fills: dram
                .iter()
                .map(|ch| PendingFills::new(ch.max_outstanding(), num_sms))
                .collect(),
            responses: BinaryHeap::with_capacity(loads),
            dram_done: BinaryHeap::with_capacity(
                dram.iter().map(DramChannel::max_outstanding).sum(),
            ),
            dram,
            l2_pending: 0,
            arrival_clock: 0,
            stats,
        }
    }

    /// Reserves the per-kernel statistics slots for `kernels` kernels, so
    /// the tick path indexes them without growing the table.
    pub(crate) fn reserve_kernels(&mut self, kernels: usize) {
        let per_kernel = &mut self.stats.per_kernel;
        per_kernel.reserve(kernels.saturating_sub(per_kernel.len()));
    }

    /// Channel a line maps to.
    #[must_use]
    pub fn channel_of(&self, line: LineAddr) -> usize {
        (line % self.num_channels as u64) as usize
    }

    /// Submits an L1 miss (or store) into the interconnect at cycle `now`.
    pub fn submit(&mut self, now: u64, req: MemRequest) {
        self.stats.ensure_slots(req.kernel, req.sm_id);
        self.ingress.push_back((now + self.icnt_latency, req));
    }

    /// Advances the subsystem one core cycle, appending any fills that
    /// arrive at SMs this cycle to `out`.
    pub fn tick(&mut self, now: u64, out: &mut Vec<MemResponse>) {
        // Interconnect -> L2 input queues.
        while let Some(&(ready, req)) = self.ingress.front() {
            if ready > now {
                break;
            }
            self.ingress.pop_front();
            let ch = self.channel_of(req.line);
            self.l2_in[ch].push_back(req);
            self.l2_pending |= 1u64 << ch;
        }

        // L2 slices: one request per channel per cycle. Ascending bit
        // order equals the old ascending channel scan, so servicing order
        // (and therefore every statistic) is unchanged; channels with an
        // empty input queue are never visited.
        let mut pending = self.l2_pending;
        while pending != 0 {
            let ch = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.l2_slice_tick(ch, now);
            if self.l2_in[ch].is_empty() {
                self.l2_pending &= !(1u64 << ch);
            }
        }

        // DRAM channels. A channel with nothing queued and a free data bus
        // provably does nothing in tick() (no dispatch, no busy-cycle
        // accrual), so skipping it is statistics-preserving.
        for ch in 0..self.num_channels {
            if self.dram[ch].idle_at(now) {
                continue;
            }
            if let Some(done) = self.dram[ch].tick(now) {
                self.dram_done.push(Reverse(Timed {
                    ready: done.ready_at,
                    payload: (ch, done.req.tag),
                }));
            }
        }

        // DRAM completions whose data is ready: fill L2, wake waiters.
        while let Some(&Reverse(Timed { ready, payload })) = self.dram_done.peek() {
            if ready > now {
                break;
            }
            self.dram_done.pop();
            let (ch, line) = payload;
            let ready = now + self.icnt_latency;
            let responses = &mut self.responses;
            if self.pending_fills[ch].complete(line, |sm_id| {
                responses.push(Reverse(Timed {
                    ready,
                    payload: (line, sm_id),
                }));
            }) {
                self.l2[ch].fill(line);
            }
            // Store completions have no waiters and do not allocate.
        }

        // Responses arriving at SMs this cycle.
        while let Some(&Reverse(Timed { ready, payload })) = self.responses.peek() {
            if ready > now {
                break;
            }
            self.responses.pop();
            out.push(MemResponse {
                line: payload.0,
                sm_id: payload.1,
            });
        }
    }

    /// Services at most one request at the head of L2 slice `ch`'s input
    /// queue: merge into an in-flight fill, hit, or miss into DRAM (with
    /// head-of-line back-pressure when the DRAM queue is full).
    fn l2_slice_tick(&mut self, ch: usize, now: u64) {
        let Some(&req) = self.l2_in[ch].front() else {
            return;
        };
        // A load whose line is already being fetched merges without a
        // fresh L2 probe (the in-flight fill will satisfy it).
        if !req.is_store {
            let pending = &mut self.pending_fills[ch];
            if let Some(i) = pending.find(req.line) {
                self.l2_in[ch].pop_front();
                pending.push_waiter(i, req.sm_id);
                return;
            }
        }
        // Stat slots were pre-sized at submit(); index them directly
        // instead of paying a resize-on-demand lookup per probe.
        let k = req.kernel.0;
        let probe = self.l2[ch].access(req.line);
        self.stats.total.l2_accesses += 1;
        self.stats.per_kernel[k].l2_accesses += 1;
        match probe {
            ProbeResult::Hit => {
                self.l2_in[ch].pop_front();
                if !req.is_store {
                    self.responses.push(Reverse(Timed {
                        ready: now + self.l2_latency + self.icnt_latency,
                        payload: (req.line, req.sm_id),
                    }));
                }
            }
            ProbeResult::Miss => {
                self.stats.total.l2_misses += 1;
                self.stats.per_kernel[k].l2_misses += 1;
                if req.is_store {
                    // Write-allocate: repeated stores to a hot line
                    // (e.g. a tile being accumulated) hit the L2
                    // instead of re-missing on every write-through.
                    self.l2[ch].fill(req.line);
                }
                if !self.dram[ch].can_accept() {
                    // Head-of-line stall: retry next cycle. Undo the
                    // probe statistics so the retry is not double
                    // counted.
                    self.stats.total.l2_accesses -= 1;
                    self.stats.total.l2_misses -= 1;
                    self.stats.per_kernel[k].l2_accesses -= 1;
                    self.stats.per_kernel[k].l2_misses -= 1;
                    return;
                }
                self.l2_in[ch].pop_front();
                let stripped = req.line / self.num_channels as u64;
                self.arrival_clock += 1;
                self.dram[ch].enqueue(DramRequest {
                    line: stripped,
                    tag: req.line,
                    arrival: self.arrival_clock,
                });
                if req.is_store {
                    self.stats.per_kernel[k].dram_writes += 1;
                    self.stats.total.dram_writes += 1;
                } else {
                    self.stats.per_kernel[k].dram_reads += 1;
                    self.stats.total.dram_reads += 1;
                    self.pending_fills[ch].track(req.line, req.sm_id);
                }
                self.stats.dram_by_sm[req.sm_id] += 1;
            }
        }
    }

    /// The earliest future cycle `>= from` at which [`Self::tick`] can
    /// change state: the ingress head's arrival, any non-empty L2 input
    /// queue (serviced one request per channel per cycle, forcing "next
    /// cycle"), the earliest DRAM dispatch opportunity, the earliest
    /// data-ready DRAM completion, or the earliest scheduled SM response.
    /// Returns `u64::MAX` when fully quiescent. Pending fills never need
    /// their own entry: their line is always also queued in a DRAM channel
    /// or sitting in `dram_done`.
    #[must_use]
    pub fn next_event(&self, from: u64) -> u64 {
        // The ingress is FIFO with a constant latency and monotone submit
        // times, so the front entry carries the minimum ready stamp.
        let mut best = u64::MAX;
        if let Some(&(ready, _)) = self.ingress.front() {
            best = ready.max(from);
        }
        if self.l2_pending != 0 {
            return from;
        }
        for ch in &self.dram {
            if let Some(at) = ch.next_dispatch(from) {
                best = best.min(at);
            }
        }
        if let Some(&Reverse(Timed { ready, .. })) = self.dram_done.peek() {
            best = best.min(ready.max(from));
        }
        if let Some(&Reverse(Timed { ready, .. })) = self.responses.peek() {
            best = best.min(ready.max(from));
        }
        best
    }

    /// Bulk-replays per-cycle accounting over the dead span `[from, to)`
    /// that a fast-forward skipped. Only DRAM bus-occupancy counters tick
    /// during a dead span; every queue is provably idle until `to` because
    /// [`Self::next_event`] returned a cycle `>= to`.
    pub fn account_skip(&mut self, from: u64, to: u64) {
        for ch in &mut self.dram {
            ch.account_skip(from, to);
        }
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Total DRAM data transactions (reads + writes) serviced.
    #[must_use]
    pub fn dram_serviced(&self) -> u64 {
        self.dram.iter().map(DramChannel::serviced).sum()
    }

    /// Total DRAM data-bus busy cycles across channels.
    #[must_use]
    pub fn dram_busy_cycles(&self) -> u64 {
        self.dram.iter().map(DramChannel::busy_cycles).sum()
    }

    /// Number of DRAM channels.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Fraction of cycles the DRAM data buses were busy, given `cycles`
    /// elapsed.
    #[must_use]
    pub fn dram_busy_fraction(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let busy: u64 = self.dram.iter().map(DramChannel::busy_cycles).sum();
        busy as f64 / (cycles * self.dram.len() as u64) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemSubsystem {
        /// Whether any request is still in flight anywhere in the subsystem.
        fn is_quiescent(&self) -> bool {
            self.ingress.is_empty()
                && self.l2_in.iter().all(VecDeque::is_empty)
                && self.pending_fills.iter().all(|p| p.lines.is_empty())
                && self.responses.is_empty()
                && self.dram_done.is_empty()
                && self.dram.iter().all(|d| d.queue_len() == 0)
        }
    }

    fn mem() -> MemSubsystem {
        MemSubsystem::new(&GpuConfig::isca_baseline())
    }

    fn load(line: LineAddr, sm: usize) -> MemRequest {
        MemRequest {
            line,
            sm_id: sm,
            kernel: KernelId(0),
            is_store: false,
        }
    }

    fn run_until_response(
        m: &mut MemSubsystem,
        start: u64,
        budget: u64,
    ) -> Option<(u64, Vec<MemResponse>)> {
        let mut out = Vec::new();
        for now in start..start + budget {
            m.tick(now, &mut out);
            if !out.is_empty() {
                return Some((now, out));
            }
        }
        None
    }

    #[test]
    fn cold_load_round_trips_through_dram() {
        let mut m = mem();
        m.submit(0, load(100, 3));
        let (cycle, out) = run_until_response(&mut m, 0, 2000).expect("response");
        assert_eq!(
            out,
            vec![MemResponse {
                line: 100,
                sm_id: 3
            }]
        );
        // Must include icnt + dram + icnt at minimum.
        assert!(cycle > 2 * 8, "latency too small: {cycle}");
        assert_eq!(m.stats().total.l2_misses, 1);
        assert_eq!(m.stats().total.dram_reads, 1);
        assert!(m.is_quiescent());
    }

    #[test]
    fn second_load_hits_l2() {
        let mut m = mem();
        m.submit(0, load(100, 0));
        let (t1, _) = run_until_response(&mut m, 0, 2000).unwrap();
        m.submit(t1 + 1, load(100, 1));
        let (t2, out) = run_until_response(&mut m, t1 + 1, 2000).unwrap();
        assert_eq!(out[0].sm_id, 1);
        let lat1 = t1;
        let lat2 = t2 - (t1 + 1);
        assert!(lat2 < lat1, "L2 hit ({lat2}) should beat DRAM ({lat1})");
        assert_eq!(m.stats().total.l2_misses, 1);
        assert_eq!(m.stats().total.dram_reads, 1);
    }

    #[test]
    fn concurrent_loads_to_same_line_merge() {
        let mut m = mem();
        m.submit(0, load(100, 0));
        m.submit(0, load(100, 1));
        let mut out = Vec::new();
        for now in 0..2000 {
            m.tick(now, &mut out);
        }
        assert_eq!(out.len(), 2, "both SMs must receive fills");
        assert_eq!(m.stats().total.dram_reads, 1, "one DRAM read only");
    }

    #[test]
    fn stores_produce_no_response() {
        let mut m = mem();
        m.submit(
            0,
            MemRequest {
                line: 5,
                sm_id: 0,
                kernel: KernelId(1),
                is_store: true,
            },
        );
        let mut out = Vec::new();
        for now in 0..2000 {
            m.tick(now, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(m.stats().kernel(KernelId(1)).dram_writes, 1);
        assert!(m.is_quiescent());
    }

    #[test]
    fn per_kernel_stats_are_attributed() {
        let mut m = mem();
        m.submit(0, load(7, 0));
        m.submit(
            0,
            MemRequest {
                line: 13,
                sm_id: 0,
                kernel: KernelId(2),
                is_store: false,
            },
        );
        let mut out = Vec::new();
        for now in 0..2000 {
            m.tick(now, &mut out);
        }
        assert_eq!(m.stats().kernel(KernelId(0)).l2_accesses, 1);
        assert_eq!(m.stats().kernel(KernelId(2)).l2_accesses, 1);
        assert_eq!(m.stats().kernel(KernelId(5)), KernelMemStats::default());
    }

    #[test]
    fn lines_spread_across_channels() {
        let m = mem();
        let channels: std::collections::HashSet<_> = (0u64..6).map(|l| m.channel_of(l)).collect();
        assert_eq!(channels.len(), 6);
    }

    #[test]
    fn bandwidth_saturates_under_streaming() {
        let mut m = mem();
        // Saturate: submit far more distinct lines than the channels can
        // service in the window.
        let mut out = Vec::new();
        let mut line = 0u64;
        for now in 0..3000 {
            if now % 2 == 0 {
                for _ in 0..4 {
                    m.submit(now, load(line * 997, 0));
                    line += 1;
                }
            }
            m.tick(now, &mut out);
        }
        let frac = m.dram_busy_fraction(3000);
        assert!(frac > 0.5, "DRAM should be mostly busy, got {frac}");
    }
}
