//! The streaming multiprocessor: CTA residency, dual warp schedulers,
//! functional units, LSU, L1/MSHR front end, and stall accounting.

use std::collections::BTreeMap;

use crate::access::LineAddr;
use crate::alloc::{CtaResources, PartitionWindow, SmResources};
use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::GpuConfig;
use crate::kernel::{KernelDesc, KernelId};
use crate::mem::{MemRequest, MemSubsystem};
use crate::mshr::{MshrOutcome, MshrTable, MshrWaiter};
use crate::program::OpClass;
use crate::scheduler::{SchedulerKind, SchedulerState};
use crate::stats::{SmStats, StallReason};
use crate::warp::{IssueClasses, Warp, WarpTable};

/// A CTA resident on an SM.
#[derive(Debug, Clone)]
pub struct CtaRecord {
    /// Owning kernel.
    pub kernel: KernelId,
    /// Global CTA index within the kernel's grid.
    pub cta_index: u64,
    resources: CtaResources,
    warp_slots: Vec<usize>,
    warps_done: u32,
}

/// Notification that a CTA ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaCompletion {
    /// Kernel the CTA belonged to.
    pub kernel: KernelId,
    /// Its global CTA index.
    pub cta_index: u64,
}

#[derive(Debug)]
enum LsuKind {
    GlobalLoad { load_id: u32 },
    GlobalStore,
    Shared,
}

#[derive(Debug)]
struct LsuOp {
    warp_slot: usize,
    warp_gen: u32,
    kernel: KernelId,
    kind: LsuKind,
    /// The op's lines are `next..end` of its unit's row in
    /// [`Sm::lsu_lines`]; `next` advances as each line is processed.
    next: usize,
    end: usize,
    cycles_left: u32,
}

/// Width of one row of [`Sm::lsu_lines`]: the most lines one warp access
/// generates.
const WARP_LINES: usize = crate::config::SmConfig::WARP_SIZE as usize;

#[derive(Debug, Default)]
struct UnitSet {
    alu_busy_until: u64,
    sfu_busy_until: u64,
    lsu: Option<LsuOp>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// This SM's index within the GPU.
    pub id: usize,
    cfg: GpuConfig,
    /// Storage resources (registers, shared memory, threads, CTA slots).
    pub resources: SmResources,
    l1: SetAssocCache,
    mshr: MshrTable,
    warps: Vec<Option<Warp>>,
    warp_gens: Vec<u32>,
    ctas: Vec<Option<CtaRecord>>,
    schedulers: Vec<SchedulerState>,
    units: Vec<UnitSet>,
    launch_counter: u64,
    /// Per-kernel-slot spatial partition windows. Kept in a `BTreeMap` (not
    /// a hash map) so any future iteration is slot-ordered: byte-identical
    /// results at any worker count is a workspace-wide contract
    /// (`determinism` lint, DESIGN.md §11).
    windows: BTreeMap<usize, PartitionWindow>,
    /// Per-kernel-slot (CTA count, thread count) residency.
    residency: Vec<(u32, u32)>,
    stats: SmStats,
    completions: Vec<CtaCompletion>,
    line_buf: Vec<LineAddr>,
    /// The lines of the in-flight LSU ops, one [`SmConfig::WARP_SIZE`]-wide
    /// row per scheduler unit: a unit holds at most one LSU op, and one
    /// warp access generates at most a warp's worth of transactions
    /// (`AccessPattern::transactions` clamps to it). Sized once by
    /// [`Sm::new`], so issuing a memory op never allocates on the tick path
    /// (`no-tick-alloc`).
    lsu_lines: Box<[LineAddr]>,
    finished_buf: Vec<usize>,
    waiter_buf: Vec<MshrWaiter>,
    /// Initiation intervals of the ALU, SFU and LSU pipelines: the cycles
    /// one warp instruction occupies the unit (`WARP_SIZE / width`).
    /// Fixed by the configuration, so [`Sm::new`] divides once.
    alu_ii: u64,
    sfu_ii: u64,
    lsu_ii: u32,
    fetch_ptr: usize,
    /// Cycle stamp of the most recent `tick`, for the strict monotonicity
    /// check (`None` before the first tick).
    last_tick: Option<u64>,
    /// Struct-of-arrays mirror of per-warp scheduler-visible state:
    /// residency/finished/barrier/i-buffer/mem-pending bitmasks plus the
    /// head instruction's readiness stamp and op class. Written whenever a
    /// warp mutates, by the writer scoped to the event (`refresh_warp` at
    /// issue; fetch, fill and barrier writers elsewhere), and its wakeup
    /// calendars advanced at the start of every tick, `next_event` and
    /// `account_skip`, so the fetch/issue/horizon hot paths intersect masks
    /// instead of chasing `Option<Warp>` pointers.
    table: WarpTable,
    /// Per-scheduler ownership masks (slot `s` belongs to scheduler
    /// `s % num_schedulers`); precomputed at construction.
    sched_masks: Vec<u64>,
    /// Fetch micro-horizon: no warp can fetch before this cycle, so the
    /// fetch stage skips its slot walk entirely. 0 means unknown/dirty.
    fetch_idle_until: u64,
    /// Bit `i` set while scheduler `i`'s LSU pipeline holds an op, so the
    /// LSU stage (and horizon) can skip the unit walk when idle.
    lsu_busy_mask: u64,
    /// Cached event horizon; valid while `horizon_valid` and no state
    /// change (fetch/issue/LSU work, fill, launch, eviction) occurred.
    horizon: u64,
    horizon_valid: bool,
    /// The live mask last counted into the occupancy accumulator and its
    /// popcount, so a cycle whose mask did not change adds the count kept.
    live_seen: u64,
    live_count: u32,
}

impl Sm {
    /// Creates SM `id` under configuration `cfg` with the given warp
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics ("invalid functional-unit width") if the SIMT, SFU or LSU
    /// width is zero or above [`SmConfig::WARP_SIZE`]: a zero width has no
    /// initiation interval, and a wider unit would take a warp instruction
    /// in zero cycles and never be busy.
    ///
    /// [`SmConfig::WARP_SIZE`]: crate::config::SmConfig::WARP_SIZE
    #[must_use]
    pub fn new(id: usize, cfg: &GpuConfig, scheduler: SchedulerKind) -> Self {
        let warp_size = crate::config::SmConfig::WARP_SIZE;
        let ii = |unit: &str, width: u32| {
            assert!(
                (1..=warp_size).contains(&width),
                "invalid functional-unit width: {unit} width {width} is not in 1..={warp_size}"
            );
            warp_size / width
        };
        let alu_ii = u64::from(ii("SIMT", cfg.sm.simt_width));
        let sfu_ii = u64::from(ii("SFU", cfg.sm.sfu_width));
        let lsu_ii = ii("LSU", cfg.sm.lsu_width);
        let max_warps = cfg.sm.max_warps() as usize;
        let num_sched = cfg.sm.num_schedulers as usize;
        let schedulers: Vec<SchedulerState> = (0..num_sched)
            .map(|s| SchedulerState::new(scheduler, s, num_sched, max_warps))
            .collect();
        let sched_masks = schedulers.iter().map(|s| s.owned_mask(max_warps)).collect();
        Self {
            id,
            cfg: cfg.clone(),
            resources: SmResources::new(&cfg.sm),
            l1: SetAssocCache::new(cfg.l1.size_bytes, cfg.l1.assoc, cfg.l1.line_bytes),
            mshr: MshrTable::new(cfg.l1.mshr_entries, cfg.l1.mshr_max_merged),
            warps: (0..max_warps).map(|_| None).collect(),
            warp_gens: vec![0; max_warps],
            ctas: (0..cfg.sm.max_ctas as usize).map(|_| None).collect(),
            schedulers,
            units: (0..num_sched).map(|_| UnitSet::default()).collect(),
            launch_counter: 0,
            windows: BTreeMap::new(),
            residency: Vec::new(),
            stats: SmStats::default(),
            // At most every CTA slot retires in one cycle.
            completions: Vec::with_capacity(cfg.sm.max_ctas as usize),
            line_buf: Vec::with_capacity(WARP_LINES),
            lsu_lines: vec![0; num_sched * WARP_LINES].into_boxed_slice(),
            finished_buf: Vec::with_capacity(8),
            // One fill hands back at most the MSHR's merge bound.
            waiter_buf: Vec::with_capacity(cfg.l1.mshr_max_merged.max(1) as usize),
            alu_ii,
            sfu_ii,
            lsu_ii,
            fetch_ptr: 0,
            last_tick: None,
            table: WarpTable::new(max_warps),
            sched_masks,
            fetch_idle_until: 0,
            lsu_busy_mask: 0,
            horizon: 0,
            horizon_valid: false,
            live_seen: 0,
            live_count: 0,
        }
    }

    /// Reserves this SM's per-kernel statistics slots for `kernels`
    /// kernels, so the tick path does not grow the table.
    pub(crate) fn reserve_kernels(&mut self, kernels: usize) {
        let per_kernel = &mut self.stats.per_kernel;
        per_kernel.reserve(kernels.saturating_sub(per_kernel.len()));
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// Read-only view of warp slot `slot` (tests and oracles).
    #[must_use]
    pub fn warp(&self, slot: usize) -> Option<&Warp> {
        self.warps.get(slot).and_then(Option::as_ref)
    }

    /// The derived struct-of-arrays scoreboard (read-only view).
    #[must_use]
    pub fn scoreboard(&self) -> &WarpTable {
        &self.table
    }

    /// Number of warp slots on this SM.
    #[must_use]
    pub fn warp_slot_count(&self) -> usize {
        self.warps.len()
    }

    /// Re-derives the scoreboard from the warps and panics on any
    /// divergence from the incrementally maintained bitmasks.
    pub fn check_scoreboard(&self) {
        self.table.assert_matches(&self.warps);
    }

    /// Re-derives slot `slot`'s whole scoreboard entry from its warp after
    /// an issue. Other events call the table's writer scoped to them.
    fn refresh_warp(&mut self, slot: usize) {
        if let Some(w) = self.warps[slot].as_ref() {
            self.table.refresh(slot, w);
        }
        self.fetch_idle_until = 0;
    }

    /// The L1 data cache (read-only view for statistics).
    #[must_use]
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// CTAs of kernel-slot `slot` currently resident.
    #[must_use]
    pub fn kernel_ctas(&self, slot: usize) -> u32 {
        self.residency.get(slot).map_or(0, |r| r.0)
    }

    /// Threads of kernel-slot `slot` currently resident.
    #[must_use]
    pub fn kernel_threads(&self, slot: usize) -> u32 {
        self.residency.get(slot).map_or(0, |r| r.1)
    }

    /// Total resident CTAs.
    #[must_use]
    pub fn resident_ctas(&self) -> u32 {
        self.resources.ctas_used()
    }

    /// Sets (or clears) the partition window constraining kernel-slot
    /// `slot`'s allocations on this SM.
    pub fn set_window(&mut self, slot: usize, window: Option<PartitionWindow>) {
        match window {
            Some(w) => {
                self.windows.insert(slot, w);
            }
            None => {
                self.windows.remove(&slot);
            }
        }
        self.horizon_valid = false;
    }

    /// The partition window currently constraining kernel-slot `slot`.
    #[must_use]
    pub fn window(&self, slot: usize) -> Option<&PartitionWindow> {
        self.windows.get(&slot)
    }

    fn residency_mut(&mut self, slot: usize) -> &mut (u32, u32) {
        if self.residency.len() <= slot {
            self.residency.resize(slot + 1, (0, 0));
        }
        &mut self.residency[slot]
    }

    /// Whether a CTA of `desc` could be launched right now (without
    /// launching it).
    #[must_use]
    pub fn can_launch(&self, desc: &KernelDesc, kernel: KernelId) -> bool {
        let needed = desc.warps_per_cta() as usize;
        let free_slots = self.warps.iter().filter(|w| w.is_none()).count();
        if free_slots < needed {
            return false;
        }
        // Cheap capacity pre-checks; the definitive (fragmentation-aware)
        // answer comes from the allocator at launch time.
        let mut probe = self.resources.clone();
        probe
            .try_alloc(
                desc,
                self.windows.get(&kernel.0),
                self.kernel_ctas(kernel.0),
                self.kernel_threads(kernel.0),
            )
            .is_some()
    }

    /// Launches one CTA of `desc` with global index `cta_index`. Returns
    /// `false` (without side effects) if resources, windows, or warp slots
    /// do not permit it.
    pub fn launch_cta(&mut self, desc: &KernelDesc, kernel: KernelId, cta_index: u64) -> bool {
        let needed = desc.warps_per_cta() as usize;
        let free_slots: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.is_none().then_some(i))
            .take(needed)
            .collect();
        if free_slots.len() < needed {
            return false;
        }
        let Some(lease) = self.resources.try_alloc(
            desc,
            self.windows.get(&kernel.0),
            self.kernel_ctas(kernel.0),
            self.kernel_threads(kernel.0),
        ) else {
            return false;
        };
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            // Invariant: SmResources::try_alloc succeeded, so a CTA slot is
            // free; a miss here is an accounting bug worth aborting on.
            // xtask-allow: no-unwrap
            .expect("allocator admitted CTA but no CTA slot free");
        for (w, &slot) in free_slots.iter().enumerate() {
            let warp = Warp::new(
                desc,
                kernel,
                cta_slot,
                cta_index,
                w as u32,
                self.warp_gens[slot],
                self.launch_counter,
                self.cfg.sm.ibuffer_entries,
            );
            self.launch_counter += 1;
            self.table.refresh(slot, &warp);
            self.warps[slot] = Some(warp);
        }
        self.fetch_idle_until = 0;
        self.ctas[cta_slot] = Some(CtaRecord {
            kernel,
            cta_index,
            resources: lease,
            warp_slots: free_slots,
            warps_done: 0,
        });
        let r = self.residency_mut(kernel.0);
        r.0 += 1;
        r.1 += desc.threads_per_cta;
        self.horizon_valid = false;
        true
    }

    fn release_cta(&mut self, cta_slot: usize, threads_per_cta: u32) {
        let rec = self.ctas[cta_slot]
            .take()
            // Invariant: callers pass slots they just found occupied.
            // xtask-allow: no-unwrap
            .expect("release of empty CTA slot");
        self.resources.free(rec.resources);
        for slot in rec.warp_slots {
            self.warps[slot] = None;
            self.warp_gens[slot] = self.warp_gens[slot].wrapping_add(1);
            self.table.clear(slot);
        }
        self.fetch_idle_until = 0;
        let r = self.residency_mut(rec.kernel.0);
        r.0 -= 1;
        r.1 -= threads_per_cta;
        self.horizon_valid = false;
    }

    /// Immediately removes every CTA of kernel-slot `slot` (used when a
    /// kernel reaches its instruction target and releases its resources, or
    /// when the Warped-Slicer repartitions). In-flight memory fills for the
    /// removed warps are discarded on arrival via generation checks.
    pub fn evict_kernel(&mut self, slot: usize, desc: &KernelDesc) {
        let cta_slots: Vec<usize> = self
            .ctas
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().is_some_and(|c| c.kernel.0 == slot).then_some(i))
            .collect();
        for cs in cta_slots {
            self.release_cta(cs, desc.threads_per_cta);
        }
        // Drop LSU work belonging to the evicted kernel.
        for (i, unit) in self.units.iter_mut().enumerate() {
            if unit.lsu.take_if(|op| op.kernel.0 == slot).is_some() {
                self.lsu_busy_mask &= !(1u64 << i);
            }
        }
        self.horizon_valid = false;
    }

    /// Drains CTA-completion notifications into `out`. Both this SM's
    /// internal buffer and `out` keep their capacity, so the per-tick
    /// collection path allocates nothing in steady state.
    pub fn drain_completions_into(&mut self, out: &mut Vec<CtaCompletion>) {
        out.append(&mut self.completions);
    }

    /// Handles a memory fill arriving from the L2/DRAM.
    pub fn on_fill(&mut self, line: LineAddr, now: u64) {
        self.on_fill_batch(std::slice::from_ref(&line), now);
    }

    /// Handles every memory fill destined for this SM this cycle in one
    /// pass. Lines are applied in arrival order (the caller preserves the
    /// memory subsystem's response order per SM), so the result is
    /// byte-identical to calling [`Self::on_fill`] per line; batching lets
    /// the scoreboard rewrite each touched warp's head once instead of per
    /// fill. A completed load changes only register readiness, so the head
    /// fields are all a fill can move.
    pub fn on_fill_batch(&mut self, lines: &[LineAddr], now: u64) {
        if lines.is_empty() {
            return;
        }
        self.horizon_valid = false;
        let mut touched = 0u64;
        let mut waiters = std::mem::take(&mut self.waiter_buf);
        for &line in lines {
            self.l1.fill(line);
            waiters.clear();
            self.mshr.complete_into(line, &mut waiters);
            for MshrWaiter {
                warp_slot,
                warp_gen,
                load_id,
            } in waiters.drain(..)
            {
                if self.warp_gens[warp_slot] == warp_gen {
                    if let Some(w) = self.warps[warp_slot].as_mut() {
                        if w.complete_load_transaction(load_id, now) {
                            // Only a fully completed load changes the
                            // scoreboard (a register became ready).
                            touched |= 1u64 << warp_slot;
                        }
                    }
                }
            }
        }
        self.waiter_buf = waiters;
        while touched != 0 {
            let slot = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            if let Some(w) = self.warps[slot].as_ref() {
                self.table.refresh_head(slot, w);
            }
        }
    }

    /// Advances the SM one cycle. `descs` is the kernel table (indexed by
    /// kernel slot); issued-instruction counts are accumulated into
    /// `kernel_insts`.
    pub fn tick(
        &mut self,
        now: u64,
        mem: &mut MemSubsystem,
        descs: &[KernelDesc],
        kernel_insts: &mut [u64],
    ) {
        if let Some(prev) = self.last_tick {
            crate::strict_assert!(
                now > prev,
                "SM {}: tick cycle went backwards or repeated ({now} after {prev})",
                self.id
            );
        }
        self.last_tick = Some(now);
        self.table.advance(now);
        let fetched = self.fetch_stage(now, descs);
        let issued = self.issue_stage(now, descs, kernel_insts);
        let lsu_active = self.lsu_stage(now, mem);
        if fetched || issued || lsu_active {
            self.horizon_valid = false;
        }
        self.finalize_warps(descs);
        self.accumulate_occupancy();
        self.stats.cycles += 1;
        if crate::invariant::enabled() {
            self.mshr.assert_within_bounds();
            // SoA-vs-oracle: the incrementally maintained scoreboard must
            // match a fresh recomputation from the warps. Sampled every
            // 64th cycle to keep the debug suite fast; the property tests
            // in tests/soa_scoreboard.rs check after every step.
            if now & 63 == 0 {
                self.table.assert_matches(&self.warps);
            }
        }
    }

    fn fetch_stage(&mut self, now: u64, descs: &[KernelDesc]) -> bool {
        // The round-robin pointer advances whether or not anything fetched,
        // so the fast-forward bulk replay stays bit-exact. The walk starts
        // at the pointer before it advances.
        let start = self.fetch_ptr;
        self.fetch_ptr += 1;
        if self.fetch_ptr >= self.warps.len() {
            self.fetch_ptr = 0;
        }
        if self.table.resident_mask() == 0 {
            return false;
        }
        // Micro-horizon: a failed pass records the earliest cycle any warp
        // could fetch; until then the slot walk is provably fruitless.
        // Invalidated (set to 0) whenever any warp state changes.
        if self.fetch_idle_until > now {
            return false;
        }
        // A failed `Warp::fetch` mutates nothing and fails exactly when
        // `fetch_ready_at() > now`, so the due mask holds exactly the slots
        // whose fetch succeeds; only those are walked.
        let due = self.table.fetch_due(now);
        if due == 0 {
            self.fetch_idle_until = self.table.next_fetch();
            return false;
        }
        let fetch_latency = self.cfg.sm.fetch_latency;
        let miss_penalty = self.cfg.sm.icache_miss_penalty;
        let mut budget = self.cfg.sm.fetch_width;
        let mut fetched = false;
        // Round-robin over warp slots so no warp starves the shared port.
        let mut m = due.rotate_right(start as u32);
        while m != 0 && budget != 0 {
            let slot = (start + m.trailing_zeros() as usize) & 63;
            m &= m - 1;
            // Invariant: fetch_due() only covers occupied slots.
            // xtask-allow: no-unwrap
            let warp = self.warps[slot].as_mut().expect("due slot occupied");
            if warp.fetch(now, &descs[warp.kernel.0], fetch_latency, miss_penalty) {
                budget -= 1;
                fetched = true;
                self.table.refresh_fetch(slot, warp);
            } else {
                crate::strict_assert!(
                    false,
                    "SM {}: warp slot {slot} was fetch-due at {now} but could not fetch",
                    self.id
                );
            }
        }
        fetched
    }

    fn issue_stage(&mut self, now: u64, descs: &[KernelDesc], kernel_insts: &mut [u64]) -> bool {
        let mut any_issued = false;
        for sched_id in 0..self.schedulers.len() {
            let classes = self.issue_classes(sched_id, now);
            if let Some(slot) =
                self.schedulers[sched_id].select(classes.issuable, self.table.launch_seqs())
            {
                self.issue_to_unit(now, sched_id, slot, descs, kernel_insts);
                self.schedulers[sched_id].note_issue(slot);
                any_issued = true;
            } else {
                self.stats.stalls.record(classes.stall_reason());
            }
        }
        any_issued
    }

    /// Scheduler `sched_id`'s candidates at cycle `now` — occupied,
    /// unfinished slots it owns — split into the issuable set and the
    /// Fig. 1 stall classes by mask arithmetic against its unit state.
    fn issue_classes(&self, sched_id: usize, now: u64) -> IssueClasses {
        let unit = &self.units[sched_id];
        self.table.classify_issue(
            self.table.live() & self.sched_masks[sched_id],
            now,
            unit.alu_busy_until <= now,
            unit.sfu_busy_until <= now,
            unit.lsu.is_none(),
        )
    }

    fn issue_to_unit(
        &mut self,
        now: u64,
        sched_id: usize,
        slot: usize,
        descs: &[KernelDesc],
        kernel_insts: &mut [u64],
    ) {
        let sm_cfg = &self.cfg.sm;
        // Invariant: the issue stage only selects occupied slots with a
        // non-empty i-buffer. xtask-allow: no-unwrap
        let warp = self.warps[slot].as_mut().expect("issuing to empty slot");
        let kernel = warp.kernel;
        let desc = &descs[kernel.0];
        let program = &desc.program;
        let inst = warp.head().expect("non-empty i-buffer"); // xtask-allow: no-unwrap
        let unit = &mut self.units[sched_id];
        match inst.op {
            OpClass::Alu => {
                unit.alu_busy_until = now + self.alu_ii;
                self.stats.alu_busy += self.alu_ii;
                let _ = warp.issue(now, u64::from(sm_cfg.alu_latency), program);
            }
            OpClass::Sfu => {
                unit.sfu_busy_until = now + self.sfu_ii;
                self.stats.sfu_busy += self.sfu_ii;
                let _ = warp.issue(now, u64::from(sm_cfg.sfu_latency), program);
            }
            OpClass::SharedMem => {
                // Bank conflicts serialize the access: both the LSU
                // occupancy and the result latency scale with the degree.
                let degree = desc.shmem_conflict_degree.max(1);
                let base = self.lsu_ii;
                let latency = u64::from(sm_cfg.shmem_latency) + u64::from((degree - 1) * base);
                let _ = warp.issue(now, latency, program);
                unit.lsu = Some(LsuOp {
                    warp_slot: slot,
                    warp_gen: warp.gen,
                    kernel,
                    kind: LsuKind::Shared,
                    next: 0,
                    end: 0,
                    cycles_left: base * degree,
                });
            }
            OpClass::Barrier => {
                let _ = warp.issue(now, 0, program);
                warp.at_barrier = true;
                let cta_slot = warp.cta_slot;
                self.note_barrier_arrival(cta_slot);
            }
            OpClass::GlobalLoad | OpClass::GlobalStore => {
                let _ = warp.issue(now, 0, program);
                self.line_buf.clear();
                {
                    let mut lines = std::mem::take(&mut self.line_buf);
                    warp.stream.next_access(&desc.pattern, &mut lines);
                    self.line_buf = lines;
                }
                let kind = if inst.op == OpClass::GlobalLoad {
                    // Invariant: the program generator always gives loads a
                    // destination register. xtask-allow: no-unwrap
                    let load_id = warp.begin_load(inst.dst.expect("loads have destinations"));
                    LsuKind::GlobalLoad { load_id }
                } else {
                    LsuKind::GlobalStore
                };
                // The lines go into this unit's row of the LSU line table.
                let n = self.line_buf.len();
                crate::strict_assert!(
                    n <= WARP_LINES,
                    "a warp access generated {n} lines, more than a warp's {WARP_LINES}"
                );
                let row = sched_id * WARP_LINES;
                self.lsu_lines[row..row + WARP_LINES][..n].copy_from_slice(&self.line_buf);
                unit.lsu = Some(LsuOp {
                    warp_slot: slot,
                    warp_gen: warp.gen,
                    kernel,
                    kind,
                    next: 0,
                    end: n,
                    cycles_left: self.lsu_ii,
                });
            }
        }
        self.stats.kernel_mut(kernel.0).insts_issued += 1;
        if kernel.0 < kernel_insts.len() {
            kernel_insts[kernel.0] += 1;
        }
        if self.units[sched_id].lsu.is_some() {
            self.lsu_busy_mask |= 1u64 << sched_id;
        }
        self.refresh_warp(slot);
        if self.warps[slot].as_ref().is_some_and(Warp::finished) {
            self.finished_buf.push(slot);
        }
    }

    fn lsu_stage(&mut self, now: u64, mem: &mut MemSubsystem) -> bool {
        // Micro-horizon: every in-flight op sets its unit's bit, so an
        // all-zero mask means the unit walk below would find nothing.
        if self.lsu_busy_mask == 0 {
            return false;
        }
        let mut any_active = false;
        let l1_hit_latency = u64::from(self.cfg.sm.l1_hit_latency);
        for sched_id in 0..self.units.len() {
            let Some(mut op) = self.units[sched_id].lsu.take() else {
                continue;
            };
            any_active = true;
            self.stats.lsu_busy += 1;
            // A warp evicted mid-operation invalidates the op.
            if self.warp_gens[op.warp_slot] != op.warp_gen {
                self.lsu_busy_mask &= !(1u64 << sched_id);
                continue;
            }
            if op.next < op.end {
                let line = self.lsu_lines[sched_id * WARP_LINES + op.next];
                let is_store = matches!(op.kind, LsuKind::GlobalStore);
                let probe = self.l1.access(line);
                let kstats = self.stats.kernel_mut(op.kernel.0);
                kstats.l1_accesses += 1;
                let mut processed = true;
                match (probe, is_store) {
                    (ProbeResult::Hit, true) => {
                        // Write-through: traffic still goes to memory.
                        mem.submit(
                            now,
                            MemRequest {
                                line,
                                sm_id: self.id,
                                kernel: op.kernel,
                                is_store: true,
                            },
                        );
                    }
                    (ProbeResult::Miss, true) => {
                        kstats.l1_misses += 1;
                        mem.submit(
                            now,
                            MemRequest {
                                line,
                                sm_id: self.id,
                                kernel: op.kernel,
                                is_store: true,
                            },
                        );
                    }
                    (ProbeResult::Hit, false) => {}
                    (ProbeResult::Miss, false) => {
                        kstats.l1_misses += 1;
                        let LsuKind::GlobalLoad { load_id } = op.kind else {
                            unreachable!("loads checked above")
                        };
                        let outcome = self.mshr.register(
                            line,
                            MshrWaiter {
                                warp_slot: op.warp_slot,
                                warp_gen: op.warp_gen,
                                load_id,
                            },
                        );
                        match outcome {
                            MshrOutcome::Allocated => {
                                mem.submit(
                                    now,
                                    MemRequest {
                                        line,
                                        sm_id: self.id,
                                        kernel: op.kernel,
                                        is_store: false,
                                    },
                                );
                                self.note_load_transaction(&op);
                            }
                            MshrOutcome::Merged => self.note_load_transaction(&op),
                            MshrOutcome::Rejected => {
                                // MSHR pressure: retry next cycle, undoing
                                // the optimistic statistics.
                                let kstats = self.stats.kernel_mut(op.kernel.0);
                                kstats.l1_accesses -= 1;
                                kstats.l1_misses -= 1;
                                processed = false;
                            }
                        }
                    }
                }
                if processed {
                    op.next += 1;
                    op.cycles_left = op.cycles_left.saturating_sub(1);
                }
            } else if op.cycles_left > 0 {
                op.cycles_left -= 1;
            }

            if op.next == op.end && op.cycles_left == 0 {
                if let LsuKind::GlobalLoad { load_id } = op.kind {
                    if let Some(w) = self.warps[op.warp_slot].as_mut() {
                        if w.finish_load_issue(load_id, now + l1_hit_latency) {
                            // An all-hit load just made its destination
                            // ready.
                            self.table.refresh_head(op.warp_slot, w);
                        }
                    }
                }
                self.lsu_busy_mask &= !(1u64 << sched_id);
            } else {
                self.units[sched_id].lsu = Some(op);
            }
        }
        any_active
    }

    /// Releases a CTA's barrier once every live warp has arrived.
    fn note_barrier_arrival(&mut self, cta_slot: usize) {
        let Some(rec) = self.ctas[cta_slot].as_ref() else {
            return;
        };
        let all_arrived = rec.warp_slots.iter().all(|&s| {
            self.warps[s]
                .as_ref()
                .is_none_or(|w| w.finished() || w.at_barrier)
        });
        if all_arrived {
            // Collect the slots into a bitmask so the CTA record's borrow
            // ends before the warps (and the scoreboard) are mutated — this
            // also drops the old per-release Vec clone from the tick path.
            let mut mask = 0u64;
            for &s in &rec.warp_slots {
                mask |= 1u64 << s;
            }
            self.table.release_barrier(mask);
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(w) = self.warps[s].as_mut() {
                    w.at_barrier = false;
                }
            }
        }
    }

    fn note_load_transaction(&mut self, op: &LsuOp) {
        if let LsuKind::GlobalLoad { load_id } = op.kind {
            if let Some(w) = self.warps[op.warp_slot].as_mut() {
                w.add_load_transaction(load_id);
            }
        }
    }

    fn finalize_warps(&mut self, descs: &[KernelDesc]) {
        // Count newly finished warps into their CTAs and retire CTAs whose
        // warps are all done.
        while let Some(slot) = self.finished_buf.pop() {
            let Some(warp) = self.warps[slot].as_ref() else {
                continue;
            };
            let cta_slot = warp.cta_slot;
            let done = {
                let rec = self.ctas[cta_slot]
                    .as_mut()
                    // Invariant: a warp's cta_slot stays live until every
                    // sibling warp finished. xtask-allow: no-unwrap
                    .expect("finished warp belongs to a live CTA");
                rec.warps_done += 1;
                rec.warps_done == rec.warp_slots.len() as u32
            };
            if done {
                let (kernel, cta_index) = {
                    // Same slot as the as_mut() above. xtask-allow: no-unwrap
                    let rec = self.ctas[cta_slot].as_ref().expect("checked above");
                    (rec.kernel, rec.cta_index)
                };
                self.release_cta(cta_slot, descs[kernel.0].threads_per_cta);
                self.completions.push(CtaCompletion { kernel, cta_index });
            }
        }
    }

    fn accumulate_occupancy(&mut self) {
        self.stats.reg_used_acc += u128::from(self.resources.regs.used());
        self.stats.shmem_used_acc += u128::from(self.resources.shmem.used());
        self.stats.threads_used_acc += u128::from(self.resources.threads_used());
        self.stats.warps_active_acc += u128::from(self.live_warps());
    }

    /// Live warps: the popcount of the table's live mask, recounted only
    /// when the mask changed since the last call.
    fn live_warps(&mut self) -> u32 {
        let live = self.table.live();
        if live != self.live_seen {
            self.live_seen = live;
            self.live_count = live.count_ones();
        }
        self.live_count
    }

    /// The earliest future cycle `>= from` at which this SM can change
    /// state on its own: a warp fetch becoming possible, a warp's operands
    /// becoming ready, or an execution unit freeing up for an
    /// operand-ready warp. Pending memory fills and barrier releases are
    /// deliberately *not* warp-local events: a fill is reported by the
    /// memory subsystem, and a barrier release coincides with a sibling
    /// warp's issue (itself an SM event). Returns `u64::MAX` when the SM
    /// can never progress without external input, and `from` when the very
    /// next tick can do work. The result is cached; any state change
    /// invalidates it.
    pub fn next_event(&mut self, from: u64) -> u64 {
        self.table.advance(from);
        if self.horizon_valid && self.horizon >= from {
            return self.horizon;
        }
        let h = self.compute_horizon(from);
        self.horizon = h;
        self.horizon_valid = true;
        h
    }

    fn compute_horizon(&self, from: u64) -> u64 {
        // An in-flight LSU operation processes a line (or burns a
        // serialization cycle) every tick.
        if self.lsu_busy_mask != 0 {
            return from;
        }
        if self.table.resident_mask() == 0 {
            return u64::MAX;
        }
        let mut best = self.table.next_fetch().max(from);
        // Slots with no issue event of their own: a parked warp un-parks
        // only when the last sibling issues its barrier (that sibling's
        // event); an empty i-buffer is covered by the fetch event; a
        // pending global load by the memory subsystem's horizon.
        let skip =
            self.table.barrier_mask() | self.table.ib_empty_mask() | self.table.mem_pending_mask();
        let checkable = self.table.live() & !skip;
        for (unit, &owned) in self.units.iter().zip(&self.sched_masks) {
            let cand = checkable & owned;
            // RAW horizon. Even if the unit is still busy at `ready`, the
            // span must end there: the stall classification flips from
            // ShortRawHazard to ExecResource.
            let raw = cand & self.table.head_waiting(from);
            best = best.min(self.table.min_head_ready(raw));
            // Operands ready now: bounded by unit availability. Barriers
            // always issue; LSU-class ops issue whenever the LSU is free,
            // and no LSU op is in flight here.
            let ready = cand & !raw;
            if ready & self.table.avail_mask(false, false, true) != 0 {
                return from;
            }
            if ready & self.table.head_alu_mask() != 0 {
                best = best.min(unit.alu_busy_until.max(from));
            }
            if ready & self.table.head_sfu_mask() != 0 {
                best = best.min(unit.sfu_busy_until.max(from));
            }
        }
        best
    }

    /// Read-only mirror of `issue_stage`'s stall classification for
    /// scheduler `sched_id` at cycle `now`, used to replay a dead span in
    /// bulk. The event horizon guarantees the classification is constant
    /// across the span and that no warp can actually issue.
    fn classify_stall(&self, sched_id: usize, now: u64) -> StallReason {
        let classes = self.issue_classes(sched_id, now);
        crate::strict_assert!(
            classes.issuable == 0,
            "SM {}: warp slots {:#x} were issuable inside a fast-forwarded span",
            self.id,
            classes.issuable
        );
        classes.stall_reason()
    }

    /// Bulk-replays the per-cycle bookkeeping `tick` would have performed
    /// over the dead span `[from, to)`: cycle and occupancy accumulators,
    /// the constant per-scheduler stall classification, and the fetch
    /// round-robin pointer. Callers must have established via
    /// [`Self::next_event`] (and the memory subsystem's horizon) that no
    /// state can change before `to`.
    pub fn account_skip(&mut self, from: u64, to: u64) {
        debug_assert!(to > from, "empty skip span");
        let span = to - from;
        self.table.advance(from);
        for sched_id in 0..self.schedulers.len() {
            let reason = self.classify_stall(sched_id, from);
            self.stats.stalls.record_n(reason, span);
        }
        let n = self.warps.len().max(1) as u64;
        self.fetch_ptr = ((self.fetch_ptr as u64 + span % n) % n) as usize;
        self.stats.reg_used_acc += u128::from(self.resources.regs.used()) * u128::from(span);
        self.stats.shmem_used_acc += u128::from(self.resources.shmem.used()) * u128::from(span);
        self.stats.threads_used_acc += u128::from(self.resources.threads_used()) * u128::from(span);
        // live() is constant over a dead span: residency and finished bits
        // change only at issue/launch/release, all of which end spans.
        self.stats.warps_active_acc += u128::from(self.live_warps()) * u128::from(span);
        self.stats.cycles += span;
        self.last_tick = Some(to - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::program::{Inst, Program, ProgramSpec};

    fn alu_kernel(iterations: u32) -> KernelDesc {
        KernelDesc {
            name: "alu".into(),
            grid_ctas: 64,
            threads_per_cta: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: ProgramSpec {
                body_len: 32,
                dep_distance: 8,
                gload_frac: 0.0,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec"),
            iterations,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 3,
        }
    }

    fn mem_kernel(iterations: u32) -> KernelDesc {
        KernelDesc {
            name: "mem".into(),
            grid_ctas: 64,
            threads_per_cta: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: ProgramSpec {
                body_len: 32,
                dep_distance: 2,
                gload_frac: 0.4,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec"),
            iterations,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 4,
        }
    }

    fn run(sm: &mut Sm, mem: &mut MemSubsystem, descs: &[KernelDesc], cycles: u64) -> Vec<u64> {
        let mut kernel_insts = vec![0u64; descs.len()];
        let mut responses = Vec::new();
        // Resume from the SM's own clock so repeated runs stay monotone.
        let start = sm.stats().cycles;
        for now in start..start + cycles {
            sm.tick(now, mem, descs, &mut kernel_insts);
            responses.clear();
            mem.tick(now, &mut responses);
            for r in &responses {
                sm.on_fill(r.line, now);
            }
        }
        kernel_insts
    }

    #[test]
    fn unit_widths_outside_one_to_the_warp_size_are_rejected() {
        let warp = crate::config::SmConfig::WARP_SIZE;
        // A unit's name, its width setter and its initiation interval.
        type Unit = (&'static str, fn(&mut GpuConfig, u32), fn(&Sm) -> u64);
        let units: [Unit; 3] = [
            ("SIMT", |c, w| c.sm.simt_width = w, |sm| sm.alu_ii),
            ("SFU", |c, w| c.sm.sfu_width = w, |sm| sm.sfu_ii),
            ("LSU", |c, w| c.sm.lsu_width = w, |sm| u64::from(sm.lsu_ii)),
        ];
        for (unit, set_width, ii) in units {
            for (width, expect) in [(0, None), (1, Some(32)), (12, Some(2)), (warp, Some(1))]
                .into_iter()
                .chain([(warp + 1, None), (u32::MAX, None)])
            {
                let mut cfg = GpuConfig::isca_baseline();
                set_width(&mut cfg, width);
                let built = std::panic::catch_unwind(|| {
                    ii(&Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest))
                });
                match (built, expect) {
                    (Ok(got), Some(want)) => assert_eq!(got, want, "{unit} width {width}"),
                    (Err(e), None) => {
                        let msg = e.downcast_ref::<String>().expect("formatted panic");
                        assert!(
                            msg.contains("invalid functional-unit width")
                                && msg.contains(&format!("{unit} width {width} ")),
                            "{msg}"
                        );
                    }
                    (built, _) => panic!("{unit} width {width}: {:?}", built.map_err(|_| ())),
                }
            }
        }
    }

    #[test]
    fn alu_kernel_executes_to_completion() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let mut mem = MemSubsystem::new(&cfg);
        let descs = vec![alu_kernel(4)];
        assert!(sm.launch_cta(&descs[0], KernelId(0), 0));
        assert_eq!(sm.resident_ctas(), 1);
        let insts = run(&mut sm, &mut mem, &descs, 3000);
        // 2 warps x 32 insts x 4 iterations = 256 instructions.
        assert_eq!(insts[0], 256);
        assert_eq!(sm.resident_ctas(), 0, "CTA should retire");
        let mut completions = Vec::new();
        sm.drain_completions_into(&mut completions);
        assert_eq!(
            completions,
            vec![CtaCompletion {
                kernel: KernelId(0),
                cta_index: 0
            }]
        );
    }

    #[test]
    fn memory_kernel_round_trips_loads() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let mut mem = MemSubsystem::new(&cfg);
        let descs = vec![mem_kernel(2)];
        assert!(sm.launch_cta(&descs[0], KernelId(0), 0));
        let insts = run(&mut sm, &mut mem, &descs, 20_000);
        assert_eq!(insts[0], 128, "2 warps x 32 x 2 iterations");
        assert!(sm.stats().kernel(0).l1_accesses > 0);
        assert!(mem.stats().total.dram_reads > 0);
        assert!(sm.stats().stalls.mem > 0, "streaming loads must stall");
    }

    #[test]
    fn more_ctas_more_throughput_for_compute() {
        let cfg = GpuConfig::isca_baseline();
        let descs = vec![alu_kernel(50)];
        let mut ipc = Vec::new();
        for n in [1u64, 4] {
            let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
            let mut mem = MemSubsystem::new(&cfg);
            for c in 0..n {
                assert!(sm.launch_cta(&descs[0], KernelId(0), c));
            }
            let insts = run(&mut sm, &mut mem, &descs, 2000);
            ipc.push(insts[0] as f64 / 2000.0);
        }
        assert!(
            ipc[1] > ipc[0] * 1.3,
            "4 CTAs ({}) should outrun 1 CTA ({})",
            ipc[1],
            ipc[0]
        );
    }

    #[test]
    fn launch_fails_when_resources_exhausted() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let desc = KernelDesc {
            threads_per_cta: 512,
            ..alu_kernel(1)
        };
        assert!(sm.launch_cta(&desc, KernelId(0), 0));
        assert!(sm.launch_cta(&desc, KernelId(0), 1));
        assert!(sm.launch_cta(&desc, KernelId(0), 2));
        // 4th CTA: 2048 threads > 1536.
        assert!(!sm.launch_cta(&desc, KernelId(0), 3));
        assert!(!sm.can_launch(&desc, KernelId(0)));
    }

    #[test]
    fn evict_kernel_releases_everything() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let mut mem = MemSubsystem::new(&cfg);
        let descs = vec![mem_kernel(1000)];
        for c in 0..4 {
            assert!(sm.launch_cta(&descs[0], KernelId(0), c));
        }
        let _ = run(&mut sm, &mut mem, &descs, 200);
        sm.evict_kernel(0, &descs[0]);
        assert_eq!(sm.resident_ctas(), 0);
        assert_eq!(sm.kernel_ctas(0), 0);
        assert_eq!(sm.kernel_threads(0), 0);
        assert_eq!(sm.resources.regs.used(), 0);
        // Late fills must not crash.
        let _ = run(&mut sm, &mut mem, &descs, 2000);
    }

    #[test]
    fn window_quota_blocks_extra_ctas() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let desc = alu_kernel(1);
        sm.set_window(
            0,
            Some(PartitionWindow {
                regs: crate::alloc::Region::whole(cfg.sm.max_registers),
                shmem: crate::alloc::Region::whole(cfg.sm.shared_mem_bytes),
                max_ctas: 2,
                max_threads: cfg.sm.max_threads,
            }),
        );
        assert!(sm.launch_cta(&desc, KernelId(0), 0));
        assert!(sm.launch_cta(&desc, KernelId(0), 1));
        assert!(!sm.launch_cta(&desc, KernelId(0), 2));
        sm.set_window(0, None);
        assert!(sm.launch_cta(&desc, KernelId(0), 2));
    }

    #[test]
    fn divergent_accesses_occupy_the_lsu_longer() {
        let cfg = GpuConfig::isca_baseline();
        let run_lsu_busy = |transactions: u32| {
            let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
            let mut mem = MemSubsystem::new(&cfg);
            let desc = KernelDesc {
                pattern: AccessPattern::Random {
                    footprint_lines: 1 << 16,
                    transactions,
                },
                ..mem_kernel(4)
            };
            let descs = vec![desc];
            assert!(sm.launch_cta(&descs[0], KernelId(0), 0));
            let _ = run(&mut sm, &mut mem, &descs, 30_000);
            sm.stats().lsu_busy
        };
        let coalesced = run_lsu_busy(1);
        let divergent = run_lsu_busy(8);
        assert!(
            divergent > coalesced * 2,
            "8-way divergence ({divergent}) should occupy the LSU far longer than coalesced ({coalesced})"
        );
    }

    #[test]
    fn barriers_synchronize_cta_warps() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let mut mem = MemSubsystem::new(&cfg);
        // Body: a (randomly timed) load then ALU work desynchronizes the
        // warps, a barrier re-synchronizes them, then more work.
        let mut insts: Vec<Inst> = vec![Inst {
            op: OpClass::GlobalLoad,
            dst: Some(20),
            srcs: [Some(21), None],
        }];
        insts.extend((0..10).map(|i| Inst {
            op: OpClass::Alu,
            dst: Some(i as u8),
            srcs: [Some(if i == 0 { 20 } else { (i - 1) as u8 }), None],
        }));
        insts.push(Inst {
            op: OpClass::Barrier,
            dst: None,
            srcs: [None, None],
        });
        insts.extend((0..10).map(|i| Inst {
            op: OpClass::Alu,
            dst: Some((i + 11) as u8),
            srcs: [Some(i as u8), None],
        }));
        let desc = KernelDesc {
            name: "bar".into(),
            grid_ctas: 4,
            threads_per_cta: 128,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: Program::new(insts),
            iterations: 6,
            pattern: AccessPattern::Random {
                footprint_lines: 1 << 14,
                transactions: 2,
            },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 0,
        };
        let descs = vec![desc];
        assert!(sm.launch_cta(&descs[0], KernelId(0), 0));
        let insts_done = run(&mut sm, &mut mem, &descs, 20_000);
        // All warps finish (no deadlock) and barrier stalls were recorded.
        assert_eq!(insts_done[0], 4 * 22 * 6, "all warps complete");
        assert!(
            sm.stats().stalls.barrier > 0,
            "barrier waits recorded: {:?}",
            sm.stats().stalls
        );
        assert_eq!(sm.resident_ctas(), 0, "CTA retires after barriers");
    }

    /// Half of the body is shared-memory accesses with `degree`-way bank
    /// conflicts.
    fn shmem_kernel(degree: u32) -> KernelDesc {
        KernelDesc {
            name: "shm".into(),
            grid_ctas: 64,
            threads_per_cta: 128,
            regs_per_thread: 8,
            shmem_per_cta: 1024,
            program: ProgramSpec {
                body_len: 32,
                shmem_frac: 0.5,
                gload_frac: 0.0,
                dep_distance: 8,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec"),
            iterations: 100,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: degree,
            seed: 0,
        }
    }

    #[test]
    fn bank_conflicts_slow_shared_memory_kernels() {
        let cfg = GpuConfig::isca_baseline();
        let run_with_degree = |degree: u32| {
            let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
            let mut mem = MemSubsystem::new(&cfg);
            let descs = vec![shmem_kernel(degree)];
            for c in 0..4 {
                assert!(sm.launch_cta(&descs[0], KernelId(0), c));
            }
            run(&mut sm, &mut mem, &descs, 4_000)[0]
        };
        let clean = run_with_degree(1);
        let conflicted = run_with_degree(8);
        assert!(
            clean as f64 > conflicted as f64 * 1.5,
            "8-way conflicts should hurt: {clean} vs {conflicted}"
        );
    }

    /// LSU ops in flight.
    fn lsu_ops_in_flight(sm: &Sm) -> usize {
        sm.units.iter().filter(|u| u.lsu.is_some()).count()
    }

    /// The LSU line table is still the allocation `table` it was built as,
    /// one warp-wide row per scheduler unit, and every in-flight op's lines
    /// lie inside its row (a shared-memory op has none).
    fn assert_line_table(sm: &Sm, table: *const LineAddr, num_sched: usize) {
        assert_eq!(sm.lsu_lines.len(), num_sched * WARP_LINES);
        assert!(
            std::ptr::eq(sm.lsu_lines.as_ptr(), table),
            "the line table was reallocated"
        );
        for op in sm.units.iter().filter_map(|u| u.lsu.as_ref()) {
            assert!(op.next <= op.end && op.end <= WARP_LINES, "{op:?}");
            if matches!(op.kind, LsuKind::Shared) {
                assert_eq!(op.end, 0, "shared-memory ops carry no lines");
            }
        }
    }

    #[test]
    fn lsu_line_pool_stays_within_the_scheduler_count() {
        let cfg = GpuConfig::isca_baseline();
        let num_sched = cfg.sm.num_schedulers as usize;
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let table = sm.lsu_lines.as_ptr();
        let mut mem = MemSubsystem::new(&cfg);
        // A shared-memory-heavy run: every op, shared ones included, keeps
        // its lines in its unit's row of the one table.
        let descs = vec![shmem_kernel(1), mem_kernel(1000)];
        for c in 0..4 {
            assert!(sm.launch_cta(&descs[0], KernelId(0), c));
        }
        let insts = run(&mut sm, &mut mem, &descs, 20_000);
        assert!(insts[0] > 10_000, "shared-memory run made progress");
        assert_line_table(&sm, table, num_sched);
        // Evict a kernel mid-op: its ops go, the table stays.
        for c in 0..2 {
            assert!(sm.launch_cta(&descs[0], KernelId(0), 100 + c));
            assert!(sm.launch_cta(&descs[1], KernelId(1), c));
        }
        let mut steps = 0;
        while !sm
            .units
            .iter()
            .any(|u| u.lsu.as_ref().is_some_and(|op| op.kernel.0 == 1))
        {
            let _ = run(&mut sm, &mut mem, &descs, 1);
            steps += 1;
            assert!(steps < 10_000, "no global-memory op ever reached the LSU");
            assert_line_table(&sm, table, num_sched);
        }
        let held = lsu_ops_in_flight(&sm);
        sm.evict_kernel(1, &descs[1]);
        assert!(lsu_ops_in_flight(&sm) < held, "eviction dropped the op");
        assert!(sm
            .units
            .iter()
            .all(|u| u.lsu.as_ref().is_none_or(|op| op.kernel.0 != 1)));
        assert_line_table(&sm, table, num_sched);
        let _ = run(&mut sm, &mut mem, &descs, 5_000);
        assert_line_table(&sm, table, num_sched);
    }

    #[test]
    fn raw_stalls_dominate_serial_kernels() {
        let cfg = GpuConfig::isca_baseline();
        let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
        let mut mem = MemSubsystem::new(&cfg);
        // Fully serial single-warp ALU chain.
        let insts: Vec<Inst> = (0..32)
            .map(|i| Inst {
                op: OpClass::Alu,
                dst: Some((i % 32) as u8),
                srcs: [Some(((i + 31) % 32) as u8), None],
            })
            .collect();
        let desc = KernelDesc {
            name: "serial".into(),
            grid_ctas: 1,
            threads_per_cta: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: Program::new(insts),
            iterations: 20,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 0,
        };
        let descs = vec![desc];
        assert!(sm.launch_cta(&descs[0], KernelId(0), 0));
        let _ = run(&mut sm, &mut mem, &descs, 8000);
        let st = sm.stats().stalls;
        assert!(
            st.raw > st.mem && st.raw > st.exec,
            "RAW should dominate: {st:?}"
        );
    }
}
