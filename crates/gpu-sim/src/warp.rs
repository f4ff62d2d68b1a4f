//! Warp execution state: program counter, i-buffer, scoreboard, and
//! outstanding-load tracking.

use crate::access::AddressStream;
use crate::kernel::{KernelDesc, KernelId};
use crate::program::{Inst, OpClass, Program, Reg, NUM_VIRTUAL_REGS};
use crate::stats::StallReason;

/// Scoreboard marker for a register awaiting a global load.
pub const PENDING_LOAD: u64 = u64::MAX;

/// One outstanding global load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadTracker {
    /// Warp-local load id (monotonic).
    pub id: u32,
    /// Destination register.
    pub dst: Reg,
    /// L1-miss transactions still in flight.
    pub remaining: u32,
    /// Whether the LSU has issued every transaction of the load.
    pub all_issued: bool,
}

/// A resident warp.
///
/// `repr(C)` keeps the fields in the order below: the scalars that fetch
/// and issue read every time (the i-buffer window, the fetch state, the
/// head instruction, the issue count) share the first two cache lines,
/// ahead of the register stamps and the cold load and address state.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Warp {
    /// The i-buffer is a window onto the program: the `ib_len` body
    /// instructions from `head_pc` on, wrapping at `body_len`. Only its
    /// head is decoded, into `head_inst`, which is stale while the window
    /// is empty.
    ib_len: usize,
    ibuffer_cap: usize,
    head_pc: usize,
    body_len: usize,
    /// Body pc of the next instruction to fetch.
    pc: usize,
    fetch_ready: u64,
    /// Dynamic warp instructions issued so far.
    pub insts_issued: u64,
    head_inst: Inst,
    /// Whether the warp is parked at a CTA-wide barrier.
    pub at_barrier: bool,
    iters_left: u32,
    /// Slot-recycling generation (checked by late memory fills).
    pub gen: u32,
    fetch_count: u64,
    total_insts: u64,
    /// Launch order stamp used by the greedy-then-oldest scheduler.
    pub launch_seq: u64,
    /// Owning kernel.
    pub kernel: KernelId,
    /// CTA slot within the SM this warp belongs to.
    pub cta_slot: usize,
    next_load_id: u32,
    reg_ready: [u64; NUM_VIRTUAL_REGS],
    loads: Vec<LoadTracker>,
    /// Global-memory address stream for this warp.
    pub stream: AddressStream,
}

impl Warp {
    /// Creates a warp for `desc` (kernel slot `kernel`), CTA `cta_index`,
    /// warp `warp_in_cta` within it.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        desc: &KernelDesc,
        kernel: KernelId,
        cta_slot: usize,
        cta_index: u64,
        warp_in_cta: u32,
        gen: u32,
        launch_seq: u64,
        ibuffer_cap: u32,
    ) -> Self {
        Self {
            kernel,
            cta_slot,
            gen,
            launch_seq,
            insts_issued: 0,
            at_barrier: false,
            total_insts: desc.insts_per_warp(),
            pc: 0,
            body_len: desc.program.len(),
            iters_left: desc.iterations,
            ib_len: 0,
            ibuffer_cap: ibuffer_cap as usize,
            head_inst: desc.program.inst(0),
            head_pc: 0,
            fetch_ready: 0,
            fetch_count: 0,
            reg_ready: [0; NUM_VIRTUAL_REGS],
            loads: Vec::with_capacity(4),
            next_load_id: 0,
            stream: AddressStream::new(kernel.0, cta_index, warp_in_cta, desc.seed),
        }
    }

    /// Whether the warp has issued its full instruction budget.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.insts_issued >= self.total_insts
    }

    /// Whether every body instruction has been fetched (fetch front end is
    /// done, but issue may lag).
    #[must_use]
    pub fn fetch_done(&self) -> bool {
        self.iters_left == 0
    }

    /// Attempts one fetch into the i-buffer, returning whether an
    /// instruction was fetched (consuming shared fetch-port bandwidth).
    /// `now` is the current cycle; the i-cache miss decision is a
    /// deterministic hash so runs replay exactly.
    pub fn fetch(
        &mut self,
        now: u64,
        desc: &KernelDesc,
        fetch_latency: u32,
        icache_miss_penalty: u32,
    ) -> bool {
        if self.fetch_done() || self.ib_len >= self.ibuffer_cap || self.fetch_ready > now {
            return false;
        }
        if self.ib_len == 0 {
            self.head_inst = desc.program.inst(self.pc);
            self.head_pc = self.pc;
        }
        self.ib_len += 1;
        self.pc += 1;
        if self.pc == self.body_len {
            self.pc = 0;
            self.iters_left -= 1;
        }
        self.fetch_count += 1;
        let miss = if desc.icache_miss_rate > 0.0 {
            // Deterministic hash in [0, 1).
            let h = self
                .fetch_count
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.launch_seq.rotate_left(17));
            (h >> 11) as f64 / (1u64 << 53) as f64 >= 1.0 - desc.icache_miss_rate
        } else {
            false
        };
        self.fetch_ready = now
            + u64::from(fetch_latency)
            + if miss {
                u64::from(icache_miss_penalty)
            } else {
                0
            };
        true
    }

    /// The decoded instruction at the head of the i-buffer.
    #[must_use]
    pub fn head(&self) -> Option<Inst> {
        (self.ib_len != 0).then_some(self.head_inst)
    }

    /// Consumes the head instruction at issue and decodes the next one from
    /// `program`, the warp's kernel body. For ALU/SFU/shared-memory ops the
    /// destination becomes ready at `now + latency`; for global loads the
    /// caller must follow up with [`Self::begin_load`].
    ///
    /// # Panics
    ///
    /// Panics if the i-buffer is empty: the scheduler only issues warps
    /// whose head it just inspected.
    pub fn issue(&mut self, now: u64, result_latency: u64, program: &Program) -> Inst {
        assert!(self.ib_len != 0, "issue on empty i-buffer");
        let inst = self.head_inst;
        self.ib_len -= 1;
        self.head_pc += 1;
        if self.head_pc == self.body_len {
            self.head_pc = 0;
        }
        if self.ib_len != 0 {
            self.head_inst = program.inst(self.head_pc);
        }
        self.insts_issued += 1;
        if inst.op != OpClass::GlobalLoad {
            if let Some(dst) = inst.dst {
                self.reg_ready[dst as usize] = now + result_latency;
            }
        }
        inst
    }

    /// Registers a new outstanding global load for `dst`, returning its
    /// warp-local load id.
    pub fn begin_load(&mut self, dst: Reg) -> u32 {
        let id = self.next_load_id;
        self.next_load_id += 1;
        self.reg_ready[dst as usize] = PENDING_LOAD;
        self.loads.push(LoadTracker {
            id,
            dst,
            remaining: 0,
            all_issued: false,
        });
        id
    }

    /// Notes one more in-flight L1-miss transaction for load `id`.
    pub fn add_load_transaction(&mut self, id: u32) {
        let t = self
            .loads
            .iter_mut()
            .find(|t| t.id == id)
            // Invariant: ids come from begin_load on this same warp and stay
            // live until the load completes. xtask-allow: no-unwrap
            .expect("unknown load id");
        t.remaining += 1;
    }

    /// Marks every transaction of load `id` as issued; if none missed the
    /// L1 the destination becomes ready at `ready_at`. Returns `true` if the
    /// load completed immediately.
    pub fn finish_load_issue(&mut self, id: u32, ready_at: u64) -> bool {
        let idx = self
            .loads
            .iter()
            .position(|t| t.id == id)
            // Invariant: same id lifecycle as add_load_transaction above.
            // xtask-allow: no-unwrap
            .expect("unknown load id");
        self.loads[idx].all_issued = true;
        if self.loads[idx].remaining == 0 {
            let dst = self.loads[idx].dst;
            self.reg_ready[dst as usize] = ready_at;
            self.loads.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// Completes one in-flight transaction of load `id` (a fill returned).
    /// Returns `true` if this completed the whole load.
    pub fn complete_load_transaction(&mut self, id: u32, now: u64) -> bool {
        let Some(idx) = self.loads.iter().position(|t| t.id == id) else {
            return false; // stale fill for an already-halted warp
        };
        let t = &mut self.loads[idx];
        debug_assert!(t.remaining > 0);
        t.remaining -= 1;
        if t.remaining == 0 && t.all_issued {
            let dst = t.dst;
            self.reg_ready[dst as usize] = now;
            self.loads.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// The raw fetch readiness as a single sentinel-encoded cycle: the
    /// cycle the fetch port opens for this warp, or `u64::MAX` when fetching
    /// cannot resume on its own (body fully fetched, or i-buffer full). This
    /// is the value cached per-slot in [`WarpTable::fetch_at`].
    #[must_use]
    pub fn fetch_ready_at(&self) -> u64 {
        if self.fetch_done() || self.ib_len >= self.ibuffer_cap {
            u64::MAX
        } else {
            self.fetch_ready
        }
    }

    /// The scoreboard state of the head instruction as a single
    /// sentinel-encoded cycle plus its op class, or `None` when the
    /// i-buffer is empty. The cycle is the max readiness over every source
    /// operand and the destination; because [`PENDING_LOAD`] is `u64::MAX`
    /// the encoding is total: `== u64::MAX` means an outstanding global
    /// load, `> now` a short RAW hazard, `<= now` operands ready.
    #[must_use]
    pub fn head_state(&self) -> Option<(u64, OpClass)> {
        let inst = self.head()?;
        let mut ready = 0u64;
        for src in inst.srcs.into_iter().flatten() {
            ready = ready.max(self.reg_ready[src as usize]);
        }
        if let Some(dst) = inst.dst {
            // Write-after-write on an in-flight load result.
            ready = ready.max(self.reg_ready[dst as usize]);
        }
        Some((ready, inst.op))
    }

    /// Total dynamic instructions this warp will issue.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }
}

/// Cycles the calendars' bucket ring spans: a stamp less than this many
/// cycles after the clock sits in bucket `stamp % WHEEL`, a later one in
/// the far set.
const WHEEL: u64 = 64;

/// Warp slots a [`WarpTable`] holds: one bit each of a `u64` mask.
const SLOTS: usize = 64;

/// Index of the calendar over head readiness (`WarpTable::head_ready`).
const HEAD: usize = 0;
/// Index of the calendar over fetch readiness (`WarpTable::fetch_at`).
const FETCH: usize = 1;

/// The two wakeup calendars of a [`WarpTable`], one per readiness stamp
/// array ([`HEAD`], [`FETCH`]): which slots are still waiting at `clock`,
/// bucketed by the cycle they wake. In each calendar a slot holds at most
/// one bit among the buckets and `far`, and only while its `pending` bit is
/// set. `u64::MAX` stamps (an outstanding load, a closed fetch port) never
/// enter. The calendars share one ring of bucket pairs, and `repr(C)` keeps
/// the clock and both pending and far sets together in 40 bytes at the
/// front, so a one-cycle advance reads and writes little more than those
/// and one bucket pair.
#[derive(Debug, Clone)]
#[repr(C)]
struct Calendars {
    /// The cycle the calendars were last advanced to.
    clock: u64,
    /// Per calendar, the slots whose stamp is a finite cycle after `clock`.
    pending: [u64; 2],
    /// Per calendar, the pending slots waking at `clock + WHEEL` or later.
    far: [u64; 2],
    /// `buckets[c % WHEEL][k]` holds calendar `k`'s pending slots waking at
    /// cycle `c`, for `c < clock + WHEEL`.
    buckets: [[u64; 2]; WHEEL as usize],
}

impl Calendars {
    const EMPTY: Self = Self {
        clock: 0,
        pending: [0; 2],
        far: [0; 2],
        buckets: [[0; 2]; WHEEL as usize],
    };

    /// Files slot `slot`, which holds no bit in calendar `k`, under
    /// `stamp`: nothing when the stamp is due or `u64::MAX`.
    fn place(&mut self, k: usize, slot: usize, stamp: u64) {
        if self.clock < stamp && stamp != u64::MAX {
            let bit = 1u64 << slot;
            self.pending[k] |= bit;
            if stamp - self.clock < WHEEL {
                self.buckets[(stamp % WHEEL) as usize][k] |= bit;
            } else {
                self.far[k] |= bit;
            }
        }
    }

    /// Moves slot `slot` of calendar `k` from its old stamp `old` to `new`.
    /// An unchanged stamp is already filed correctly for the clock.
    fn reschedule(&mut self, k: usize, slot: usize, old: u64, new: u64) {
        if old == new {
            return;
        }
        let bit = 1u64 << slot;
        if self.pending[k] & bit != 0 {
            self.pending[k] &= !bit;
            self.buckets[(old % WHEEL) as usize][k] &= !bit;
            self.far[k] &= !bit;
        }
        self.place(k, slot, new);
    }

    /// Moves the clock to `now`, a later cycle, over the slots' `stamps`
    /// (one array per calendar): the buckets of cycles `(clock, now]` wake,
    /// leaving the pending sets and freeing each bucket for the cycle
    /// `WHEEL` later, and far slots within reach of the ring move into
    /// their buckets. A jump of a whole ring or more would alias buckets,
    /// so it rebuilds instead.
    fn advance(&mut self, stamps: [&[u64; SLOTS]; 2], now: u64) {
        if now - self.clock >= WHEEL {
            self.rebuild(stamps, now);
            return;
        }
        for c in self.clock + 1..=now {
            let woke = std::mem::take(&mut self.buckets[(c % WHEEL) as usize]);
            self.pending[HEAD] &= !woke[HEAD];
            self.pending[FETCH] &= !woke[FETCH];
        }
        self.clock = now;
        if self.far != [0; 2] {
            self.migrate(stamps);
        }
    }

    /// Moves the far slots whose stamps now lie within the ring into their
    /// buckets.
    fn migrate(&mut self, stamps: [&[u64; SLOTS]; 2]) {
        let last = self.clock + (WHEEL - 1);
        for k in [HEAD, FETCH] {
            let mut m = self.far[k];
            while m != 0 {
                let slot = m.trailing_zeros() as usize;
                m &= m - 1;
                let stamp = stamps[k][slot];
                if stamp <= last {
                    self.far[k] &= !(1u64 << slot);
                    self.buckets[(stamp % WHEEL) as usize][k] |= 1u64 << slot;
                }
            }
        }
    }

    /// Moves the clock to `now` after a jump of a whole ring or more. Every
    /// bucketed stamp lies before the old clock plus `WHEEL`, so each of
    /// those slots has woken and only its bucket needs emptying; the far
    /// slots are filed again from their stamps.
    fn rebuild(&mut self, stamps: [&[u64; SLOTS]; 2], now: u64) {
        self.clock = now;
        for k in [HEAD, FETCH] {
            let mut woke = self.pending[k] & !self.far[k];
            while woke != 0 {
                let slot = woke.trailing_zeros() as usize;
                woke &= woke - 1;
                self.buckets[(stamps[k][slot] % WHEEL) as usize][k] = 0;
            }
            let mut far = std::mem::take(&mut self.far[k]);
            self.pending[k] = 0;
            while far != 0 {
                let slot = far.trailing_zeros() as usize;
                far &= far - 1;
                self.place(k, slot, stamps[k][slot]);
            }
        }
    }

    /// Oracle check of slot `slot` of calendar `k` against its stamp:
    /// pending exactly while `clock < stamp < u64::MAX`, and then in its own
    /// bucket (or far), with no bit anywhere else.
    fn assert_slot(&self, k: usize, slot: usize, stamp: u64) {
        let name = ["head", "fetch"][k];
        let clock = self.clock;
        let bit = 1u64 << slot;
        let pending = clock < stamp && stamp != u64::MAX;
        assert_eq!(
            self.pending[k] & bit != 0,
            pending,
            "slot {slot}: {name} calendar pending bit (stamp {stamp}, clock {clock})"
        );
        let home = (pending && stamp - clock < WHEEL).then_some(stamp % WHEEL);
        for (i, b) in (0..WHEEL).zip(self.buckets) {
            assert_eq!(
                b[k] & bit != 0,
                home == Some(i),
                "slot {slot}: {name} calendar bucket {i} (stamp {stamp}, clock {clock})"
            );
        }
        assert_eq!(
            self.far[k] & bit != 0,
            pending && home.is_none(),
            "slot {slot}: {name} calendar far bit (stamp {stamp}, clock {clock})"
        );
    }

    /// Every mask of both calendars, for the beyond-the-last-slot check.
    fn masks(&self) -> impl Iterator<Item = u64> {
        let buckets = self.buckets.into_iter().flatten();
        self.pending.into_iter().chain(self.far).chain(buckets)
    }
}

/// Struct-of-arrays mirror of the per-warp state the per-cycle stages
/// actually read: residency/finished/barrier/i-buffer/mem-pending bitmasks,
/// head op-class and fetch-open bitmasks, flat arrays of head readiness,
/// fetch readiness, and launch order, and a wakeup calendar over each of
/// the two readiness arrays. The [`Warp`] structs stay the source of truth;
/// the table is derived state maintained event-driven (after any mutation
/// of a warp the owning SM calls the writer for that event, which
/// re-derives what the event can change), so scheduler
/// selection, stall classification, and fetch eligibility are mask
/// arithmetic — the RAW and fetch-due sets are read off the calendars, as
/// of the table clock — instead of per-warp pointer chases.
/// Capacity is one `u64` of slots ([`SLOTS`]); [`WarpTable::new`] rejects
/// more.
#[derive(Debug, Clone)]
pub struct WarpTable {
    /// Occupied slots (whether or not the warp has finished issuing).
    resident: u64,
    /// Slots whose warp has issued its full instruction budget.
    finished: u64,
    /// Slots parked at a CTA-wide barrier.
    barrier: u64,
    /// Slots with an empty i-buffer (front-end starved).
    ib_empty: u64,
    /// Slots whose head instruction awaits an outstanding global load.
    mem_pending: u64,
    /// Decoded slots whose head instruction runs on the ALU.
    head_alu: u64,
    /// Decoded slots whose head instruction runs on the SFU.
    head_sfu: u64,
    /// Decoded slots whose head instruction is a CTA barrier. Every other
    /// decoded slot heads an LSU-class op.
    head_barrier: u64,
    /// Slots whose fetch port can open on its own (`fetch_at != u64::MAX`).
    fetch_open: u64,
    /// Slots in use, `0..n_slots`; the stamp arrays hold [`SLOTS`] inline
    /// so a stamp read is no pointer hop, and entries past `n_slots` stay
    /// at their vacant values.
    n_slots: usize,
    /// Sentinel-encoded head readiness per slot (see [`Warp::head_state`]).
    head_ready: [u64; SLOTS],
    /// Sentinel-encoded fetch readiness (see [`Warp::fetch_ready_at`]).
    fetch_at: [u64; SLOTS],
    /// Launch-order stamp per slot (greedy-then-oldest key).
    launch_seq: [u64; SLOTS],
    /// Wakeup calendars over `head_ready` (whose pending set is the RAW
    /// set) and `fetch_at` (the open slots whose fetch port is not yet due).
    cal: Calendars,
}

/// One scheduler's candidate warps at one cycle, split into the issuable
/// set and the five disjoint stall classes of the Fig. 1 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IssueClasses {
    /// Operands ready and the functional unit free.
    pub issuable: u64,
    /// The head instruction awaits an outstanding global load.
    pub mem: u64,
    /// The head instruction awaits a short ALU/SFU/shared-memory result.
    pub raw: u64,
    /// Operands ready but the functional unit busy.
    pub exec: u64,
    /// The i-buffer is empty.
    pub ibuffer: u64,
    /// Parked at a CTA-wide barrier.
    pub barrier: u64,
}

/// The Fig. 1 stall classes in priority order, as [`IssueClasses::stall_masks`]
/// lists their masks.
const STALL_ORDER: [StallReason; 5] = [
    StallReason::LongMemoryLatency,
    StallReason::ShortRawHazard,
    StallReason::ExecResource,
    StallReason::IbufferEmpty,
    StallReason::Barrier,
];

impl IssueClasses {
    /// The five stall-class masks in [`STALL_ORDER`].
    fn stall_masks(&self) -> [u64; 5] {
        [self.mem, self.raw, self.exec, self.ibuffer, self.barrier]
    }

    /// The reason a cycle that issued nothing is charged to: the class
    /// blocking the most warps, ties broken in the paper's Fig. 1 priority
    /// order (the *first* maximum wins), or `Idle` with no candidate warp.
    /// Most stalled cycles have one non-empty class, which wins without a
    /// count; only two or more non-empty classes are counted.
    #[must_use]
    pub fn stall_reason(&self) -> StallReason {
        let classes = self.stall_masks();
        // Bit `i` is set when class `i` blocks any warp.
        let nonempty = classes
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &mask)| acc | (u32::from(mask != 0) << i));
        match nonempty {
            0 => StallReason::Idle,
            one if one & (one - 1) == 0 => STALL_ORDER[one.trailing_zeros() as usize],
            _ => Self::most_blocked(classes),
        }
    }

    /// The first class of `classes` with the most warps, or `Idle` when
    /// every class is empty. Branch-free: each class's key is its count
    /// above its inverted index, so the largest key has the largest count
    /// and, among equal counts, the first index.
    fn most_blocked(classes: [u64; 5]) -> StallReason {
        let mut best = 0;
        for (i, mask) in (0u32..).zip(classes) {
            best = best.max(mask.count_ones() << 3 | (7 - i));
        }
        if best >> 3 == 0 {
            StallReason::Idle
        } else {
            STALL_ORDER[(7 - (best & 7)) as usize]
        }
    }
}

/// All-ones when `on`, zero otherwise.
fn fill(on: bool) -> u64 {
    0u64.wrapping_sub(u64::from(on))
}

/// Sets the bits of `bit` in `mask` when `on`, clears them otherwise.
fn put(mask: &mut u64, bit: u64, on: bool) {
    *mask = (*mask & !bit) | (bit & fill(on));
}

impl WarpTable {
    /// An empty table with `n_slots` warp slots (at most 64).
    #[must_use]
    pub fn new(n_slots: usize) -> Self {
        assert!(
            n_slots <= SLOTS,
            "WarpTable bitmasks hold at most 64 warp slots, got {n_slots}"
        );
        Self {
            resident: 0,
            finished: 0,
            barrier: 0,
            ib_empty: 0,
            mem_pending: 0,
            head_alu: 0,
            head_sfu: 0,
            head_barrier: 0,
            fetch_open: 0,
            n_slots,
            head_ready: [0; SLOTS],
            fetch_at: [u64::MAX; SLOTS],
            launch_seq: [0; SLOTS],
            cal: Calendars::EMPTY,
        }
    }

    // The per-slot state has five writers, one per kind of event: `refresh`
    // (launch, issue), `refresh_fetch`, `refresh_head` (a completed load),
    // `release_barrier` and `clear` (release). Each writes every entry its
    // event can change and nothing else; the strict-invariant oracle
    // (`assert_matches`) catches a writer that misses one. Only `refresh`,
    // `refresh_fetch`, `refresh_head` and `clear` write readiness stamps, so
    // only they move slots between calendar buckets.

    /// Re-derives every entry of slot `slot` from `warp`. A launch fills
    /// every field of the warp, and an issue can change all that the table
    /// reads: the instruction count (`finished`), the barrier flag, the
    /// i-buffer length (`fetch_at`), the head instruction and the register
    /// readiness (the head fields).
    pub fn refresh(&mut self, slot: usize, warp: &Warp) {
        let bit = 1u64 << slot;
        self.resident |= bit;
        put(&mut self.finished, bit, warp.finished());
        put(&mut self.barrier, bit, warp.at_barrier);
        self.launch_seq[slot] = warp.launch_seq;
        self.write_fetch(slot, warp);
        self.refresh_head(slot, warp);
    }

    /// Writes slot `slot`'s entries after a fetch into `warp`. A fetch
    /// changes the fetch pc, the fetch-ready cycle and the i-buffer length,
    /// so it moves `fetch_at` and `fetch_open`; into an empty i-buffer it
    /// also decodes a new head, and then the head fields are written too.
    pub fn refresh_fetch(&mut self, slot: usize, warp: &Warp) {
        self.write_fetch(slot, warp);
        if self.ib_empty & (1u64 << slot) != 0 {
            self.refresh_head(slot, warp);
        }
    }

    /// Writes slot `slot`'s head fields from `warp`: `head_ready`,
    /// `ib_empty`, `mem_pending` and the op-class masks. Called alone after
    /// a load of the warp completes (the last fill of a batch, or issue
    /// when every line hit), which changes only the register readiness and
    /// the outstanding loads: the head's stamp and its Mem class.
    pub fn refresh_head(&mut self, slot: usize, warp: &Warp) {
        let bit = 1u64 << slot;
        let (ready, op) = match warp.head_state() {
            Some((ready, op)) => (ready, Some(op)),
            None => (0, None),
        };
        self.cal
            .reschedule(HEAD, slot, self.head_ready[slot], ready);
        self.head_ready[slot] = ready;
        put(&mut self.ib_empty, bit, op.is_none());
        put(&mut self.mem_pending, bit, ready == PENDING_LOAD);
        put(&mut self.head_alu, bit, op == Some(OpClass::Alu));
        put(&mut self.head_sfu, bit, op == Some(OpClass::Sfu));
        put(&mut self.head_barrier, bit, op == Some(OpClass::Barrier));
    }

    /// Clears the barrier bits of `slots`, the warps of a CTA whose barrier
    /// released. A release changes only each warp's barrier flag; the
    /// releasing warp is refreshed in full by its own issue right after.
    pub fn release_barrier(&mut self, slots: u64) {
        self.barrier &= !slots;
    }

    /// Writes slot `slot`'s fetch stamp from `warp` and refiles it on the
    /// fetch calendar.
    fn write_fetch(&mut self, slot: usize, warp: &Warp) {
        let fetch_at = warp.fetch_ready_at();
        self.cal
            .reschedule(FETCH, slot, self.fetch_at[slot], fetch_at);
        self.fetch_at[slot] = fetch_at;
        put(&mut self.fetch_open, 1u64 << slot, fetch_at != u64::MAX);
    }

    /// Clears slot `slot` back to its vacant canonical state (warp
    /// released or CTA retired).
    pub fn clear(&mut self, slot: usize) {
        let keep = !(1u64 << slot);
        for mask in [
            &mut self.resident,
            &mut self.finished,
            &mut self.barrier,
            &mut self.ib_empty,
            &mut self.mem_pending,
            &mut self.head_alu,
            &mut self.head_sfu,
            &mut self.head_barrier,
            &mut self.fetch_open,
        ] {
            *mask &= keep;
        }
        self.cal.reschedule(HEAD, slot, self.head_ready[slot], 0);
        self.cal
            .reschedule(FETCH, slot, self.fetch_at[slot], u64::MAX);
        self.head_ready[slot] = 0;
        self.fetch_at[slot] = u64::MAX;
        self.launch_seq[slot] = 0;
    }

    /// Advances the wakeup calendars to cycle `now`: slots whose stamps
    /// fall in `(clock, now]` leave the pending sets. The RAW and fetch-due
    /// queries answer for the table clock only, so the SM advances before
    /// each tick and before each fast-forward query.
    pub fn advance(&mut self, now: u64) {
        crate::strict_assert!(
            now >= self.cal.clock,
            "warp table clock went backwards ({now} after {})",
            self.cal.clock
        );
        if now > self.cal.clock {
            self.cal.advance([&self.head_ready, &self.fetch_at], now);
        }
    }

    /// The cycle the calendars were last advanced to.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.cal.clock
    }

    /// Slots whose head readiness lies after `now`, which must be the
    /// table clock. Mem-pending and undecoded slots never appear: their
    /// stamps (`PENDING_LOAD`, 0) are never after the clock.
    #[must_use]
    pub(crate) fn head_waiting(&self, now: u64) -> u64 {
        crate::strict_assert!(
            self.cal.clock == now,
            "RAW query at {now}, table clock at {}",
            self.cal.clock
        );
        self.cal.pending[HEAD]
    }

    /// Occupied slots.
    #[must_use]
    pub fn resident_mask(&self) -> u64 {
        self.resident
    }

    /// Occupied slots that still have instructions to issue — the
    /// scheduler-candidate universe.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.resident & !self.finished
    }

    /// Slots parked at a barrier.
    #[must_use]
    pub fn barrier_mask(&self) -> u64 {
        self.barrier
    }

    /// Slots with an empty i-buffer.
    #[must_use]
    pub fn ib_empty_mask(&self) -> u64 {
        self.ib_empty
    }

    /// Slots whose head instruction awaits an outstanding global load.
    #[must_use]
    pub fn mem_pending_mask(&self) -> u64 {
        self.mem_pending
    }

    /// Decoded slots whose head instruction runs on the ALU.
    #[must_use]
    pub fn head_alu_mask(&self) -> u64 {
        self.head_alu
    }

    /// Decoded slots whose head instruction runs on the SFU.
    #[must_use]
    pub fn head_sfu_mask(&self) -> u64 {
        self.head_sfu
    }

    /// Launch-order stamps, one per slot (scheduler selection key).
    #[must_use]
    pub fn launch_seqs(&self) -> &[u64] {
        &self.launch_seq[..self.n_slots]
    }

    /// The earliest head readiness over the slots of `mask`, or `u64::MAX`
    /// for an empty mask.
    #[must_use]
    pub fn min_head_ready(&self, mask: u64) -> u64 {
        let mut best = u64::MAX;
        let mut m = mask;
        while m != 0 {
            best = best.min(self.head_ready[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        best
    }

    /// Decoded slots whose head instruction's functional unit is free,
    /// given which of the scheduler's ALU, SFU and LSU pipelines are free.
    /// Barriers need no unit. Bits of undecoded slots are meaningless, so
    /// callers intersect with operand-ready decoded slots.
    #[must_use]
    pub fn avail_mask(&self, alu_ok: bool, sfu_ok: bool, lsu_ok: bool) -> u64 {
        let lsu = !(self.head_alu | self.head_sfu | self.head_barrier);
        (self.head_alu & fill(alu_ok))
            | (self.head_sfu & fill(sfu_ok))
            | self.head_barrier
            | (lsu & fill(lsu_ok))
    }

    /// Splits the candidate slots `cand` of one scheduler into the issuable
    /// set and the Fig. 1 stall classes at cycle `now` (the table clock),
    /// given which of its functional units are free. Pure mask arithmetic:
    /// the RAW set is the head calendar's pending set.
    #[must_use]
    pub fn classify_issue(
        &self,
        cand: u64,
        now: u64,
        alu_ok: bool,
        sfu_ok: bool,
        lsu_ok: bool,
    ) -> IssueClasses {
        let barrier = cand & self.barrier;
        let rest = cand & !self.barrier;
        let ibuffer = rest & self.ib_empty;
        let decoded = rest & !self.ib_empty;
        let mem = decoded & self.mem_pending;
        let raw = decoded & !mem & self.head_waiting(now);
        let ready = decoded & !mem & !raw;
        let avail = self.avail_mask(alu_ok, sfu_ok, lsu_ok);
        IssueClasses {
            issuable: ready & avail,
            mem,
            raw,
            exec: ready & !avail,
            ibuffer,
            barrier,
        }
    }

    /// Live slots whose fetch port is open at `now`, which must be the
    /// table clock (`fetch_at <= now`): the open slots off the fetch
    /// calendar. Finished warps are fully fetched, so these are exactly the
    /// slots a fetch can succeed on.
    #[must_use]
    pub fn fetch_due(&self, now: u64) -> u64 {
        crate::strict_assert!(
            self.cal.clock == now,
            "fetch query at {now}, table clock at {}",
            self.cal.clock
        );
        self.live() & self.fetch_open & !self.cal.pending[FETCH]
    }

    /// The earliest cycle any live warp's fetch port opens, or `u64::MAX`
    /// when none can open on its own.
    #[must_use]
    pub fn next_fetch(&self) -> u64 {
        let mut best = u64::MAX;
        let mut m = self.live() & self.fetch_open;
        while m != 0 {
            best = best.min(self.fetch_at[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        best
    }

    /// Oracle check: asserts every derived entry matches a fresh
    /// recomputation from `warps`, and every calendar bit matches its
    /// slot's stamp at the table clock. This is the SoA-vs-oracle contract
    /// the strict-invariant layer runs inside the tick loop in debug builds.
    ///
    /// # Panics
    ///
    /// Panics on any divergence between the table and the warp array.
    pub fn assert_matches(&self, warps: &[Option<Warp>]) {
        assert_eq!(self.n_slots, warps.len(), "slot count mismatch");
        for slot in 0..warps.len() {
            self.cal.assert_slot(HEAD, slot, self.head_ready[slot]);
            self.cal.assert_slot(FETCH, slot, self.fetch_at[slot]);
        }
        let masks = [
            (self.resident, "resident"),
            (self.finished, "finished"),
            (self.barrier, "barrier"),
            (self.ib_empty, "ib_empty"),
            (self.mem_pending, "mem_pending"),
            (self.head_alu, "head_alu"),
            (self.head_sfu, "head_sfu"),
            (self.head_barrier, "head_barrier"),
            (self.fetch_open, "fetch_open"),
        ];
        for (slot, warp) in warps.iter().enumerate() {
            let bit = 1u64 << slot;
            let Some(w) = warp.as_ref() else {
                for (mask, name) in masks {
                    assert_eq!(mask & bit, 0, "slot {slot}: vacant but {name} bit set");
                }
                assert_eq!(self.fetch_at[slot], u64::MAX, "slot {slot}: stale fetch_at");
                continue;
            };
            let (ready, op) = match w.head_state() {
                Some((ready, op)) => (ready, Some(op)),
                None => (0, None),
            };
            let fetch_at = w.fetch_ready_at();
            let expect = [
                true,
                w.finished(),
                w.at_barrier,
                op.is_none(),
                ready == PENDING_LOAD,
                op == Some(OpClass::Alu),
                op == Some(OpClass::Sfu),
                op == Some(OpClass::Barrier),
                fetch_at != u64::MAX,
            ];
            for ((mask, name), on) in masks.into_iter().zip(expect) {
                assert_eq!(mask & bit != 0, on, "slot {slot}: {name} bit");
            }
            assert_eq!(self.fetch_at[slot], fetch_at, "slot {slot}: fetch_at");
            assert_eq!(
                self.launch_seq[slot], w.launch_seq,
                "slot {slot}: launch_seq"
            );
            assert_eq!(self.head_ready[slot], ready, "slot {slot}: head_ready");
        }
        let beyond = u64::MAX.checked_shl(warps.len() as u32).unwrap_or(0);
        for (mask, name) in masks {
            assert_eq!(mask & beyond, 0, "{name} bit set beyond the last slot");
        }
        for mask in self.cal.masks() {
            assert_eq!(mask & beyond, 0, "calendar bit beyond the last slot");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Warp {
        /// Whether the i-buffer is empty (front-end starved).
        fn ibuffer_empty(&self) -> bool {
            self.ib_len == 0
        }
    }
    use crate::access::AccessPattern;
    use crate::program::{Inst, Program};
    use crate::rng::SimRng;

    fn alu(dst: Reg, src: Reg) -> Inst {
        Inst {
            op: OpClass::Alu,
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    fn load(dst: Reg, src: Reg) -> Inst {
        Inst {
            op: OpClass::GlobalLoad,
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    fn kernel_with(insts: Vec<Inst>, iterations: u32) -> KernelDesc {
        KernelDesc {
            name: "w".into(),
            grid_ctas: 1,
            threads_per_cta: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: Program::new(insts),
            iterations,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 1,
        }
    }

    fn warp_for(desc: &KernelDesc) -> Warp {
        Warp::new(desc, KernelId(0), 0, 0, 0, 0, 0, 2)
    }

    #[test]
    fn fetch_fills_ibuffer_and_wraps() {
        let desc = kernel_with(vec![alu(0, 1), alu(1, 0)], 2);
        let mut w = warp_for(&desc);
        assert_eq!(w.fetch_ready_at(), 0);
        assert!(w.fetch(0, &desc, 1, 0));
        assert!(!w.ibuffer_empty());
        // Second fetch gated by fetch latency.
        assert_eq!(w.fetch_ready_at(), 1);
        assert!(!w.fetch(0, &desc, 1, 0));
        assert_eq!(w.ib_len, 1);
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.ib_len, 2);
        // Buffer full: no more fetches, and the port cannot reopen on its own.
        assert_eq!(w.fetch_ready_at(), u64::MAX);
        assert!(!w.fetch(2, &desc, 1, 0));
        assert_eq!(w.ib_len, 2);
        // Drain and keep fetching: 4 total instructions then fetch_done.
        let _ = w.issue(2, 1, &desc.program);
        let _ = w.issue(2, 1, &desc.program);
        w.fetch(3, &desc, 1, 0);
        w.fetch(4, &desc, 1, 0);
        assert!(w.fetch_done());
        let _ = w.issue(5, 1, &desc.program);
        assert_eq!(w.fetch_ready_at(), u64::MAX, "fully fetched");
        let _ = w.issue(5, 1, &desc.program);
        assert!(w.finished());
    }

    fn sfu(dst: Reg, src: Reg) -> Inst {
        Inst {
            op: OpClass::Sfu,
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    #[test]
    fn head_follows_the_body_across_the_wrap() {
        // A 3-instruction body behind a 4-entry i-buffer: the window wraps
        // inside one buffer (a, b, c, a), and each issue decodes the next
        // body instruction, back to the start after the last.
        let body = vec![alu(0, 1), sfu(1, 2), load(2, 3)];
        let desc = kernel_with(body.clone(), 2);
        let mut w = Warp::new(&desc, KernelId(0), 0, 0, 0, 0, 0, 4);
        for _ in 0..4 {
            assert!(w.fetch(0, &desc, 0, 0));
        }
        assert_eq!(w.ib_len, 4);
        assert_eq!(w.head(), Some(body[0]));
        for (issued, expect) in [(0, 1), (1, 2), (2, 0)] {
            assert_eq!(w.issue(0, 1, &desc.program), body[issued]);
            assert_eq!(w.head(), Some(body[expect]), "after issuing {issued}");
        }
        assert_eq!(w.issue(0, 1, &desc.program), body[0]);
        assert_eq!(w.head(), None, "window drained");
        assert!(w.ibuffer_empty());
        // The next fetch resumes at the second iteration's `b`.
        assert!(w.fetch(0, &desc, 0, 0));
        assert_eq!(w.head(), Some(body[1]));
    }

    #[test]
    fn head_on_the_last_iteration_then_none_once_drained() {
        let body = vec![alu(0, 1), sfu(1, 0)];
        let desc = kernel_with(body.clone(), 2);
        let mut w = warp_for(&desc);
        // First iteration in and out.
        w.fetch(0, &desc, 0, 0);
        w.fetch(0, &desc, 0, 0);
        let _ = w.issue(0, 1, &desc.program);
        let _ = w.issue(0, 1, &desc.program);
        assert_eq!(w.head(), None);
        // Last iteration: the fetch front end finishes with the window
        // full, and the head still walks the body.
        w.fetch(0, &desc, 0, 0);
        w.fetch(0, &desc, 0, 0);
        assert!(w.fetch_done());
        assert_eq!(w.head(), Some(body[0]));
        assert_eq!(w.issue(0, 1, &desc.program), body[0]);
        assert_eq!(
            w.head(),
            Some(body[1]),
            "last instruction of the last iteration"
        );
        assert_eq!(w.head_state(), Some((1, OpClass::Sfu)));
        assert_eq!(w.issue(0, 1, &desc.program), body[1]);
        assert_eq!(w.head(), None, "drained for good");
        assert_eq!(w.head_state(), None);
        assert!(w.finished());
        assert!(!w.fetch(1, &desc, 0, 0), "nothing left to fetch");
    }

    #[test]
    #[should_panic(expected = "issue on empty i-buffer")]
    fn issue_on_an_empty_window_panics() {
        let desc = kernel_with(vec![alu(0, 1)], 1);
        let mut w = warp_for(&desc);
        let _ = w.issue(0, 1, &desc.program);
    }

    #[test]
    fn raw_hazard_blocks_until_latency_elapses() {
        let desc = kernel_with(vec![alu(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.head_state(), Some((0, OpClass::Alu)));
        let _ = w.issue(0, 10, &desc.program); // r0 ready at 10
        assert_eq!(w.head_state(), Some((10, OpClass::Alu)));
    }

    #[test]
    fn load_blocks_consumer_until_fill() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        w.fetch(1, &desc, 1, 0);
        let inst = w.issue(0, 0, &desc.program);
        assert_eq!(inst.op, OpClass::GlobalLoad);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        assert!(!w.finish_load_issue(id, 0));
        assert_eq!(w.head_state(), Some((PENDING_LOAD, OpClass::Alu)));
        assert!(w.complete_load_transaction(id, 150));
        assert_eq!(w.head_state(), Some((150, OpClass::Alu)));
    }

    #[test]
    fn all_hit_load_completes_at_issue() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        let inst = w.issue(0, 0, &desc.program);
        let id = w.begin_load(inst.dst.unwrap());
        assert!(w.finish_load_issue(id, 28));
        assert_eq!(w.head_state(), None, "ALU not fetched yet");
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.head_state(), Some((28, OpClass::Alu)));
    }

    #[test]
    fn waw_on_inflight_load_destination_blocks() {
        // Two loads to the same destination register: the second must wait
        // for the first fill (write-after-write on r0).
        let desc = kernel_with(vec![load(0, 1), load(0, 2)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 0, 0);
        w.fetch(0, &desc, 0, 0);
        let first = w.issue(0, 0, &desc.program);
        let id = w.begin_load(first.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        assert_eq!(
            w.head_state(),
            Some((PENDING_LOAD, OpClass::GlobalLoad)),
            "second load must stall on the in-flight destination"
        );
        assert!(w.complete_load_transaction(id, 120));
        assert_eq!(w.head_state(), Some((120, OpClass::GlobalLoad)));
    }

    #[test]
    fn stale_fill_is_ignored() {
        let desc = kernel_with(vec![load(0, 1)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 0, &desc.program);
        assert!(!w.complete_load_transaction(99, 10));
    }

    #[test]
    fn icache_misses_delay_fetch() {
        let mut desc = kernel_with(vec![alu(0, 1); 100], 10);
        desc.icache_miss_rate = 1.0;
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 2, 40);
        assert_eq!(w.ib_len, 1);
        // Every fetch misses: next fetch not ready until 42.
        w.fetch(41, &desc, 2, 40);
        assert_eq!(w.ib_len, 1);
        w.fetch(42, &desc, 2, 40);
        assert_eq!(w.ib_len, 2);
    }

    #[test]
    fn warp_table_tracks_fetch_issue_and_load_lifecycle() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(4);
        t.refresh(0, &w);
        assert_eq!(t.resident_mask(), 1);
        assert_eq!(t.live(), 1);
        assert_ne!(t.ib_empty_mask() & 1, 0, "nothing fetched yet");
        assert_eq!(t.next_fetch(), 0, "fetch port open immediately");
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        // Each event goes through the writer scoped to it.
        w.fetch(0, &desc, 1, 0);
        t.refresh_fetch(0, &w);
        assert_eq!(t.ib_empty_mask() & 1, 0);
        // A global load heads the i-buffer: it issues exactly when the LSU
        // is free.
        assert_eq!(t.classify_issue(1, 0, true, true, true).issuable, 1);
        assert_eq!(t.classify_issue(1, 0, true, true, false).exec, 1);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        let inst = w.issue(0, 0, &desc.program);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        t.refresh(0, &w);
        assert_ne!(t.ib_empty_mask() & 1, 0, "issue drained the i-buffer");
        w.fetch(1, &desc, 1, 0);
        t.refresh_fetch(0, &w);
        assert_ne!(t.mem_pending_mask() & 1, 0, "consumer blocked on load");
        assert_eq!(t.min_head_ready(1), PENDING_LOAD);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        assert!(w.complete_load_transaction(id, 50));
        t.refresh_head(0, &w);
        assert_eq!(t.mem_pending_mask() & 1, 0);
        assert_eq!(t.min_head_ready(1), 50);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        t.clear(0);
        assert_eq!(t.resident_mask(), 0);
        assert_eq!(t.next_fetch(), u64::MAX);
        t.assert_matches(&[None, None, None, None]);
    }

    #[test]
    fn warp_table_tracks_barrier_and_finished_bits() {
        let desc = kernel_with(
            vec![Inst {
                op: OpClass::Barrier,
                dst: None,
                srcs: [None, None],
            }],
            1,
        );
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(2);
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 0, &desc.program);
        w.at_barrier = true;
        t.refresh(0, &w);
        assert_ne!(t.barrier_mask() & 1, 0);
        assert_eq!(t.live(), 0, "finished warp leaves the candidate set");
        t.assert_matches(&[Some(w.clone()), None]);
        w.at_barrier = false;
        t.release_barrier(1);
        assert_eq!(t.barrier_mask(), 0);
        t.assert_matches(&[Some(w), None]);
    }

    #[test]
    fn far_stamps_wake_on_time_whether_the_clock_steps_or_jumps() {
        // An ALU result 100 cycles out files the dependent head in the far
        // set; it must leave the RAW set exactly at cycle 100.
        let desc = kernel_with(vec![alu(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 0, 0);
        w.fetch(0, &desc, 0, 0);
        let _ = w.issue(0, 100, &desc.program);
        let mut t = WarpTable::new(1);
        t.refresh(0, &w);
        let warps = [Some(w)];
        t.assert_matches(&warps);
        let start = t.clone();
        for now in 1..=100 {
            t.advance(now);
            t.assert_matches(&warps);
            assert_eq!(t.head_waiting(now), u64::from(now < 100), "step to {now}");
        }
        for (now, waiting) in [(99, 1), (100, 0)] {
            let mut jumped = start.clone();
            jumped.advance(now);
            jumped.assert_matches(&warps);
            assert_eq!(jumped.head_waiting(now), waiting, "jump to {now}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 warp slots")]
    fn warp_table_rejects_more_than_64_slots() {
        let _ = WarpTable::new(65);
    }

    #[test]
    #[should_panic(expected = "finished bit")]
    fn warp_table_oracle_catches_divergence() {
        let desc = kernel_with(vec![alu(0, 1)], 1);
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(1);
        t.refresh(0, &w);
        // Mutate the warp without refreshing: the oracle must object.
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 1, &desc.program);
        t.assert_matches(&[Some(w)]);
    }

    /// The counting `stall_reason` body the one-class fast path replaced:
    /// every class is counted and the first maximum wins.
    fn reference_stall_reason(c: &IssueClasses) -> StallReason {
        let counts = [
            (c.mem.count_ones(), StallReason::LongMemoryLatency),
            (c.raw.count_ones(), StallReason::ShortRawHazard),
            (c.exec.count_ones(), StallReason::ExecResource),
            (c.ibuffer.count_ones(), StallReason::IbufferEmpty),
            (c.barrier.count_ones(), StallReason::Barrier),
        ];
        let mut best = (0, StallReason::Idle);
        for c in counts {
            if c.0 > best.0 {
                best = c;
            }
        }
        best.1
    }

    /// Disjoint classes with `counts[i]` slots in stall class `i` (in
    /// Fig. 1 order) and `issuable` in the issuable set, laid out from the
    /// slot `rng` picks, or at slot 0 without one.
    fn classes_with(counts: [u32; 5], issuable: u32, rng: Option<&mut SimRng>) -> IssueClasses {
        let mut slots: Vec<usize> = (0..64).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut slots);
        }
        let mut next = slots.into_iter();
        let mut take = |n: u32| (0..n).fold(0u64, |m, _| m | 1u64 << next.next().unwrap());
        let [mem, raw, exec, ibuffer, barrier] = counts.map(&mut take);
        IssueClasses {
            issuable: take(issuable),
            mem,
            raw,
            exec,
            ibuffer,
            barrier,
        }
    }

    #[test]
    fn stall_reason_is_the_reference_count() {
        // Every layout of 0-2 warps per class: all-empty, one-class and
        // every tie among two to five classes, with and without issuable
        // warps (which no class counts).
        for code in 0..3u32.pow(6) {
            let digit = |i: u32| code / 3u32.pow(i) % 3;
            let counts = [digit(0), digit(1), digit(2), digit(3), digit(4)];
            let c = classes_with(counts, digit(5), None);
            assert_eq!(c.stall_reason(), reference_stall_reason(&c), "{counts:?}");
        }
        // Random disjoint classes over all 64 slots, sparse to full: ties
        // at larger counts, one-class masks and empty cycles.
        let mut rng = SimRng::seed_from_u64(0x5a11);
        let (mut ties, mut single, mut empty) = (0, 0, 0);
        for _ in 0..20_000 {
            let mut budget = 64;
            let mut counts = [0u32; 5];
            for n in &mut counts {
                if rng.range_u64(3) != 0 {
                    *n = rng.range_u64(u64::from(budget.min(6)) + 1) as u32;
                    budget -= *n;
                }
            }
            let issuable = rng.range_u64(u64::from(budget) + 1) as u32;
            let c = classes_with(counts, issuable, Some(&mut rng));
            let nonempty = counts.iter().filter(|&&n| n > 0).count();
            let top = counts.iter().max().copied().unwrap_or(0);
            ties += usize::from(top > 0 && counts.iter().filter(|&&n| n == top).count() > 1);
            single += usize::from(nonempty == 1);
            empty += usize::from(nonempty == 0);
            assert_eq!(c.stall_reason(), reference_stall_reason(&c), "{c:?}");
        }
        assert!(
            ties > 1_000 && single > 1_000 && empty > 100,
            "{ties} {single} {empty}"
        );
    }

    #[test]
    fn mem_pending_dominates_raw() {
        let both = Inst {
            op: OpClass::Alu,
            dst: Some(3),
            srcs: [Some(1), Some(0)],
        };
        let desc = kernel_with(vec![load(0, 1), alu(1, 2), both], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 0, 0);
        let inst = w.issue(0, 0, &desc.program);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        w.fetch(1, &desc, 0, 0);
        let _ = w.issue(1, 10, &desc.program); // r1 ready at 11
        w.fetch(2, &desc, 0, 0);
        // Head reads r1 (RAW until 11) and r0 (mem-pending): the sentinel
        // dominates the max, so the warp classifies as mem-pending.
        assert_eq!(w.head_state(), Some((PENDING_LOAD, OpClass::Alu)));
    }
}
