//! GDDR5 memory-channel model with FR-FCFS scheduling.
//!
//! Each channel owns a request queue and a set of banks with open-row
//! tracking. Scheduling is first-ready, first-come-first-serve: a request
//! hitting an open row is served before older row-miss requests. Timing
//! parameters are the Table I GDDR5 numbers, converted from DRAM command
//! clocks into core cycles.

use std::collections::VecDeque;

use crate::access::LineAddr;
use crate::config::{DramTiming, MemConfig};

/// A request as seen by a DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Line address (global).
    pub line: LineAddr,
    /// Opaque tag the memory subsystem uses to route the completion.
    pub tag: u64,
    /// Arrival order stamp for FCFS tie-breaking.
    pub arrival: u64,
}

/// A serviced request and the core cycle its data is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// The request that completed.
    pub req: DramRequest,
    /// Core cycle at which the data burst finishes.
    pub ready_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
}

/// A queued request with the bank and row its line maps to, computed once
/// at [`DramChannel::enqueue`].
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: DramRequest,
    bank: usize,
    row: u64,
}

/// One GDDR5 channel: bounded queue, banks, row-buffer state.
#[derive(Debug)]
pub struct DramChannel {
    queue: VecDeque<Queued>,
    banks: Vec<Bank>,
    lines_per_row: u64,
    queue_capacity: usize,
    /// Cycle until which the data bus is occupied.
    busy_until: u64,
    // Timings in core cycles.
    lat_row_hit: u64,
    lat_row_miss: u64,
    lat_row_closed: u64,
    burst: u64,
    // Statistics.
    serviced: u64,
    row_hits: u64,
    busy_cycles: u64,
}

impl DramChannel {
    /// Creates a channel from the memory configuration; `core_per_dram` is
    /// the clock-ratio used to convert timings into core cycles.
    #[must_use]
    pub fn new(cfg: &MemConfig, core_per_dram: f64) -> Self {
        let t = &cfg.timing;
        let cvt =
            |dram_cycles: u32| -> u64 { (f64::from(dram_cycles) * core_per_dram).round() as u64 };
        let DramTiming {
            t_cl,
            t_rp,
            t_rcd,
            t_burst,
            ..
        } = *t;
        Self {
            queue: VecDeque::with_capacity(cfg.dram_queue_entries as usize),
            banks: vec![Bank { open_row: None }; cfg.banks_per_channel as usize],
            lines_per_row: u64::from(cfg.row_bytes / 128).max(1),
            queue_capacity: cfg.dram_queue_entries as usize,
            busy_until: 0,
            lat_row_hit: cvt(t_cl + t_burst),
            lat_row_miss: cvt(t_rp + t_rcd + t_cl + t_burst),
            lat_row_closed: cvt(t_rcd + t_cl + t_burst),
            burst: cvt(t_burst).max(1),
            serviced: 0,
            row_hits: 0,
            busy_cycles: 0,
        }
    }

    /// The most requests the channel holds at once, from `enqueue` to the
    /// cycle their data is ready: a full queue plus the dispatched ones
    /// still in flight. Dispatches are at least a burst apart and none
    /// takes longer than the slowest row access, so at most
    /// `slowest / burst + 1` are in flight.
    #[must_use]
    pub(crate) fn max_outstanding(&self) -> usize {
        let slowest = self
            .lat_row_hit
            .max(self.lat_row_miss)
            .max(self.lat_row_closed);
        let in_flight = usize::try_from(slowest / self.burst + 1).unwrap_or(usize::MAX);
        self.queue_capacity.saturating_add(in_flight)
    }

    /// Whether the request queue can accept another entry.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_capacity
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers must check [`Self::can_accept`].
    pub fn enqueue(&mut self, req: DramRequest) {
        assert!(self.can_accept(), "DRAM queue overflow");
        let (bank, row) = self.bank_and_row(req.line);
        self.queue.push_back(Queued { req, bank, row });
    }

    fn bank_and_row(&self, line: LineAddr) -> (usize, u64) {
        let within_channel = line; // channel bits already stripped by caller
        let bank = (within_channel % self.banks.len() as u64) as usize;
        let row = within_channel / self.banks.len() as u64 / self.lines_per_row;
        (bank, row)
    }

    /// Advances the channel by one core cycle, possibly starting one
    /// request. Returns the completion if a request was dispatched.
    pub fn tick(&mut self, now: u64) -> Option<DramCompletion> {
        if now < self.busy_until {
            self.busy_cycles += 1;
            return None;
        }
        if self.queue.is_empty() {
            return None;
        }
        let pick = self.fr_fcfs_pick();
        // Invariant: `pick` came from enumerating this queue.
        // xtask-allow: no-unwrap
        let Queued { req, bank, row } = self.queue.remove(pick).expect("index in range");
        let latency = match self.banks[bank].open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                self.lat_row_hit
            }
            Some(_) => self.lat_row_miss,
            None => self.lat_row_closed,
        };
        self.banks[bank].open_row = Some(row);
        self.busy_until = now + self.burst;
        self.busy_cycles += 1;
        self.serviced += 1;
        Some(DramCompletion {
            req,
            ready_at: now + latency,
        })
    }

    /// The queue index FR-FCFS serves next: the oldest request hitting its
    /// bank's open row, else the oldest request (index 0).
    fn fr_fcfs_pick(&self) -> usize {
        self.queue
            .iter()
            .position(|q| self.banks[q.bank].open_row == Some(q.row))
            .unwrap_or(0)
    }

    /// The earliest cycle `>= from` at which this channel can dispatch a
    /// queued request, or `None` when the queue is empty (an idle channel
    /// only accrues bus-occupancy cycles, which [`Self::account_skip`]
    /// replays in bulk).
    #[must_use]
    pub fn next_dispatch(&self, from: u64) -> Option<u64> {
        (!self.queue.is_empty()).then(|| self.busy_until.max(from))
    }

    /// Whether a `tick(now)` would be a pure no-op: nothing queued and the
    /// data bus free, so neither a dispatch nor a `busy_cycles` increment
    /// can happen. Lets the memory subsystem skip the channel entirely
    /// (micro-horizon) without changing any statistics.
    #[must_use]
    pub fn idle_at(&self, now: u64) -> bool {
        self.queue.is_empty() && now >= self.busy_until
    }

    /// Bulk-replays the per-cycle accounting `tick` would have performed
    /// over the dead span `[from, to)`: the bus-occupancy counter advances
    /// while `now < busy_until`, and nothing else can change because the
    /// fast-forward horizon guarantees no dispatch happens before `to`.
    pub fn account_skip(&mut self, from: u64, to: u64) {
        self.busy_cycles += self.busy_until.min(to).saturating_sub(from);
    }

    /// Requests serviced so far.
    #[must_use]
    pub fn serviced(&self) -> u64 {
        self.serviced
    }

    /// Row-buffer hits so far.
    #[must_use]
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Cycles the data bus was occupied.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Outstanding queued requests.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn channel() -> DramChannel {
        let cfg = GpuConfig::isca_baseline();
        DramChannel::new(&cfg.mem, cfg.core_per_dram_clock())
    }

    fn req(line: LineAddr, arrival: u64) -> DramRequest {
        DramRequest {
            line,
            tag: line,
            arrival,
        }
    }

    #[test]
    fn sequential_lines_hit_the_row_buffer() {
        let mut ch = channel();
        // Same bank + row: lines k*banks for small k share bank 0 and row 0.
        ch.enqueue(req(0, 0));
        ch.enqueue(req(8, 1));
        ch.enqueue(req(16, 2));
        let mut now = 0;
        let mut completions = Vec::new();
        while completions.len() < 3 {
            if let Some(c) = ch.tick(now) {
                completions.push(c);
            }
            now += 1;
        }
        assert_eq!(ch.row_hits(), 2);
        // The first access opens the row (closed-bank latency); later ones
        // are faster row hits.
        let first = completions[0].ready_at;
        let second = completions[1].ready_at - completions[1].req.arrival;
        assert!(first > 0 && second > 0);
    }

    #[test]
    fn row_conflicts_pay_precharge() {
        let mut ch = channel();
        let lines_per_row = 2048 / 128;
        // Two requests to bank 0, different rows.
        ch.enqueue(req(0, 0));
        ch.enqueue(req(8 * lines_per_row, 1));
        let c0 = loop {
            if let Some(c) = ch.tick(0) {
                break c;
            }
        };
        let mut now = c0.ready_at.max(1);
        // Drain bus occupancy.
        let c1 = loop {
            if let Some(c) = ch.tick(now) {
                break c;
            }
            now += 1;
        };
        let lat0 = c0.ready_at;
        let lat1 = c1.ready_at - now;
        assert!(lat1 > lat0, "conflict ({lat1}) should exceed cold ({lat0})");
        assert_eq!(ch.row_hits(), 0);
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut ch = channel();
        // Open row 0 of bank 0.
        ch.enqueue(req(0, 0));
        let _ = ch.tick(0).unwrap();
        // Queue: row-conflict first (arrival order), then a row hit.
        let lines_per_row = 2048 / 128;
        ch.enqueue(req(8 * lines_per_row, 1)); // bank 0, row 1
        ch.enqueue(req(8, 2)); // bank 0, row 0 -> hit
        let mut now = 100;
        let c = loop {
            if let Some(c) = ch.tick(now) {
                break c;
            }
            now += 1;
        };
        assert_eq!(c.req.line, 8, "row-hit request should be served first");
    }

    #[test]
    fn bus_occupancy_limits_throughput() {
        let mut ch = channel();
        for i in 0..8 {
            ch.enqueue(req(i * 8, i));
        }
        let mut served_at = Vec::new();
        for now in 0..200 {
            if let Some(_c) = ch.tick(now) {
                served_at.push(now);
            }
        }
        assert_eq!(served_at.len(), 8);
        for w in served_at.windows(2) {
            assert!(w[1] - w[0] >= 6, "burst gap violated: {:?}", w);
        }
    }

    #[test]
    fn queue_capacity_backpressures() {
        let cfg = GpuConfig::isca_baseline();
        let mut ch = DramChannel::new(&cfg.mem, cfg.core_per_dram_clock());
        for i in 0..cfg.mem.dram_queue_entries as u64 {
            assert!(ch.can_accept());
            ch.enqueue(req(i, i));
        }
        assert!(!ch.can_accept());
    }

    /// The FR-FCFS pick the stored `(bank, row)` replaced: it recomputes
    /// each queued line's bank and row on every scan.
    fn reference_pick(ch: &DramChannel) -> usize {
        let banks = ch.banks.len() as u64;
        ch.queue
            .iter()
            .position(|q| {
                let bank = (q.req.line % banks) as usize;
                let row = q.req.line / banks / ch.lines_per_row;
                ch.banks[bank].open_row == Some(row)
            })
            .unwrap_or(0)
    }

    #[test]
    fn fr_fcfs_pick_is_the_reference_scan() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0xd7a3);
        // Picks that skipped older requests for a row hit, and picks that
        // found no row hit and fell back to the oldest.
        let (mut reordered, mut fallback) = (0, 0);
        for trial in 0..5_000u64 {
            let mut ch = channel();
            let banks = ch.banks.len() as u64;
            // Four rows per bank, so queued lines often meet an open row.
            let rows = 4;
            for bank in &mut ch.banks {
                bank.open_row = (rng.range_u64(4) != 0).then(|| rng.range_u64(rows));
            }
            let len = 1 + rng.range_usize(ch.queue_capacity);
            for i in 0..len as u64 {
                let line = rng.range_u64(banks * ch.lines_per_row * rows);
                ch.enqueue(req(line, i));
            }
            let pick = reference_pick(&ch);
            assert_eq!(ch.fr_fcfs_pick(), pick, "trial {trial}");
            let served = ch.queue[pick].req;
            let row_hit = ch.banks[(served.line % banks) as usize].open_row
                == Some(served.line / banks / ch.lines_per_row);
            reordered += usize::from(pick > 0);
            fallback += usize::from(!row_hit);
            let done = ch.tick(trial).expect("a free bus dispatches");
            assert_eq!(done.req, served, "trial {trial}");
            assert_eq!(ch.row_hits(), u64::from(row_hit), "trial {trial}");
        }
        assert!(
            reordered > 1_000 && fallback > 500,
            "{reordered} reordered, {fallback} fell back to the oldest"
        );
    }

    #[test]
    #[should_panic(expected = "DRAM queue overflow")]
    fn overflow_panics() {
        let mut ch = channel();
        // One more request than the queue holds.
        for i in 0..100 {
            ch.enqueue(req(i, i));
        }
    }
}
