//! Miss-status holding registers.
//!
//! Each SM's L1 tracks outstanding misses in an MSHR table. Misses to a line
//! that is already in flight merge into the existing entry (up to a merge
//! limit); a full table back-pressures the LSU, which is one of the
//! contention effects intra-SM sharing must manage.

use crate::access::LineAddr;

/// Identifies a load waiting on an in-flight line. The SM resolves this to a
/// warp slot when the fill returns; the generation counter guards against a
/// slot being recycled while the fill is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrWaiter {
    /// Warp slot within the owning SM.
    pub warp_slot: usize,
    /// Generation of the warp occupying the slot when the miss was issued.
    pub warp_gen: u32,
    /// The warp-local load this transaction belongs to.
    pub load_id: u32,
}

/// Outcome of registering a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated: the caller must forward a memory request.
    Allocated,
    /// Merged into an in-flight entry: no new memory request needed.
    Merged,
    /// Table or merge capacity exhausted: the access must retry later.
    Rejected,
}

/// MSHR table: line address -> waiters, as flat arrays sized once.
///
/// Entry `i` is line `lines[i]` with `counts[i]` waiters, kept in
/// registration order in row `i` of `slots`. The table holds a few dozen
/// lines, so a lookup is a linear scan of `lines`, and a completion
/// `swap_remove`s its entry (moving the last entry's row into its place):
/// the order of the entries shifts, but nothing result-bearing iterates
/// them (only the invariant walk does), and each line's waiters keep their
/// order.
///
/// The config bounds the table: at most `max_entries` lines, each with at
/// most `max_merged` waiters, since `register` rejects a miss past either
/// bound. So `slots` is one `max_entries x max_merged` allocation made by
/// [`Self::new`], and registering or completing a miss never allocates.
#[derive(Debug, Clone)]
pub struct MshrTable {
    /// In-flight line addresses, one per entry.
    lines: Vec<LineAddr>,
    /// Waiters merged into each entry, parallel to `lines`.
    counts: Vec<usize>,
    /// Row `i` (`max_merged` wide) holds entry `i`'s waiters.
    slots: Box<[MshrWaiter]>,
    max_entries: usize,
    max_merged: usize,
}

impl MshrTable {
    /// Creates a table with `max_entries` distinct in-flight lines and up to
    /// `max_merged` waiters per line.
    #[must_use]
    pub fn new(max_entries: u32, max_merged: u32) -> Self {
        // u32 -> usize never truncates. xtask-allow: no-lossy-cast
        let max_entries = max_entries as usize;
        // xtask-allow: no-lossy-cast
        let max_merged = max_merged.max(1) as usize;
        let empty = MshrWaiter {
            warp_slot: 0,
            warp_gen: 0,
            load_id: 0,
        };
        Self {
            lines: Vec::with_capacity(max_entries),
            counts: Vec::with_capacity(max_entries),
            slots: vec![empty; max_entries.saturating_mul(max_merged)].into_boxed_slice(),
            max_entries,
            max_merged,
        }
    }

    /// The entry tracking `line`, if it is in flight.
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Registers a miss on `line` for `waiter`.
    pub fn register(&mut self, line: LineAddr, waiter: MshrWaiter) -> MshrOutcome {
        let (entry, outcome) = match self.find(line) {
            Some(i) if self.counts[i] >= self.max_merged => return MshrOutcome::Rejected,
            Some(i) => (i, MshrOutcome::Merged),
            None if self.lines.len() >= self.max_entries => return MshrOutcome::Rejected,
            None => {
                self.lines.push(line);
                self.counts.push(0);
                (self.lines.len() - 1, MshrOutcome::Allocated)
            }
        };
        // Both bounds were checked above, so the slot lies inside the
        // entry's row.
        crate::strict_assert!(
            entry < self.max_entries && self.counts[entry] < self.max_merged,
            "MSHR corruption: waiter {} of entry {entry} is past the {}x{} table",
            self.counts[entry],
            self.max_entries,
            self.max_merged
        );
        self.slots[entry * self.max_merged + self.counts[entry]] = waiter;
        self.counts[entry] += 1;
        if crate::invariant::enabled() && outcome == MshrOutcome::Allocated {
            self.assert_within_bounds();
        }
        outcome
    }

    /// Verifies that the table respects its configured bounds, panicking on
    /// the first violation.
    ///
    /// Runs automatically after every allocation when strict invariants are
    /// compiled in (see [`crate::invariant::enabled`]).
    ///
    /// # Panics
    ///
    /// Panics if more lines are in flight than the table has entries, a
    /// line is tracked twice, or a line holds more (or fewer) waiters than
    /// the merge bound allows.
    pub fn assert_within_bounds(&self) {
        assert_eq!(
            self.lines.len(),
            self.counts.len(),
            "MSHR corruption: line and waiter arrays out of step"
        );
        assert!(
            self.lines.len() <= self.max_entries,
            "MSHR corruption: {} in-flight lines exceed the {}-entry table",
            self.lines.len(),
            self.max_entries
        );
        for (i, (line, &waiters)) in self.lines.iter().zip(&self.counts).enumerate() {
            assert!(
                !self.lines[..i].contains(line),
                "MSHR corruption: line {line:#x} tracked twice"
            );
            assert!(
                waiters > 0,
                "MSHR corruption: line {line:#x} tracked with no waiters"
            );
            assert!(
                waiters <= self.max_merged,
                "MSHR corruption: line {line:#x} holds {waiters} waiters, merge bound is {}",
                self.max_merged
            );
        }
    }

    /// Completes the fill of `line`, appending every waiter that was merged
    /// into it to `out` in registration order (nothing if the line was not
    /// tracked). The entry's row is reused in place, so the per-fill path
    /// allocates nothing once `out` holds `max_merged` waiters.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<MshrWaiter>) {
        let Some(i) = self.find(line) else {
            return;
        };
        let width = self.max_merged;
        out.extend_from_slice(&self.slots[i * width..i * width + self.counts[i]]);
        let last = self.lines.len() - 1;
        if i != last {
            let moved = last * width..last * width + self.counts[last];
            self.slots.copy_within(moved, i * width);
        }
        self.lines.swap_remove(i);
        self.counts.swap_remove(i);
    }

    /// Whether `line` is already in flight.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Number of in-flight lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no lines are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter(slot: usize) -> MshrWaiter {
        MshrWaiter {
            warp_slot: slot,
            warp_gen: 0,
            load_id: 0,
        }
    }

    #[test]
    fn first_miss_allocates_second_merges() {
        let mut m = MshrTable::new(4, 4);
        assert_eq!(m.register(10, waiter(0)), MshrOutcome::Allocated);
        assert_eq!(m.register(10, waiter(1)), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn completion_returns_all_waiters() {
        let mut m = MshrTable::new(4, 4);
        let _ = m.register(10, waiter(0));
        let _ = m.register(10, waiter(1));
        let mut ws = Vec::new();
        m.complete_into(10, &mut ws);
        assert_eq!(ws, vec![waiter(0), waiter(1)]);
        assert!(m.is_empty());
        ws.clear();
        m.complete_into(10, &mut ws);
        assert!(ws.is_empty());
    }

    #[test]
    fn table_capacity_rejects() {
        let mut m = MshrTable::new(2, 4);
        assert_eq!(m.register(1, waiter(0)), MshrOutcome::Allocated);
        assert_eq!(m.register(2, waiter(0)), MshrOutcome::Allocated);
        assert_eq!(m.register(3, waiter(0)), MshrOutcome::Rejected);
        // Merging into existing entries still works while full.
        assert_eq!(m.register(1, waiter(1)), MshrOutcome::Merged);
    }

    #[test]
    fn merge_capacity_rejects() {
        let mut m = MshrTable::new(4, 2);
        assert_eq!(m.register(1, waiter(0)), MshrOutcome::Allocated);
        assert_eq!(m.register(1, waiter(1)), MshrOutcome::Merged);
        assert_eq!(m.register(1, waiter(2)), MshrOutcome::Rejected);
    }

    #[test]
    fn completing_frees_capacity() {
        let mut m = MshrTable::new(1, 1);
        assert_eq!(m.register(1, waiter(0)), MshrOutcome::Allocated);
        assert_eq!(m.register(2, waiter(0)), MshrOutcome::Rejected);
        m.complete_into(1, &mut Vec::new());
        assert_eq!(m.register(2, waiter(0)), MshrOutcome::Allocated);
    }

    #[test]
    fn waiters_keep_registration_order_across_other_completions() {
        // Three lines in flight; completing the first swap-removes it and
        // moves the last entry into its place. Waiters merged afterwards and
        // the lines' earlier waiters must still come back in the order they
        // registered.
        let mut m = MshrTable::new(4, 4);
        let _ = m.register(1, waiter(0));
        let _ = m.register(2, waiter(1));
        let _ = m.register(3, waiter(2));
        let _ = m.register(3, waiter(3));
        let _ = m.register(2, waiter(4));
        let mut ws = Vec::new();
        m.complete_into(1, &mut ws);
        assert_eq!(ws, vec![waiter(0)]);
        assert_eq!(m.register(3, waiter(5)), MshrOutcome::Merged);
        assert_eq!(m.register(4, waiter(6)), MshrOutcome::Allocated);
        assert_eq!(m.register(2, waiter(7)), MshrOutcome::Merged);
        m.assert_within_bounds();
        ws.clear();
        m.complete_into(4, &mut ws);
        m.complete_into(3, &mut ws);
        m.complete_into(2, &mut ws);
        assert_eq!(
            ws,
            [6, 2, 3, 5, 1, 4, 7].map(waiter),
            "line 4, then 3, then 2, each in registration order"
        );
        assert!(m.is_empty());
    }

    #[test]
    fn clear_empties_the_table() {
        let mut m = MshrTable::new(2, 2);
        let _ = m.register(5, waiter(0));
        assert!(m.contains(5));
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(5));
    }
}
