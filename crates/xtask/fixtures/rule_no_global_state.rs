//! Golden fixture for `no-global-state`: thread-locals, `static mut`, and
//! statics of interior-mutable types are process-global state, flagged
//! wherever they sit; plain statics, `'static` lifetimes, consts, a
//! justified waiver and test code are spared, and a bare waiver converts
//! the finding instead of silencing it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, OnceLock};

thread_local! {
    static SEEN: RefCell<BTreeMap<usize, u64>> = RefCell::new(BTreeMap::new());
}

static CALLS: AtomicU64 = AtomicU64::new(0);

static CACHE: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

static TABLE: LazyLock<Vec<u64>> = LazyLock::new(|| vec![1, 2, 3]);

static mut LAST: u64 = 0;

/// Negative: an immutable static, a `'static` borrow and a const.
static NAMES: [&str; 2] = ["a", "b"];
const LIMIT: usize = 8;

/// Positive: a function-local static is just as global.
pub fn memo(key: u64) -> u64 {
    static MEMO: OnceLock<u64> = OnceLock::new();
    CALLS.fetch_add(1, Ordering::Relaxed);
    *MEMO.get_or_init(|| key)
}

/// Negative: a `'static` bound and a `'static` return.
pub fn name(i: usize) -> &'static str {
    NAMES.get(i % LIMIT).copied().unwrap_or_default()
}

/// Waived with the required justification.
pub fn flag() -> bool {
    // One flag read from the environment once per process; xtask-allow: no-global-state
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("FLAG").is_ok())
}

/// A bare waiver is not enough.
pub fn bare() -> usize {
    // xtask-allow: no-global-state
    static BARE: OnceLock<usize> = OnceLock::new();
    *BARE.get_or_init(|| 1)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u32> = Cell::new(0);
    }

    #[test]
    fn counts() {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}
