//! Golden fixture for `no-direct-dispatch`: a hand-written launch loop or
//! window write outside the policy layer is flagged, test code included;
//! other `Gpu` calls, a same-named free function, a definition, a string
//! and a waived call are spared.

use gpu_sim::{Gpu, KernelId};

/// Positive: a hand-written Left-Over loop and a window write.
pub fn hand_left_over(gpu: &mut Gpu, k: KernelId) {
    for s in 0..gpu.num_sms() {
        while gpu.try_launch(k, s) {}
    }
    gpu.set_window(0, k, None);
    gpu.tick();
}

/// Positive: the path form of the same call.
pub fn path_form(gpu: &mut Gpu, k: KernelId) -> bool {
    Gpu::try_launch(gpu, k, 0)
}

/// Negative: reading state, a definition, a free function and a string.
pub fn spared(gpu: &Gpu) -> usize {
    fn try_launch(n: usize) -> usize {
        n
    }
    let _ = "gpu.try_launch(k, s)";
    try_launch(gpu.num_sms())
}

/// Negative: a waived call.
pub fn waived(gpu: &mut Gpu, k: KernelId) -> bool {
    // xtask-allow: no-direct-dispatch
    gpu.try_launch(k, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positive: test code launches through the policy layer too.
    fn fill(gpu: &mut Gpu, k: KernelId) {
        while gpu.try_launch(k, 0) {}
    }
}
