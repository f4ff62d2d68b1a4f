//! Fig. 5: does a short sampling window characterize the whole kernel?
//!
//! The paper compares `φ_mem` and per-SM IPC over the first 5 K cycles with
//! a 50 K-cycle execution window. We reproduce that by running each
//! benchmark in isolation and reporting windowed IPC / `φ_mem` series plus
//! the deviation of the first window from the long-run mean.

use gpu_sim::KernelId;
use warped_slicer::{Driver, PolicyKind, RunConfig};
use ws_workloads::{suite, Benchmark};

use crate::context::ExperimentContext;
use crate::report::{f2, pct, Table};

/// Windowed statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    /// The benchmark.
    pub bench: Benchmark,
    /// Per-window GPU IPC.
    pub ipc: Vec<f64>,
    /// Per-window `φ_mem`.
    pub phi_mem: Vec<f64>,
}

impl WindowSeries {
    /// Relative deviation of the first window's IPC from the series mean.
    #[must_use]
    pub fn first_window_ipc_error(&self) -> f64 {
        if self.ipc.is_empty() {
            return 0.0;
        }
        let mean = self.ipc.iter().sum::<f64>() / self.ipc.len() as f64;
        if mean.abs() < 1e-12 {
            return 0.0;
        }
        (self.ipc[0] - mean).abs() / mean
    }
}

/// Runs `bench` alone under Left-Over and `cfg` for `windows * window`
/// cycles, recording per-window stats. Each window is one
/// [`Driver::advance_to`], so fast-forward may skip dead cycles inside a
/// window but never across its edge.
fn series_on(cfg: &RunConfig, bench: &Benchmark, window: u64, windows: usize) -> WindowSeries {
    let mut run = Driver::new(
        cfg,
        std::slice::from_ref(&bench.desc),
        &PolicyKind::LeftOver,
    );
    let mut ipc = Vec::with_capacity(windows);
    let mut phi = Vec::with_capacity(windows);
    let mut last_insts = 0u64;
    let mut last_mem = 0u64;
    for _ in 0..windows {
        run.advance_to(run.gpu().cycle() + window);
        let gpu = run.gpu();
        let insts = gpu.kernel_insts(KernelId(0));
        let mem: u64 = gpu.sms().map(|s| s.stats().stalls.mem).sum();
        let sched_cycles = window * gpu.num_sms() as u64 * 2;
        ipc.push((insts - last_insts) as f64 / window as f64);
        phi.push((mem - last_mem) as f64 / sched_cycles as f64);
        last_insts = insts;
        last_mem = mem;
    }
    WindowSeries {
        bench: bench.clone(),
        ipc,
        phi_mem: phi,
    }
}

/// Computes the series for the whole suite, one pool job per benchmark.
pub fn compute(ctx: &ExperimentContext, window: u64, windows: usize) -> Vec<WindowSeries> {
    let cfg = ctx.cfg.clone();
    ctx.pool()
        .run(&suite(), move |b| series_on(&cfg, b, window, windows))
}

/// Renders the windowed characterization.
#[must_use]
pub fn render(series: &[WindowSeries], window: u64) -> String {
    let mut t = Table::new(vec![
        "App",
        "IPC(w0)",
        "IPC(mean)",
        "IPC err",
        "phi(w0)",
        "phi(mean)",
    ]);
    for s in series {
        let ipc_mean = s.ipc.iter().sum::<f64>() / s.ipc.len().max(1) as f64;
        let phi_mean = s.phi_mem.iter().sum::<f64>() / s.phi_mem.len().max(1) as f64;
        t.row(vec![
            s.bench.abbrev.to_string(),
            f2(s.ipc.first().copied().unwrap_or(0.0)),
            f2(ipc_mean),
            pct(s.first_window_ipc_error()),
            f2(s.phi_mem.first().copied().unwrap_or(0.0)),
            f2(phi_mean),
        ]);
    }
    format!(
        "Fig. 5: {window}-cycle sampling window vs. long-run behaviour\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Gpu, GpuConfig, SchedulerKind};
    use ws_workloads::by_abbrev;

    /// The naive per-cycle loop `series_on` replaced: Left-Over ticked
    /// cycle by cycle, never fast-forwarded.
    fn reference_series(
        gpu_cfg: &GpuConfig,
        bench: &Benchmark,
        window: u64,
        windows: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut gpu = Gpu::new(gpu_cfg.clone(), SchedulerKind::GreedyThenOldest);
        let k = gpu.add_kernel(bench.desc.clone());
        let mut controller = warped_slicer::make_controller(&PolicyKind::LeftOver);
        let mut ipc = Vec::with_capacity(windows);
        let mut phi = Vec::with_capacity(windows);
        let mut last_insts = 0u64;
        let mut last_mem = 0u64;
        for _ in 0..windows {
            for _ in 0..window {
                controller.on_cycle(&mut gpu);
                gpu.tick();
            }
            let insts = gpu.kernel_insts(k);
            let mem: u64 = gpu.sms().map(|s| s.stats().stalls.mem).sum();
            let sched_cycles = window * gpu.num_sms() as u64 * 2;
            ipc.push((insts - last_insts) as f64 / window as f64);
            phi.push((mem - last_mem) as f64 / sched_cycles as f64);
            last_insts = insts;
            last_mem = mem;
        }
        (ipc, phi)
    }

    #[test]
    fn series_matches_the_naive_tick_loop_bit_for_bit() {
        let gpu = GpuConfig::isca_baseline();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for abbrev in ["LBM", "NN", "IMG", "BFS"] {
            let bench = by_abbrev(abbrev).unwrap();
            let (ipc, phi) = reference_series(&gpu, &bench, 2_000, 4);
            for ff in [true, false] {
                let cfg = RunConfig {
                    gpu: gpu.clone(),
                    fast_forward: Some(ff),
                    ..RunConfig::default()
                };
                let s = series_on(&cfg, &bench, 2_000, 4);
                assert_eq!(bits(&s.ipc), bits(&ipc), "{abbrev} IPC, ff={ff}");
                assert_eq!(bits(&s.phi_mem), bits(&phi), "{abbrev} phi_mem, ff={ff}");
            }
        }
    }

    #[test]
    fn first_window_characterizes_the_run() {
        let ctx = ExperimentContext::new(5_000);
        let s = series_on(&ctx.cfg, &by_abbrev("IMG").unwrap(), 5_000, 6);
        assert_eq!(s.ipc.len(), 6);
        // The paper's claim: the sampling window is representative.
        assert!(
            s.first_window_ipc_error() < 0.25,
            "first-window error: {} ({:?})",
            s.first_window_ipc_error(),
            s.ipc
        );
    }

    #[test]
    fn memory_kernels_show_high_phi() {
        let ctx = ExperimentContext::new(5_000);
        let s = series_on(&ctx.cfg, &by_abbrev("LBM").unwrap(), 5_000, 3);
        assert!(s.phi_mem.iter().all(|&p| p > 0.3), "{:?}", s.phi_mem);
    }
}
