//! Regenerates the Warped-Slicer paper's tables and figures.
//!
//! ```text
//! experiments <artifact> [--cycles N] [--oracle] [--full] [--csv DIR]
//! experiments -h | --help
//!
//! artifacts:
//!   table1 table2 table3 fig1 fig2 fig3a fig3b fig5 fig6 fig7 fig8 fig9
//!   fig10a fig10b energy large-config overhead ablation all
//! ```
//!
//! `--cycles N` sets the isolation budget (default 100000; the paper uses
//! 2M — shapes are stable across budgets). `--oracle` adds the exhaustive
//! Oracle search to fig6 (slow). `--full` makes the sensitivity sweeps use
//! all 30 pairs instead of the representative subset. `--csv DIR` also
//! writes machine-readable CSVs (fig3a/fig6/fig8) for external plotting.

use std::process::ExitCode;

use ws_bench::experiments::{
    ablation, energy, fig1, fig10, fig2, fig3, fig5, fig6, fig7, fig8, fig9, large_config,
    overhead, table1, table2, table3,
};
use ws_bench::ExperimentContext;
use ws_workloads::all_pairs;

struct Options {
    artifact: String,
    cycles: u64,
    oracle: bool,
    full: bool,
    csv_dir: Option<std::path::PathBuf>,
}

/// Every artifact, in the order `all` renders them.
const ARTIFACTS: &str = "table1 table2 fig1 fig2 fig3a fig3b fig5 fig6 table3 fig7 fig8 fig9 \
                         energy fig10a fig10b large-config overhead ablation";

/// Parses the command line; `Ok(None)` asks for the usage (`-h`/`--help`).
/// An unknown artifact or flag is an error before any work starts.
fn parse_args() -> Result<Option<Options>, String> {
    let mut args = std::env::args().skip(1);
    let artifact = args.next().ok_or_else(usage)?;
    if artifact == "-h" || artifact == "--help" {
        return Ok(None);
    }
    if artifact != "all" && !ARTIFACTS.split_whitespace().any(|a| a == artifact) {
        return Err(format!("unknown artifact: {artifact}\n{}", usage()));
    }
    let mut opts = Options {
        artifact,
        cycles: 100_000,
        oracle: false,
        full: false,
        csv_dir: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cycles" => {
                let v = args.next().ok_or("--cycles needs a value")?;
                opts.cycles = v.parse().map_err(|_| format!("bad cycle count: {v}"))?;
            }
            "-h" | "--help" => return Ok(None),
            "--oracle" => opts.oracle = true,
            "--full" => opts.full = true,
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(std::path::PathBuf::from(v));
            }
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    Ok(Some(opts))
}

fn usage() -> String {
    let artifacts = ARTIFACTS.split_whitespace().collect::<Vec<_>>().join("|");
    format!("usage: experiments <{artifacts}|all> [--cycles N] [--oracle] [--full] [--csv DIR]")
}

fn need_fig6(
    ctx: &ExperimentContext,
    cache: &mut Option<fig6::Fig6Data>,
    oracle: bool,
) -> fig6::Fig6Data {
    if cache.is_none() {
        let label = if oracle {
            "fig6 (30 pairs x 4 policies + oracle)"
        } else {
            "fig6 (30 pairs x 4 policies)"
        };
        *cache = Some(ctx.observe(label, |c| fig6::compute(c, oracle)));
    }
    cache.clone().expect("just filled")
}

fn need_fig8(
    ctx: &ExperimentContext,
    cache: &mut Option<Vec<fig8::TripleResult>>,
) -> Vec<fig8::TripleResult> {
    if cache.is_none() {
        *cache = Some(ctx.observe("fig8 (15 triples x 4 policies)", fig8::compute));
    }
    cache.clone().expect("just filled")
}

fn write_csv(dir: &Option<std::path::PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.csv")), contents))
    {
        eprintln!("warning: failed to write {name}.csv: {e}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ctx = ExperimentContext::new(opts.cycles);
    // Every observed unit reports wall-clock and pool-job counts through
    // one uniform channel instead of ad-hoc prints.
    ctx.set_progress(Box::new(|p| eprintln!("[{p}]")));
    eprintln!(
        "[pool: {} worker thread(s); set {} to override]",
        ctx.pool().threads(),
        ws_exec::THREADS_ENV
    );
    let window = (opts.cycles / 8).max(2_000);
    let sweep_pairs = if opts.full {
        all_pairs()
    } else {
        fig10::subset_pairs()
    };

    let mut fig6_cache: Option<fig6::Fig6Data> = None;
    let mut fig8_cache: Option<Vec<fig8::TripleResult>> = None;

    let artifacts: Vec<&str> = if opts.artifact == "all" {
        ARTIFACTS.split_whitespace().collect()
    } else {
        vec![opts.artifact.as_str()]
    };

    for artifact in artifacts {
        match artifact {
            "table1" => println!("{}", table1::render(&ctx.cfg.gpu)),
            "table2" => println!(
                "{}",
                table2::render(&ctx.observe("table2", table2::compute))
            ),
            "fig1" => println!("{}", fig1::render(&ctx.observe("fig1", fig1::compute))),
            "fig2" => println!("{}", fig2::render(&fig2::compute())),
            "fig3a" => {
                let curves = ctx.observe("fig3a", |c| fig3::compute(c, window));
                write_csv(&opts.csv_dir, "fig3a", &fig3::csv(&curves));
                println!("{}", fig3::render(&curves));
            }
            "fig3b" => println!(
                "{}",
                fig3::render_sweet_spot(
                    &ctx.observe("fig3b", |c| fig3::compute_sweet_spot(c, window))
                )
            ),
            "fig5" => println!(
                "{}",
                fig5::render(&ctx.observe("fig5", |c| fig5::compute(c, 5_000, 10)), 5_000)
            ),
            "fig6" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                write_csv(&opts.csv_dir, "fig6", &fig6::csv(&data));
                println!("{}", fig6::render(&data));
            }
            "table3" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!("{}", table3::render(&data, &ctx.cfg.gpu));
            }
            "fig7" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!(
                    "{}",
                    fig7::render_utilization(&fig7::utilization_ratios(&data))
                );
                println!("{}", fig7::render_cache(&data));
                println!("{}", fig7::render_stalls(&data));
            }
            "fig8" => {
                let data = need_fig8(&ctx, &mut fig8_cache);
                write_csv(&opts.csv_dir, "fig8", &fig8::csv(&data));
                println!("{}", fig8::render(&data));
            }
            "fig9" => {
                let six = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                let eight = need_fig8(&ctx, &mut fig8_cache);
                let two = fig9::two_kernel(&ctx, &six);
                let three = fig9::three_kernel(&ctx, &eight);
                println!("{}", fig9::render(&two, &three));
            }
            "energy" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!("{}", energy::render(&energy::compute(&data)));
            }
            "fig10a" => println!(
                "{}",
                fig10::render_timing(
                    &ctx.observe("fig10a", |c| fig10::compute_timing(c, &sweep_pairs))
                )
            ),
            "fig10b" => println!(
                "{}",
                fig10::render_schedulers(&ctx.observe("fig10b", |c| {
                    fig10::compute_schedulers_on(c, &sweep_pairs)
                }))
            ),
            "large-config" => println!(
                "{}",
                large_config::render(&ctx.observe("large-config", |c| {
                    large_config::compute_on(c, &sweep_pairs)
                }))
            ),
            "overhead" => println!("{}", overhead::render()),
            "ablation" => println!(
                "{}",
                ablation::render(&ctx.observe("ablation", |c| ablation::compute(c, &sweep_pairs)))
            ),
            other => unreachable!("parse_args rejected artifact {other}"),
        }
    }
    ExitCode::SUCCESS
}
