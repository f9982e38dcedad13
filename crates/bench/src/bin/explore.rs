//! CLI driving the deterministic concurrent-schedule explorer
//! (`bench::explore`).
//!
//! ```text
//! explore [options]
//!   --structure list|bst|queue|stack|exchanger|hashmap|all   shape(s) to explore (default all)
//!   --algo tracking|capsules|...|all                 implementation(s) (default all =
//!                                                    the shape's schedulable lineup;
//!                                                    Romulus spins via the scheduler's
//!                                                    spin-yield channel)
//!   --threads N            virtual threads per schedule (default 2)
//!   --ops N                scripted operations per thread (default 4)
//!   --schedules N          schedules per strategy (default 4)
//!   --strategy rr|random|pct|all                     strategies to run (default all)
//!   --crash off|sampled    crash injection (default sampled)
//!   --crash-samples N      crash points per schedule in sampled mode (default 2)
//!   --adversary pessimist|seeded                     crash model (default pessimist)
//!   --seed S               script/strategy/sampling seed
//!   --shard I/N            run only (strategy, schedule) cells with index % N == I
//!   --pool-mb M            pool size (default 64)
//!   --out DIR              CSV directory (default results/explore)
//!   --flushopt             arm the flush-elision layer on the shared pool:
//!                          elided events vanish from the yield-point stream
//!                          and every injected crash must still recover
//!   --smoke                quick CI tier: 1 schedule per strategy, 1 crash sample
//! ```
//!
//! Exit status is non-zero if any executed schedule produced a
//! non-linearizable history (or a schedule replay diverged). One CSV per
//! structure × algorithm pair is written under `--out`.

use bench::case::{number, usage_error, Cli};
use bench::explore::{run_explore, CrashMode, ExploreCfg, StrategyKind};
use bench::{AlgoKind, StructureKind};

fn main() {
    let mut base = ExploreCfg::new(StructureKind::List, AlgoKind::Tracking);
    let mut crash_samples = 2u64;
    let mut crash_on = true;
    let cli = Cli::parse("results/explore", |flag, value| {
        match flag {
            "--threads" => base.threads = number(&value(), "thread count"),
            "--schedules" => base.schedules = number(&value(), "schedule count"),
            "--strategy" => {
                base.strategies = match value().as_str() {
                    "all" => StrategyKind::all().to_vec(),
                    s => vec![StrategyKind::parse(s).unwrap_or_else(|| {
                        usage_error(&format!("unknown strategy '{s}' (rr|random|pct|all)"))
                    })],
                }
            }
            "--crash" => {
                crash_on = match value().as_str() {
                    "off" => false,
                    "sampled" => true,
                    c => usage_error(&format!("unknown crash mode '{c}' (off|sampled)")),
                }
            }
            "--crash-samples" => crash_samples = number(&value(), "crash sample count"),
            "--smoke" => {
                base.schedules = 1;
                crash_samples = 1;
            }
            _ => return false,
        }
        true
    });
    if let Some((index, count)) = cli.shard {
        (base.shard_index, base.shard_count) = (index, count);
    }
    base.adversary = cli.adversary.unwrap_or(base.adversary);
    base.seed = cli.seed.unwrap_or(base.seed);
    base.ops_per_thread = cli.ops.unwrap_or(base.ops_per_thread);
    base.pool_bytes = cli.pool_bytes.unwrap_or(base.pool_bytes);
    base.flushopt = cli.flushopt;
    base.crash = if crash_on {
        CrashMode::Sampled {
            per_schedule: crash_samples,
        }
    } else {
        CrashMode::Off
    };
    if let Some(a) = cli.algo.filter(|a| !a.schedulable()) {
        usage_error(&format!(
            "{} cannot run under the cooperative scheduler (blocking design)",
            a.name()
        ));
    }
    let pairs = cli.pairs(StructureKind::explore_lineup, false);

    println!(
        "schedule explorer: {} pair(s), threads={}, ops/thread={}, schedules={}/strategy, \
         strategies=[{}], crash={}, adversary={}, shard {}/{}, seed {:#x}",
        pairs.len(),
        base.threads,
        base.ops_per_thread,
        base.schedules,
        base.strategies
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", "),
        match base.crash {
            CrashMode::Off => "off".to_string(),
            CrashMode::Sampled { per_schedule } => format!("sampled({per_schedule}/schedule)"),
        },
        base.adversary.name(),
        base.shard_index,
        base.shard_count,
        base.seed,
    );

    let mut failed = false;
    let start = std::time::Instant::now();
    let (mut total_runs, mut total_crash_runs) = (0u64, 0u64);
    for (structure, algo) in pairs {
        let cfg = ExploreCfg {
            structure,
            algo,
            ..base.clone()
        };
        let report = run_explore(&cfg);
        println!("{}", report.summary());
        let path = report.csv.write(&cli.out).expect("writing CSV");
        println!("  -> {}", path.display());
        for v in &report.violations {
            println!(
                "  VIOLATION: strategy={} schedule={} crash_k={:?}: {}",
                v.strategy.name(),
                v.schedule,
                v.crash_k,
                v.note
            );
        }
        total_runs += report.runs;
        total_crash_runs += report.crash_runs;
        failed |= !report.ok();
    }
    println!(
        "explorer elapsed: {:.3}s ({} schedule runs, {} crash-injected runs)",
        start.elapsed().as_secs_f64(),
        total_runs,
        total_crash_runs,
    );
    if failed {
        eprintln!("schedule exploration FAILED: see violations above");
        std::process::exit(1);
    }
    println!("schedule exploration passed: every executed schedule linearized");
}
