//! CLI driving the exhaustive crash-sweep verifier (`bench::sweep`).
//!
//! ```text
//! crashsweep [options]
//!   --structure list|bst|queue|stack|exchanger|hashmap|all   shape(s) to sweep (default all)
//!   --algo tracking|capsules|...|all                 set implementation(s) (default all
//!                                                    = the shape's full lineup)
//!   --shard I/N            run only crash points with k % N == I
//!   --sample P             run each point with probability P (deterministic in
//!                          the seed; 1.0 = exhaustive)
//!   --adversary pessimist|seeded                     crash model (default pessimist)
//!   --seed S               workload/sampling seed
//!   --ops N                script length (operations per sweep)
//!   --pool-mb M            pool size per replay (default 64)
//!   --engine checkpoint|scratch   replay engine (default checkpoint: restore the
//!                          nearest op-boundary snapshot instead of rebuilding
//!                          the structure per crash point)
//!   --paranoia P           cross-check each replayed point with probability P:
//!                          both engines re-run it traced and must agree on the
//!                          verdict and the event stream (checkpoint engine only)
//!   --multi-crash N        multi-crash tier: per first crash point, inject N
//!                          second crashes *inside recovery* (deterministic
//!                          points over recovery's own event count), re-run
//!                          recovery after each, and apply the full verdict;
//!                          CSVs gain a recrash_ prefix
//!   --churn                allocator-churn mode: reclaim pools (structures
//!                          retire removed nodes, boundaries drain limbo, every
//!                          verdict audits the free lists), plus the allocator's
//!                          own crash sweep; CSVs gain a churn_ prefix
//!   --palloc               sweep only the allocator itself (implies reclaim)
//!   --flushopt             arm the flush-elision layer on every replay pool:
//!                          the event space shrinks to the non-elided
//!                          instructions and the sweep proves the survivors
//!                          still recover at every crash point
//!
//!   --smoke                CI tier: the churn matrix over the retiring pairs
//!                          with a short script and sampled points (fast,
//!                          deterministic; combines with --shard/--seed)
//!   --out DIR              CSV directory (default results/crashsweep)
//! ```
//!
//! Exit status is non-zero if any replayed crash point violated
//! detectability or durable linearizability. One CSV per
//! structure × algorithm pair is written under `--out`; the first failing
//! point (if any) is minimized and its final trace window printed.

use bench::case::{number, usage_error, Cli};
use bench::sweep::{run_palloc_sweep, run_sweep, SweepCfg, SweepReport};
use bench::{AlgoKind, StructureKind};

fn main() {
    let mut base = SweepCfg::new(StructureKind::List, AlgoKind::Tracking);
    let (mut churn, mut palloc_only, mut smoke) = (false, false, false);
    let probability = |v: String, what: &str| -> f64 {
        let p = number(&v, what);
        if !(0.0..=1.0).contains(&p) {
            usage_error(&format!("{what} must be in [0, 1]"));
        }
        p
    };
    let mut cli = Cli::parse("results/crashsweep", |flag, value| {
        match flag {
            "--sample" => base.sample = probability(value(), "sample probability"),
            "--engine" => {
                base.checkpoint = match value().as_str() {
                    "checkpoint" => true,
                    "scratch" => false,
                    e => usage_error(&format!("unknown engine '{e}' (checkpoint|scratch)")),
                }
            }
            "--paranoia" => base.paranoia = probability(value(), "paranoia probability"),
            "--multi-crash" => base.multi_crash = number(&value(), "multi-crash count"),
            "--churn" => churn = true,
            "--palloc" => palloc_only = true,
            "--smoke" => smoke = true,
            _ => return false,
        }
        true
    });
    if let Some((index, count)) = cli.shard {
        (base.shard_index, base.shard_count) = (index, count);
    }
    base.adversary = cli.adversary.unwrap_or(base.adversary);
    base.seed = cli.seed.unwrap_or(base.seed);
    base.script_len = cli.ops.unwrap_or(base.script_len);
    base.pool_bytes = cli.pool_bytes.unwrap_or(base.pool_bytes);
    base.flushopt = cli.flushopt;

    if smoke {
        // CI tier: churn matrix over the pairs that actually retire nodes,
        // short script, sampled points. ~seconds, still covering alloc,
        // retire, drain and recover_allocator paths end to end.
        churn = true;
        base.script_len = base.script_len.min(8);
        base.sample = base.sample.min(0.25);
        if !cli.structures_named {
            cli.structures = vec![
                StructureKind::List,
                StructureKind::Queue,
                StructureKind::Stack,
                StructureKind::Hashmap,
            ];
        }
    }
    let pairs = if smoke && cli.algo.is_none() && !cli.structures_named {
        // Only the pairs that actually retire nodes on a reclaim pool.
        vec![
            (StructureKind::List, AlgoKind::Tracking),
            (StructureKind::List, AlgoKind::Capsules),
            (StructureKind::List, AlgoKind::CapsulesOpt),
            (StructureKind::Queue, AlgoKind::Tracking),
            (StructureKind::Stack, AlgoKind::Tracking),
            (StructureKind::Hashmap, AlgoKind::Tracking),
        ]
    } else {
        // An explicit --algo narrows the list lineup; the other shapes
        // exist only as Tracking structures, so there it must match.
        cli.pairs(StructureKind::lineup, true)
    };
    if churn || palloc_only {
        base.reclaim = true;
    }

    println!(
        "crash sweep: {} pair(s), engine={}, adversary={}, shard {}/{}, sample {}, paranoia {}, seed {:#x}{}",
        pairs.len(),
        if base.checkpoint { "checkpoint" } else { "scratch" },
        base.adversary.name(),
        base.shard_index,
        base.shard_count,
        base.sample,
        base.paranoia,
        base.seed,
        if base.flushopt { ", flushopt" } else { "" },
    );

    let mut failed = false;
    let engine_start = std::time::Instant::now();
    let (mut total_points, mut total_paranoia) = (0u64, 0u64);
    let mut emit = |report: SweepReport| {
        println!("{}", report.summary());
        let path = report.csv.write(&cli.out).expect("writing CSV");
        println!("  -> {}", path.display());
        if let Some(f) = &report.first_failure {
            print!("{}", f.render());
        }
        total_points += report.points_run;
        total_paranoia += report.paranoia_checked;
        failed |= !report.ok();
    };
    if !palloc_only {
        for (structure, algo) in pairs {
            emit(run_sweep(&SweepCfg {
                structure,
                algo,
                ..base.clone()
            }));
        }
    }
    if churn || palloc_only {
        // The allocator's own crash sweep rides along with every churn run.
        emit(run_palloc_sweep(&base));
    }
    // Engine-only wall clock (excludes process startup/compilation noise) —
    // the number the A/B `--engine` timing comparison records.
    println!(
        "engine elapsed: {:.3}s ({} points, {} paranoia-checked)",
        engine_start.elapsed().as_secs_f64(),
        total_points,
        total_paranoia,
    );
    if failed {
        eprintln!("crash sweep FAILED: see violations above");
        std::process::exit(1);
    }
    println!("crash sweep passed: every replayed crash point recovered correctly");
}
