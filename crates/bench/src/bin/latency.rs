//! Per-operation latency percentiles and means for every implementation.
//!
//! Complements the throughput harness with a latency-distribution view:
//! mean and p50/p90/p99/p999 per operation type on a prefilled list, from
//! [`bench::measure::Histogram`].
//!
//! ```text
//! cargo run -p bench --release --bin latency [-- --ops 200000 --range 500]
//! ```

use std::sync::Arc;

use bench::measure::{self, Histogram};
use bench::{build, AlgoKind};
use pmem::{Backend, PmemPool, PoolCfg, ThreadCtx};

const SEED: u64 = 0x5EED;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops: u64 = 100_000;
    let mut range: u64 = 500;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                i += 1;
                ops = args[i].parse().expect("bad op count");
            }
            "--range" => {
                i += 1;
                range = args[i].parse().expect("bad range");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!(
        "{:<22} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "algo/op", "ops", "mean(ns)", "p50(ns)", "p90(ns)", "p99(ns)", "p999(ns)"
    );
    for kind in [
        AlgoKind::Tracking,
        AlgoKind::TrackingBst,
        AlgoKind::Capsules,
        AlgoKind::CapsulesOpt,
        AlgoKind::Romulus,
        AlgoKind::RedoOpt,
        AlgoKind::OneFile,
    ] {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            capacity: 2 << 30,
            backend: Backend::Clflush,
            shadow: false,
            max_threads: 8,
            ..Default::default()
        }));
        let algo = build(kind, pool.clone(), 4, range);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        measure::prefill(&*algo, &ctx, range, SEED);
        let mut hists: [Histogram; 3] = Default::default();
        // Capsules is ~20x slower; keep wall time comparable.
        let n = if kind == AlgoKind::Capsules {
            ops / 10
        } else {
            ops
        };
        let mut rng = SEED ^ 0xF00D;
        for _ in 0..n {
            if pool.remaining_lines() < 4096 {
                break;
            }
            let r = measure::rng(&mut rng);
            let key = r % range + 1;
            let op = ((r >> 32) % 3) as usize;
            hists[op].time(|| match op {
                0 => std::hint::black_box(algo.insert(&ctx, key)),
                1 => std::hint::black_box(algo.delete(&ctx, key)),
                _ => std::hint::black_box(algo.find(&ctx, key)),
            });
        }
        for (h, name) in hists.iter().zip(["insert", "delete", "find"]) {
            println!(
                "{:<22} {:>10} {:>9.1} {:>8} {:>8} {:>8} {:>8}",
                format!("{}/{}", kind.name(), name),
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
            );
        }
    }
}
