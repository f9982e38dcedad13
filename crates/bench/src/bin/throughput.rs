//! CLI for the genuinely parallel throughput engine (`bench::parallel`).
//!
//! ```text
//! throughput [options]
//!   --smoke            CI tier: 2 subjects, short windows
//!   --threads LIST     comma-separated thread counts (default 1,2,4)
//!   --shards N         structure replicas, 0 = one per thread (default 1)
//!   --duration-ms N    timed window per point (default 200, smoke 40)
//!   --subjects LIST    comma-separated: queue,stack,comb-queue,comb-stack
//!   --label L          report label (default pr7)
//!   --out PATH         output JSON path (default BENCH_throughput_<label>.json)
//!   --prev PATH        earlier report to compare aggregate ops/sec against
//!                      (a point more than 25% down is re-measured as a
//!                      median of 5 windows before it warns)
//! ```
//!
//! Every point runs its threads as real concurrent OS threads — no turn
//! monitor — and reports aggregate and per-thread ops/sec plus the
//! count-based `pwb`/`psync` per operation (the scheduling-independent
//! signal; see EXPERIMENTS.md, "Scaling & throughput methodology").
//! The produced document is validated against `bench-throughput/v1`
//! (non-zero exit on violations, so CI catches malformed reports).

use std::time::Duration;

use bench::baseline::write_capture;
use bench::parallel::{
    compare_sweeps, remeasure, run_parallel, sweep_points_from_json, throughput_json,
    validate_throughput_json, ParSubject, ParallelCfg, SweepPoint,
};

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|t| t.trim().parse().expect("bad thread count"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut threads_list: Option<Vec<usize>> = None;
    let mut shards: usize = 1;
    let mut duration_ms: Option<u64> = None;
    let mut subjects: Option<Vec<ParSubject>> = None;
    let mut label = "pr7".to_string();
    let mut out: Option<std::path::PathBuf> = None;
    let mut prev: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                i += 1;
                threads_list = Some(parse_list(&args[i]));
            }
            "--shards" => {
                i += 1;
                shards = args[i].parse().expect("bad shard count");
            }
            "--duration-ms" => {
                i += 1;
                duration_ms = Some(args[i].parse().expect("bad duration"));
            }
            "--subjects" => {
                i += 1;
                subjects = Some(
                    args[i]
                        .split(',')
                        .map(|t| {
                            ParSubject::parse(t.trim()).unwrap_or_else(|| {
                                eprintln!("unknown subject {t}");
                                std::process::exit(2);
                            })
                        })
                        .collect(),
                );
            }
            "--label" => {
                i += 1;
                label = args[i].clone();
            }
            "--out" => {
                i += 1;
                out = Some(args[i].clone().into());
            }
            "--prev" => {
                i += 1;
                prev = Some(args[i].clone().into());
            }
            flag => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let threads_list = threads_list.unwrap_or_else(|| if smoke { vec![2] } else { vec![1, 2, 4] });
    let subjects = subjects.unwrap_or_else(|| {
        if smoke {
            vec![ParSubject::Queue, ParSubject::CombQueue]
        } else {
            ParSubject::all().to_vec()
        }
    });
    let duration = Duration::from_millis(duration_ms.unwrap_or(if smoke { 40 } else { 200 }));

    bench::baseline::warn_if_degraded(&threads_list);

    println!(
        "{:<16} {:>3} {:>3} {:>10} {:>12} {:>12} {:>8} {:>9}",
        "subject", "thr", "shd", "ops", "ops/sec", "ops/sec/thr", "pwb/op", "psync/op"
    );
    let point_cfg = |subject, threads| ParallelCfg {
        shards: if shards == 0 { threads } else { shards },
        duration,
        ..ParallelCfg::contended(subject, threads)
    };
    let mut points: Vec<SweepPoint> = Vec::new();
    for &subject in &subjects {
        for &threads in &threads_list {
            let p = SweepPoint::from_result(&run_parallel(&point_cfg(subject, threads)));
            println!(
                "{:<16} {:>3} {:>3} {:>10} {:>12.0} {:>12.0} {:>8.2} {:>9.2}",
                p.subject,
                p.threads,
                p.shards,
                p.ops,
                p.ops_per_sec,
                p.per_thread_ops_per_sec,
                p.pwb_per_op,
                p.psync_per_op
            );
            points.push(p);
        }
    }

    if let Some(p) = &prev {
        let doc = std::fs::read_to_string(p).expect("reading --prev JSON");
        let prev_pts = sweep_points_from_json(&doc);
        if prev_pts.is_empty() {
            println!("prev {} has no sweep points to compare", p.display());
        } else {
            let (lines, warnings) = compare_sweeps(&prev_pts, &points, 0.25, |p| {
                let subject =
                    ParSubject::parse(p.subject).expect("sweep points name known subjects");
                remeasure(&point_cfg(subject, p.threads))
            });
            for l in lines {
                println!("{l}");
            }
            if warnings > 0 {
                println!(
                    "WARNING: {warnings} scaling regression(s) vs {}",
                    p.display()
                );
            }
        }
    }

    let json = throughput_json(&label, &threads_list, &points);
    let path = out.unwrap_or_else(|| format!("BENCH_throughput_{label}.json").into());
    if let Err(e) = write_capture(&path, &json, validate_throughput_json) {
        eprintln!("produced JSON violates the throughput schema: {e}");
        std::process::exit(1);
    }
}
