//! CLI producing the tracked perf baseline (`bench::baseline`).
//!
//! ```text
//! baseline [options]
//!   --smoke            CI tier: ~20x fewer iterations per bench
//!   --label L          report label and default file stem (default pr4)
//!   --out PATH         output JSON path (default BENCH_<label>.json)
//!   --prev PATH        earlier BENCH_*.json to compare against: trend
//!                      lines for off-cost and the thread sweep (warn
//!                      only, skipped when the host differs; a point more
//!                      than 25% down is re-measured as a median of 5
//!                      windows before it warns), plus two hard gates
//!                      (exit 1): when ops_per_bench matches, every row of
//!                      the previous capture must be present with equal
//!                      counts, and the observers-on/off ratio must not
//!                      worsen by more than 15%
//!   --ops N            operations per micro-workload (overrides tier)
//! ```
//!
//! Prints the console table, validates the produced document against the
//! `bench-baseline/v1` schema and writes it (non-zero exit on schema
//! violations, so CI catches a malformed report immediately); the `--prev`
//! gates run last, so a failed gate still leaves the capture on disk.

use bench::baseline::{
    check_against_prev, extract_number, remeasure_sweep_point, run_baseline, validate_json,
    write_capture, BaselineCfg,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut label = "pr4".to_string();
    let mut out: Option<std::path::PathBuf> = None;
    let mut prev: Option<std::path::PathBuf> = None;
    let mut ops: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
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
            "--ops" => {
                i += 1;
                ops = Some(args[i].parse().expect("bad op count"));
            }
            flag => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut cfg = if smoke {
        BaselineCfg::smoke(&label)
    } else {
        BaselineCfg::full(&label)
    };
    if let Some(n) = ops {
        cfg.ops = n;
    }
    let mut prev_doc: Option<String> = None;
    if let Some(p) = &prev {
        let doc = std::fs::read_to_string(p).expect("reading --prev JSON");
        cfg.prev_off_ns_per_op = extract_number(&doc, "off_ns_per_op");
        if cfg.prev_off_ns_per_op.is_none() {
            eprintln!("--prev {} has no off_ns_per_op field", p.display());
            std::process::exit(2);
        }
        prev_doc = Some(doc);
    }

    let report = run_baseline(&cfg);
    print!("{}", report.to_text());

    let path = out.unwrap_or_else(|| format!("BENCH_{label}.json").into());
    if let Err(e) = write_capture(&path, &report.to_json(), validate_json) {
        eprintln!("produced JSON violates the baseline schema: {e}");
        std::process::exit(1);
    }

    if let Some(doc) = &prev_doc {
        let check = check_against_prev(&report, doc, |p| remeasure_sweep_point(&cfg, p));
        for l in &check.lines {
            println!("{l}");
        }
        for f in &check.failures {
            eprintln!("FAIL: {f}");
        }
        if !check.failures.is_empty() {
            std::process::exit(1);
        }
    }
}
