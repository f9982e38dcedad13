//! Tracked performance baseline: fixed micro-workloads whose timings are
//! committed as `BENCH_*.json` at the repo root, so every PR leaves a
//! comparable datapoint and regressions in the simulated substrate are
//! visible as a trajectory rather than anecdotes.
//!
//! Four families of single-threaded benchmarks, each row measured by
//! [`measure::trials`] (a warm-up, then the median and range of 5 trials on
//! fresh pools, with every trial required to execute the same counts),
//! plus the multi-thread thread sweep of [`crate::parallel`]:
//!
//! * **per-competitor list workloads** — a fixed op-count run of every
//!   paper competitor over the sorted-list set in Perf mode
//!   ([`pmem::Backend::Clflush`]), reporting ns/op, ops/sec, and the
//!   persistence-instruction and instrumented-event densities;
//! * **per-structure Tracking workloads** — the queue, stack, and
//!   exchanger shapes the crash sweep verifies;
//! * **allocator phases** — the recoverable free-list allocator's pop,
//!   retire, and drain paths (`pmem::palloc`), timed over a full recycling
//!   cycle on a `reclaim` pool;
//! * **instrumentation overhead** — a pure pool-primitive loop
//!   (load/store/cas/pwb/psync over a handful of lines) with every observer
//!   off versus trace+lint on. The *off* number is the cost the substrate
//!   adds to every hot path even when nobody is watching; keeping it near
//!   zero is what lets the paper's relative persistence-cost signal
//!   (Figures 3–4) survive simulation.
//!
//! The JSON schema is documented in EXPERIMENTS.md ("Performance
//! methodology") and sanity-checked by [`validate_json`], which the CI
//! smoke job runs against the freshly produced file.
//! [`check_against_prev`] compares a capture with an earlier one: exact
//! counts and the on/off ratio are gates, wall-clock trends only print, and
//! only when both captures come from a like host.

use std::sync::Arc;

use pmem::{Backend, PmemPool, PoolCfg, SiteId, ThreadCtx};

use crate::adapter::{build, AlgoKind, SetAlgo, StructureKind};
use crate::measure::{self, json_num, time_per_op, trials, Counts, Sample};
use crate::parallel::{run_thread_sweep, ParSubject, ParallelCfg, SweepPoint};

/// Schema identifier embedded in every report.
///
/// The tag is unchanged since PR 4; later additions are strictly additive
/// (`thread_sweep` since PR 7), so every committed `BENCH_*.json` remains
/// readable by the current tooling. EXPERIMENTS.md documents the schema
/// field by field with the PR each field appeared in.
pub const SCHEMA: &str = "bench-baseline/v1";

/// Configuration of one baseline capture.
#[derive(Clone, Debug)]
pub struct BaselineCfg {
    /// Operations per timed workload (the smoke tier shrinks this).
    pub ops: u64,
    /// Iterations of the primitive loop in the overhead benchmark.
    pub overhead_iters: u64,
    /// Thread counts of the parallel thread sweep (`bench::parallel`
    /// over the queue/stack shapes, plain and combining).
    pub sweep_threads: Vec<usize>,
    /// Timed window per sweep point, in milliseconds.
    pub sweep_window_ms: u64,
    /// Label recorded in the report (e.g. `pr4`).
    pub label: String,
    /// Previously captured `off_ns_per_op`, for trend reporting (read from
    /// an earlier `BENCH_*.json` with [`extract_number`]).
    pub prev_off_ns_per_op: Option<f64>,
}

impl BaselineCfg {
    /// Full-size capture.
    pub fn full(label: &str) -> BaselineCfg {
        BaselineCfg {
            ops: 40_000,
            overhead_iters: 4_000_000,
            sweep_threads: vec![1, 2, 4],
            sweep_window_ms: 200,
            label: label.to_string(),
            prev_off_ns_per_op: None,
        }
    }

    /// CI smoke tier: same benches, ~20× fewer iterations.
    pub fn smoke(label: &str) -> BaselineCfg {
        BaselineCfg {
            ops: 2_000,
            overhead_iters: 200_000,
            sweep_threads: vec![1, 2],
            sweep_window_ms: 40,
            label: label.to_string(),
            prev_off_ns_per_op: None,
        }
    }
}

/// One timed micro-workload.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Bench name (`list/Tracking`, `queue/Tracking`, …).
    pub name: String,
    /// Structure shape.
    pub structure: &'static str,
    /// Implementation.
    pub algo: String,
    /// Operations timed.
    pub ops: u64,
    /// Nanoseconds per operation: the median of the trials.
    pub ns_per_op: f64,
    /// Fastest trial, ns per operation.
    pub ns_min: f64,
    /// Slowest trial, ns per operation.
    pub ns_max: f64,
    /// Operations per second, from the median.
    pub ops_per_sec: f64,
    /// Instrumented pool events per operation (from a traced Model-mode
    /// run of the same script — the crash sweep's cost currency).
    pub events_per_op: f64,
    /// Executed `pwb`s per operation.
    pub pwb_per_op: f64,
    /// Executed `psync`s+`pfence`s per operation.
    pub psync_per_op: f64,
}

/// The instrumentation-overhead benchmark: the primitive loop with all
/// observers off versus trace+lint on.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Iterations of the primitive loop.
    pub iters: u64,
    /// ns per primitive-loop iteration, observers off (the
    /// zero-cost-when-off claim under test).
    pub off_ns_per_op: f64,
    /// ns per iteration with trace+lint enabled.
    pub on_ns_per_op: f64,
    /// `on / off` slowdown.
    pub ratio: f64,
}

/// A full baseline capture.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// The configuration that produced it.
    pub cfg: BaselineCfg,
    /// Unix timestamp of the capture.
    pub created_unix: u64,
    /// Timed micro-workloads.
    pub rows: Vec<BenchRow>,
    /// The parallel thread sweep over the queue/stack shapes (plain and
    /// combining variants) on one contended shard.
    pub thread_sweep: Vec<SweepPoint>,
    /// The observers-off/on comparison.
    pub overhead: OverheadRow,
}

const KEY_RANGE: u64 = 64;
const SEED: u64 = 0xBA5E_11AE;
/// Pool size of every thread-sweep point.
const SWEEP_POOL_BYTES: usize = 512 << 20;

/// Drives `ops` deterministic mixed set operations (70 % find).
fn set_loop(algo: &dyn SetAlgo, ctx: &ThreadCtx, ops: u64) {
    let mut rng = SEED;
    for _ in 0..ops {
        let r = measure::rng(&mut rng);
        let key = r % KEY_RANGE + 1;
        match (r >> 32) % 10 {
            0..=6 => std::hint::black_box(algo.find(ctx, key)),
            7..=8 => std::hint::black_box(algo.insert(ctx, key)),
            _ => std::hint::black_box(algo.delete(ctx, key)),
        };
    }
}

/// Measures one row. `setup(pool, n)` prepares `n` operations on a fresh
/// pool and returns them as the body to time; `tune` adjusts both pool
/// configurations. The body is timed with [`trials`] on Perf-mode pools
/// (real flushes, observers off) and its events are counted once on a
/// traced Model-mode pool over `min(ops, 512)` operations — the crash
/// sweep's cost currency.
fn row<B: FnOnce()>(
    name: String,
    structure: &'static str,
    algo: &str,
    ops: u64,
    tune: impl Fn(PoolCfg) -> PoolCfg,
    setup: impl Fn(&Arc<PmemPool>, u64) -> B,
) -> BenchRow {
    let (ns, counts) = trials(&name, 1, |_| {
        let pool = Arc::new(PmemPool::new(tune(PoolCfg {
            max_threads: 8,
            ..PoolCfg::perf(256 << 20)
        })));
        let body = setup(&pool, ops);
        pool.stats_reset();
        let ns_per_op = time_per_op(ops, body);
        Sample {
            ns_per_op,
            counts: Counts::of(&pool.stats()),
        }
    })
    .remove(0);

    let ev_ops = ops.min(512);
    let tp = Arc::new(PmemPool::new(tune(PoolCfg {
        trace: true,
        max_threads: 8,
        trace_capacity: 64, // the total counter, not the window, is used
        ..PoolCfg::model(64 << 20)
    })));
    let body = setup(&tp, ev_ops);
    tp.trace_clear();
    body();
    let events_per_op = measure::per_op(tp.trace_snapshot().total(), ev_ops);

    let per_op = counts.per_op(ops);
    BenchRow {
        name,
        structure,
        algo: algo.to_string(),
        ops,
        ns_per_op: ns.median,
        ns_min: ns.min,
        ns_max: ns.max,
        ops_per_sec: 1e9 / ns.median,
        events_per_op,
        pwb_per_op: per_op.pwb,
        psync_per_op: per_op.psync,
    }
}

/// One per-competitor list workload.
fn bench_list(kind: AlgoKind, ops: u64) -> BenchRow {
    row(
        format!("list/{}", kind.name()),
        StructureKind::List.name(),
        kind.name(),
        ops,
        |c| c,
        |pool, n| {
            let algo = build(kind, pool.clone(), 2, KEY_RANGE + 4);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            measure::prefill(&*algo, &ctx, KEY_RANGE, SEED ^ 0xF00D);
            move || set_loop(&*algo, &ctx, n)
        },
    )
}

/// One Tracking-only structure (queue/stack/exchanger/hashmap).
fn bench_structure(structure: StructureKind, ops: u64) -> BenchRow {
    let script = move |pool: &Arc<PmemPool>, ctx: &ThreadCtx, n: u64| {
        let mut rng = SEED ^ 0xCAFE;
        match structure {
            StructureKind::Queue => {
                let q = tracking::RecoverableQueue::new(pool.clone(), 0);
                for _ in 0..n {
                    if measure::rng(&mut rng) % 5 < 3 {
                        q.enqueue(ctx, rng % 1000 + 1);
                    } else {
                        std::hint::black_box(q.dequeue(ctx));
                    }
                }
            }
            StructureKind::Stack => {
                let s = tracking::RecoverableStack::new(pool.clone(), 0);
                for _ in 0..n {
                    if measure::rng(&mut rng) % 5 < 3 {
                        s.push(ctx, rng % 1000 + 1);
                    } else {
                        std::hint::black_box(s.pop(ctx));
                    }
                }
            }
            StructureKind::Exchanger => {
                let x = tracking::RecoverableExchanger::new(pool.clone(), 0);
                for i in 0..n {
                    std::hint::black_box(x.exchange(ctx, i + 1, 2));
                }
            }
            StructureKind::Hashmap => {
                // 256-key universe over the default 8-bucket geometry: the
                // timed window includes several level migrations, so the
                // row prices resize amortization, not just bucket ops.
                let m = tracking::RecoverableHashMap::new(pool.clone(), 0);
                for _ in 0..n {
                    let r = measure::rng(&mut rng);
                    let key = r % 256 + 1;
                    match (r >> 32) % 10 {
                        0..=5 => std::hint::black_box(m.get(ctx, key)).map(|_| ()),
                        6..=8 => std::hint::black_box(m.put(ctx, key, (r >> 16) | 1)).then_some(()),
                        _ => std::hint::black_box(m.remove(ctx, key)).map(|_| ()),
                    };
                }
            }
            _ => unreachable!("set shapes go through bench_list"),
        }
    };
    row(
        format!("{}/Tracking", structure.name()),
        structure.name(),
        "Tracking",
        ops,
        |c| c,
        |pool, n| {
            let (pool, ctx) = (pool.clone(), ThreadCtx::new(pool.clone(), 0));
            move || script(&pool, &ctx, n)
        },
    )
}

/// The recoverable free-list allocator (`pmem::palloc`) phase by phase over
/// `ops` class-1 blocks: free-list pops (`palloc/alloc`), limbo pushes
/// (`palloc/retire`), and the quiescent limbo→free-list drain
/// (`palloc/drain`, reported per drained block). Each phase is a row of its
/// own, timed after a priming cycle (and the phases before it) on a fresh
/// `reclaim` pool, so the alloc phase pops recycled blocks rather than
/// bumping the arena — the number under test is the recycling path the
/// bump arena doesn't have.
fn bench_palloc(ops: u64) -> Vec<BenchRow> {
    const TID: usize = 0;
    ["alloc", "retire", "drain"]
        .iter()
        .enumerate()
        .map(|(phase, name)| {
            row(
                format!("palloc/{name}"),
                "palloc",
                "palloc",
                ops,
                |c| PoolCfg { reclaim: true, ..c },
                |pool, n| {
                    let pool = pool.clone();
                    let ctx = ThreadCtx::new(pool.clone(), TID);
                    let mut blocks = Vec::new();
                    let mut step = move |s: usize| match s {
                        0 => blocks = (0..n).map(|_| ctx.palloc(1)).collect(),
                        1 => blocks.drain(..).for_each(|b| ctx.retire(b, 1)),
                        _ => pool.palloc_drain(TID),
                    };
                    // Prime: one full cycle leaves exactly `n` class-1
                    // blocks on the free list.
                    (0..3).chain(0..phase).for_each(&mut step);
                    move || step(phase)
                },
            )
        })
        .collect()
}

/// The primitive loop of the overhead benchmark: 4 loads, 2 stores, 1 CAS,
/// 1 pwb, 1 psync per iteration over four resident lines — the instruction
/// mix of a short traversal plus one persisted update.
fn primitive_loop(pool: &PmemPool, iters: u64) {
    let a = pool.alloc_lines(4);
    let b = a.add(8);
    let c = a.add(16);
    let d = a.add(24);
    for i in 0..iters {
        std::hint::black_box(pool.load(a));
        std::hint::black_box(pool.load(b));
        std::hint::black_box(pool.load(c));
        std::hint::black_box(pool.load(d));
        pool.store(a, i);
        pool.store_at(b, i, SiteId(1));
        let _ = std::hint::black_box(pool.cas(c, i, i + 1));
        pool.pwb(a, SiteId(2));
        pool.psync();
    }
}

/// Measures the substrate's own per-event cost with observers off vs on,
/// as one row of two interleaved variants; the ratio is median(on) /
/// median(off).
///
/// Backend is [`Backend::Noop`] and shadow is off, so the loop times
/// *instrumentation* (flag checks, counters, crash-tick plumbing) rather
/// than flush hardware.
fn bench_overhead(iters: u64) -> OverheadRow {
    let quiet = PoolCfg {
        backend: Backend::Noop,
        ..PoolCfg::perf(1 << 20)
    };
    let observed = PoolCfg {
        trace: true,
        lint: true,
        trace_capacity: 64,
        ..quiet.clone()
    };
    let cfgs = [quiet, observed];
    let spreads = trials("overhead", 2, |v| {
        let pool = PmemPool::new(cfgs[v].clone());
        let ns_per_op = time_per_op(iters, || primitive_loop(&pool, iters));
        Sample {
            ns_per_op,
            counts: Counts::of(&pool.stats()),
        }
    });
    let (off, on) = (spreads[0].0.median, spreads[1].0.median);
    OverheadRow {
        iters,
        off_ns_per_op: off,
        on_ns_per_op: on,
        ratio: on / off.max(1e-9),
    }
}

/// Available parallelism of the host, sampled now (not cached): the value
/// recorded in emitted reports must describe the machine *at emit time*,
/// e.g. after the runner shrank a cpuset mid-session.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Does a sweep over `threads_list` oversubscribe this host? When true, the
/// multi-thread sweep points measure scheduler time-slicing, not contention,
/// and must not be compared against points captured on a wider machine.
pub fn degraded_parallelism(threads_list: &[usize]) -> bool {
    threads_list.iter().copied().max().unwrap_or(0) > host_cpus()
}

/// Warns on stderr when a sweep over `threads_list` oversubscribes this
/// host ([`degraded_parallelism`]).
pub fn warn_if_degraded(threads_list: &[usize]) {
    if degraded_parallelism(threads_list) {
        eprintln!(
            "WARNING: sweep requests up to {} threads but the host exposes only {} \
             CPU(s); multi-thread points measure time-slicing, not contention. The \
             report will carry \"degraded_parallelism\": true.",
            threads_list.iter().max().unwrap_or(&0),
            host_cpus(),
        );
    }
}

/// Validates a capture with `validate`, then writes it to `path` (creating
/// its directory) and prints where.
pub fn write_capture(
    path: &std::path::Path,
    json: &str,
    validate: fn(&str) -> Result<(), String>,
) -> Result<(), String> {
    validate(json)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("creating output directory");
    }
    std::fs::write(path, json).expect("writing capture");
    println!("-> {}", path.display());
    Ok(())
}

/// Runs every baseline bench per `cfg`.
pub fn run_baseline(cfg: &BaselineCfg) -> BaselineReport {
    let mut rows = Vec::new();
    let mut lineup = AlgoKind::paper_lineup().to_vec();
    lineup.push(AlgoKind::OneFile);
    for kind in &lineup {
        rows.push(bench_list(*kind, cfg.ops));
    }
    for structure in [
        StructureKind::Queue,
        StructureKind::Stack,
        StructureKind::Exchanger,
        StructureKind::Hashmap,
    ] {
        rows.push(bench_structure(structure, cfg.ops));
    }
    rows.extend(bench_palloc(cfg.ops));
    warn_if_degraded(&cfg.sweep_threads);
    let thread_sweep = run_thread_sweep(
        &ParSubject::all(),
        &cfg.sweep_threads,
        std::time::Duration::from_millis(cfg.sweep_window_ms),
        SWEEP_POOL_BYTES,
    );
    let overhead = bench_overhead(cfg.overhead_iters);
    BaselineReport {
        cfg: cfg.clone(),
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        rows,
        thread_sweep,
        overhead,
    }
}

/// Measures the thread-sweep point `p` of a capture made with `cfg` again,
/// returning [`crate::parallel::remeasure`]'s median ops/sec.
pub fn remeasure_sweep_point(cfg: &BaselineCfg, p: &SweepPoint) -> f64 {
    let subject = ParSubject::parse(p.subject).expect("sweep points name known subjects");
    crate::parallel::remeasure(&ParallelCfg {
        duration: std::time::Duration::from_millis(cfg.sweep_window_ms),
        pool_bytes: SWEEP_POOL_BYTES,
        ..ParallelCfg::contended(subject, p.threads)
    })
}

impl BaselineReport {
    /// Renders the report as the committed `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let f = json_num;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", self.cfg.label));
        out.push_str(&format!("  \"created_unix\": {},\n", self.created_unix));
        out.push_str(&format!("  \"ops_per_bench\": {},\n", self.cfg.ops));
        out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
        out.push_str(&format!("  \"host_thp\": \"{}\",\n", host_thp()));
        out.push_str(&format!(
            "  \"degraded_parallelism\": {},\n",
            degraded_parallelism(&self.cfg.sweep_threads)
        ));
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let counts: Vec<String> = COUNT_FIELDS
                .iter()
                .zip(r.counts())
                .map(|(key, v)| format!("\"{key}\": {}", f(v)))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"structure\": \"{}\", \"algo\": \"{}\", \
                 \"ops\": {}, \"ns_per_op\": {}, \"ns_min\": {}, \"ns_max\": {}, \
                 \"ops_per_sec\": {}, {}}}{}\n",
                r.name,
                r.structure,
                r.algo,
                r.ops,
                f(r.ns_per_op),
                f(r.ns_min),
                f(r.ns_max),
                f(r.ops_per_sec),
                counts.join(", "),
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"thread_sweep\": [\n");
        for (i, p) in self.thread_sweep.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&p.to_json());
            out.push_str(if i + 1 == self.thread_sweep.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"overhead\": {\n");
        out.push_str(&format!(
            "    \"iters\": {},\n    \"off_ns_per_op\": {},\n    \"on_ns_per_op\": {},\n    \"ratio\": {}",
            self.overhead.iters,
            f(self.overhead.off_ns_per_op),
            f(self.overhead.on_ns_per_op),
            f(self.overhead.ratio),
        ));
        if let Some(prev) = self.cfg.prev_off_ns_per_op {
            out.push_str(&format!(
                ",\n    \"prev_off_ns_per_op\": {},\n    \"off_vs_prev\": {}",
                f(prev),
                f(self.overhead.off_ns_per_op / prev.max(1e-9)),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Console table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{:<26} {:>10} {:>17} {:>12} {:>10} {:>8} {:>8}\n",
            "bench", "ns/op", "min..max", "ops/sec", "events/op", "pwb/op", "psync/op"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26} {:>10.1} {:>17} {:>12.0} {:>10.1} {:>8.2} {:>8.2}\n",
                r.name,
                r.ns_per_op,
                format!("{:.1}..{:.1}", r.ns_min, r.ns_max),
                r.ops_per_sec,
                r.events_per_op,
                r.pwb_per_op,
                r.psync_per_op
            ));
        }
        if !self.thread_sweep.is_empty() {
            out.push_str(&format!(
                "{:<18} {:>3} {:>12} {:>12} {:>8} {:>9}\n",
                "thread sweep", "thr", "ops/sec", "ops/sec/thr", "pwb/op", "psync/op"
            ));
            for p in &self.thread_sweep {
                out.push_str(&format!(
                    "{:<18} {:>3} {:>12.0} {:>12.0} {:>8.2} {:>9.2}\n",
                    p.subject,
                    p.threads,
                    p.ops_per_sec,
                    p.per_thread_ops_per_sec,
                    p.pwb_per_op,
                    p.psync_per_op
                ));
            }
        }
        out.push_str(&format!(
            "instrumentation overhead: off {:.2} ns/iter, on {:.2} ns/iter (x{:.1}, medians of {} trials)\n",
            self.overhead.off_ns_per_op,
            self.overhead.on_ns_per_op,
            self.overhead.ratio,
            measure::TRIALS
        ));
        out
    }
}

/// Extracts the first `"key": <number>` occurrence from a JSON document
/// (enough structure awareness to read our own schema back without a JSON
/// dependency).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first `"key": "<string>"` occurrence (no escapes).
fn extract_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = json.find(&pat)? + pat.len();
    json[at..].split('"').next()
}

/// The deterministic per-row fields the count gate compares, in
/// [`BenchRow::counts`] order.
pub const COUNT_FIELDS: [&str; 3] = ["events_per_op", "pwb_per_op", "psync_per_op"];

impl BenchRow {
    /// The row's [`COUNT_FIELDS`].
    pub fn counts(&self) -> [f64; 3] {
        [self.events_per_op, self.pwb_per_op, self.psync_per_op]
    }
}

/// Each row of a baseline document's `benches` section as its name and
/// [`COUNT_FIELDS`] (`None` where an older capture lacks the field).
/// Thread-sweep points use `subject` rather than `name` and are skipped.
pub fn bench_rows_from_json(json: &str) -> Vec<(String, [Option<f64>; 3])> {
    json.split("{\"name\": \"")
        .skip(1)
        .filter_map(|chunk| {
            let name = &chunk[..chunk.find('"')?];
            let body = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
            Some((
                name.to_string(),
                COUNT_FIELDS.map(|key| extract_number(body, key)),
            ))
        })
        .collect()
}

/// The count gate: one line per same-named row whose counts differ from the
/// previous capture's, compared as the three-decimal numbers both captures
/// record, and one per row of the previous capture that this one lacks. The
/// counts are deterministic functions of the fixed scripts at a given
/// `ops_per_bench`, so any difference is a change in what the code
/// executes, never noise. Rows new in `cur` pass.
pub fn compare_bench_rows(prev: &[(String, [Option<f64>; 3])], cur: &[BenchRow]) -> Vec<String> {
    let mut out: Vec<String> = prev
        .iter()
        .filter(|(name, _)| !cur.iter().any(|r| r.name == *name))
        .map(|(name, _)| format!("{name} vanished: the previous capture has it, this one does not"))
        .collect();
    for r in cur {
        let Some((_, prev_counts)) = prev.iter().find(|(n, _)| *n == r.name) else {
            continue;
        };
        for ((key, p), c) in COUNT_FIELDS.iter().zip(prev_counts).zip(r.counts()) {
            if let Some(p) = p {
                if json_num(*p) != json_num(c) {
                    out.push(format!(
                        "{} {key} changed: {} -> {}",
                        r.name,
                        json_num(*p),
                        json_num(c)
                    ));
                }
            }
        }
    }
    out
}

/// The THP mode of the host (`always`, `madvise`, `never`), or `"unknown"`
/// where it cannot be read. Pool memory asks for 2 MiB pages, so captures
/// from hosts with different modes are not comparable on the wall clock.
pub fn host_thp() -> String {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|s| Some(s.split_once('[')?.1.split_once(']')?.0.to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What comparing a fresh report with a previous capture found.
#[derive(Debug, Default)]
pub struct PrevCheck {
    /// Trend and status lines to print.
    pub lines: Vec<String>,
    /// Gate failures; any one fails the run.
    pub failures: Vec<String>,
}

/// Compares `report` with a previous capture `prev`:
///
/// * **host**: when `host_cpus` or `host_thp` differ, one "host differs"
///   line replaces the wall-clock trends (off-cost and thread sweep), which
///   would only measure the machines;
/// * **thread sweep**: a point more than 25 % below the previous one is
///   measured again with `remeasure` (which returns a median ops/sec) and
///   warns only if that median is still more than 25 % below;
/// * **count gate**: when `ops_per_bench` matches, every changed count of a
///   same-named row, and every row of `prev` the report lacks, is a failure
///   ([`compare_bench_rows`]); a row new in the report prints one line;
/// * **ratio gate**: an observers-on/off ratio more than 15 % above the
///   previous one is a failure. The ratio divides medians of interleaved
///   trials of one loop in one process, so host speed cancels out.
pub fn check_against_prev(
    report: &BaselineReport,
    prev: &str,
    remeasure: impl FnMut(&SweepPoint) -> f64,
) -> PrevCheck {
    let mut check = PrevCheck::default();
    let (cpus, thp) = (host_cpus(), host_thp());
    let prev_cpus = extract_number(prev, "host_cpus").map_or(0, |v| v as usize);
    let prev_thp = extract_str(prev, "host_thp").unwrap_or("unknown");
    if (cpus, thp.as_str()) != (prev_cpus, prev_thp) {
        check.lines.push(format!(
            "host differs from prev (cpus {cpus} vs {prev_cpus}, thp {thp} vs {prev_thp}): \
             wall-clock trends skipped"
        ));
    } else {
        if let Some(p) = extract_number(prev, "off_ns_per_op") {
            check.lines.push(format!(
                "off vs prev {p:.2} ns = x{:.2}",
                report.overhead.off_ns_per_op / p.max(1e-9)
            ));
        }
        let prev_pts = crate::parallel::sweep_points_from_json(prev);
        let (lines, warnings) =
            crate::parallel::compare_sweeps(&prev_pts, &report.thread_sweep, 0.25, remeasure);
        check.lines.extend(lines);
        if warnings > 0 {
            check.lines.push(format!(
                "WARNING: {warnings} scaling regression(s) vs previous report"
            ));
        }
    }

    if extract_number(prev, "ops_per_bench") == Some(report.cfg.ops as f64) {
        let prev_rows = bench_rows_from_json(prev);
        for r in &report.rows {
            if !prev_rows.iter().any(|(n, _)| *n == r.name) {
                check
                    .lines
                    .push(format!("counts: {} is new (not in prev)", r.name));
            }
        }
        let changed = compare_bench_rows(&prev_rows, &report.rows);
        if changed.is_empty() {
            check
                .lines
                .push("counts: every shared row equals prev".into());
        }
        check.failures.extend(changed);
    } else {
        check
            .lines
            .push("(ops_per_bench differs from prev; count gate skipped)".into());
    }

    match extract_number(prev, "ratio") {
        Some(prev_ratio) if prev_ratio > 0.0 => {
            let ratio = report.overhead.ratio;
            let rel = ratio / prev_ratio - 1.0;
            check.lines.push(format!(
                "overhead ratio: {ratio:.2}x vs previous {prev_ratio:.2}x ({:+.1}%)",
                rel * 100.0
            ));
            if rel > 0.15 {
                check.failures.push(format!(
                    "observer overhead ratio regressed by {:.1}% (> 15% gate)",
                    rel * 100.0
                ));
            }
        }
        _ => check
            .lines
            .push("(prev report has no overhead ratio; no ratio gate)".into()),
    }
    check
}

/// Validates that `json` looks like a `bench-baseline/v1` document: schema
/// tag, non-empty bench list with the required numeric fields, and an
/// overhead block. Returns a description of the first problem found.
///
/// The `thread_sweep` section (added in PR 7) is validated when present —
/// it must then be non-empty with finite numerics — but its absence is
/// accepted, so pre-PR-7 committed reports still pass (the schema grows
/// additively; fresh reports always include it).
pub fn validate_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in ["\"benches\": [", "\"overhead\": {"] {
        if !json.contains(key) {
            return Err(format!("missing section {key}"));
        }
    }
    if json.contains("\"thread_sweep\": [") {
        if json.matches("\"subject\":").count() == 0 {
            return Err("thread_sweep section present but empty".into());
        }
        require_numbers(json, &["per_thread_ops_per_sec"])?;
    }
    let benches = json.matches("\"ns_per_op\":").count();
    if benches < 2 {
        return Err("fewer than one bench row plus overhead".into());
    }
    require_numbers(
        json,
        &[
            "ops_per_sec",
            "events_per_op",
            "pwb_per_op",
            "psync_per_op",
            "off_ns_per_op",
            "on_ns_per_op",
            "ratio",
        ],
    )?;
    // Captures from PR 9 to PR 16 also carry the densities of the since
    // removed flush-elision layer; they must still be numbers there.
    if json.contains("\"pwb_elided_per_op\":") {
        require_numbers(json, &["pwb_elided_per_op", "psync_coalesced_per_op"])?;
    }
    Ok(())
}

/// Checks that the first occurrence of each of `keys` in `json` is a
/// finite, non-negative number.
pub(crate) fn require_numbers(json: &str, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        match extract_number(json, key) {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            Some(v) => return Err(format!("field {key} has non-finite/negative value {v}")),
            None => return Err(format!("missing numeric field {key}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_roundtrips_schema() {
        let mut cfg = BaselineCfg::smoke("unit");
        cfg.ops = 64;
        cfg.overhead_iters = 2_000;
        cfg.sweep_threads = vec![1, 2];
        cfg.sweep_window_ms = 20;
        cfg.prev_off_ns_per_op = Some(12.5);
        let report = run_baseline(&cfg);
        assert_eq!(
            report.rows.len(),
            13,
            "6 list competitors + 4 structures + 3 allocator phases"
        );
        for r in &report.rows {
            assert!(r.ns_per_op > 0.0, "{} measured nothing", r.name);
            assert!(r.events_per_op > 0.0, "{} counted no events", r.name);
        }
        assert_eq!(
            report.thread_sweep.len(),
            10,
            "5 parallel subjects x 2 thread counts"
        );
        for p in &report.thread_sweep {
            assert!(p.ops > 0, "{} @{}T completed no ops", p.subject, p.threads);
        }
        assert!(report.overhead.off_ns_per_op > 0.0);
        let json = report.to_json();
        validate_json(&json).expect("self-produced JSON must validate");
        assert_eq!(extract_number(&json, "prev_off_ns_per_op"), Some(12.5));
        let parsed = crate::parallel::sweep_points_from_json(&json);
        assert_eq!(parsed.len(), 10, "sweep points must parse back");
        assert!(report.to_text().contains("list/Tracking"));
        assert!(report.to_text().contains("queue/Combining"));
    }

    fn row(name: &str, pwb: f64, psync: f64) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            structure: "list",
            algo: "x".to_string(),
            ops: 1,
            ns_per_op: 1.0,
            ns_min: 1.0,
            ns_max: 1.0,
            ops_per_sec: 1.0,
            events_per_op: 1.0,
            pwb_per_op: pwb,
            psync_per_op: psync,
        }
    }

    /// A report with the given rows, no sweep, `ops_per_bench` 2000 and
    /// an on/off ratio of 6.0.
    fn report(rows: Vec<BenchRow>) -> BaselineReport {
        BaselineReport {
            cfg: BaselineCfg::smoke("unit"),
            created_unix: 0,
            rows,
            thread_sweep: vec![SweepPoint {
                subject: "stack/Tracking",
                threads: 1,
                shards: 1,
                ops: 10,
                ops_per_sec: 100.0,
                per_thread_ops_per_sec: 100.0,
                pwb_per_op: 1.0,
                psync_per_op: 1.0,
            }],
            overhead: OverheadRow {
                iters: 1,
                off_ns_per_op: 10.0,
                on_ns_per_op: 60.0,
                ratio: 6.0,
            },
        }
    }

    #[test]
    fn bench_row_density_comparison_flags_regressions() {
        let prev_doc = "{\"benches\": [\n    \
            {\"name\": \"list/Tracking\", \"pwb_per_op\": 6.0, \"psync_per_op\": 3.4},\n    \
            {\"name\": \"list/Capsules\", \"events_per_op\": 1.0, \"pwb_per_op\": 5.0, \
             \"psync_per_op\": 4.0}\n  ]}";
        let prev = bench_rows_from_json(prev_doc);
        assert_eq!(prev.len(), 2);
        assert_eq!(
            prev[0],
            ("list/Tracking".to_string(), [None, Some(6.0), Some(3.4)])
        );
        // Equal counts, fields an older capture lacks, and new rows: silent.
        let changed = compare_bench_rows(
            &prev,
            &[
                row("list/Tracking", 6.0, 3.4),
                row("list/Capsules", 5.0, 4.0),
                row("queue/Tracking", 99.0, 99.0),
            ],
        );
        assert!(changed.is_empty(), "{changed:?}");
        // Any change, down as well as up, and below the old 5% tolerance.
        for pwb in [5.001, 4.0, 9.0] {
            let changed = compare_bench_rows(
                &prev,
                &[
                    row("list/Tracking", 6.0, 3.4),
                    row("list/Capsules", pwb, 4.0),
                ],
            );
            assert_eq!(changed.len(), 1, "{changed:?}");
            assert!(
                changed[0].contains("list/Capsules pwb_per_op changed: 5.000 ->"),
                "{changed:?}"
            );
        }
    }

    #[test]
    fn vanished_row_fails_and_new_row_passes() {
        let prev = report(vec![
            row("list/Tracking", 6.0, 3.4),
            row("list/Romulus", 2.0, 1.0),
        ])
        .to_json();
        let vanished =
            check_against_prev(&report(vec![row("list/Tracking", 6.0, 3.4)]), &prev, |p| {
                p.ops_per_sec
            });
        assert_eq!(vanished.failures.len(), 1, "{vanished:?}");
        assert!(
            vanished.failures[0].starts_with("list/Romulus vanished"),
            "{vanished:?}"
        );

        let prev = report(vec![row("list/Tracking", 6.0, 3.4)]).to_json();
        let added = check_against_prev(
            &report(vec![
                row("list/Tracking", 6.0, 3.4),
                row("list/Romulus", 2.0, 1.0),
            ]),
            &prev,
            |p| p.ops_per_sec,
        );
        assert!(added.failures.is_empty(), "{added:?}");
        let info: Vec<_> = added
            .lines
            .iter()
            .filter(|l| l.contains("is new"))
            .collect();
        assert_eq!(info, ["counts: list/Romulus is new (not in prev)"]);
        assert!(added
            .lines
            .iter()
            .any(|l| l.contains("every shared row equals prev")));
    }

    #[test]
    fn count_gate_applies_only_at_equal_ops() {
        let prev = report(vec![row("list/Tracking", 6.0, 3.4)]).to_json();
        let same = check_against_prev(&report(vec![row("list/Tracking", 6.0, 3.4)]), &prev, |p| {
            p.ops_per_sec
        });
        assert!(same.failures.is_empty(), "{same:?}");
        assert!(same
            .lines
            .iter()
            .any(|l| l.contains("every shared row equals prev")));

        let moved = check_against_prev(&report(vec![row("list/Tracking", 6.0, 3.5)]), &prev, |p| {
            p.ops_per_sec
        });
        assert_eq!(moved.failures.len(), 1, "{moved:?}");
        assert!(moved.failures[0].contains("psync_per_op"), "{moved:?}");

        let other_ops = prev.replace("\"ops_per_bench\": 2000", "\"ops_per_bench\": 40000");
        let skipped = check_against_prev(
            &report(vec![row("list/Tracking", 6.0, 3.5)]),
            &other_ops,
            |p| p.ops_per_sec,
        );
        assert!(skipped.failures.is_empty(), "{skipped:?}");
        assert!(skipped
            .lines
            .iter()
            .any(|l| l.contains("count gate skipped")));
    }

    #[test]
    fn ratio_gate_fails_past_fifteen_percent() {
        let prev = report(vec![])
            .to_json()
            .replace("\"ratio\": 6.000", "\"ratio\": 5.000");
        let check = check_against_prev(&report(vec![]), &prev, |p| p.ops_per_sec);
        assert_eq!(check.failures.len(), 1, "{check:?}");
        assert!(check.failures[0].contains("observer overhead ratio regressed by 20.0%"));
        let prev = report(vec![])
            .to_json()
            .replace("\"ratio\": 6.000", "\"ratio\": 5.500");
        assert!(
            check_against_prev(&report(vec![]), &prev, |p| p.ops_per_sec)
                .failures
                .is_empty()
        );
    }

    #[test]
    fn host_mismatch_skips_wall_clock_trends_only() {
        let cur = report(vec![row("list/Tracking", 6.0, 3.4)]);
        let mut slow = report(vec![row("list/Tracking", 6.0, 3.4)]);
        slow.thread_sweep[0].ops_per_sec = 1e6;
        let prev = slow.to_json();

        let same_host = check_against_prev(&cur, &prev, |p| p.ops_per_sec);
        assert!(
            same_host.lines.iter().any(|l| l.contains("REGRESSION")),
            "{same_host:?}"
        );
        assert!(same_host.lines.iter().any(|l| l.starts_with("off vs prev")));

        let other = prev.replace(
            &format!("\"host_cpus\": {}", host_cpus()),
            &format!("\"host_cpus\": {}", host_cpus() + 1),
        );
        let mut moved = report(vec![row("list/Tracking", 7.0, 3.4)]);
        moved.overhead.ratio = 60.0;
        let check = check_against_prev(&moved, &other, |p| p.ops_per_sec);
        assert!(
            check.lines[0].starts_with("host differs from prev"),
            "{check:?}"
        );
        assert!(!check
            .lines
            .iter()
            .any(|l| l.contains("REGRESSION") || l.starts_with("off vs prev")));
        // The count and ratio gates still apply.
        assert_eq!(check.failures.len(), 2, "{check:?}");

        let thp = prev.replace(
            &format!("\"host_thp\": \"{}\"", host_thp()),
            "\"host_thp\": \"x\"",
        );
        assert!(check_against_prev(&cur, &thp, |p| p.ops_per_sec).lines[0]
            .starts_with("host differs from prev"));
    }

    #[test]
    fn validate_accepts_every_committed_capture() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        let dirs = [root.clone(), root.join("results/baseline")];
        for entry in dirs
            .iter()
            .flat_map(|d| std::fs::read_dir(d).expect("capture dir"))
        {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let doc = std::fs::read_to_string(&path).expect("readable capture");
                validate_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
                seen += 1;
            }
        }
        assert!(seen >= 9, "found only {seen} committed captures");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"schema\": \"bench-baseline/v1\"}").is_err());
    }

    #[test]
    fn extract_number_reads_fields() {
        let doc = "{\"a\": 3.25, \"b\": -1, \"c\": \"x\"}";
        assert_eq!(extract_number(doc, "a"), Some(3.25));
        assert_eq!(extract_number(doc, "b"), Some(-1.0));
        assert_eq!(extract_number(doc, "c"), None);
        assert_eq!(extract_number(doc, "zz"), None);
    }
}
