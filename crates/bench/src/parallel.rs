//! Genuinely parallel throughput engine: N real OS threads running
//! concurrently against sharded structure roots, with per-thread
//! [`pmem::SubArena`] allocation.
//!
//! This is the scaling counterpart to [`crate::workload`], and like it
//! times each run as one [`measure::window`]. That engine
//! times the paper's *set* competitors; this one times the queue/stack
//! shapes — the structures with a single contended root — in both their
//! plain Tracking form and the flat-combining variants
//! ([`tracking::CombiningQueue`] / [`tracking::CombiningStack`]), which
//! exist precisely to change the *per-operation persistence bill* under
//! contention, plus the resizable [`tracking::RecoverableHashMap`]
//! (contended puts that occasionally co-drive a level migration — the
//! one subject whose work per op changes with the thread count). Three
//! levers are exposed:
//!
//! * **threads** — real `std::thread` workers, no turn monitor, no
//!   serialization. On a single-core host the threads time-slice, which
//!   still exercises every synchronization path; the count-based
//!   `pwb`/`psync`-per-op numbers are scheduling-independent and are the
//!   primary cross-variant signal (see EXPERIMENTS.md, "Scaling &
//!   throughput methodology").
//! * **shards** — the structure is replicated over `shards` root cells
//!   and thread *t* works shard `t % shards`. One shard is the fully
//!   contended configuration the combining variants target; `shards ==
//!   threads` is the embarrassingly parallel upper bound.
//! * **sub-arenas** — each worker installs a thread-private
//!   [`pmem::SubArena`] so node/descriptor allocation bumps a local
//!   cursor and touches the global one only on chunk refills
//!   (`chunk_lines == 0` disables this, for measuring the contended
//!   cursor).
//!
//! The workload is the storm tests' 50/50 producer/consumer mix with a
//! small prefill, so pops mostly succeed and both code paths stay hot.

use std::sync::Arc;
use std::time::Duration;

use pmem::{Backend, PmemPool, PoolCfg, ThreadCtx};
use tracking::{
    CombiningQueue, CombiningStack, RecoverableHashMap, RecoverableQueue, RecoverableStack,
};

use crate::measure::{self, json_num, Counts, Sample, WindowCfg};

/// Which structure a parallel run drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParSubject {
    /// Plain Tracking MS-style queue.
    Queue,
    /// Plain Tracking Treiber-style stack.
    Stack,
    /// Flat-combining detectable queue.
    CombQueue,
    /// Flat-combining detectable stack.
    CombStack,
    /// Resizable Tracking hash map. Unlike the single-root queue/stack
    /// shapes, contention here spreads over buckets — the interesting
    /// parallel behavior is threads *helping* a concurrent resize.
    Hashmap,
}

impl ParSubject {
    /// All subjects, in report order.
    pub fn all() -> [ParSubject; 5] {
        [
            ParSubject::Queue,
            ParSubject::CombQueue,
            ParSubject::Stack,
            ParSubject::CombStack,
            ParSubject::Hashmap,
        ]
    }

    /// Stable report name (also the JSON `subject` field).
    pub fn name(&self) -> &'static str {
        match self {
            ParSubject::Queue => "queue/Tracking",
            ParSubject::Stack => "stack/Tracking",
            ParSubject::CombQueue => "queue/Combining",
            ParSubject::CombStack => "stack/Combining",
            ParSubject::Hashmap => "hashmap/Tracking",
        }
    }

    /// Parses a `--subjects` CLI token (the name or a short alias).
    pub fn parse(s: &str) -> Option<ParSubject> {
        match s {
            "queue" | "queue/Tracking" => Some(ParSubject::Queue),
            "stack" | "stack/Tracking" => Some(ParSubject::Stack),
            "comb-queue" | "queue/Combining" => Some(ParSubject::CombQueue),
            "comb-stack" | "stack/Combining" => Some(ParSubject::CombStack),
            "hashmap" | "hashmap/Tracking" => Some(ParSubject::Hashmap),
            _ => None,
        }
    }
}

/// One parallel-run configuration.
#[derive(Clone, Debug)]
pub struct ParallelCfg {
    /// Structure under test.
    pub subject: ParSubject,
    /// Real OS worker threads.
    pub threads: usize,
    /// Structure replicas (root cells); thread `t` drives shard
    /// `t % shards`. Capped at [`pmem::NUM_ROOTS`].
    pub shards: usize,
    /// Timed-window length.
    pub duration: Duration,
    /// Pool capacity in bytes.
    pub pool_bytes: usize,
    /// Persistence backend.
    pub backend: Backend,
    /// RNG seed.
    pub seed: u64,
    /// Sub-arena chunk size in lines (0 = no per-thread arena).
    pub chunk_lines: usize,
    /// Values prefilled per shard (so pops mostly succeed).
    pub prefill: u64,
}

impl ParallelCfg {
    /// Defaults for `subject` at `threads` threads: one contended shard,
    /// Clflush backend, per-thread arenas on.
    pub fn contended(subject: ParSubject, threads: usize) -> ParallelCfg {
        ParallelCfg {
            subject,
            threads,
            shards: 1,
            duration: Duration::from_millis(200),
            pool_bytes: 1 << 30,
            backend: Backend::Clflush,
            seed: 0x7A11E1,
            chunk_lines: pmem::DEFAULT_CHUNK_LINES,
            prefill: 256,
        }
    }
}

/// What one parallel run measured.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// Subject name.
    pub subject: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Shards used (post-cap).
    pub shards: usize,
    /// Completed operations across all threads.
    pub ops: u64,
    /// Completed operations per thread.
    pub per_thread_ops: Vec<u64>,
    /// Actual timed-window length.
    pub elapsed: Duration,
    /// Persistence instructions executed in the window.
    pub counts: Counts,
    /// Sub-arena chunk refills across all workers (global-cursor touches).
    pub arena_refills: u64,
    /// Lines stranded in abandoned sub-arena chunks.
    pub arena_waste_lines: u64,
}

impl ParallelResult {
    /// Aggregate operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mean per-thread operations per second.
    pub fn per_thread_ops_per_sec(&self) -> f64 {
        self.ops_per_sec() / self.threads.max(1) as f64
    }
}

/// One structure replica; dispatches the 50/50 mix.
enum Shard {
    Q(RecoverableQueue),
    S(RecoverableStack),
    CQ(CombiningQueue),
    CS(CombiningStack),
    H(RecoverableHashMap),
}

/// Key universe of the hashmap shard: big enough that the default 8-bucket
/// geometry resizes several times inside the timed window, small enough
/// that gets mostly hit.
const HASHMAP_PAR_KEYS: u64 = 4096;

impl Shard {
    fn build(subject: ParSubject, pool: &Arc<PmemPool>, root: usize, nthreads: usize) -> Shard {
        match subject {
            ParSubject::Queue => Shard::Q(RecoverableQueue::new(pool.clone(), root)),
            ParSubject::Stack => Shard::S(RecoverableStack::new(pool.clone(), root)),
            ParSubject::CombQueue => Shard::CQ(CombiningQueue::new(pool.clone(), root, nthreads)),
            ParSubject::CombStack => Shard::CS(CombiningStack::new(pool.clone(), root, nthreads)),
            ParSubject::Hashmap => Shard::H(RecoverableHashMap::new(pool.clone(), root)),
        }
    }

    #[inline]
    fn op(&self, ctx: &ThreadCtx, r: u64) {
        let v = (r >> 8) % 100_000 + 1;
        match self {
            Shard::Q(q) => {
                if r & 1 == 0 {
                    q.enqueue(ctx, v);
                } else {
                    std::hint::black_box(q.dequeue(ctx));
                }
            }
            Shard::S(s) => {
                if r & 1 == 0 {
                    s.push(ctx, v);
                } else {
                    std::hint::black_box(s.pop(ctx));
                }
            }
            Shard::CQ(q) => {
                if r & 1 == 0 {
                    q.enqueue(ctx, v);
                } else {
                    std::hint::black_box(q.dequeue(ctx));
                }
            }
            Shard::CS(s) => {
                if r & 1 == 0 {
                    s.push(ctx, v);
                } else {
                    std::hint::black_box(s.pop(ctx));
                }
            }
            Shard::H(m) => {
                // Producer side (the prefill's `r & !1` lands here) puts;
                // the other half splits between gets and removes so the
                // table keeps churning through its resize trigger.
                let key = (r >> 8) % HASHMAP_PAR_KEYS + 1;
                if r & 1 == 0 {
                    std::hint::black_box(m.put(ctx, key, v));
                } else if r & 2 == 0 {
                    std::hint::black_box(m.get(ctx, key));
                } else {
                    std::hint::black_box(m.remove(ctx, key));
                }
            }
        }
    }
}

/// Runs one timed parallel measurement per `cfg`.
pub fn run_parallel(cfg: &ParallelCfg) -> ParallelResult {
    let threads = cfg.threads.max(1);
    let shards = cfg.shards.clamp(1, pmem::NUM_ROOTS);
    let pool = Arc::new(PmemPool::new(PoolCfg {
        capacity: cfg.pool_bytes,
        backend: cfg.backend,
        shadow: false,
        max_threads: threads.next_power_of_two().max(8),
        ..Default::default()
    }));
    let shard_list: Vec<Shard> = (0..shards)
        .map(|i| Shard::build(cfg.subject, &pool, i, threads))
        .collect();
    // Prefill each shard from thread slot 0 so pops mostly succeed.
    {
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut rng = cfg.seed ^ 0xF111;
        for shard in &shard_list {
            for _ in 0..cfg.prefill {
                shard.op(&ctx, measure::rng(&mut rng) & !1); // force producer side
            }
        }
    }
    let window = WindowCfg {
        subject: cfg.subject.name(),
        threads,
        duration: cfg.duration,
        headroom_lines: 8192,
        chunk_lines: cfg.chunk_lines,
        seed: cfg.seed,
    };
    let w = measure::window(&pool, &window, move |ctx, r| {
        shard_list[ctx.tid() % shard_list.len()].op(ctx, r)
    });
    ParallelResult {
        subject: cfg.subject.name(),
        threads,
        shards,
        ops: w.ops(),
        per_thread_ops: w.per_thread_ops,
        elapsed: w.elapsed,
        counts: Counts::of(&w.delta),
        arena_refills: w.arena_refills,
        arena_waste_lines: w.arena_waste_lines,
    }
}

/// One `(subject, threads)` datapoint of a thread sweep, as recorded in
/// the committed JSON reports (`thread_sweep` section of
/// `bench-baseline/v1`, `points` of `bench-throughput/v1`).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Subject name.
    pub subject: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Shards used.
    pub shards: usize,
    /// Completed operations.
    pub ops: u64,
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Mean per-thread operations per second.
    pub per_thread_ops_per_sec: f64,
    /// `pwb`s per operation.
    pub pwb_per_op: f64,
    /// `psync`s per operation.
    pub psync_per_op: f64,
}

impl SweepPoint {
    /// The point a parallel run measured.
    pub fn from_result(r: &ParallelResult) -> SweepPoint {
        let per_op = r.counts.per_op(r.ops);
        SweepPoint {
            subject: r.subject,
            threads: r.threads,
            shards: r.shards,
            ops: r.ops,
            ops_per_sec: r.ops_per_sec(),
            per_thread_ops_per_sec: r.per_thread_ops_per_sec(),
            pwb_per_op: per_op.pwb,
            psync_per_op: per_op.psync,
        }
    }

    /// Renders the point as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let f = json_num;
        format!(
            "{{\"subject\": \"{}\", \"threads\": {}, \"shards\": {}, \"ops\": {}, \
             \"ops_per_sec\": {}, \"per_thread_ops_per_sec\": {}, \
             \"pwb_per_op\": {}, \"psync_per_op\": {}}}",
            self.subject,
            self.threads,
            self.shards,
            self.ops,
            f(self.ops_per_sec),
            f(self.per_thread_ops_per_sec),
            f(self.pwb_per_op),
            f(self.psync_per_op),
        )
    }
}

/// Runs `subjects × threads_list` on one contended shard and returns the
/// datapoints in sweep order.
pub fn run_thread_sweep(
    subjects: &[ParSubject],
    threads_list: &[usize],
    duration: Duration,
    pool_bytes: usize,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &subject in subjects {
        for &threads in threads_list {
            let cfg = ParallelCfg {
                duration,
                pool_bytes,
                ..ParallelCfg::contended(subject, threads)
            };
            out.push(SweepPoint::from_result(&run_parallel(&cfg)));
        }
    }
    out
}

/// Schema identifier of the standalone `throughput` report.
pub const THROUGHPUT_SCHEMA: &str = "bench-throughput/v1";

/// Renders a standalone `bench-throughput/v1` document.
pub fn throughput_json(label: &str, threads_list: &[usize], points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{THROUGHPUT_SCHEMA}\",\n"));
    out.push_str(&format!("  \"label\": \"{label}\",\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        crate::baseline::host_cpus()
    ));
    out.push_str(&format!(
        "  \"degraded_parallelism\": {},\n",
        crate::baseline::degraded_parallelism(threads_list)
    ));
    out.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads_list
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&p.to_json());
        out.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `bench-throughput/v1` document: schema tag, a non-empty
/// `points` array, and finite non-negative numerics per point.
pub fn validate_throughput_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{THROUGHPUT_SCHEMA}\"")) {
        return Err(format!("missing schema tag {THROUGHPUT_SCHEMA:?}"));
    }
    if !json.contains("\"points\": [") {
        return Err("missing points section".into());
    }
    let n = json.matches("\"subject\":").count();
    if n == 0 {
        return Err("no sweep points".into());
    }
    crate::baseline::require_numbers(
        json,
        &[
            "ops_per_sec",
            "per_thread_ops_per_sec",
            "pwb_per_op",
            "psync_per_op",
        ],
    )
}

/// Extracts every sweep point `(subject, threads, ops_per_sec,
/// psync_per_op)` from a committed JSON document — works on both the
/// baseline's `thread_sweep` section and the throughput report's `points`
/// (the objects are identical). Used by `baseline --prev` to flag scaling
/// regressions without a JSON dependency.
pub fn sweep_points_from_json(json: &str) -> Vec<(String, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("{\"subject\": \"") {
        let obj_start = at + "{\"subject\": \"".len();
        let Some(name_end) = rest[obj_start..].find('"') else {
            break;
        };
        let subject = rest[obj_start..obj_start + name_end].to_string();
        let Some(obj_end) = rest[at..].find('}') else {
            break;
        };
        let obj = &rest[at..at + obj_end + 1];
        let threads = crate::baseline::extract_number(obj, "threads").unwrap_or(0.0) as usize;
        let ops_per_sec = crate::baseline::extract_number(obj, "ops_per_sec").unwrap_or(0.0);
        let psync_per_op = crate::baseline::extract_number(obj, "psync_per_op").unwrap_or(0.0);
        if threads > 0 {
            out.push((subject, threads, ops_per_sec, psync_per_op));
        }
        rest = &rest[at + obj_end + 1..];
    }
    out
}

/// Compares a fresh sweep against a previous report's points, returning
/// one human-readable line per matching `(subject, threads)` pair and a
/// warning count for aggregate-throughput drops beyond `tolerance`
/// (e.g. `0.25` flags drops of more than 25 %). One window is noisy, so a
/// point that trips is measured again with `remeasure` (a median
/// ops/sec, e.g. [`remeasure`]) and warns only if that median trips too;
/// points that do not trip cost nothing extra. Callers report, not fail,
/// on warnings.
pub fn compare_sweeps(
    prev: &[(String, usize, f64, f64)],
    cur: &[SweepPoint],
    tolerance: f64,
    mut remeasure: impl FnMut(&SweepPoint) -> f64,
) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut warnings = 0;
    for p in cur {
        let Some((_, _, prev_ops, _)) = prev
            .iter()
            .find(|(s, t, _, _)| s == p.subject && *t == p.threads)
        else {
            continue;
        };
        let ratio = p.ops_per_sec / prev_ops.max(1e-9);
        let mut line = format!(
            "{} @{}T: {:.0} ops/s vs prev {:.0} = x{:.2}",
            p.subject, p.threads, p.ops_per_sec, prev_ops, ratio
        );
        if ratio < 1.0 - tolerance {
            let median = remeasure(p);
            let again = median / prev_ops.max(1e-9);
            line.push_str(&format!(", re-measured median {median:.0} = x{again:.2}"));
            if again < 1.0 - tolerance {
                warnings += 1;
                line.push_str("  <-- REGRESSION");
            }
        }
        lines.push(line);
    }
    (lines, warnings)
}

/// The median aggregate ops/sec of `cfg` over [`measure::trials`] (a
/// warm-up, then [`measure::TRIALS`] windows on fresh pools).
pub fn remeasure(cfg: &ParallelCfg) -> f64 {
    let name = format!("{}@{}T", cfg.subject.name(), cfg.threads);
    let (ns, ()) = measure::trials(&name, 1, |_| Sample {
        ns_per_op: 1e9 / run_parallel(cfg).ops_per_sec().max(1e-9),
        counts: (),
    })
    .remove(0);
    1e9 / ns.median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(subject: ParSubject, threads: usize) -> ParallelCfg {
        ParallelCfg {
            duration: Duration::from_millis(40),
            pool_bytes: 256 << 20,
            backend: Backend::Noop,
            prefill: 64,
            ..ParallelCfg::contended(subject, threads)
        }
    }

    #[test]
    fn every_subject_sustains_two_threads() {
        for subject in ParSubject::all() {
            let r = run_parallel(&tiny(subject, 2));
            assert_eq!(r.per_thread_ops.len(), 2);
            assert!(r.ops > 0, "{} completed no ops", r.subject);
            assert!(
                r.per_thread_ops.iter().all(|&o| o > 0),
                "{} starved a thread: {:?}",
                r.subject,
                r.per_thread_ops
            );
            assert!(
                r.counts.pwb > 0 && r.counts.psync > 0,
                "{} must persist",
                r.subject
            );
        }
    }

    #[test]
    fn sharding_spreads_threads() {
        let mut cfg = tiny(ParSubject::Stack, 2);
        cfg.shards = 2;
        let r = run_parallel(&cfg);
        assert_eq!(r.shards, 2);
        assert!(r.ops > 0);
    }

    #[test]
    fn arena_refills_stay_rare() {
        let r = run_parallel(&tiny(ParSubject::Queue, 2));
        // Each 4096-line chunk serves dozens of ops, so refills must stay a
        // tiny fraction of throughput; a regression to per-op global-cursor
        // traffic would put refills on the order of `ops` itself. The bound
        // scales with completed ops so a faster machine (more ops in the
        // 40 ms window, hence more refills) cannot trip it.
        assert!(
            r.arena_refills <= r.ops / 32 + 8,
            "arena refills {} vs {} ops suggest the sub-arena is not serving allocations",
            r.arena_refills,
            r.ops
        );
    }

    #[test]
    fn throughput_json_roundtrips() {
        let pts = run_thread_sweep(
            &[ParSubject::Stack],
            &[1, 2],
            Duration::from_millis(30),
            256 << 20,
        );
        assert_eq!(pts.len(), 2);
        let json = throughput_json("unit", &[1, 2], &pts);
        validate_throughput_json(&json).expect("self-produced JSON must validate");
        let parsed = sweep_points_from_json(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "stack/Tracking");
        assert_eq!(parsed[0].1, 1);
        let (lines, warnings) = compare_sweeps(&parsed, &pts, 0.25, |p| {
            panic!("{} re-measured without tripping", p.subject)
        });
        assert_eq!(lines.len(), 2);
        assert_eq!(warnings, 0, "identical sweeps cannot regress");
    }

    #[test]
    fn a_tripped_point_warns_only_if_its_remeasure_trips_too() {
        let point = |subject: &'static str, ops_per_sec: f64| SweepPoint {
            subject,
            threads: 2,
            shards: 1,
            ops: 1,
            ops_per_sec,
            per_thread_ops_per_sec: ops_per_sec / 2.0,
            pwb_per_op: 1.0,
            psync_per_op: 1.0,
        };
        let prev: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|s| (s.to_string(), 2, 100.0, 1.0))
            .collect();
        // a: within tolerance; b: trips, re-measures clean (noise);
        // c: trips and its re-measure trips too.
        let cur = [point("a", 90.0), point("b", 50.0), point("c", 50.0)];
        let mut asked = Vec::new();
        let (lines, warnings) = compare_sweeps(&prev, &cur, 0.25, |p| {
            asked.push(p.subject);
            if p.subject == "b" {
                95.0
            } else {
                60.0
            }
        });
        assert_eq!(asked, ["b", "c"], "only tripped points are re-measured");
        assert_eq!(warnings, 1, "{lines:?}");
        assert!(!lines[0].contains("re-measured"), "{lines:?}");
        assert!(
            lines[1].contains("re-measured median 95 = x0.95"),
            "{lines:?}"
        );
        assert!(!lines[1].contains("REGRESSION"), "{lines:?}");
        assert!(lines[2].ends_with("re-measured median 60 = x0.60  <-- REGRESSION"));
    }

    #[test]
    fn remeasure_reports_a_median_rate() {
        let ops_per_sec = remeasure(&ParallelCfg {
            duration: Duration::from_millis(5),
            ..tiny(ParSubject::Stack, 1)
        });
        assert!(ops_per_sec.is_finite() && ops_per_sec > 0.0);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_throughput_json("{}").is_err());
        assert!(validate_throughput_json("{\"schema\": \"bench-throughput/v1\"}").is_err());
    }
}
