//! The one measurement engine: every timing in this crate goes through here.
//!
//! The paper's evaluation (§5) repeats one protocol — time some operations,
//! bracket them with the pool's `pwb`/`psync` counters, vary the site masks.
//! This module is that protocol, once:
//!
//! * [`window`] — the multi-thread timed window: N workers released by one
//!   barrier run an operation closure until a stop flag (or until the pool
//!   is within a headroom of exhaustion), optionally each with a private
//!   [`pmem::SubArena`]; the pool's counters are snapshotted around it. A
//!   worker that has not returned [`watchdog`] after the stop fails the run
//!   loudly, naming the subject and every thread's op count, instead of
//!   hanging the caller.
//! * [`trials`] — the single-thread repeat: one warm-up, then [`TRIALS`]
//!   rounds that interleave a row's variants (A B A B …), each run on a
//!   freshly built pool, reduced to a median and a min–max [`Spread`]. The
//!   counts are deterministic, so every trial of a variant must execute
//!   exactly the same ones; a mismatch panics.
//! * [`rng`] — the xorshift64* generator every timed workload draws from, and
//!   [`prefill`], the set prefill every list workload starts from.
//! * [`Counts`] / [`PerOp`] — the one stats-to-per-op conversion, and
//!   [`json_num`], the one JSON number format.
//! * [`Histogram`] — per-operation latency percentiles and mean.
//!
//! Multi-thread windows are not repeated: their op counts depend on the
//! scheduler, so trials would have no count to pin, and the callers (the
//! thread sweep, `throughput`, `figures`) already sweep many points.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pmem::{install_thread_arena, uninstall_thread_arena};
use pmem::{PmemPool, StatsSnapshot, SubArena, ThreadCtx};

use crate::adapter::SetAlgo;

/// Timed rounds per variant after the warm-up. A constant, not a knob: the
/// committed captures and the ratio gate are medians of this many trials.
pub const TRIALS: usize = 5;

/// xorshift64* — the cheap deterministic generator every timed workload uses.
#[inline]
pub fn rng(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Prefills a set with `key_range / 2` inserts of keys uniform in
/// `[1, key_range]` (the paper's 250 inserts over range 500).
pub fn prefill(algo: &dyn SetAlgo, ctx: &ThreadCtx, key_range: u64, seed: u64) {
    let mut state = seed;
    for _ in 0..key_range / 2 {
        algo.insert(ctx, rng(&mut state) % key_range + 1);
    }
}

/// Persistence instructions executed in one measured run, exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Executed `pwb`s.
    pub pwb: u64,
    /// Executed `psync`s plus `pfence`s.
    pub psync: u64,
}

impl Counts {
    /// The counts of a stats snapshot (or of a [`StatsSnapshot::delta`]).
    pub fn of(s: &StatsSnapshot) -> Counts {
        Counts {
            pwb: s.pwb_total(),
            psync: s.psync + s.pfence,
        }
    }

    /// The counts divided by `ops`.
    pub fn per_op(&self, ops: u64) -> PerOp {
        PerOp {
            pwb: per_op(self.pwb, ops),
            psync: per_op(self.psync, ops),
        }
    }
}

/// [`Counts`] per completed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerOp {
    /// Executed `pwb`s per op.
    pub pwb: f64,
    /// Executed `psync`s + `pfence`s per op.
    pub psync: f64,
}

/// `count / ops` (zero ops divide by one).
pub fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// A JSON number with three decimals; `null` when not finite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Median and range of a row's trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest trial.
    pub min: f64,
    /// Largest trial.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (non-empty).
    pub fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Spread {
            median,
            min: s[0],
            max: s[n - 1],
        }
    }
}

/// One single-thread run: its wall-clock cost per op and the counts it
/// executed (anything comparable; `()` when there is nothing to pin).
#[derive(Clone, Debug)]
pub struct Sample<C> {
    /// Wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// What the run executed; must be equal across a variant's trials.
    pub counts: C,
}

/// Runs `f` and returns its wall-clock nanoseconds divided by `ops`.
pub fn time_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Measures `variants` variants of the row `name`: `run(v)` builds a fresh
/// pool, runs variant `v` once and returns its [`Sample`]. Every variant
/// runs once as a warm-up, then [`TRIALS`] rounds run the variants in turn
/// (A B A B …), so slow drift in the host hits them alike. Returns each
/// variant's [`Spread`] and counts.
///
/// # Panics
/// When two trials of one variant executed different counts.
pub fn trials<C: PartialEq + Debug>(
    name: &str,
    variants: usize,
    mut run: impl FnMut(usize) -> Sample<C>,
) -> Vec<(Spread, C)> {
    for v in 0..variants {
        run(v);
    }
    let mut ns = vec![Vec::with_capacity(TRIALS); variants];
    let mut counts: Vec<Option<C>> = (0..variants).map(|_| None).collect();
    for trial in 0..TRIALS {
        for v in 0..variants {
            let s = run(v);
            match &counts[v] {
                Some(first) => assert_eq!(
                    &s.counts, first,
                    "{name}: variant {v}, trial {trial} executed other counts than trial 0"
                ),
                None => counts[v] = Some(s.counts),
            }
            ns[v].push(s.ns_per_op);
        }
    }
    ns.iter()
        .zip(counts)
        .map(|(ns, c)| (Spread::of(ns), c.expect("TRIALS > 0")))
        .collect()
}

/// How long [`window`] waits for its workers after the stop: 2 s plus ten
/// windows. Derived from the window, not configurable.
pub fn watchdog(duration: Duration) -> Duration {
    Duration::from_secs(2) + duration * 10
}

/// One timed multi-thread window.
#[derive(Clone, Debug)]
pub struct WindowCfg<'a> {
    /// What runs, for the watchdog's message.
    pub subject: &'a str,
    /// Worker threads (at least one runs).
    pub threads: usize,
    /// Window length.
    pub duration: Duration,
    /// A worker stops early once the pool has fewer free lines than this,
    /// so allocation never aborts the run.
    pub headroom_lines: usize,
    /// Per-worker [`SubArena`] chunk in lines; 0 allocates from the shared
    /// cursor.
    pub chunk_lines: usize,
    /// Worker `t` draws from [`rng`] seeded `seed ^ (t + 1) · φ`.
    pub seed: u64,
}

/// What one [`window`] measured.
#[derive(Clone, Debug)]
pub struct Window {
    /// Completed operations per worker.
    pub per_thread_ops: Vec<u64>,
    /// From the barrier release until the last worker finished.
    pub elapsed: Duration,
    /// The pool's counters over the window.
    pub delta: StatsSnapshot,
    /// Sub-arena chunk refills across all workers.
    pub arena_refills: u64,
    /// Lines stranded in abandoned sub-arena chunks.
    pub arena_waste_lines: u64,
}

impl Window {
    /// Completed operations across all workers.
    pub fn ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }
}

/// A worker's op count, alone on its cache line.
#[repr(align(128))]
struct Progress(AtomicU64);

/// Runs `op(ctx, r)` — `ctx` bound to the worker's thread slot, `r` a fresh
/// [`rng`] draw — on `cfg.threads` workers for `cfg.duration`, with the
/// pool's counters reset and snapshotted around the window.
///
/// # Panics
/// When a worker panicked, or has not returned [`watchdog`] after the stop;
/// the message names the subject, the thread count and the per-thread op
/// counts.
pub fn window<F>(pool: &Arc<PmemPool>, cfg: &WindowCfg, op: F) -> Window
where
    F: Fn(&ThreadCtx, u64) + Send + Sync + 'static,
{
    let threads = cfg.threads.max(1);
    pool.stats_reset();
    let before = pool.stats();
    let op = Arc::new(op);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let progress: Arc<Vec<Progress>> =
        Arc::new((0..threads).map(|_| Progress(AtomicU64::new(0))).collect());
    let (done_tx, done_rx) = mpsc::channel();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (pool, op, stop) = (pool.clone(), op.clone(), stop.clone());
            let (barrier, progress, done) = (barrier.clone(), progress.clone(), done_tx.clone());
            let (headroom, chunk_lines) = (cfg.headroom_lines, cfg.chunk_lines);
            let mut state = cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            std::thread::spawn(move || {
                if chunk_lines > 0 {
                    install_thread_arena(SubArena::new(pool.clone(), chunk_lines));
                }
                let ctx = ThreadCtx::new(pool.clone(), t);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) && pool.remaining_lines() >= headroom {
                    op(&ctx, rng(&mut state));
                    ops += 1;
                    progress[t].0.store(ops, Ordering::Relaxed);
                }
                let arena = uninstall_thread_arena()
                    .map_or((0, 0), |a| (a.refills(), a.waste_lines() as u64));
                let _ = done.send(t);
                arena
            })
        })
        .collect();
    drop(done_tx);
    let ops_now = || -> Vec<u64> {
        progress
            .iter()
            .map(|p| p.0.load(Ordering::Relaxed))
            .collect()
    };
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + watchdog(cfg.duration);
    let mut returned = vec![false; threads];
    for _ in 0..threads {
        match done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(t) => returned[t] = true,
            // A worker died without reporting: its join below re-raises.
            Err(RecvTimeoutError::Disconnected) => break,
            // The stuck workers stay detached: joining them would hang.
            Err(RecvTimeoutError::Timeout) => panic!(
                "{}@{threads}T: workers {:?} have not returned {:?} after the stop \
                 (per-thread ops {:?})",
                cfg.subject,
                (0..threads).filter(|&t| !returned[t]).collect::<Vec<_>>(),
                watchdog(cfg.duration),
                ops_now()
            ),
        }
    }
    let elapsed = start.elapsed();
    let (mut arena_refills, mut arena_waste_lines) = (0, 0);
    for h in handles {
        let (refills, waste) = h.join().expect("worker panicked");
        arena_refills += refills;
        arena_waste_lines += waste;
    }
    Window {
        per_thread_ops: ops_now(),
        elapsed,
        delta: pool.stats().delta(&before),
        arena_refills,
        arena_waste_lines,
    }
}

/// Log-bucketed latency histogram: bucket `i` covers about
/// `[2^(i/4), 2^((i+1)/4))` ns (quarter powers of two, under 20 % bucket
/// error), plus the exact sum for the mean.
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 256],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(ns: u64) -> usize {
        if ns < 2 {
            return 0;
        }
        let log2 = 63 - ns.leading_zeros() as u64;
        let frac = (ns >> log2.saturating_sub(2)) & 0b11;
        ((log2 * 4 + frac) as usize).min(255)
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Runs `f`, recording its wall-clock latency.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(t.elapsed().as_nanos() as u64);
        r
    }

    /// Recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean(&self) -> f64 {
        per_op(self.sum_ns, self.count)
    }

    /// Upper edge (ns) of the bucket holding the `q`-quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = ((self.count as f64 * q) as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let (log2, frac) = (i as u64 / 4, i as u64 % 4);
                return (1u64 << log2) + ((frac + 1) << log2.saturating_sub(2));
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spread_of_odd_and_even_counts() {
        let odd = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            odd,
            Spread {
                median: 3.0,
                min: 1.0,
                max: 5.0
            }
        );
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            even,
            Spread {
                median: 2.5,
                min: 1.0,
                max: 4.0
            }
        );
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn trials_warm_up_then_interleave_variants() {
        let order = RefCell::new(Vec::new());
        let out = trials("unit", 2, |v| {
            order.borrow_mut().push(v);
            let n = order.borrow().len() as f64;
            Sample {
                ns_per_op: n,
                counts: v * 10,
            }
        });
        let expect: Vec<usize> = (0..=TRIALS).flat_map(|_| [0, 1]).collect();
        assert_eq!(*order.borrow(), expect, "one warm-up, then A B A B …");
        // Variant 0 ran at calls 3, 5, 7, 9, 11 (1-based); the warm-up at 1
        // is excluded.
        assert_eq!(
            out[0],
            (
                Spread {
                    median: 7.0,
                    min: 3.0,
                    max: 11.0
                },
                0
            )
        );
        assert_eq!(out[1].1, 10);
    }

    #[test]
    #[should_panic(expected = "row-x: variant 1, trial 3 executed other counts")]
    fn trials_reject_a_count_mismatch() {
        let mut calls = 0;
        trials("row-x", 2, |v| {
            calls += 1;
            // The 4th timed round of variant 1 (after 2 warm-ups and 3 full
            // rounds) executes one extra pwb.
            let extra = u64::from(calls == 2 + 2 * 3 + 2);
            Sample {
                ns_per_op: 1.0,
                counts: Counts {
                    pwb: v as u64 + extra,
                    ..Counts::default()
                },
            }
        });
    }

    #[test]
    fn window_reports_every_worker() {
        let pool = Arc::new(PmemPool::new(pmem::PoolCfg {
            max_threads: 8,
            ..pmem::PoolCfg::perf(8 << 20)
        }));
        let a = pool.alloc_lines(1);
        let p = pool.clone();
        let w = window(
            &pool,
            &WindowCfg {
                subject: "unit",
                threads: 2,
                duration: Duration::from_millis(20),
                headroom_lines: 0,
                chunk_lines: 0,
                seed: 1,
            },
            move |_, r| p.pwb(a.add(r % 8), pmem::SiteId(0)),
        );
        assert_eq!(w.per_thread_ops.len(), 2);
        assert!(w.per_thread_ops.iter().all(|&o| o > 0), "{w:?}");
        assert_eq!(Counts::of(&w.delta).pwb, w.ops(), "one pwb per op");
        assert!(w.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn watchdog_names_a_stuck_subject() {
        let pool = Arc::new(PmemPool::new(pmem::PoolCfg {
            max_threads: 8,
            ..pmem::PoolCfg::perf(8 << 20)
        }));
        // Worker 1 blocks inside its first op until released, so the
        // window's stop never reaches it. The window is long enough for
        // worker 1 to reach that op before the stop even when parallel
        // tests keep it off a CPU for a while: with 1 ms it sometimes saw
        // the stop first and returned with 0 ops.
        let release = Arc::new(AtomicBool::new(false));
        let r = release.clone();
        let stuck = std::panic::catch_unwind(|| {
            window(
                &pool,
                &WindowCfg {
                    subject: "stuck/unit",
                    threads: 2,
                    duration: Duration::from_millis(20),
                    headroom_lines: 0,
                    chunk_lines: 0,
                    seed: 1,
                },
                move |ctx, _| {
                    while ctx.tid() == 1 && !r.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                },
            )
        });
        release.store(true, Ordering::Relaxed);
        let msg = stuck.expect_err("a stuck worker must fail the window");
        let msg = msg
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("stuck/unit@2T: workers [1] have not returned"),
            "{msg}"
        );
        assert!(
            msg.contains("per-thread ops [") && msg.contains(", 0]"),
            "{msg}"
        );
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let mut h = Histogram::default();
        for ns in [100, 100, 100, 1000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 325.0);
        assert!(
            (100..=128).contains(&h.quantile(0.5)),
            "{}",
            h.quantile(0.5)
        );
        assert!(
            (1000..=1024).contains(&h.quantile(1.0)),
            "{}",
            h.quantile(1.0)
        );
    }
}
