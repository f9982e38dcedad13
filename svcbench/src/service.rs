//! The closed-loop service engine: setup, the timed window with its
//! quiescent boundaries, and power failures with reboot and recovery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pmem::{Backend, PmemPool, PoolCfg, StatsSnapshot, ThreadCtx, WORDS_PER_LINE};

use crate::check::{Oracle, Tally};
use crate::store::{Exec, Resp, Store};
use crate::trace::{BoundarySpan, ReqSpan};
use crate::workload::{
    failure, owner, preload_keys, splitmix64, value_for, Gen, Op, Req, Spec, Structure, CLIENTS,
    EPOCH_LEN, FAILURE_EPOCH_LEN,
};

const LINE_BYTES: usize = WORDS_PER_LINE * 8;
/// Seed of the setup's warm-up stream: fixed, like the loaded data set.
const WARMUP_SEED: u64 = 0x00C0_FFEE;
/// Requests per second per client the pool is sized for, over twice the
/// fastest rate measured on the reference host (kv-read, about 410k).
const BUDGET_REQS_PER_S: f64 = 1_000_000.0;
/// Pool lines a request may take on average: every request bump-allocates
/// a 3-line descriptor that is never reclaimed, a put on the bump arena
/// two nodes, and a retried attempt another descriptor.
const BUDGET_LINES_PER_REQ: usize = 5;

/// Requests a run of `seconds` timed seconds may issue: the timed budget
/// of both clients plus the failure epochs after it.
pub fn request_budget(spec: &Spec, seconds: f64) -> usize {
    let timed = (seconds * BUDGET_REQS_PER_S) as usize * CLIENTS;
    timed + spec.power_failures * FAILURE_EPOCH_LEN * CLIENTS * 2
}

/// Pool capacity for setup state plus `requests` requests. Pages are
/// mapped lazily, so only what a run touches is resident.
pub fn capacity(spec: &Spec, requests: usize) -> usize {
    spec.setup_bytes + requests * BUDGET_LINES_PER_REQ * LINE_BYTES
}

/// Requests between two checks of the pool's free lines.
const BUDGET_CHECK_EVERY: usize = 64;

/// Below this many free lines requests are refused (and counted failed):
/// room for the largest single allocation a request can make, times the
/// requests between two checks.
fn reserve_lines(spec: &Spec) -> usize {
    (spec.setup_bytes / LINE_BYTES / 4).max(4096)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding this lock")
}

/// A preloaded pool with its oracle.
pub struct Service {
    pub spec: &'static Spec,
    pub seed: u64,
    pub pool: Arc<PmemPool>,
    pub store: Store,
    pub oracle: Oracle,
    pub gens: Vec<Gen>,
    /// Failure epochs run so far (failure-plan index).
    pub failure_epochs: u64,
    /// Reboots so far (probe-key index).
    pub reboots: u64,
    pub setup_s: f64,
    pub live_keys: u64,
    /// Pool bytes in use after setup: capacity minus free lines.
    pub used_bytes: u64,
    pub buckets: u64,
}

/// How a pool is built and loaded. The service runs `PoolCfg::perf` with
/// the workload's `reclaim`; ladder rungs vary the backend and load with
/// every persistence site masked (same contents, faster setup).
#[derive(Clone, Copy)]
pub struct PoolPlan {
    pub backend: Backend,
    pub masked_load: bool,
    /// Requests the pool must have room for after setup.
    pub requests: usize,
}

impl Service {
    /// Setup: pool creation, the preload (with its resizes), the warm-up,
    /// and the drain that empties the allocator's limbo lists. All of it
    /// is `setup_s`.
    pub fn setup(spec: &'static Spec, seed: u64, plan: PoolPlan) -> Service {
        let keys = preload_keys(spec);
        let oracle = Oracle::new(spec.structure, spec.key_space);
        let cap = capacity(spec, plan.requests);
        let t0 = Instant::now();
        let pool = Arc::new(PmemPool::new(PoolCfg {
            backend: plan.backend,
            reclaim: spec.reclaim,
            ..PoolCfg::perf(cap)
        }));
        if plan.masked_load {
            pool.set_sites_mask(0);
            pool.set_psync_enabled(false);
        }
        let store = Store::attach(spec.structure, &pool);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        for &key in &keys {
            let req = Req {
                op: Op::Put,
                key,
                val: value_for(spec.structure, key, owner(key), 0),
            };
            let resp = store.exec(&ctx, &req);
            assert_eq!(
                resp,
                Some(req.val),
                "preload put of a fresh key must bind it"
            );
            oracle.set(key, resp);
        }
        if spec.warmup_requests > 0 {
            warm_up(spec, &pool, &store, &oracle);
        }
        if spec.structure == Structure::Map {
            settle(spec, &ctx, &store, &oracle);
        }
        pool.palloc_drain_all();
        let setup_s = t0.elapsed().as_secs_f64();
        if plan.masked_load {
            pool.set_sites_mask(u64::MAX);
            pool.set_psync_enabled(true);
        }
        let free_bytes = pool.remaining_lines() * LINE_BYTES;
        let used_bytes = (cap.next_multiple_of(LINE_BYTES) - free_bytes) as u64;
        let buckets = store.bucket_count();
        let live_keys = oracle.live();
        Service {
            spec,
            seed,
            pool,
            store,
            oracle,
            gens: Gen::for_run(spec, seed),
            failure_epochs: 0,
            reboots: 0,
            setup_s,
            live_keys,
            used_bytes,
            buckets,
        }
    }

    /// Verifies the quiescent structure against the oracle.
    pub fn verify(&self) -> u64 {
        self.oracle.verify(&self.store)
    }
}

/// A fixed stream of the workload's own requests, on both clients'
/// identities and with their boundary drains, so the table grows to the
/// size the mix keeps it at before the window.
fn warm_up(spec: &'static Spec, pool: &Arc<PmemPool>, store: &Store, oracle: &Oracle) {
    let mut gens = Gen::for_run(spec, WARMUP_SEED);
    let ctxs: Vec<ThreadCtx> = (0..CLIENTS)
        .map(|c| ThreadCtx::new(pool.clone(), c))
        .collect();
    for i in 0..spec.warmup_requests {
        let c = i % CLIENTS;
        let req = gens[c].next_req();
        let resp = store.exec(&ctxs[c], &req);
        assert!(
            oracle.check_and_apply(c, &req, resp),
            "warm-up request {req:?} answered {resp:?}"
        );
        if (i + 1) % (EPOCH_LEN * CLIENTS) == 0 {
            pool.palloc_drain_all();
        }
    }
}

/// Re-puts every bound key until a whole pass leaves the bucket count
/// unchanged. A put of a bound key changes nothing, but one that walks a
/// chain longer than `max_chain` first doubles the table. So the pass
/// finishes every resize the loaded keys can still trigger; without it a
/// seed whose stream touched such a chain resized inside the window (one
/// kv-read seed in four, halving its time-to-first-serve by consuming
/// free blocks).
fn settle(spec: &Spec, ctx: &ThreadCtx, store: &Store, oracle: &Oracle) {
    loop {
        let buckets = store.bucket_count();
        for key in 1..=spec.key_space {
            if let Some(val) = oracle.get(key) {
                let req = Req {
                    op: Op::Put,
                    key,
                    val,
                };
                assert_eq!(store.exec(ctx, &req), None, "key {key} is bound");
            }
        }
        if store.bucket_count() == buckets {
            return;
        }
    }
}

/// A reusable rendezvous of all clients. The last to arrive runs the
/// leader action before anyone leaves. The others spin for up to
/// `SPIN_WAIT`, then sleep: most boundary waits end within the spin, and
/// a sleeping CPU is slow to wake on the reference host, while a long
/// leader action (a reboot) runs with the other CPU idle. A waiter whose
/// `abort` holds before the rendezvous completes withdraws and returns
/// `false`; whoever makes `abort` true must call [`Rendezvous::wake`]
/// afterwards.
struct Rendezvous {
    /// Clients arrived in the current generation.
    arrived: Mutex<usize>,
    /// Changes only under `arrived`'s lock; read without it while spinning.
    generation: AtomicU64,
    wake: Condvar,
}

/// How long a waiter spins before it sleeps.
const SPIN_WAIT: Duration = Duration::from_millis(1);

impl Rendezvous {
    fn new() -> Rendezvous {
        Rendezvous {
            arrived: Mutex::new(0),
            generation: AtomicU64::new(0),
            wake: Condvar::new(),
        }
    }

    fn wait(&self, abort: impl Fn() -> bool, leader: impl FnOnce()) -> bool {
        let gen = {
            let mut arrived = lock(&self.arrived);
            let gen = self.generation.load(Ordering::SeqCst);
            *arrived += 1;
            if *arrived == CLIENTS {
                leader();
                *arrived = 0;
                self.generation.store(gen + 1, Ordering::SeqCst);
                self.wake.notify_all();
                return true;
            }
            gen
        };
        let spin_until = Instant::now() + SPIN_WAIT;
        while Instant::now() < spin_until && !abort() {
            if self.generation.load(Ordering::SeqCst) != gen {
                return true;
            }
            std::hint::spin_loop();
        }
        // `wake` takes the lock before notifying: no wake-up is lost.
        let mut arrived = self
            .wake
            .wait_while(lock(&self.arrived), |_| {
                self.generation.load(Ordering::SeqCst) == gen && !abort()
            })
            .expect("a benchmark thread panicked while holding this lock");
        if self.generation.load(Ordering::SeqCst) != gen {
            return true;
        }
        // Withdraw under the lock, so a last arrival cannot count this
        // waiter after it left.
        *arrived -= 1;
        false
    }

    /// Wakes the waiters so they re-check `abort`.
    fn wake(&self) {
        let _arrived = lock(&self.arrived);
        self.wake.notify_all();
    }
}

/// One power failure and the reboot that followed, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Reboot {
    /// Reboot start, from the window's origin.
    pub start_ns: u64,
    /// Time-to-first-serve: from reboot to the first new get's answer.
    pub total_ns: u64,
    pub alloc_ns: u64,
    pub attach_ns: u64,
    /// `(client, ns)` of each interrupted request's recovery.
    pub recover_ns: Vec<(usize, u64)>,
    pub first_get_ns: u64,
    /// Free blocks after recovery (traced runs only).
    pub free_blocks: usize,
}

/// Pool counters read at a boundary.
#[derive(Clone)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub remaining_lines: usize,
    /// Blocks waiting in limbo when the boundary was reached.
    pub limbo_blocks: usize,
}

impl Counters {
    fn read(pool: &PmemPool, count_limbo: bool) -> Counters {
        Counters {
            stats: pool.stats(),
            remaining_lines: pool.remaining_lines(),
            limbo_blocks: if count_limbo {
                pool.palloc_limbo_blocks().len()
            } else {
                0
            },
        }
    }
}

/// What the clients run next: the timed window's epochs, then the
/// failure epochs `k` (each ending in one power failure).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Window,
    Failures(u64),
    Done,
}

struct Ctl {
    phase: Phase,
    /// The range of failure-plan indices of this call's failure epochs.
    failures_start: u64,
    failures_end: u64,
    /// The window's open and each of its boundaries: epoch `e` runs from
    /// mark `e` to mark `e + 1`, and the last mark closes the window.
    marks: Vec<Instant>,
    pending: [Option<Req>; CLIENTS],
    reboots: Vec<Reboot>,
    reboot_tally: Tally,
    next_reboot: u64,
    boundaries: Vec<Counters>,
    open: Option<Counters>,
    close: Option<Counters>,
}

struct Window<'a> {
    spec: &'static Spec,
    seed: u64,
    pool: &'a Arc<PmemPool>,
    oracle: &'a Oracle,
    store: Mutex<Store>,
    trace: bool,
    seconds: f64,
    reserve: usize,
    origin: Instant,
    gate_in: Rendezvous,
    gate_out: Rendezvous,
    reboot_gate: Rendezvous,
    refused: AtomicBool,
    ctl: Mutex<Ctl>,
}

/// What one client measured.
pub struct ClientOut {
    /// Latency samples in ns, per op (timed window only).
    pub lat: [Vec<u32>; 3],
    pub completed: u64,
    /// Per timed epoch: `lat` lengths at its start, and requests completed.
    pub epoch_marks: Vec<[usize; 3]>,
    pub epoch_completed: Vec<u64>,
    pub tally: Tally,
    pub updates: u64,
    /// Updates that changed the structure (a put that bound, a remove that
    /// removed).
    pub effective: u64,
    pub req_spans: Vec<ReqSpan>,
    pub boundaries: Vec<BoundarySpan>,
    gen: Gen,
}

/// Consecutive epochs of a window.
pub struct Group {
    pub lat: [Vec<u32>; 3],
    pub completed: u64,
    pub seconds: f64,
}

/// What one window measured.
pub struct WindowOut {
    pub clients: Vec<ClientOut>,
    pub window_s: f64,
    /// Seconds of each timed epoch.
    pub epoch_s: Vec<f64>,
    pub reboots: Vec<Reboot>,
    pub reboot_tally: Tally,
    /// Counters at window open, at each boundary (traced runs), and at
    /// window close.
    pub open: Counters,
    pub boundaries: Vec<Counters>,
    pub close: Counters,
    pub refused: bool,
}

impl WindowOut {
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }

    pub fn throughput_kops(&self) -> f64 {
        self.completed() as f64 / self.window_s / 1e3
    }

    /// The window cut into at most `n` groups of consecutive epochs.
    pub fn groups(&self, n: usize) -> Vec<Group> {
        let epochs = self.epoch_s.len();
        let n = n.min(epochs).max(1);
        (0..n)
            .map(|g| {
                let (lo, hi) = (g * epochs / n, (g + 1) * epochs / n);
                let mut group = Group {
                    lat: Default::default(),
                    completed: 0,
                    seconds: self.epoch_s[lo..hi].iter().sum(),
                };
                for c in &self.clients {
                    let end = |e: usize, op: usize| {
                        c.epoch_marks.get(e).map_or(c.lat[op].len(), |m| m[op])
                    };
                    for op in 0..3 {
                        group.lat[op].extend_from_slice(&c.lat[op][end(lo, op)..end(hi, op)]);
                    }
                    group.completed += c.epoch_completed[lo..hi].iter().sum::<u64>();
                }
                group
            })
            .collect()
    }

    pub fn tally(&self) -> Tally {
        let mut t = self.reboot_tally;
        for c in &self.clients {
            t.add(c.tally);
        }
        t
    }
}

/// Runs the closed loop for `seconds`, ending at the first boundary past
/// them, then `failures` short epochs that each end in a power failure.
/// The failures come after the timed window because the verification
/// after each reboot walks the whole structure, which re-warms the caches
/// and would move the window's latencies. Returns when both clients have
/// stopped.
pub fn run_window(svc: &mut Service, seconds: f64, trace: bool, failures: u64) -> WindowOut {
    let now = Instant::now();
    let w = Window {
        spec: svc.spec,
        seed: svc.seed,
        pool: &svc.pool,
        oracle: &svc.oracle,
        store: Mutex::new(svc.store.clone()),
        trace,
        seconds,
        reserve: reserve_lines(svc.spec),
        origin: now,
        gate_in: Rendezvous::new(),
        gate_out: Rendezvous::new(),
        reboot_gate: Rendezvous::new(),
        refused: AtomicBool::new(false),
        ctl: Mutex::new(Ctl {
            phase: Phase::Window,
            failures_start: svc.failure_epochs,
            failures_end: svc.failure_epochs + failures,
            marks: Vec::new(),
            pending: [None; CLIENTS],
            reboots: Vec::new(),
            reboot_tally: Tally::default(),
            next_reboot: svc.reboots,
            boundaries: Vec::new(),
            open: None,
            close: None,
        }),
    };
    let gens = std::mem::take(&mut svc.gens);
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(c, gen)| {
                let w = &w;
                s.spawn(move || w.client(c, gen))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut ctl = w.ctl.into_inner().expect("control block poisoned");
    svc.store = w.store.into_inner().expect("store slot poisoned");
    svc.gens = clients.iter().map(|c| c.gen.clone()).collect();
    svc.failure_epochs = ctl.failures_end;
    svc.reboots = ctl.next_reboot;
    let (start, end) = (ctl.marks[0], ctl.marks[ctl.marks.len() - 1]);
    WindowOut {
        clients,
        window_s: (end - start).as_secs_f64(),
        epoch_s: ctl
            .marks
            .windows(2)
            .map(|m| (m[1] - m[0]).as_secs_f64())
            .collect(),
        reboots: std::mem::take(&mut ctl.reboots),
        reboot_tally: ctl.reboot_tally,
        open: ctl.open.take().expect("window opened"),
        boundaries: std::mem::take(&mut ctl.boundaries),
        close: ctl.close.take().expect("window closed"),
        refused: w.refused.load(Ordering::SeqCst),
    }
}

impl Window<'_> {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    fn store(&self) -> Store {
        lock(&self.store).clone()
    }

    fn client(&self, c: usize, mut gen: Gen) -> ClientOut {
        let mut out = ClientOut {
            lat: Default::default(),
            completed: 0,
            epoch_marks: Vec::new(),
            epoch_completed: Vec::new(),
            tally: Tally::default(),
            updates: 0,
            effective: 0,
            req_spans: Vec::new(),
            boundaries: Vec::new(),
            gen: gen.clone(),
        };
        // Room for the whole window up front (mapped lazily), so no sample
        // push reallocates inside it.
        let budget = (self.seconds * BUDGET_REQS_PER_S) as usize;
        for lat in &mut out.lat {
            lat.reserve(budget);
        }
        if self.trace {
            out.req_spans.reserve(budget);
        }
        let mut store = self.store();
        let mut ctx = ThreadCtx::new(self.pool.clone(), c);
        self.gate_in.wait(|| false, || self.open());
        loop {
            let phase = lock(&self.ctl).phase;
            let (len, failure, timed) = match phase {
                Phase::Window => (EPOCH_LEN, None, true),
                Phase::Failures(k) => (FAILURE_EPOCH_LEN, Some(failure(self.seed, k)), false),
                Phase::Done => break,
            };
            if timed {
                out.epoch_marks.push(out.lat.each_ref().map(Vec::len));
                out.epoch_completed.push(0);
            }
            let mut raise_before = failure.filter(|f| f.raiser == c).map(|f| f.before_req);
            let mut retry = None;
            let mut i = 0;
            while i < len {
                if raise_before == Some(i) {
                    raise_before = None;
                    self.pool.crash_ctl().raise();
                    self.gate_in.wake();
                }
                let req = retry.take().unwrap_or_else(|| gen.next_req());
                let t_req = self.trace.then(Instant::now);
                if i % BUDGET_CHECK_EVERY == 0 && self.pool.remaining_lines() < self.reserve {
                    self.refused.store(true, Ordering::SeqCst);
                }
                if self.refused.load(Ordering::Relaxed) {
                    out.tally.record(false);
                    i += 1;
                    continue;
                }
                let t0 = Instant::now();
                let ex = store.exec_crashable(&ctx, &req);
                let t1 = Instant::now();
                match ex {
                    Exec::Done(resp) => {
                        out.tally.record(self.oracle.check_and_apply(c, &req, resp));
                        if timed {
                            out.record(&req, resp, t1 - t0);
                            if let Some(t_req) = t_req {
                                out.req_spans.push(ReqSpan {
                                    op: req.op,
                                    start: self.ns(t_req),
                                    op_start: self.ns(t0),
                                    op_end: self.ns(t1),
                                    end: self.ns(Instant::now()),
                                });
                            }
                        }
                        i += 1;
                    }
                    Exec::NotInvoked => {
                        (store, ctx) = self.reboot(c, None);
                        retry = Some(req);
                    }
                    Exec::Interrupted => {
                        out.tally.attempted += 1; // the reboot leader checks the recovered response
                        (store, ctx) = self.reboot(c, Some(req));
                        i += 1;
                    }
                }
            }
            // Quiescent boundary: both clients stop, each drains its own
            // limbo list, both resume. A power failure raised while this
            // client waits sends it to the reboot first.
            let b0 = Instant::now();
            while !self
                .gate_in
                .wait(|| self.pool.crash_ctl().raised(), || self.boundary())
            {
                (store, ctx) = self.reboot(c, None);
            }
            let b1 = Instant::now();
            self.pool.palloc_drain(c);
            let b2 = Instant::now();
            self.gate_out.wait(|| false, || {});
            if self.trace && timed {
                out.boundaries.push(BoundarySpan {
                    client: c,
                    start: self.ns(b0),
                    wait_end: self.ns(b1),
                    drain_end: self.ns(b2),
                    end: self.ns(Instant::now()),
                });
            }
        }
        out.gen = gen;
        out
    }

    /// Leader action of the starting rendezvous.
    fn open(&self) {
        let mut ctl = lock(&self.ctl);
        let now = Instant::now();
        ctl.open = Some(Counters::read(self.pool, false));
        ctl.marks.push(now);
    }

    /// Leader action of a boundary: decides what the next epoch is.
    fn boundary(&self) {
        let mut ctl = lock(&self.ctl);
        let refused = self.refused.load(Ordering::SeqCst);
        if self.trace && ctl.phase == Phase::Window {
            ctl.boundaries.push(Counters::read(self.pool, true));
        }
        ctl.phase = match ctl.phase {
            Phase::Window => {
                let now = Instant::now();
                ctl.marks.push(now);
                if (now - ctl.marks[0]).as_secs_f64() < self.seconds && !refused {
                    Phase::Window
                } else {
                    ctl.close = Some(Counters::read(self.pool, false));
                    if ctl.failures_start < ctl.failures_end && !refused {
                        Phase::Failures(ctl.failures_start)
                    } else {
                        Phase::Done
                    }
                }
            }
            Phase::Failures(k) if k + 1 < ctl.failures_end && !refused => Phase::Failures(k + 1),
            Phase::Failures(_) | Phase::Done => Phase::Done,
        };
    }

    /// Parks this client until the reboot is over; returns its new handles.
    fn reboot(&self, c: usize, interrupted: Option<Req>) -> (Store, ThreadCtx) {
        lock(&self.ctl).pending[c] = interrupted;
        self.reboot_gate.wait(|| false, || self.do_reboot());
        (self.store(), ThreadCtx::new(self.pool.clone(), c))
    }

    /// The reboot, run by the last client to stop. The time-to-first-serve
    /// clock runs from the quiescent, disarmed pool to the first new get's
    /// answer; verification follows outside it.
    fn do_reboot(&self) {
        let pool = self.pool;
        pool.crash_ctl().disarm();
        let (pending, probe_key) = {
            let mut ctl = lock(&self.ctl);
            let idx = ctl.next_reboot;
            ctl.next_reboot += 1;
            let probe = splitmix64(self.seed ^ 0xF125_7AE5 ^ idx) % self.spec.key_space + 1;
            (std::mem::take(&mut ctl.pending), probe)
        };
        let t0 = Instant::now();
        pool.recover_allocator();
        let t1 = Instant::now();
        let store = Store::attach(self.spec.structure, pool);
        let t2 = Instant::now();
        let mut recovered: Vec<(usize, Req, Resp, u64)> = Vec::new();
        for (c, req) in pending.iter().enumerate() {
            if let Some(req) = req {
                let ctx = ThreadCtx::new(pool.clone(), c);
                let s = Instant::now();
                let resp = store.recover(&ctx, req);
                recovered.push((c, *req, resp, s.elapsed().as_nanos() as u64));
            }
        }
        let t3 = Instant::now();
        let probe = Req {
            op: Op::Get,
            key: probe_key,
            val: 0,
        };
        let got = store.exec(&ThreadCtx::new(pool.clone(), 0), &probe);
        let t4 = Instant::now();

        let mut tally = Tally::default();
        for (c, req, resp, _) in &recovered {
            tally.failed += !self.oracle.check_and_apply(*c, req, *resp) as u64;
        }
        tally.record(self.oracle.check_and_apply(owner(probe_key), &probe, got));
        tally.failed += self.oracle.verify(&store);
        let free_blocks = if self.trace {
            pool.palloc_free_blocks().len()
        } else {
            0
        };
        *lock(&self.store) = store;

        let mut ctl = lock(&self.ctl);
        ctl.reboot_tally.add(tally);
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        ctl.reboots.push(Reboot {
            start_ns: self.ns(t0),
            total_ns: ns(t0, t4),
            alloc_ns: ns(t0, t1),
            attach_ns: ns(t1, t2),
            recover_ns: recovered.iter().map(|r| (r.0, r.3)).collect(),
            first_get_ns: ns(t3, t4),
            free_blocks,
        });
    }
}

impl ClientOut {
    fn record(&mut self, req: &Req, resp: Resp, lat: Duration) {
        self.lat[req.op.idx()].push(lat.as_nanos().min(u32::MAX as u128) as u32);
        self.completed += 1;
        *self
            .epoch_completed
            .last_mut()
            .expect("inside a timed epoch") += 1;
        if req.op != Op::Get {
            self.updates += 1;
            self.effective += resp.is_some() as u64;
        }
    }
}
