//! The case factory the two verification engines share.
//!
//! [`crate::sweep`] (crash at every event of a one-thread script) and
//! [`crate::explore`] (crash inside concurrent schedules) verify the same
//! subjects against the same specifications. Everything they have in
//! common lives here, once:
//!
//! * **Subjects.** `CrashSubject` and its impls: one recoverable
//!   structure plus its [`linearize`] spec, recovery entry points and
//!   post-recovery observation phase.
//! * **Generators.** One deterministic script generator per shape,
//!   parameterised by its RNG seed and the base its values count up from
//!   (`set_script`, `queue_script`, `stack_script`, `map_script`,
//!   `exchange_script`, `palloc_script`). `Plan` picks the
//!   arguments: the sweep's single script draws from the sweep seed with
//!   bases 100 (queue) / 200 (stack) and a 5/8 put share over value base
//!   100 (map); explorer thread `t` draws from the explore seed salted per
//!   shape and thread, with base `(t+1)·1000` (map: thread 0 puts 8/8 over
//!   value base 100, the others put 4/8 over value base 200).
//! * **The factory.** `build_case` builds the pool (reclaim,
//!   site mask, optional trace), registers site names, builds the subject
//!   and the per-thread scripts of a `(structure, algo, threads)` triple,
//!   and hands them to an engine-side `CaseVisitor` — generically, so
//!   each engine keeps a runner monomorphized over the subject. The
//!   visitor receives a *builder*: the sweep's scratch engine calls it once
//!   per crash point, the checkpoint engine and the explorer once.
//! * **Recovery.** `recover` is the one recovery sequence of a restarted
//!   system, and `exhaustion` turns a pool-exhaustion panic into an
//!   actionable message instead of a dead harness.
//! * **The command line.** [`Cli`] parses the flags `crashsweep` and
//!   `explore` share and selects their `(structure, algo)` pairs.

use std::cell::Cell;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use linearize::{
    History, MapOp, MapRet, MapSpec, QueueOp, QueueRet, QueueSpec, SetOp, SetSpec, Spec, StackOp,
    StackRet, StackSpec,
};
use pmem::{PAddr, PmemPool, PoolCfg, SiteId, ThreadCtx};
use tracking::{
    CombiningQueue, CombiningStack, RecoverableExchanger, RecoverableHashMap, RecoverableQueue,
    RecoverableStack,
};

use crate::adapter::{build, AlgoKind, SetAlgo, StructureKind};
use crate::sweep::AdversaryKind;

/// Key universe of the set scripts (kept far below the [`SetSpec`] bitmap's
/// 64-key ceiling so the observation phase stays cheap).
pub const SET_KEYS: u64 = 12;

/// Key universe of the hashmap scripts. Paired with the deliberately tiny
/// `HASHMAP_SWEEP_CFG` (2 initial buckets, chains capped at 2) it forces
/// several level migrations *inside* the scripted window, so the exhaustive
/// sweep crashes the resize protocol at every publish / migrate / seal /
/// finish event, not just the bucket operations.
pub const MAP_KEYS: u64 = 12;

/// Hash-table geometry used by every sweep/explore case: small enough that
/// the 12-op script crosses multiple resizes.
pub(crate) const HASHMAP_SWEEP_CFG: tracking::hashmap::HashMapConfig =
    tracking::hashmap::HashMapConfig {
        initial_buckets: 2,
        max_chain: 2,
    };

/// Threads parameter of the sweep's structures (sizes per-thread tables of
/// the algorithms that need them; the sweep itself is single-threaded so
/// that exhaustive crash-point enumeration is deterministic and the model
/// unambiguous — concurrent interleavings are [`crate::explore`]'s job).
const SWEEP_THREADS: usize = 2;

/// A script operation of subject `Sub`.
pub(crate) type Op<Sub> = <<Sub as CrashSubject>::S as Spec>::Op;
/// A response of subject `Sub`.
pub(crate) type Ret<Sub> = <<Sub as CrashSubject>::S as Spec>::Ret;

// ---------------------------------------------------------------- factory

/// Which engine the scripts are for. The two differ only in the generator
/// arguments (module docs).
#[derive(Copy, Clone, Debug)]
pub(crate) enum Plan {
    /// The crash sweep: one script of `len` operations drawn from `seed`.
    Sweep { seed: u64, len: usize },
    /// The schedule explorer: `threads` scripts of `len` operations, each
    /// drawn from `seed` salted per shape and thread.
    Explore {
        seed: u64,
        threads: usize,
        len: usize,
    },
}

impl Plan {
    /// One script per thread: `gen(rng_seed, thread, len)`, where `thread`
    /// is `None` for the sweep's single script.
    fn scripts<T>(self, salt: u64, gen: impl Fn(u64, Option<u64>, usize) -> T) -> Vec<T> {
        match self {
            Plan::Sweep { seed, len } => vec![gen(seed, None, len)],
            Plan::Explore { seed, threads, len } => (0..threads as u64)
                .map(|t| gen(seed ^ (t + 1).wrapping_mul(salt), Some(t), len))
                .collect(),
        }
    }

    /// Threads the structure is sized for.
    fn threads(self) -> usize {
        match self {
            Plan::Sweep { .. } => SWEEP_THREADS,
            Plan::Explore { threads, .. } => threads,
        }
    }
}

/// Value base of a queue/stack/exchanger script: the sweep's fixed base,
/// or `(t+1)·1000` for explorer thread `t`, so values are unique across
/// threads and the checker can tell whose element a dequeue observed.
fn value_base(thread: Option<u64>, sweep: u64) -> u64 {
    thread.map_or(sweep, |t| (t + 1) * 1000)
}

/// What [`build_case`] builds.
#[derive(Clone, Debug)]
pub(crate) struct CaseCfg {
    pub(crate) structure: StructureKind,
    pub(crate) algo: AlgoKind,
    /// Build the allocator subject ([`PallocSubject`]) instead of
    /// `structure` (sweep plans only).
    pub(crate) palloc: bool,
    pub(crate) plan: Plan,
    pub(crate) pool_bytes: usize,
    pub(crate) reclaim: bool,
    pub(crate) site_mask: u64,
}

impl CaseCfg {
    /// A fresh pool, traced (4096-event window per thread) or dark.
    fn pool(&self, traced: bool) -> Arc<PmemPool> {
        let mut pc = PoolCfg {
            reclaim: self.reclaim,
            ..PoolCfg::model(self.pool_bytes)
        };
        if traced {
            pc.trace = true;
            pc.trace_capacity = 4096;
        }
        let pool = Arc::new(PmemPool::new(pc));
        pool.set_sites_mask(self.site_mask);
        pool
    }

    /// [`CaseCfg::pool`] with the Tracking site names registered.
    fn tracking_pool(&self, traced: bool) -> Arc<PmemPool> {
        let pool = self.pool(traced);
        pool.register_site_names(&tracking::sites::SITES);
        pool
    }
}

/// The engine side of [`build_case`].
pub(crate) trait CaseVisitor {
    type Out;
    /// Receives the per-thread scripts and a builder that makes a fresh
    /// pool and subject, traced (`true`) or dark.
    fn visit<Sub: CrashSubject>(
        self,
        scripts: Vec<Vec<Op<Sub>>>,
        build: impl Fn(bool) -> (Arc<PmemPool>, Sub) + 'static,
    ) -> Self::Out;
}

/// Builds the case `cfg` describes and hands it to `v` (module docs).
pub(crate) fn build_case<V: CaseVisitor>(cfg: &CaseCfg, v: V) -> V::Out {
    let c = cfg.clone();
    let (plan, n) = (cfg.plan, cfg.plan.threads());
    if cfg.palloc {
        let Plan::Sweep { seed, len } = plan else {
            panic!("the allocator subject is swept, not explored");
        };
        return v.visit(vec![palloc_script(seed, len)], move |traced| {
            let pool = c.pool(traced);
            let owned = pool.root(0);
            (pool, PallocSubject { owned })
        });
    }
    match cfg.structure {
        StructureKind::List | StructureKind::Bst => v.visit(
            plan.scripts(0xA5A5_1234, |seed, _, len| set_script(seed, len)),
            move |traced| {
                let pool = c.pool(traced);
                let algo = build(c.algo, pool.clone(), n, SET_KEYS + 4);
                pool.register_site_names(algo.sites());
                (pool, SetSubject { algo })
            },
        ),
        StructureKind::Queue => {
            let scripts = plan.scripts(0x5EED_4321, |seed, t, len| {
                queue_script(seed, value_base(t, 100), len)
            });
            if cfg.algo == AlgoKind::TrackingComb {
                v.visit(scripts, move |traced| {
                    let pool = c.tracking_pool(traced);
                    let q = CombiningQueue::new(pool.clone(), 0, n);
                    (pool, CombQueueSubject { q })
                })
            } else {
                v.visit(scripts, move |traced| {
                    let pool = c.tracking_pool(traced);
                    let q = RecoverableQueue::new(pool.clone(), 0);
                    (pool, QueueSubject { q })
                })
            }
        }
        StructureKind::Stack => {
            let scripts = plan.scripts(0x57AC_8765, |seed, t, len| {
                stack_script(seed, value_base(t, 200), len)
            });
            if cfg.algo == AlgoKind::TrackingComb {
                v.visit(scripts, move |traced| {
                    let pool = c.tracking_pool(traced);
                    let s = CombiningStack::new(pool.clone(), 0, n);
                    (pool, CombStackSubject { s })
                })
            } else {
                v.visit(scripts, move |traced| {
                    let pool = c.tracking_pool(traced);
                    let s = RecoverableStack::new(pool.clone(), 0);
                    (pool, StackSubject { s })
                })
            }
        }
        StructureKind::Exchanger => v.visit(
            // The sweep's lone thread offers two fixed values; explorer
            // offers are globally unique, so the pairing oracle's partner
            // map is well-defined.
            plan.scripts(0, |_, t, len| match t {
                None => vec![101, 202],
                Some(_) => exchange_script(value_base(t, 0), len),
            }),
            move |traced| {
                let pool = c.tracking_pool(traced);
                let x = RecoverableExchanger::new(pool.clone(), 0);
                (pool, ExchangerSubject { x })
            },
        ),
        StructureKind::Hashmap => v.visit(
            // Explorer thread 0 is put-only (driving chains past the resize
            // trigger); the others mix puts/removes/gets on the same keys,
            // so resizes race bucket operations and other resizes.
            plan.scripts(0x4A5F_9876, |seed, t, len| match t {
                None => map_script(seed, len, 5, 100),
                Some(0) => map_script(seed, len, 8, 100),
                Some(_) => map_script(seed, len, 4, 200),
            }),
            move |traced| {
                let pool = c.tracking_pool(traced);
                let m = RecoverableHashMap::with_config(pool.clone(), 0, HASHMAP_SWEEP_CFG);
                (pool, HashmapSubject { m })
            },
        ),
    }
}

// ---------------------------------------------------------------- recovery

/// Recovers a crashed system the way a restarted one would: allocator
/// recovery first (structure recovery may allocate, and it must not see a
/// half-linked free list; no-op on bump pools), then structure-global
/// recovery, then each interrupted operation in the order given. An
/// operation interrupted past [`ThreadCtx::begin_op`]'s `CP_q := 0`
/// prologue resumes through `recover`; one interrupted inside it is
/// re-invoked from the prologue, because `RD_q` still describes the
/// *previous* operation. Each `past_prologue` flag is updated in place, so
/// a crash inside this very pass that lands after a re-issued prologue
/// resumes through `recover` on the next pass, not a third prologue.
pub(crate) fn recover<'a, Sub: CrashSubject>(
    pool: &PmemPool,
    sub: &Sub,
    interrupted: impl IntoIterator<Item = (&'a ThreadCtx, &'a Op<Sub>, &'a Cell<bool>)>,
) -> Vec<Ret<Sub>> {
    pool.recover_allocator();
    sub.recover_structure();
    interrupted
        .into_iter()
        .map(|(ctx, op, past_prologue)| {
            if past_prologue.get() {
                sub.recover(ctx, op)
            } else {
                ctx.begin_op(SiteId(0));
                past_prologue.set(true);
                sub.exec(ctx, op)
            }
        })
        .collect()
}

/// Classifies a harness panic that is not the injected crash: a
/// pool-exhaustion panic is a capacity problem, not a crash-consistency
/// finding, and yields the pool's actionable message for an `exhausted`
/// outcome; anything else is a real bug and resumes unwinding.
pub(crate) fn exhaustion(payload: Box<dyn std::any::Any + Send>) -> String {
    match pmem::exhaustion_message(payload.as_ref()) {
        Some(msg) => msg.to_owned(),
        None => std::panic::resume_unwind(payload),
    }
}

// ------------------------------------------------------------ command line

/// Prints `msg` and exits with status 2 (bad command line).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses a flag's numeric argument, exiting 2 if it is malformed.
pub fn number<T: FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad {what} '{s}'")))
}

/// The flags `crashsweep` and `explore` share. A `None` field keeps the
/// engine config's default.
pub struct Cli {
    /// `--structure list|bst|queue|stack|exchanger|hashmap|all`.
    pub structures: Vec<StructureKind>,
    /// Whether `--structure` was given.
    pub structures_named: bool,
    /// `--algo NAME|all` (`None`: each shape's whole lineup).
    pub algo: Option<AlgoKind>,
    /// `--shard I/N`.
    pub shard: Option<(u64, u64)>,
    /// `--adversary pessimist|seeded`.
    pub adversary: Option<AdversaryKind>,
    /// `--seed S`.
    pub seed: Option<u64>,
    /// `--ops N`.
    pub ops: Option<usize>,
    /// `--pool-mb M`, in bytes.
    pub pool_bytes: Option<usize>,
    /// `--out DIR`.
    pub out: PathBuf,
}

impl Cli {
    /// Parses the process arguments. A flag outside the shared set goes to
    /// `own(flag, value)`, where `value()` yields the flag's argument;
    /// `own` returns `false` for a flag it does not know either. Exits 2
    /// with a message on an unknown flag or a bad value.
    pub fn parse(
        default_out: &str,
        mut own: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
    ) -> Cli {
        let mut cli = Cli {
            structures: StructureKind::all().to_vec(),
            structures_named: false,
            algo: None,
            shard: None,
            adversary: None,
            seed: None,
            ops: None,
            pool_bytes: None,
            out: default_out.into(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage_error(&format!("{flag} expects a value")))
            };
            match flag.as_str() {
                "--structure" => {
                    cli.structures_named = true;
                    cli.structures = match value().as_str() {
                        "all" => StructureKind::all().to_vec(),
                        s => vec![StructureKind::parse(s).unwrap_or_else(|| {
                            usage_error(&format!(
                                "unknown structure '{s}' (list|bst|queue|stack|exchanger|hashmap|all)"
                            ))
                        })],
                    };
                }
                "--algo" => {
                    cli.algo =
                        match value().as_str() {
                            "all" => None,
                            s => Some(AlgoKind::parse(s).unwrap_or_else(|| {
                                usage_error(&format!("unknown algorithm '{s}'"))
                            })),
                        };
                }
                "--shard" => {
                    let v = value();
                    let (i, n) = v
                        .split_once('/')
                        .unwrap_or_else(|| usage_error("--shard expects I/N, e.g. --shard 0/4"));
                    let (i, n) = (number(i, "shard index"), number(n, "shard count"));
                    if n == 0 || i >= n {
                        usage_error("shard index must be in [0, N)");
                    }
                    cli.shard = Some((i, n));
                }
                "--adversary" => {
                    let v = value();
                    cli.adversary = Some(AdversaryKind::parse(&v).unwrap_or_else(|| {
                        usage_error(&format!("unknown adversary '{v}' (pessimist|seeded)"))
                    }));
                }
                "--seed" => cli.seed = Some(number(&value(), "seed")),
                "--ops" => cli.ops = Some(number(&value(), "ops count")),
                "--pool-mb" => cli.pool_bytes = Some(number::<usize>(&value(), "pool size") << 20),
                "--out" => cli.out = value().into(),
                f => {
                    if !own(f, &mut value) {
                        usage_error(&format!("unknown flag {f}"));
                    }
                }
            }
        }
        cli
    }

    /// The `(structure, algo)` pairs to run: each named shape's `lineup`,
    /// narrowed to `--algo` when one was given. A shape whose lineup lacks
    /// that algo is skipped — or rejected (exit 2) when it is the only
    /// shape named. With `any_list_algo` the list takes every algo.
    pub fn pairs(
        &self,
        lineup: fn(StructureKind) -> Vec<AlgoKind>,
        any_list_algo: bool,
    ) -> Vec<(StructureKind, AlgoKind)> {
        let mut pairs = Vec::new();
        for &s in &self.structures {
            let algos = lineup(s);
            match self.algo {
                None => pairs.extend(algos.into_iter().map(|a| (s, a))),
                Some(a) if algos.contains(&a) || (any_list_algo && s == StructureKind::List) => {
                    pairs.push((s, a))
                }
                Some(a) if self.structures.len() == 1 => usage_error(&format!(
                    "{} has no {} implementation (available: {})",
                    s.name(),
                    a.name(),
                    algos
                        .iter()
                        .map(|a| a.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
                Some(_) => {}
            }
        }
        pairs
    }
}

// ---------------------------------------------------------------- scripts

/// xorshift64* — the same tiny deterministic generator the integration
/// tests use; reproduced here so `bench` stays dependency-free.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Set script over the shared key universe: 4/8 inserts, 3/8 deletes, 1/8
/// finds. Shared keys are the point: conflicting inserts/deletes of the
/// same key on different threads are what the linearizability check bites
/// on.
pub(crate) fn set_script(seed: u64, len: usize) -> Vec<SetOp> {
    let mut rng = Rng(splitmix64(seed) | 1);
    (0..len)
        .map(|_| {
            let r = rng.next();
            let key = r % SET_KEYS + 1;
            match (r >> 32) % 8 {
                0..=3 => SetOp::Insert(key),
                4..=6 => SetOp::Delete(key),
                _ => SetOp::Find(key),
            }
        })
        .collect()
}

/// Queue script: 3/5 enqueues of `base + 1`, `base + 2`, …, 2/5 dequeues.
pub(crate) fn queue_script(seed: u64, base: u64, len: usize) -> Vec<QueueOp> {
    let mut rng = Rng(splitmix64(seed) | 1);
    let mut next = base;
    (0..len)
        .map(|_| {
            if rng.next() % 5 < 3 {
                next += 1;
                QueueOp::Enqueue(next)
            } else {
                QueueOp::Dequeue
            }
        })
        .collect()
}

/// Stack script: 3/5 pushes of `base + 1`, `base + 2`, …, 2/5 pops.
pub(crate) fn stack_script(seed: u64, base: u64, len: usize) -> Vec<StackOp> {
    let mut rng = Rng(splitmix64(seed) | 1);
    let mut next = base;
    (0..len)
        .map(|_| {
            if rng.next() % 5 < 3 {
                next += 1;
                StackOp::Push(next)
            } else {
                StackOp::Pop
            }
        })
        .collect()
}

/// Hashmap script: each op draws an eighth `b`; `b < puts` puts a value
/// in `[value_base, value_base + 90)`, other `b < 7` remove, `b = 7` gets.
/// Put-heavy shares make the table grow through resizes.
pub(crate) fn map_script(seed: u64, len: usize, puts: u64, value_base: u64) -> Vec<MapOp> {
    let mut rng = Rng(splitmix64(seed) | 1);
    (0..len)
        .map(|_| {
            let r = rng.next();
            let key = r % MAP_KEYS + 1;
            match (r >> 32) % 8 {
                b if b < puts => MapOp::Put(key, (r >> 40) % 90 + value_base),
                0..=6 => MapOp::Remove(key),
                _ => MapOp::Get(key),
            }
        })
        .collect()
}

/// Exchanger script: offers `base`, `base + 1`, ….
pub(crate) fn exchange_script(base: u64, len: usize) -> Vec<u64> {
    (base..base + len as u64).collect()
}

// ---------------------------------------------------------------- subjects

/// One recoverable structure under test, described by its sequential
/// specification. `exec` is the post-prologue operation body (the harness
/// issues [`ThreadCtx::begin_op`] itself, so a crash inside the prologue is
/// a distinct, covered case); `recover` is the matching `*.Recover`
/// function; `observe` runs the post-recovery read-only phase, appending
/// what it sees to the history and checking quiescent structural
/// invariants.
pub(crate) trait CrashSubject: Sync + 'static {
    type S: Spec<Op: Send + Sync, Ret: Send> + Default;

    fn exec(&self, ctx: &ThreadCtx, op: &<Self::S as Spec>::Op) -> <Self::S as Spec>::Ret;
    fn recover(&self, ctx: &ThreadCtx, op: &<Self::S as Spec>::Op) -> <Self::S as Spec>::Ret;
    fn recover_structure(&self) {}
    fn observe(&self, ctx: &ThreadCtx, h: &mut History<Self::S>) -> Result<(), String>;

    /// Verdict over a genuinely concurrent execution (the schedule
    /// explorer's oracle): the per-thread completed operations — including
    /// recovered responses of crash-interrupted ones — must, together with
    /// the post-run observation phase, form a linearizable history, and the
    /// structure must pass its quiescent invariants. The default is exactly
    /// that; the exchanger overrides it with a pairing oracle, because its
    /// sequential spec (`exchange → None`) only describes isolated threads.
    fn concurrent_verdict(
        &self,
        ctx: &ThreadCtx,
        recorded: &[CompletedOp<Self::S>],
    ) -> Result<(), String> {
        let mut h: History<Self::S> = History::new();
        for r in recorded {
            h.record_on(r.tid, r.op.clone(), r.ret.clone(), r.inv, r.res);
        }
        self.observe(ctx, &mut h)?;
        h.check(Self::S::default())
            .map(|_| ())
            .map_err(|e| format!("not linearizable: {e}"))
    }
}

/// One completed (or crash-recovered) operation of a concurrent execution,
/// as fed to [`CrashSubject::concurrent_verdict`].
pub(crate) struct CompletedOp<S: Spec> {
    /// Logical (virtual) thread that ran the operation.
    pub(crate) tid: usize,
    pub(crate) op: S::Op,
    pub(crate) ret: S::Ret,
    /// Invocation / response stamps from the shared [`linearize::Clock`].
    pub(crate) inv: u64,
    pub(crate) res: u64,
}

pub(crate) struct SetSubject {
    pub(crate) algo: Arc<dyn SetAlgo>,
}

impl CrashSubject for SetSubject {
    type S = SetSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.algo.insert_started(ctx, k),
            SetOp::Delete(k) => self.algo.delete_started(ctx, k),
            SetOp::Find(k) => self.algo.find(ctx, k),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.algo.recover_insert(ctx, k),
            SetOp::Delete(k) => self.algo.recover_delete(ctx, k),
            SetOp::Find(k) => self.algo.recover_find(ctx, k),
        }
    }

    fn recover_structure(&self) {
        self.algo.recover_structure();
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<SetSpec>) -> Result<(), String> {
        let mut present = 0usize;
        for key in 1..=SET_KEYS {
            let found = self.algo.find(ctx, key);
            present += found as usize;
            let t = h.invoke(0, SetOp::Find(key));
            h.ret(t, found);
        }
        let len = self.algo.len();
        if len != present {
            return Err(format!(
                "structural check: len() = {len} but {present} keys answer find"
            ));
        }
        Ok(())
    }
}

pub(crate) struct QueueSubject {
    pub(crate) q: RecoverableQueue,
}

impl CrashSubject for QueueSubject {
    type S = QueueSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &QueueOp) -> QueueRet {
        match *op {
            QueueOp::Enqueue(v) => {
                self.q.enqueue_started(ctx, v);
                QueueRet::Enqueued
            }
            QueueOp::Dequeue => QueueRet::Dequeued(self.q.dequeue_started(ctx)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &QueueOp) -> QueueRet {
        match *op {
            QueueOp::Enqueue(v) => {
                self.q.recover_enqueue(ctx, v);
                QueueRet::Enqueued
            }
            QueueOp::Dequeue => QueueRet::Dequeued(self.q.recover_dequeue(ctx)),
        }
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<QueueSpec>) -> Result<(), String> {
        // Drain: each dequeue is a real recorded operation, ending with the
        // observation that the queue is empty.
        let cap = self.q.len() + 1;
        for _ in 0..cap {
            let v = self.q.dequeue(ctx);
            let t = h.invoke(0, QueueOp::Dequeue);
            h.ret(t, QueueRet::Dequeued(v));
            if v.is_none() {
                break;
            }
        }
        if !self.q.is_empty() {
            return Err("structural check: queue not empty after drain".into());
        }
        Ok(())
    }
}

/// [`QueueSubject`] for the flat-combining variant — same spec and
/// observation phase, so the combining queue answers to exactly the
/// linearizability and detectability obligations the plain one does.
pub(crate) struct CombQueueSubject {
    pub(crate) q: CombiningQueue,
}

impl CrashSubject for CombQueueSubject {
    type S = QueueSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &QueueOp) -> QueueRet {
        match *op {
            QueueOp::Enqueue(v) => {
                self.q.enqueue_started(ctx, v);
                QueueRet::Enqueued
            }
            QueueOp::Dequeue => QueueRet::Dequeued(self.q.dequeue_started(ctx)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &QueueOp) -> QueueRet {
        match *op {
            QueueOp::Enqueue(v) => {
                self.q.recover_enqueue(ctx, v);
                QueueRet::Enqueued
            }
            QueueOp::Dequeue => QueueRet::Dequeued(self.q.recover_dequeue(ctx)),
        }
    }

    fn recover_structure(&self) {
        // The crash may keep the volatile image of the combiner lock /
        // request / ready lines (cache-eviction modeling); clear them
        // before any per-op recovery or a surviving lock wedges it.
        self.q.recover_structure();
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<QueueSpec>) -> Result<(), String> {
        let cap = self.q.len() + 1;
        for _ in 0..cap {
            let v = self.q.dequeue(ctx);
            let t = h.invoke(0, QueueOp::Dequeue);
            h.ret(t, QueueRet::Dequeued(v));
            if v.is_none() {
                break;
            }
        }
        if !self.q.is_empty() {
            return Err("structural check: combining queue not empty after drain".into());
        }
        Ok(())
    }
}

pub(crate) struct StackSubject {
    pub(crate) s: RecoverableStack,
}

impl CrashSubject for StackSubject {
    type S = StackSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &StackOp) -> StackRet {
        match *op {
            StackOp::Push(v) => {
                self.s.push_started(ctx, v);
                StackRet::Pushed
            }
            StackOp::Pop => StackRet::Popped(self.s.pop_started(ctx)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &StackOp) -> StackRet {
        match *op {
            StackOp::Push(v) => {
                self.s.recover_push(ctx, v);
                StackRet::Pushed
            }
            StackOp::Pop => StackRet::Popped(self.s.recover_pop(ctx)),
        }
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<StackSpec>) -> Result<(), String> {
        let cap = self.s.len() + 1;
        for _ in 0..cap {
            let v = self.s.pop(ctx);
            let t = h.invoke(0, StackOp::Pop);
            h.ret(t, StackRet::Popped(v));
            if v.is_none() {
                break;
            }
        }
        if !self.s.is_empty() {
            return Err("structural check: stack not empty after drain".into());
        }
        Ok(())
    }
}

/// [`StackSubject`] for the flat-combining variant.
pub(crate) struct CombStackSubject {
    pub(crate) s: CombiningStack,
}

impl CrashSubject for CombStackSubject {
    type S = StackSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &StackOp) -> StackRet {
        match *op {
            StackOp::Push(v) => {
                self.s.push_started(ctx, v);
                StackRet::Pushed
            }
            StackOp::Pop => StackRet::Popped(self.s.pop_started(ctx)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &StackOp) -> StackRet {
        match *op {
            StackOp::Push(v) => {
                self.s.recover_push(ctx, v);
                StackRet::Pushed
            }
            StackOp::Pop => StackRet::Popped(self.s.recover_pop(ctx)),
        }
    }

    fn recover_structure(&self) {
        self.s.recover_structure();
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<StackSpec>) -> Result<(), String> {
        let cap = self.s.len() + 1;
        for _ in 0..cap {
            let v = self.s.pop(ctx);
            let t = h.invoke(0, StackOp::Pop);
            h.ret(t, StackRet::Popped(v));
            if v.is_none() {
                break;
            }
        }
        if !self.s.is_empty() {
            return Err("structural check: combining stack not empty after drain".into());
        }
        Ok(())
    }
}

/// A lone thread can never meet a partner, so every exchange must complete
/// unmatched (`None`) and leave the slot free — which is exactly what a
/// detectably-recovered exchange must also conclude after a crash.
#[derive(Clone, Default)]
pub(crate) struct ExchangeSpec;

impl Spec for ExchangeSpec {
    type Op = u64;
    type Ret = Option<u64>;
    type Digest = ();

    fn apply(&mut self, _op: &u64) -> Option<u64> {
        None
    }

    fn digest(&self) {}
}

/// Spin budget for exchanger ops (small: keeps the event count per op, and
/// therefore the sweep, short while still exercising the wait loop).
pub(crate) const EXCHANGE_SPIN: usize = 6;

pub(crate) struct ExchangerSubject {
    pub(crate) x: RecoverableExchanger,
}

impl CrashSubject for ExchangerSubject {
    type S = ExchangeSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &u64) -> Option<u64> {
        self.x.exchange_started(ctx, *op, EXCHANGE_SPIN)
    }

    fn recover(&self, ctx: &ThreadCtx, op: &u64) -> Option<u64> {
        self.x.recover_exchange(ctx, *op, EXCHANGE_SPIN)
    }

    fn observe(&self, _ctx: &ThreadCtx, _h: &mut History<ExchangeSpec>) -> Result<(), String> {
        if !self.x.is_free() {
            return Err("structural check: exchanger slot not free after recovery".into());
        }
        Ok(())
    }

    /// Pairing oracle: every exchange that returned `Some(v)` must have a
    /// unique partner — the operation that offered `v` — whose own result
    /// is this operation's offer, on a *different* thread, with genuinely
    /// overlapping intervals (a rendezvous has no sequential witness).
    /// Offers are unique across the run, so the partner map is well-defined.
    /// Unmatched (`None`) results carry no obligation; the slot must end
    /// free either way.
    fn concurrent_verdict(
        &self,
        _ctx: &ThreadCtx,
        recorded: &[CompletedOp<ExchangeSpec>],
    ) -> Result<(), String> {
        for r in recorded {
            let Some(got) = r.ret else { continue };
            let partner = recorded
                .iter()
                .find(|p| p.op == got)
                .ok_or_else(|| format!("t{} exchanged value {got} nobody offered", r.tid))?;
            if partner.tid == r.tid {
                return Err(format!(
                    "t{} exchanged value {got} with itself (offer {})",
                    r.tid, r.op
                ));
            }
            if partner.ret != Some(r.op) {
                return Err(format!(
                    "asymmetric pairing: t{} offered {} and got {got}, but t{} \
                     offering {got} got {:?}",
                    r.tid, r.op, partner.tid, partner.ret
                ));
            }
            if !(r.inv < partner.res && partner.inv < r.res) {
                return Err(format!(
                    "t{} [{}, {}] paired with t{} [{}, {}] without overlapping — \
                     a rendezvous must be concurrent",
                    r.tid, r.inv, r.res, partner.tid, partner.inv, partner.res
                ));
            }
        }
        if !self.x.is_free() {
            return Err("structural check: exchanger slot not free after the run".into());
        }
        Ok(())
    }
}

pub(crate) struct HashmapSubject {
    pub(crate) m: RecoverableHashMap,
}

impl CrashSubject for HashmapSubject {
    type S = MapSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &MapOp) -> MapRet {
        match *op {
            MapOp::Put(k, v) => MapRet::Put(self.m.put_started(ctx, k, v)),
            MapOp::Remove(k) => MapRet::Removed(self.m.remove_started(ctx, k)),
            MapOp::Get(k) => MapRet::Got(self.m.get(ctx, k)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &MapOp) -> MapRet {
        match *op {
            MapOp::Put(k, v) => MapRet::Put(self.m.recover_put(ctx, k, v)),
            MapOp::Remove(k) => MapRet::Removed(self.m.recover_remove(ctx, k)),
            MapOp::Get(k) => MapRet::Got(self.m.recover_get(ctx, k)),
        }
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<MapSpec>) -> Result<(), String> {
        let mut present = 0usize;
        for key in 1..=MAP_KEYS {
            let got = self.m.get(ctx, key);
            present += got.is_some() as usize;
            let t = h.invoke(0, MapOp::Get(key));
            h.ret(t, MapRet::Got(got));
        }
        let len = self.m.len();
        if len != present {
            return Err(format!(
                "structural check: len() = {len} but {present} keys answer get"
            ));
        }
        // `check_invariants` walks every bucket of the current level
        // (sorted chains, bucket-hash residency, no stale tags, no pending
        // next level) and panics on violation; surface that as a verdict,
        // not a sweep-killing panic.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.m.check_invariants()))
            .map_err(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("invariant panic");
                format!("structural check: {msg}")
            })?;
        Ok(())
    }
}

// ------------------------------------------------------- palloc subject

/// Unnamed site used by the palloc subject's own bookkeeping stores.
const P_WORK: SiteId = SiteId(60);

/// Payload stamp written into word 2 of every owned block; a block handed
/// out twice is zeroed by the second allocation, destroying the stamp.
const OWNED_PATTERN: u64 = 0xA110_C47E_D000_0000;

/// One step of the allocator-churn script swept by [`crate::sweep::run_palloc_sweep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PallocOp {
    /// Allocate a block of this class (1..=[`pmem::MAX_CLASS`] lines) and
    /// push it, durably, onto the subject's owned list.
    Alloc(usize),
    /// Durably pop the owned-list head and retire it to the limbo list.
    Retire,
    /// Drain every thread's limbo list ([`PmemPool::palloc_drain_all`]).
    Drain,
}

/// Trivial sequential spec: allocator steps have no observable response —
/// the verdict is entirely the structural audit in
/// [`PallocSubject::observe`] plus the engine's [`PmemPool::palloc_check`].
#[derive(Clone, Default)]
pub(crate) struct PallocSpec;

impl Spec for PallocSpec {
    type Op = PallocOp;
    type Ret = bool;
    type Digest = ();

    fn apply(&mut self, _op: &PallocOp) -> bool {
        true
    }

    fn digest(&self) {}
}

/// Sweeps the allocator *itself*: the script allocates, retires and drains
/// blocks through the instrumented palloc protocols, keeping every live
/// block on a persistent singly-linked "owned" list anchored at a root
/// cell. After each injected crash plus [`PmemPool::recover_allocator`],
/// [`PallocSubject::observe`] audits the heap: every owned block's payload
/// stamp must be intact (a block issued twice is zeroed by the second
/// allocation) and no owned block may overlap a free-list or limbo block —
/// the no-double-allocate obligation at every possible crash point.
pub(crate) struct PallocSubject {
    owned: PAddr,
}

impl PallocSubject {
    /// `(address, class)` of every block on the owned list.
    fn owned_blocks(&self, pool: &PmemPool) -> Result<Vec<(u64, usize)>, String> {
        let mut out = Vec::new();
        let mut p = pool.load(self.owned);
        while p != 0 {
            if out.len() > 100_000 {
                return Err("owned list cycles".into());
            }
            let b = PAddr(p);
            let class = pool.load(b.add(1)) as usize;
            if !(1..=pmem::MAX_CLASS).contains(&class) {
                return Err(format!("owned block {p:#x} carries class {class}"));
            }
            if pool.load(b.add(2)) != OWNED_PATTERN ^ p {
                return Err(format!(
                    "owned block {p:#x} payload stamp clobbered — issued twice?"
                ));
            }
            out.push((p, class));
            p = pool.load(b);
        }
        Ok(out)
    }
}

impl CrashSubject for PallocSubject {
    type S = PallocSpec;

    fn exec(&self, ctx: &ThreadCtx, op: &PallocOp) -> bool {
        let pool = ctx.pool();
        match *op {
            PallocOp::Alloc(class) => {
                let b = ctx.palloc(class);
                // Link (w0), class (w1) and stamp (w2) are durable before
                // the head moves, so a durable head implies an intact,
                // well-formed block; a crash in between leaks at most `b`.
                pool.store(b, pool.load(self.owned));
                pool.store(b.add(1), class as u64);
                pool.store(b.add(2), OWNED_PATTERN ^ b.raw());
                pool.pwb(b, P_WORK);
                pool.pfence();
                pool.store(self.owned, b.raw());
                pool.pwb(self.owned, P_WORK);
                pool.psync();
            }
            PallocOp::Retire => {
                let head = pool.load(self.owned);
                if head != 0 {
                    let b = PAddr(head);
                    let class = pool.load(b.add(1)) as usize;
                    // The pop is durable *before* the block is retired: no
                    // crash can leave it both owned and on a limbo list.
                    pool.store(self.owned, pool.load(b));
                    pool.pwb(self.owned, P_WORK);
                    pool.psync();
                    ctx.retire(b, class);
                }
            }
            PallocOp::Drain => pool.palloc_drain_all(),
        }
        true
    }

    fn recover(&self, ctx: &ThreadCtx, op: &PallocOp) -> bool {
        // Allocator steps are not detectable operations — a restarted
        // system simply re-invokes them. A crashed step leaks at most its
        // one in-flight block (the paper's bounded-leak budget), which the
        // audit tolerates; what it must never do is double-issue.
        self.exec(ctx, op)
    }

    fn observe(&self, ctx: &ThreadCtx, _h: &mut History<PallocSpec>) -> Result<(), String> {
        let pool = ctx.pool();
        let owned = self
            .owned_blocks(pool)
            .map_err(|e| format!("owned audit: {e}"))?;
        // No owned block may overlap any block the allocator considers
        // re-issuable (free list or limbo), and owned blocks must not
        // overlap each other.
        let mut spans: Vec<(u64, u64, &'static str)> = owned
            .iter()
            .map(|&(a, c)| (a, a + (c * pmem::WORDS_PER_LINE) as u64, "owned"))
            .collect();
        for (a, c) in pool
            .palloc_free_blocks()
            .into_iter()
            .chain(pool.palloc_limbo_blocks())
        {
            spans.push((a, a + (c * pmem::WORDS_PER_LINE) as u64, "recyclable"));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            let ((a0, end0, k0), (a1, _, k1)) = (w[0], w[1]);
            if a1 < end0 {
                return Err(format!(
                    "blocks overlap: {k0} block {a0:#x} (ends {end0:#x}) and {k1} block {a1:#x}"
                ));
            }
        }
        Ok(())
    }
}

/// Deterministic allocator-churn script: ~1/2 allocs across every size
/// class, ~3/8 retires, ~1/8 explicit drains (boundaries drain too).
pub(crate) fn palloc_script(seed: u64, len: usize) -> Vec<PallocOp> {
    let mut rng = Rng(splitmix64(seed) | 1);
    (0..len)
        .map(|_| {
            let r = rng.next();
            match (r >> 32) % 8 {
                0..=3 => PallocOp::Alloc((r % pmem::MAX_CLASS as u64) as usize + 1),
                4..=6 => PallocOp::Retire,
                _ => PallocOp::Drain,
            }
        })
        .collect()
}
