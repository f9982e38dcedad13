//! A persistent key-value service built on the recoverable resizable hash
//! table — the workload the paper's introduction motivates: a storage index
//! on NVMM that survives power failures with every in-flight request's
//! outcome decidable, and that keeps growing (resizing) under load without
//! ever losing a key to a crash.
//!
//! Two phases:
//!
//! 1. **Service loop (crash model).** A request loop drives zipfian-skewed
//!    puts/removes/gets against the table while power failures strike
//!    mid-request — including mid-*resize*, since the put-heavy skew grows
//!    the table through several doublings. Each failure kills the service
//!    at a random persistent-memory event, the adversary destroys all
//!    unflushed lines, and the rebooted service re-attaches to the same
//!    pool, recovers the interrupted request with the detectable
//!    `recover_*` API, and continues. An audit trail prints what survived.
//!
//! 2. **Recovery at scale (perf).** Loads the table to several sizes in a
//!    real-flush pool, "reboots", and measures time-to-first-serve: how
//!    long from the quiescent pool until a fresh process handle has run
//!    allocator recovery and answered its first `get`. Each scale runs
//!    twice: on the paper's bump arena and on a `reclaim` pool whose free
//!    lists hold every resize-retired sentinel, drained before the reboot.
//!    Neither needs a log replay or scan — the allocator resolves at most
//!    two cursors per thread and reads one recorded length per free list,
//!    and the Tracking table re-attaches to its root and finishes at most
//!    one op per thread — so the number stays flat while a full-scan
//!    rebuild strawman (what a non-recoverable index must do) grows
//!    linearly with the data. Results land in
//!    `results/recovery_at_scale.csv`.
//!
//! ```text
//! cargo run --release -p examples --bin persistent_kv [-- --smoke]
//! ```
//!
//! `--smoke` shrinks both phases for CI (seconds, deterministic).

use std::sync::Arc;
use std::time::Instant;

use pmem::{PmemPool, PoolCfg, SeededAdversary, ThreadCtx};
use tracking::RecoverableHashMap;

/// Distinct keys the zipfian service loop draws from.
const SERVICE_KEYS: usize = 10_000;
/// Zipf skew exponent (the YCSB default).
const ZIPF_S: f64 = 0.99;

struct Service {
    index: RecoverableHashMap,
    ctx: ThreadCtx,
}

impl Service {
    /// Boots the service over a pool, re-attaching to any existing index.
    fn boot(pool: Arc<PmemPool>) -> Service {
        let index = RecoverableHashMap::new(pool.clone(), 0);
        let ctx = ThreadCtx::new(pool, 0);
        Service { index, ctx }
    }
}

/// Zipfian sampler over ranks `1..=n`: precomputed cumulative weights,
/// binary search per draw.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Maps a uniform `u64` draw to a rank in `0..n` (0 = hottest).
    fn sample(&self, r: u64) -> usize {
        let total = *self.cumulative.last().expect("empty zipf");
        let u = (r >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c < u)
    }
}

fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    service_loop(smoke);
    recovery_at_scale(smoke);
}

// ---------------------------------------------------------------- phase 1

/// The crash-model request loop: zipfian traffic, mid-request power
/// failures, detectable recovery after each reboot.
fn service_loop(smoke: bool) {
    let bursts = if smoke { 6 } else { 20 };
    let reqs_per_burst = if smoke { 120 } else { 400 };

    let pool = Arc::new(PmemPool::new(PoolCfg::model(512 << 20)));
    let zipf = Zipf::new(SERVICE_KEYS, ZIPF_S);
    let mut rng = 0xFEED_FACEu64;
    let mut stored = 0u64;
    let mut total_reqs = 0usize;
    let mut power_failures = 0usize;

    println!(
        "service loop: {bursts} boots x {reqs_per_burst} requests, \
         zipf(s={ZIPF_S}) over {SERVICE_KEYS} keys"
    );
    let mut svc = Service::boot(pool.clone());
    for burst in 0..bursts {
        for _ in 0..reqs_per_burst {
            let r = xorshift(&mut rng);
            let key = zipf.sample(r) as u64 + 1;
            let val = (r >> 20) | 1;
            // Every ~150 requests a power failure strikes mid-request. The
            // put-heavy mix below keeps the table growing, so some of
            // these land inside a bucket migration. The crashed service is
            // replaced by a rebooted one and the loop keeps serving.
            if r.is_multiple_of(151) {
                svc = self_destruct(&pool, svc, key, val, r);
                power_failures += 1;
                continue;
            }
            match r % 10 {
                0..=5 => drop(svc.index.put(&svc.ctx, key, val)),
                6..=7 => drop(svc.index.remove(&svc.ctx, key)),
                _ => drop(svc.index.get(&svc.ctx, key)),
            }
            total_reqs += 1;
        }
        stored = svc.index.check_invariants() as u64;
        println!(
            "burst {burst:>2}: {stored} keys across {} buckets, invariants hold",
            svc.index.bucket_count()
        );
    }
    println!(
        "served ~{total_reqs} requests across {bursts} boots with {power_failures} \
         power failures; final index size {stored}\n"
    );
}

/// A power failure in the middle of a request: crash injection stops the
/// thread at a random persistent-memory event (possibly deep inside a
/// resize migration it was helping), the adversary destroys all unflushed
/// lines, and the *rebooted* service recovers the request. Returns the
/// service to keep using — the rebooted one if the crash fired.
fn self_destruct(pool: &Arc<PmemPool>, svc: Service, key: u64, val: u64, r: u64) -> Service {
    let removing = (r >> 7) & 1 == 0;
    svc.ctx.begin_op(tracking::sites::S_CP);
    pool.crash_ctl().arm_after(r % 400);
    let pre = if removing {
        pmem::run_crashable(|| svc.index.remove_started(&svc.ctx, key).is_some())
    } else {
        pmem::run_crashable(|| svc.index.put_started(&svc.ctx, key, val))
    };
    pool.crash_ctl().disarm();
    let op = if removing { "remove" } else { "put" };
    match pre {
        Some(done) => {
            println!("  power failure armed too late; {op}({key}) completed ({done})");
            svc
        }
        None => {
            pool.crash(&mut SeededAdversary::new(r | 1));
            // Reboot: a fresh service handle over the same (persistent) pool.
            let rebooted = Service::boot(pool.clone());
            let (outcome, expect_present) = if removing {
                let gone = rebooted.index.recover_remove(&rebooted.ctx, key);
                (format!("{gone:?}"), false)
            } else {
                let ok = rebooted.index.recover_put(&rebooted.ctx, key, val);
                (format!("{ok}"), true)
            };
            let present = rebooted.index.get(&rebooted.ctx, key).is_some();
            if expect_present {
                assert!(present, "a recovered put must leave the key visible");
            } else {
                assert!(!present, "a recovered remove must leave the key absent");
            }
            println!(
                "  power failure during {op}({key}): recovered response={outcome}, \
                 present after reboot={present}"
            );
            rebooted.index.check_invariants();
            rebooted
        }
    }
}

// ---------------------------------------------------------------- phase 2

/// One row of the recovery-at-scale table.
struct ScaleRow {
    keys: usize,
    pool_mb: usize,
    reclaim: bool,
    buckets: u64,
    free_blocks: usize,
    load_ms: f64,
    first_serve_us: f64,
    rebuild_ms: f64,
}

/// Loads the table at several scales in a real-flush pool, with and
/// without the free-list allocator, and measures time-to-first-serve after
/// a reboot against a full-scan strawman.
fn recovery_at_scale(smoke: bool) {
    // Pool sizes track the sentinel ladder: on the bump arena every resize
    // generation keeps its head/tail sentinel lines allocated, so the pool
    // must hold roughly two full bucket arrays of sentinels plus the live
    // nodes. A `reclaim` pool retires them instead, so the same size fits.
    let scales: &[(usize, usize)] = if smoke {
        &[(5_000, 64), (20_000, 128), (80_000, 256)]
    } else {
        &[(50_000, 256), (200_000, 1024), (800_000, 4096)]
    };

    println!("recovery at scale ({} scales):", scales.len());
    let mut rows = Vec::new();
    for &(keys, pool_mb) in scales {
        for reclaim in [false, true] {
            rows.push(scale_row(keys, pool_mb, reclaim));
        }
    }

    let mut csv = String::from(
        "keys,pool_mb,reclaim,buckets,free_blocks,load_ms,first_serve_us,rebuild_ms\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.3},{:.3}\n",
            r.keys,
            r.pool_mb,
            r.reclaim,
            r.buckets,
            r.free_blocks,
            r.load_ms,
            r.first_serve_us,
            r.rebuild_ms
        ));
    }
    std::fs::create_dir_all("results").expect("creating results/");
    let path = "results/recovery_at_scale.csv";
    std::fs::write(path, csv).expect("writing recovery CSV");
    println!("  -> {path}");
}

/// One scale point: load `keys` keys into a fresh pool, reboot, and time
/// the first serve and the strawman rebuild.
fn scale_row(keys: usize, pool_mb: usize, reclaim: bool) -> ScaleRow {
    let pool = Arc::new(PmemPool::new(PoolCfg {
        reclaim,
        ..PoolCfg::perf(pool_mb << 20)
    }));

    // Load phase: distinct keys, values derived from the key. The table
    // doubles through many resize generations on the way up.
    let loader = Service::boot(pool.clone());
    let start = Instant::now();
    for k in 1..=keys as u64 {
        loader.index.put(&loader.ctx, k, k * 3 + 1);
    }
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let buckets = loader.index.bucket_count();
    drop(loader);
    // A quiescent point: the sentinels retired by the resizes move onto
    // the free lists (a no-op on the bump arena).
    pool.palloc_drain_all();
    let free_blocks = pool.palloc_free_blocks().len();

    // Reboot: time from the quiescent pool until a fresh handle answers
    // its first get. Allocator recovery resolves at most two cursors per
    // thread and reads one recorded length per free list; the Tracking
    // table re-attaches to the root and (per thread) finishes at most one
    // in-flight op. Neither scans.
    let start = Instant::now();
    pool.recover_allocator();
    let rebooted = Service::boot(pool.clone());
    let probe = rebooted.index.get(&rebooted.ctx, keys as u64 / 2 + 1);
    let first_serve_us = start.elapsed().as_secs_f64() * 1e6;
    assert_eq!(probe, Some((keys as u64 / 2 + 1) * 3 + 1));

    // Strawman: what a non-recoverable index must do after a crash — walk
    // everything durable and rebuild a transient map.
    let start = Instant::now();
    let rebuilt: std::collections::HashMap<u64, u64> =
        rebooted.index.entries().into_iter().collect();
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rebuilt.len(), keys);

    let arena = if reclaim { "reclaim" } else { "bump" };
    println!(
        "  {keys:>7} keys / {buckets:>7} buckets ({arena:>7} pool {pool_mb:>4} MiB, \
         {free_blocks:>7} free blocks): load {load_ms:>8.1} ms, \
         first-serve {first_serve_us:>7.1} us, full-scan rebuild {rebuild_ms:>8.1} ms"
    );
    ScaleRow {
        keys,
        pool_mb,
        reclaim,
        buckets,
        free_blocks,
        load_ms,
        first_serve_us,
        rebuild_ms,
    }
}
