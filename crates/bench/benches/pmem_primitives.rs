//! Microbenchmarks of the pmem substrate's primitives — the raw
//! ingredients of the paper's cost analysis: how expensive is a `pwb` on a
//! just-written (cache-hot, thread-private) line versus one that is
//! repeatedly flushed and re-read (the invalidation round-trip behind the
//! paper's "high-impact" category), and what a `psync` costs next to them.
//! Each primitive is a row of [`bench::measure::trials`]: a fixed iteration
//! count on a fresh pool, warm-up plus the median and range of the trials.

use bench::measure::{time_per_op, trials, Sample};
use pmem::{Backend, PmemPool, PoolCfg, SiteId};

const ITERS: u64 = 1 << 20;
const SITE: SiteId = SiteId(0);

/// Times `body(pool, ITERS)` over fresh pools and prints its row.
fn report(name: &str, body: impl Fn(&PmemPool, u64)) {
    let (ns, ()) = trials(name, 1, |_| {
        let pool = PmemPool::new(PoolCfg {
            capacity: 64 << 20,
            backend: Backend::Clflush,
            shadow: false,
            max_threads: 8,
            ..Default::default()
        });
        Sample {
            ns_per_op: time_per_op(ITERS, || body(&pool, ITERS)),
            counts: (),
        }
    })
    .remove(0);
    println!(
        "{:<22} {:>10} {:>10.1} {:>10.1} {:>10.1}",
        name, ITERS, ns.median, ns.min, ns.max
    );
}

fn main() {
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "bench", "iters", "ns/op", "min", "max"
    );
    report("load", |pool, n| {
        let a = pool.alloc_lines(1);
        for _ in 0..n {
            std::hint::black_box(pool.load(a));
        }
    });
    report("store", |pool, n| {
        let a = pool.alloc_lines(1);
        for v in 0..n {
            pool.store(a, v);
        }
    });
    report("cas_success", |pool, n| {
        let a = pool.alloc_lines(1);
        for v in 0..n {
            let _ = std::hint::black_box(pool.cas(a, v, v + 1));
        }
    });
    // pwb of a line we keep writing (write → flush → write …): the
    // invalidation round-trip.
    report("pwb_hot_line", |pool, n| {
        let hot = pool.alloc_lines(1);
        for v in 0..n {
            pool.store(hot, v);
            pool.pwb(hot, SITE);
        }
    });
    // pwb of cold lines (the "new node" pattern: written once, flushed
    // once, not revisited). A large window is cycled instead of allocating
    // per iteration — by the time a line comes around again it has long
    // left the cache, so each flush sees a cold line without ever
    // exhausting the arena.
    report("pwb_fresh_line", |pool, n| {
        const WINDOW: u64 = 1 << 16; // 64k lines = 4 MiB, far beyond L2
        let base = pool.alloc_lines(WINDOW as usize);
        for i in 0..n {
            let line = base.add((i % WINDOW) * pmem::WORDS_PER_LINE as u64);
            pool.store(line, i);
            pool.pwb(line, SITE);
        }
    });
    report("psync_empty", |pool, n| {
        for _ in 0..n {
            pool.psync();
        }
    });
    report("pwb_plus_psync", |pool, n| {
        let hot = pool.alloc_lines(1);
        for v in 0..n {
            pool.store(hot, v);
            pool.pwb(hot, SITE);
            pool.psync();
        }
    });
}
