//! The per-layer ladder: one client replays the first requests of the
//! workload's stream against identically preloaded pools, adding one layer
//! per rung, then counts instrumented events in a pass of its own.

use std::time::Instant;

use pmem::{Backend, PmemPool, StatsSnapshot, ThreadCtx};

use crate::check::Tally;
use crate::service::{PoolPlan, Service};
use crate::store::Resp;
use crate::workload::{Req, Spec, EPOCH_LEN};

/// Requests each rung replays.
pub const LADDER_REQS: usize = 1 << 18;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Algorithm logic and the `pmem::pool` substrate: every pwb site
    /// masked, psync off.
    Masked,
    /// `Backend::Noop`: persistence bookkeeping without instructions.
    Noop,
    /// `Backend::Clflush`: real `clwb`/`sfence`.
    Clwb,
    /// `Backend::Clflush` with the flush-elision layer armed.
    Flushopt,
}

impl Rung {
    pub const ALL: [Rung; 4] = [Rung::Masked, Rung::Noop, Rung::Clwb, Rung::Flushopt];

    pub fn name(self) -> &'static str {
        match self {
            Rung::Masked => "masked",
            Rung::Noop => "noop",
            Rung::Clwb => "clwb",
            Rung::Flushopt => "flushopt",
        }
    }
}

pub struct RungOut {
    pub rung: Rung,
    pub ns_per_op: f64,
    pub stats: StatsSnapshot,
}

pub struct LadderOut {
    pub rungs: Vec<RungOut>,
    pub events_per_op: f64,
    pub tally: Tally,
}

impl LadderOut {
    pub fn rung(&self, r: Rung) -> &RungOut {
        self.rungs
            .iter()
            .find(|o| o.rung == r)
            .expect("every rung ran")
    }
}

fn preloaded(spec: &'static Spec, seed: u64, backend: Backend) -> Service {
    Service::setup(
        spec,
        seed,
        PoolPlan {
            backend,
            masked_load: true,
            requests: LADDER_REQS,
        },
    )
}

/// Replays `reqs` on client 0, draining at every epoch boundary like the
/// service does; returns the elapsed ns and the responses.
fn replay(svc: &Service, reqs: &[Req]) -> (u64, Vec<Resp>) {
    let ctx = ThreadCtx::new(svc.pool.clone(), 0);
    let mut resps = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        resps.push(svc.store.exec(&ctx, req));
        if (i + 1) % EPOCH_LEN == 0 {
            svc.pool.palloc_drain(0);
        }
    }
    (t0.elapsed().as_nanos() as u64, resps)
}

/// Checks a replay against the oracle (client 0's sequential history).
fn check(svc: &Service, reqs: &[Req], resps: &[Resp]) -> Tally {
    let mut t = Tally::default();
    for (req, resp) in reqs.iter().zip(resps) {
        t.record(svc.oracle.check_and_apply(0, req, *resp));
    }
    t.failed += svc.verify();
    t
}

fn configure(pool: &PmemPool, rung: Rung) {
    match rung {
        Rung::Masked => {
            pool.set_sites_mask(0);
            pool.set_psync_enabled(false);
        }
        Rung::Flushopt => pool.set_flushopt_enabled(true),
        Rung::Noop | Rung::Clwb => {}
    }
}

pub fn run(spec: &'static Spec, seed: u64) -> LadderOut {
    let reqs: Vec<Req> = {
        let mut gen = crate::workload::Gen::for_run(spec, seed).swap_remove(0);
        (0..LADDER_REQS).map(|_| gen.next_req()).collect()
    };
    let mut tally = Tally::default();
    // A discarded first replay: whichever rung ran first measured slower
    // (by up to 60% on the reference host), whatever the rung.
    let warmup = preloaded(spec, seed, Backend::Clflush);
    let (_, resps) = replay(&warmup, &reqs);
    tally.add(check(&warmup, &reqs, &resps));
    drop(warmup);
    let mut rungs = Vec::new();
    for rung in Rung::ALL {
        let backend = if rung == Rung::Noop {
            Backend::Noop
        } else {
            Backend::Clflush
        };
        let svc = preloaded(spec, seed, backend);
        configure(&svc.pool, rung);
        let before = svc.pool.stats();
        let (ns, resps) = replay(&svc, &reqs);
        let stats = svc.pool.stats().delta(&before);
        tally.add(check(&svc, &reqs, &resps));
        rungs.push(RungOut {
            rung,
            ns_per_op: ns as f64 / reqs.len() as f64,
            stats,
        });
    }
    // Events per request: an armed countdown sends every event down the
    // slow path, so it gets a pass of its own.
    let svc = preloaded(spec, seed, Backend::Noop);
    const SENTINEL: u64 = 1 << 62;
    svc.pool.crash_ctl().arm_after(SENTINEL);
    let (_, resps) = replay(&svc, &reqs);
    let left = svc.pool.crash_ctl().remaining();
    svc.pool.crash_ctl().disarm();
    assert!(left > 0, "the sentinel countdown must not fire");
    tally.add(check(&svc, &reqs, &resps));
    LadderOut {
        rungs,
        events_per_op: (SENTINEL - left as u64) as f64 / reqs.len() as f64,
        tally,
    }
}
