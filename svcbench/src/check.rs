//! The output checker: a per-key oracle built from each client's own
//! sequential history, and the failure tally behind `error_rate`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::{PmemPool, PoolCfg, ThreadCtx};

use crate::store::{Resp, Store};
use crate::workload::{owner, value_for, value_matches_key, Op, Req, Structure};

/// Expected contents, one word per key (0 = absent). Key `k` is written
/// only by its owner client, or by the reboot leader while every client is
/// parked; the rendezvous that parks them orders those accesses, so
/// relaxed loads and stores suffice.
pub struct Oracle {
    structure: Structure,
    vals: Vec<AtomicU64>,
}

impl Oracle {
    pub fn new(structure: Structure, key_space: u64) -> Oracle {
        Oracle {
            structure,
            vals: (0..=key_space).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn get(&self, key: u64) -> Resp {
        let v = self.vals[key as usize].load(Ordering::Relaxed);
        (v != 0).then_some(v)
    }

    pub fn set(&self, key: u64, v: Resp) {
        self.vals[key as usize].store(v.unwrap_or(0), Ordering::Relaxed);
    }

    /// Keys the oracle holds present.
    pub fn live(&self) -> u64 {
        self.vals
            .iter()
            .filter(|v| v.load(Ordering::Relaxed) != 0)
            .count() as u64
    }

    /// Checks `resp` to `req` issued by `client` and applies the request's
    /// correct effect. Own keys are checked exactly; a get of another
    /// client's key only has to return a value that key could hold.
    pub fn check_and_apply(&self, client: usize, req: &Req, resp: Resp) -> bool {
        if owner(req.key) != client {
            debug_assert_eq!(req.op, Op::Get, "updates go to own keys only");
            return resp.is_none_or(|v| value_matches_key(self.structure, req.key, v));
        }
        let prior = self.get(req.key);
        let (expected, after) = match req.op {
            Op::Get => (prior, prior),
            Op::Put if prior.is_none() => (Some(req.val), Some(req.val)),
            Op::Put => (None, prior),
            Op::Remove => (prior, None),
        };
        self.set(req.key, after);
        resp == expected
    }

    /// Keys whose presence or value in `contents` (sorted by key) differs
    /// from the oracle: acknowledged effects lost, or undone effects kept.
    pub fn mismatches(&self, contents: &[(u64, u64)]) -> u64 {
        let mut bad = 0;
        let mut it = contents.iter().peekable();
        for key in 1..self.vals.len() as u64 {
            let mut found = None;
            while let Some(&&(k, v)) = it.peek() {
                if k > key {
                    break;
                }
                if k == key {
                    found = Some(v);
                } else {
                    bad += 1; // a key outside the key space
                }
                it.next();
            }
            bad += (found != self.get(key)) as u64;
        }
        bad + it.count() as u64
    }

    /// Verifies a quiescent structure against the oracle: every mismatching
    /// key counts as one failed request, and a broken invariant as one more.
    pub fn verify(&self, store: &Store) -> u64 {
        let mut failed = self.mismatches(&store.contents());
        if let Err(e) = store.check_invariants() {
            eprintln!("svcbench: invariant violated: {e}");
            failed += 1;
        }
        failed
    }
}

/// Attempted and failed requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += (!ok) as u64;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Self-test of the checker: a correct history counts nothing, one wrong
/// response and one lost acknowledged put each count one failed request.
/// Returns the tally, with `failed == 2` when the checker works.
pub fn checker_selftest() -> Tally {
    let pool = Arc::new(PmemPool::new(PoolCfg {
        reclaim: true,
        ..PoolCfg::perf(8 << 20)
    }));
    let store = Store::attach(Structure::Map, &pool);
    let oracle = Oracle::new(Structure::Map, 16);
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let put = |key| Req {
        op: Op::Put,
        key,
        val: value_for(Structure::Map, key, 0, key),
    };
    let get = |key| Req {
        op: Op::Get,
        key,
        val: 0,
    };
    let mut tally = Tally::default();
    for req in [put(2), get(2), put(2), get(3), put(4)] {
        tally.record(oracle.check_and_apply(owner(req.key), &req, store.exec(&ctx, &req)));
    }
    // One wrong response: key 2 read back with another value.
    let v2 = oracle.get(2).expect("key 2 was put");
    tally.record(oracle.check_and_apply(0, &get(2), Some(v2 ^ 1)));
    // One lost acknowledged put: key 4 vanishes behind the oracle's back,
    // which the post-reboot verification must notice.
    let lost = Req {
        op: Op::Remove,
        key: 4,
        val: 0,
    };
    store.exec(&ctx, &lost);
    tally.failed += oracle.verify(&store);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_a_wrong_response_and_a_lost_put() {
        let t = checker_selftest();
        assert_eq!(t.failed, 2, "{t:?}");
        assert_eq!(t.attempted, 6);
        assert!((t.error_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mismatches_count_lost_and_resurrected_keys() {
        let o = Oracle::new(Structure::Map, 5);
        o.set(1, Some(1 << 32));
        o.set(3, Some(3 << 32));
        assert_eq!(o.mismatches(&[(1, 1 << 32), (3, 3 << 32)]), 0);
        assert_eq!(o.mismatches(&[(1, 1 << 32)]), 1);
        assert_eq!(o.mismatches(&[(1, 1 << 32), (2, 2 << 32), (3, 3 << 32)]), 1);
        assert_eq!(o.mismatches(&[(1, 1 << 32), (3, 7)]), 1);
        assert_eq!(o.mismatches(&[(1, 1 << 32), (3, 3 << 32), (9, 9)]), 1);
    }

    #[test]
    fn foreign_gets_only_need_a_plausible_value() {
        let o = Oracle::new(Structure::Map, 8);
        let g = Req {
            op: Op::Get,
            key: 3,
            val: 0,
        };
        assert!(o.check_and_apply(0, &g, None));
        assert!(o.check_and_apply(0, &g, Some(3 << 32 | 9)));
        assert!(!o.check_and_apply(0, &g, Some(4 << 32)));
    }
}
