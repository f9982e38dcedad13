//! Normalized capsule operations over the Harris list — the paper's
//! **Capsules** and **Capsules-Opt** competitors.
//!
//! Each operation is split into two capsules, following the optimization
//! for normalized (Timnat–Petrank) implementations described in Section 5:
//!
//! 1. a **search capsule** that traverses the list and decides the single
//!    CAS to perform, and
//! 2. a **CAS capsule** that executes it as a recoverable CAS
//!    ([`crate::rcas`]).
//!
//! At every capsule boundary the thread's persistent **capsule record** is
//! rewritten and fenced; it is the continuation a recovering thread resumes
//! from. The paper's check-point convention is reused for detectability of
//! operation boundaries: the record is persisted *before* `CP_q := 1`, so a
//! post-crash `CP_q = 1` certifies the record belongs to the interrupted
//! operation.
//!
//! The two persistence policies differ only in what traversals flush (see
//! [`crate::harris::SearchPersist`]): `Full` is the generic Izraelevitz
//! durability transformation (a `pwb; pfence` per shared access — the
//! configuration whose "prohibitive cost" Figure 3a/4a shows), `Opt` is the
//! paper's hand-tuned variant that persists only marked nodes and the
//! target neighborhood.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx};

use crate::harris::{self, SearchPersist, N_KEY, N_NEXT};
use crate::rcas::{core, rcas, stamped, NotifyArray, NO_TID};
use crate::sites::{C_CAPSULE, C_CAS, C_NEWNODE, C_RESULT};

/// Which persistence scheme the list applies (see module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PersistPolicy {
    /// Durability transformation on every shared access (**Capsules**).
    Full,
    /// Hand-tuned flushes (**Capsules-Opt**).
    Opt,
}

impl PersistPolicy {
    fn search(self) -> SearchPersist {
        match self {
            PersistPolicy::Full => SearchPersist::Full,
            PersistPolicy::Opt => SearchPersist::Opt,
        }
    }
}

// Capsule record layout (one line per thread):
// w0 op|phase<<8, w1 key, w2 seq, w3 loc, w4 expected, w5 new_core, w6 result
const R_OP: u64 = 0;
const R_KEY: u64 = 1;
const R_SEQ: u64 = 2;
const R_LOC: u64 = 3;
const R_EXPECTED: u64 = 4;
const R_NEWCORE: u64 = 5;
const R_RESULT: u64 = 6;

const PH_SEARCH: u64 = 1;
const PH_EXEC: u64 = 2;
const PH_DONE: u64 = 3;

/// Record op codes.
const OP_INSERT: u64 = 1;
const OP_DELETE: u64 = 2;
const OP_FIND: u64 = 3;

// Superblock layout: w0 head, w1 record base, w2 notify base, w3 threads.

/// A detectably recoverable Harris list built with the capsules
/// transformation.
#[derive(Clone)]
pub struct CapsulesList {
    pool: Arc<PmemPool>,
    head: PAddr,
    rec_base: PAddr,
    notify: Arc<NotifyArray>,
    policy: PersistPolicy,
}

impl CapsulesList {
    /// Creates a list rooted in root cell `root_idx` (or re-attaches).
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, policy: PersistPolicy) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            let sb = PAddr::from_raw(existing);
            let head = PAddr::from_raw(pool.load(sb));
            let rec_base = PAddr::from_raw(pool.load(sb.add(1)));
            let nbase = PAddr::from_raw(pool.load(sb.add(2)));
            let threads = pool.load(sb.add(3)) as usize;
            return CapsulesList {
                pool,
                head,
                rec_base,
                notify: Arc::new(NotifyArray::attach(nbase, threads)),
                policy,
            };
        }
        let sb = pool.alloc_lines(1);
        let head = harris::mk_list(&pool);
        let threads = pool.max_threads();
        let rec_base = pool.alloc_lines(threads);
        let notify = NotifyArray::alloc(&pool, threads);
        pool.store(sb, head.raw());
        pool.store(sb.add(1), rec_base.raw());
        pool.store(sb.add(2), notify.base().raw());
        pool.store(sb.add(3), threads as u64);
        pool.pwb(head, C_NEWNODE);
        let tail = crate::harris::addr_of(pool.load(head.add(crate::harris::N_NEXT)));
        pool.pwb(tail, C_NEWNODE);
        pool.pwb(sb, C_NEWNODE);
        pool.pfence();
        pool.store(root, sb.raw());
        pool.pbarrier(root, 1, C_NEWNODE);
        CapsulesList {
            pool,
            head,
            rec_base,
            notify: Arc::new(notify),
            policy,
        }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn rec(&self, ctx: &ThreadCtx) -> PAddr {
        self.rec_base.add((ctx.tid() * pmem::WORDS_PER_LINE) as u64)
    }

    fn write_capsule1(&self, ctx: &ThreadCtx, op: u64, key: u64) -> u64 {
        let pool = &*self.pool;
        let rec = self.rec(ctx);
        let seq = pool.load(rec.add(R_SEQ)) + 1;
        pool.store(rec.add(R_OP), op | PH_SEARCH << 8);
        pool.store(rec.add(R_KEY), key);
        pool.store(rec.add(R_SEQ), seq);
        pool.pwb(rec, C_CAPSULE);
        pool.pfence();
        // The paper's check-point: CP_q = 1 only after the record is
        // durable, so recovery can attribute the record to this operation.
        ctx.set_cp(1);
        pool.pwb(ctx.cp_addr(), C_CAPSULE);
        pool.psync();
        seq
    }

    fn set_phase(&self, ctx: &ThreadCtx, op: u64, phase: u64) {
        let rec = self.rec(ctx);
        self.pool.store(rec.add(R_OP), op | phase << 8);
    }

    fn finish(&self, ctx: &ThreadCtx, op: u64, result: bool) -> bool {
        let pool = &*self.pool;
        let rec = self.rec(ctx);
        pool.store(rec.add(R_RESULT), result as u64);
        self.set_phase(ctx, op, PH_DONE);
        pool.pwb(rec, C_RESULT);
        pool.pfence();
        result
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(C_CAPSULE);
        self.insert_started(ctx, key)
    }

    /// [`Self::insert`] without the system's `CP_q := 0` pre-step.
    pub fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        assert!(key > harris::KEY_MIN && key < harris::KEY_MAX);
        let pool = &*self.pool;
        let rec = self.rec(ctx);
        let seq = self.write_capsule1(ctx, OP_INSERT, key);
        loop {
            // --- search capsule ---
            let s = harris::search(pool, ctx.tid(), self.head, key, self.policy.search());
            if pool.load(s.curr.add(N_KEY)) == key {
                return self.finish(ctx, OP_INSERT, false);
            }
            let node = harris::mk_node(pool, ctx.tid(), key, s.curr.raw());
            pool.pwb(node, C_NEWNODE);
            pool.pfence();
            // --- capsule boundary: persist the CAS continuation ---
            pool.store(rec.add(R_LOC), s.pred.add(N_NEXT).raw());
            pool.store(rec.add(R_EXPECTED), s.pred_next);
            pool.store(rec.add(R_NEWCORE), node.raw());
            self.set_phase(ctx, OP_INSERT, PH_EXEC);
            pool.pwb(rec, C_CAPSULE);
            pool.pfence();
            // --- CAS capsule ---
            if rcas(
                pool,
                &self.notify,
                ctx,
                s.pred.add(N_NEXT),
                s.pred_next,
                node.raw(),
                seq,
            ) {
                pool.pwb(s.pred.add(N_NEXT), C_CAS);
                pool.pfence();
                return self.finish(ctx, OP_INSERT, true);
            }
            self.set_phase(ctx, OP_INSERT, PH_SEARCH);
            pool.pwb(rec, C_CAPSULE);
            pool.pfence();
        }
    }

    /// Deletes `key`; returns `false` if absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(C_CAPSULE);
        self.delete_started(ctx, key)
    }

    /// [`Self::delete`] without the system's `CP_q := 0` pre-step.
    pub fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        assert!(key > harris::KEY_MIN && key < harris::KEY_MAX);
        let pool = &*self.pool;
        let rec = self.rec(ctx);
        let seq = self.write_capsule1(ctx, OP_DELETE, key);
        loop {
            // --- search capsule ---
            let s = harris::search(pool, ctx.tid(), self.head, key, self.policy.search());
            if pool.load(s.curr.add(N_KEY)) != key {
                return self.finish(ctx, OP_DELETE, false);
            }
            // --- capsule boundary: the mark CAS is the linearizing step ---
            let marked = core(s.curr_next) | 1;
            pool.store(rec.add(R_LOC), s.curr.add(N_NEXT).raw());
            pool.store(rec.add(R_EXPECTED), s.curr_next);
            pool.store(rec.add(R_NEWCORE), marked);
            self.set_phase(ctx, OP_DELETE, PH_EXEC);
            pool.pwb(rec, C_CAPSULE);
            pool.pfence();
            // --- CAS capsule ---
            if rcas(
                pool,
                &self.notify,
                ctx,
                s.curr.add(N_NEXT),
                s.curr_next,
                marked,
                seq,
            ) {
                pool.pwb(s.curr.add(N_NEXT), C_CAS);
                pool.pfence();
                let r = self.finish(ctx, OP_DELETE, true);
                // best-effort physical unlink (any traversal can redo it);
                // on success this CAS is the node's unique remover, so it
                // also retires it once the unlink is durable.
                let succ = stamped(core(s.curr_next) & !1, NO_TID, 0);
                if pool.cas(s.pred.add(N_NEXT), s.pred_next, succ).is_ok() {
                    pool.pwb(s.pred.add(N_NEXT), C_CAS);
                    pool.pfence();
                    ctx.retire(s.curr, 1);
                }
                return r;
            }
            self.set_phase(ctx, OP_DELETE, PH_SEARCH);
            pool.pwb(rec, C_CAPSULE);
            pool.pfence();
        }
    }

    /// Is `key` present?
    pub fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(C_CAPSULE);
        self.find_started(ctx, key)
    }

    /// [`Self::find`] without the system's `CP_q := 0` pre-step.
    pub fn find_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        assert!(key > harris::KEY_MIN && key < harris::KEY_MAX);
        let pool = &*self.pool;
        self.write_capsule1(ctx, OP_FIND, key);
        let s = harris::search(pool, ctx.tid(), self.head, key, self.policy.search());
        let found = pool.load(s.curr.add(N_KEY)) == key;
        self.finish(ctx, OP_FIND, found)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// `Insert.Recover`.
    pub fn recover_insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match self.recover_common(ctx, OP_INSERT, key) {
            Some(r) => r,
            None => self.insert(ctx, key),
        }
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match self.recover_common(ctx, OP_DELETE, key) {
            Some(r) => r,
            None => self.delete(ctx, key),
        }
    }

    /// `Find.Recover` (read-only: simply re-execute).
    pub fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.find(ctx, key)
    }

    /// Shared recovery body: `Some(result)` if the interrupted operation
    /// demonstrably finished (or its pending CAS can be resolved), `None`
    /// to re-invoke.
    fn recover_common(&self, ctx: &ThreadCtx, op: u64, key: u64) -> Option<bool> {
        let pool = &*self.pool;
        if ctx.cp() == 0 {
            return None; // record belongs to an older operation
        }
        let rec = self.rec(ctx);
        let hdr = pool.load(rec.add(R_OP));
        if hdr & 0xFF != op || pool.load(rec.add(R_KEY)) != key {
            return None;
        }
        match hdr >> 8 {
            PH_DONE => Some(pool.load(rec.add(R_RESULT)) != 0),
            PH_EXEC => {
                let seq = pool.load(rec.add(R_SEQ));
                let loc = PAddr::from_raw(pool.load(rec.add(R_LOC)));
                if self.notify.cas_succeeded(pool, ctx, loc, seq) {
                    pool.pwb(loc, C_CAS);
                    pool.pfence();
                    return Some(self.finish(ctx, op, true));
                }
                // Re-execute the CAS capsule once: the continuation is in
                // the record. If the location moved on, the operation never
                // took effect and is re-invoked from its search capsule.
                let expected = pool.load(rec.add(R_EXPECTED));
                let new_core = pool.load(rec.add(R_NEWCORE));
                if rcas(pool, &self.notify, ctx, loc, expected, new_core, seq) {
                    pool.pwb(loc, C_CAS);
                    pool.pfence();
                    return Some(self.finish(ctx, op, true));
                }
                None
            }
            _ => None, // SEARCH: no CAS was attempted; re-invoke
        }
    }

    // ------------------------------------------------------------------
    // Quiescent inspection
    // ------------------------------------------------------------------

    /// Live user keys in order (quiescent only).
    pub fn keys(&self) -> Vec<u64> {
        harris::keys(&self.pool, self.head)
    }

    /// Checks sortedness of the live keys (quiescent). Returns the count.
    pub fn check_invariants(&self) -> usize {
        let ks = self.keys();
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly sorted"
        );
        ks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};
    use std::collections::BTreeSet;

    fn setup(policy: PersistPolicy) -> (Arc<PmemPool>, CapsulesList, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let list = CapsulesList::new(pool.clone(), 3, policy);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, list, ctx)
    }

    #[test]
    fn basics_both_policies() {
        for policy in [PersistPolicy::Full, PersistPolicy::Opt] {
            let (_p, list, ctx) = setup(policy);
            assert!(!list.find(&ctx, 10));
            assert!(list.insert(&ctx, 10));
            assert!(list.find(&ctx, 10));
            assert!(!list.insert(&ctx, 10));
            assert!(list.delete(&ctx, 10));
            assert!(!list.find(&ctx, 10));
            assert!(!list.delete(&ctx, 10));
            assert_eq!(list.check_invariants(), 0);
        }
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, list, ctx) = setup(PersistPolicy::Opt);
        let mut model = BTreeSet::new();
        let mut rng = 0xC0FFEEu64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(list.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(list.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(list.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(list.keys(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn full_policy_flushes_far_more_than_opt() {
        let mk = |policy| {
            let (p, list, ctx) = setup(policy);
            for k in 1..=50u64 {
                list.insert(&ctx, k);
            }
            p.stats_reset();
            for k in 1..=50u64 {
                list.find(&ctx, k);
            }
            p.stats().pwb_total()
        };
        let full = mk(PersistPolicy::Full);
        let opt = mk(PersistPolicy::Opt);
        assert!(
            full > opt * 3,
            "durability transformation must flush much more (full={full}, opt={opt})"
        );
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, list, _ctx) = setup(PersistPolicy::Opt);
        let mut handles = vec![];
        for t in 0..4usize {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..500 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = rng % 40 + 1;
                    match (rng >> 32) % 3 {
                        0 => {
                            list.insert(&ctx, key);
                        }
                        1 => {
                            list.delete(&ctx, key);
                        }
                        _ => {
                            list.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        list.check_invariants();
    }

    #[test]
    fn concurrent_inserts_same_key_exactly_one_wins() {
        let (p, list, _ctx) = setup(PersistPolicy::Opt);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 0..4usize {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                list.insert(&ctx, 77)
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1);
        assert_eq!(list.keys(), vec![77]);
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        for crash_at in 0..3000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let list = CapsulesList::new(pool.clone(), 3, PersistPolicy::Opt);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(C_CAPSULE);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.insert_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(list.keys(), vec![5]);
                    return;
                }
                None => {
                    assert!(list.recover_insert(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(list.keys(), vec![5], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_delete_recovers_detectably() {
        for crash_at in 0..3000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let list = CapsulesList::new(pool.clone(), 3, PersistPolicy::Opt);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(list.insert(&ctx, 5));
            ctx.begin_op(C_CAPSULE);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.delete_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert!(list.keys().is_empty());
                    return;
                }
                None => {
                    assert!(list.recover_delete(&ctx, 5), "crash_at={crash_at}");
                    assert!(list.keys().is_empty(), "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, list, ctx) = setup(PersistPolicy::Opt);
        assert!(list.insert(&ctx, 9));
        assert!(
            list.recover_insert(&ctx, 9),
            "DONE record replays the response"
        );
        assert_eq!(list.keys(), vec![9], "no double insert");
    }
}
