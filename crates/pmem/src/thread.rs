//! Per-thread recovery context: the paper's `CP_q` and `RD_q` variables.
//!
//! Section 2 of the paper gives each thread *q* a non-volatile private
//! check-point variable `CP_q` (set to 0 by the system just before each
//! recoverable operation starts) and Section 3 adds a designated persistent
//! *recovery data* variable `RD_q` holding a reference to the descriptor of
//! q's last operation. Footnote 1 notes that system support is necessary
//! for detectable algorithms; [`ThreadCtx`] *is* that system support here:
//! it owns the thread's recovery line inside the pool and the harness calls
//! the matching `recover_*` function with the original arguments after a
//! crash.

use std::sync::Arc;

use crate::addr::PAddr;
use crate::persist::SiteId;
use crate::pool::PmemPool;

/// Hard cap on recovery slots a pool reserves by default.
pub const MAX_THREADS: usize = 128;

/// A thread's handle onto a [`PmemPool`]: identity plus its persistent
/// `CP_q`/`RD_q` recovery slots.
///
/// Cloneable and cheap; each worker thread builds one with its unique `tid`.
/// The same `tid` must be reused when recovering that thread after a crash
/// (the slots are addressed by `tid`).
#[derive(Clone)]
pub struct ThreadCtx {
    pool: Arc<PmemPool>,
    tid: usize,
    cp: PAddr,
    rd: PAddr,
}

impl ThreadCtx {
    /// Binds thread `tid` to `pool`. The calling thread's trace events on
    /// `pool` are labelled `tid` from here on ([`crate::Event::tid`]), so
    /// build the context on the thread that uses it.
    pub fn new(pool: Arc<PmemPool>, tid: usize) -> Self {
        let line = pool.recovery_line(tid);
        pool.bind_logical_tid(tid);
        ThreadCtx {
            pool,
            tid,
            cp: line,
            rd: line.add(1),
        }
    }

    /// The owning pool.
    #[inline]
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// A clone of the pool handle.
    pub fn pool_arc(&self) -> Arc<PmemPool> {
        self.pool.clone()
    }

    /// This thread's identity (recovery-slot index).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Address of `CP_q` (for direct pwb calls by algorithms).
    #[inline]
    pub fn cp_addr(&self) -> PAddr {
        self.cp
    }

    /// Address of `RD_q`.
    #[inline]
    pub fn rd_addr(&self) -> PAddr {
        self.rd
    }

    /// Reads `CP_q`.
    #[inline]
    pub fn cp(&self) -> u64 {
        self.pool.load(self.cp)
    }

    /// Writes `CP_q` (persistence is the caller's responsibility — the
    /// algorithms place their own `pwb(CP_q); psync` per the pseudocode).
    #[inline]
    pub fn set_cp(&self, v: u64) {
        self.pool.store(self.cp, v);
    }

    /// Reads `RD_q`.
    #[inline]
    pub fn rd(&self) -> u64 {
        self.pool.load(self.rd)
    }

    /// Writes `RD_q`.
    #[inline]
    pub fn set_rd(&self, v: u64) {
        self.pool.store(self.rd, v);
    }

    /// Address of the `i`-th spare word of this thread's recovery line
    /// (the six words after `CP_q` and `RD_q`, otherwise padding against
    /// false sharing). Algorithms that need a small per-operation
    /// announcement to be crash-atomic *with* `RD_q` store it here: a
    /// cache line resolves all-or-nothing at a crash, so the announcement
    /// and the recovery reference can never tear apart (used by the
    /// combining variants in the `tracking` crate).
    #[inline]
    pub fn aux_addr(&self, i: usize) -> PAddr {
        assert!(i < 6, "recovery line has six spare words");
        self.cp.add(2 + i as u64)
    }

    /// Allocates `nlines` zeroed cache lines under this thread's identity,
    /// recycling retired blocks when the pool was built with
    /// [`crate::PoolCfg::reclaim`] (see [`crate::palloc`]); identical to
    /// [`PmemPool::alloc_lines`] otherwise.
    #[inline]
    pub fn palloc(&self, nlines: usize) -> PAddr {
        self.pool.palloc_lines(self.tid, nlines)
    }

    /// Retires a block this thread has durably unlinked from its structure
    /// (no-op unless the pool was built with [`crate::PoolCfg::reclaim`]).
    #[inline]
    pub fn retire(&self, addr: PAddr, nlines: usize) {
        self.pool.pretire_lines(self.tid, addr, nlines)
    }

    /// The system's pre-invocation step: resets `CP_q` to 0 and persists the
    /// reset, so a crash before the operation's first check-point is
    /// distinguishable from one after it ("the system sets CP_q to 0 just
    /// before Op's execution starts", Section 2).
    pub fn begin_op(&self, cp_site: SiteId) {
        self.set_cp(0);
        self.pool.pwb(self.cp, cp_site);
        self.pool.psync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolCfg;
    use crate::shadow::PessimistAdversary;

    fn ctx(tid: usize) -> ThreadCtx {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
        ThreadCtx::new(pool, tid)
    }

    #[test]
    fn slots_start_zeroed() {
        let c = ctx(0);
        assert_eq!(c.cp(), 0);
        assert_eq!(c.rd(), 0);
    }

    #[test]
    fn distinct_threads_distinct_lines() {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
        let a = ThreadCtx::new(pool.clone(), 0);
        let b = ThreadCtx::new(pool, 1);
        assert_ne!(a.cp_addr().line(), b.cp_addr().line());
        a.set_cp(5);
        b.set_cp(7);
        assert_eq!(a.cp(), 5);
        assert_eq!(b.cp(), 7);
    }

    #[test]
    fn cp_rd_share_the_thread_line() {
        let c = ctx(3);
        assert_eq!(c.cp_addr().line(), c.rd_addr().line());
        assert_eq!(c.rd_addr(), c.cp_addr().add(1));
    }

    #[test]
    fn begin_op_persists_the_reset() {
        let c = ctx(0);
        c.set_cp(1);
        c.pool().pwb(c.cp_addr(), SiteId(0));
        c.pool().psync();
        c.begin_op(SiteId(0));
        c.pool().crash(&mut PessimistAdversary);
        assert_eq!(c.cp(), 0, "CP reset must survive the crash");
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn tid_bounds_checked() {
        ctx(MAX_THREADS);
    }
}
