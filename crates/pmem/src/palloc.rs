//! `palloc` — a recoverable free-list allocator layered on the bump arena.
//!
//! The paper leaves recoverable memory management to future work (§7) and
//! the base pool mirrors that: [`PmemPool::alloc_lines`] is a monotone bump
//! arena that never recycles, which caps every workload at arena size and
//! keeps allocation invisible to the crash-sweep engines. This module
//! closes both gaps. A pool built with [`crate::PoolCfg::reclaim`] reserves
//! two persistent *metadata lines* per thread, and every allocator step
//! goes through the instrumented word primitives (`store`/`pwb`/`pfence`),
//! so the sweep and explore engines can place a crash inside an allocation
//! or a free exactly as they do inside a data-structure operation.
//!
//! ## Metadata layout
//!
//! Thread `q` owns one *allocation line* at `palloc_base + 8·q` and one
//! *limbo line* at `palloc_base + 8·(max_threads + q)`: the allocation
//! lines of all threads form one contiguous array and the limbo lines a
//! second one after it. Words, off each line's base:
//!
//! | line       | word | contents                                          |
//! |------------|------|---------------------------------------------------|
//! | allocation | 0..4 | free-list heads for size classes 1–4 (lines per block) |
//! | allocation | 5    | *alloc cursor*: announcement of the in-flight allocation |
//! | allocation | 6    | *free cursor*: announcement of the in-flight retire/drain |
//! | allocation | 4, 7 | spare                                             |
//! | limbo      | 0..4 | limbo-list heads for classes 1–4 (retired, awaiting quiescence) |
//! | limbo      | 4..8 | limbo-list tails for classes 1–4                  |
//!
//! A listed block links through its **last word** (`addr + 8·class − 1`),
//! deliberately leaving the rest of the block untouched: a retired block
//! can still have legitimate post-mortem readers — a crash right after an
//! operation completed recovers by re-reading the operation's (already
//! retired) descriptor's header and result words, and an idempotent help
//! replay may re-examine a removed node's info field. Only the link word
//! is sacrificed, and no recovery path reads a block's last word.
//!
//! Every list — free or limbo — holds blocks of one class, implied by the
//! list. A list *head* packs two fields into one word:
//!
//! | bits   | contents                                             |
//! |--------|------------------------------------------------------|
//! | 0..32  | the first block's line index (0 = empty list)        |
//! | 32..64 | the number of blocks on the list                     |
//!
//! so an empty list's head is the word 0. A *link* holds only the next
//! block's line index (0 = end of list). A limbo *tail* word holds the
//! address of the first block pushed onto the (then empty) list — its
//! last block — and means nothing while the list is empty. It shares the
//! limbo line with the heads, so the `pwb` that makes a push's head
//! durable covers it too. Cursor announcements pack `(addr, class, kind)`
//! into one word, so publishing one is a single atomic store. The 32-bit
//! line index caps a `reclaim` pool at [`MAX_RECLAIM_LINES`] cache lines;
//! [`PmemPool::new`] rejects a larger geometry up front.
//!
//! ## Why the protocols are crash-safe
//!
//! Every list is **single-owner**: only thread `q` (or, during quiescent
//! drains and recovery, the unique thread standing in for `q`) mutates
//! `q`'s heads. A pushed block's link word is durable before the head
//! names it, and every head update is durable (`pwb`+`pfence`) before the
//! protocol's next step, so after a crash the persisted head is either the
//! value recorded in the announcement or its successor — recovery can
//! always tell whether a step took effect by a single comparison, with no
//! ambiguity window. A head's length is written by the same store that
//! moves its first block, so every crash image pairs a head with the
//! length of the chain it names.
//!
//! The announcement discipline gives the recovery pass
//! ([`PmemPool::recover_allocator`]) exactly one in-flight operation to
//! resolve per cursor: an announcement is cleared *and `psync`ed* before
//! the operation returns, so a nonzero cursor at recovery time implies the
//! crash struck mid-operation and the block named by it is referenced
//! nowhere else (an allocating caller never saw the address; a retired
//! block was already unlinked from its structure). Resolution is therefore
//! safe to redo idempotently:
//!
//! * **alloc** (`kind = ALLOC`, announcing the pre-pop first block `a`):
//!   if the class head still names `a` the pop never persisted — nothing
//!   to do. Otherwise the pop persisted but the address never escaped:
//!   push `a` back. Either way no block is lost and no block can be handed
//!   out twice. A crash after the cursor-clearing store but before its
//!   `psync` may resolve the cursor to 0 with the block already popped —
//!   that is the one *bounded* leak the allocator admits: at most one
//!   block (≤ 4 lines) per crash, the analogue of the paper's bounded-leak
//!   argument for in-flight nodes.
//! * **retire** (`kind = RETIRE`): the block is at its class limbo head
//!   iff the push persisted; otherwise redo the push (idempotent — the
//!   link word and, on an empty list, the tail word are rewritten from
//!   scratch).
//! * **drain** (`kind = DRAIN`): see the splice below.
//!
//! ## The splice drain
//!
//! [`PmemPool::palloc_drain`] moves each non-empty class limbo list onto
//! the front of its class free list whole, at a cost independent of the
//! number of blocks moved:
//!
//! 1. announce `DRAIN` in the free cursor; fence;
//! 2. for each non-empty class, point the limbo tail's link at the free
//!    list's first block and `pwb` it; one fence;
//! 3. set each such free head to `(limbo first, nL + nF)` — the heads
//!    share the allocation line, so one `pwb`; fence;
//! 4. zero those limbo heads — one line, one `pwb`; fence;
//! 5. clear the cursor; `psync`.
//!
//! At most 8 `pwb`s and 5 fences, however many blocks move. Recovery of a
//! `DRAIN` cursor, per class with a non-empty persisted limbo head:
//!
//! * limbo first block = free first block: step 3 persisted for this
//!   class (no other state makes a limbo block head a free list), so only
//!   the limbo head is stale — clear it;
//! * otherwise step 3 did not persist: the free list is untouched and the
//!   limbo list is whole, except that step 2 may have linked its tail into
//!   the free list — reset a non-zero tail link to 0. The next drain
//!   redoes the splice.
//!
//! Both repairs are durable (`pwb` + fence) before the cursor is cleared.
//! The fence after step 4 matters for the same reason: were the cursor
//! cleared in step 4's fence epoch, a crash could persist the cleared
//! cursor next to a stale limbo head naming the new free head — a block
//! on two lists, with no announcement left to repair it.
//!
//! ## Deferred reclamation and ABA
//!
//! [`PmemPool::pretire_lines`] never makes a block allocatable directly:
//! it parks it on the owner's limbo list. Only [`PmemPool::palloc_drain`]
//! — which callers must invoke **at quiescent points only** (no
//! data-structure operation in flight on any thread) — moves limbo blocks
//! to the free lists. Because no operation or helper window spans a
//! quiescence point, no thread can hold a stale pointer to a block when it
//! becomes reallocatable: the repo-wide "addresses are never reused inside
//! an operation's window" ABA argument survives reclamation intact. The
//! same argument covers post-mortem readers: a crashed thread's recovery
//! re-reads its last descriptor only if no later operation began, so the
//! descriptor may sit on a list but cannot yet have been re-issued and
//! zeroed. A debug-build ledger asserts the re-issue invariant: the pop
//! path checks that no address still in limbo is ever handed out.
//!
//! ## Recovery cost
//!
//! [`PmemPool::recover_allocator`] reads each thread's allocation line —
//! the same `max_threads` lines, at the same addresses, as a pool with one
//! metadata line per thread — and resolves at most two cursors per thread,
//! whatever the number of free blocks. The volatile `remaining_lines`
//! accounting is rebuilt as `Σ c × len(head)` over the class free heads,
//! which carry their lengths, instead of by walking the lists; a limbo
//! line is read only for a thread that crashed mid-drain.
//! [`PmemPool::palloc_check`] verifies every head's length against its
//! chain.
//!
//! Recycled blocks are zeroed on allocation with *uninstrumented* stores
//! (fresh-zero semantics, identical to bump memory). Durability of the
//! zeros rides the caller's own pre-publication `pwb`+`pfence` of the new
//! object — a block whose zeroing was cut short by a crash is either
//! pushed back or bounded-leaked by recovery, never observed.

use std::sync::atomic::Ordering;
#[cfg(debug_assertions)]
use std::sync::PoisonError;

use crate::addr::{PAddr, WORDS_PER_LINE};
use crate::persist::SiteId;
use crate::pool::PmemPool;

/// Largest block size (in lines) served by the free lists; larger requests
/// fall through to the bump arena and are never recycled.
pub const MAX_CLASS: usize = 4;

/// Word offset of the alloc cursor (in-flight allocation announcement).
const W_ALLOC_ANN: usize = 5;
/// Word offset of the free cursor (in-flight retire/drain announcement).
const W_FREE_ANN: usize = 6;
/// Word offset, in a limbo line, of the class-1 tail (class `c` at
/// `W_TAIL + c − 1`; the class-`c` head sits at `c − 1`).
const W_TAIL: usize = MAX_CLASS;

/// `pwb` site: class free-list head updates.
pub const P_HEAD: SiteId = SiteId(56);
/// `pwb` site: limbo-list head updates.
pub const P_LIMBO: SiteId = SiteId(57);
/// `pwb` site: alloc/free cursor announcements.
pub const P_ANN: SiteId = SiteId(58);
/// `pwb` site: a listed block's link word.
pub const P_BLOCK: SiteId = SiteId(59);

/// All allocator sites with human-readable names. These occupy the high
/// end of the site space (56–59), clear of every algorithm crate's sites;
/// they must stay **enabled** whenever the pool was built with `reclaim` —
/// masking them removes the flushes the recovery argument above depends
/// on.
pub const PALLOC_SITES: [(SiteId, &str); 4] = [
    (P_HEAD, "palloc-head"),
    (P_LIMBO, "palloc-limbo"),
    (P_ANN, "palloc-cursor"),
    (P_BLOCK, "palloc-block"),
];

/// Announcement kinds (high byte of a packed cursor word).
const KIND_ALLOC: u64 = 1;
const KIND_RETIRE: u64 = 2;
const KIND_DRAIN: u64 = 3;

const ADDR_MASK: u64 = (1 << 48) - 1;
/// The line-index field of a head or link word.
const LINE_MASK: u64 = u32::MAX as u64;

/// Largest pool, in cache lines, that a `reclaim` pool may span: heads and
/// links store a block's line index in 32 bits.
pub const MAX_RECLAIM_LINES: usize = u32::MAX as usize;

fn pack_ann(addr: u64, class: usize, kind: u64) -> u64 {
    debug_assert!(kind != 0 && addr <= ADDR_MASK);
    addr | ((class as u64) << 48) | (kind << 56)
}

fn unpack_ann(w: u64) -> (u64, usize, u64) {
    (w & ADDR_MASK, ((w >> 48) & 0xff) as usize, w >> 56)
}

/// Word index of a block's link word: its last word.
fn link_word(addr: u64, class: usize) -> usize {
    addr as usize + class * WORDS_PER_LINE - 1
}

/// List head encoding: the first block's line index in the low 32 bits,
/// the list length in the high 32 (an empty list packs to 0).
fn pack_head(first: u64, len: u64) -> u64 {
    let line = first / WORDS_PER_LINE as u64;
    debug_assert!(line <= LINE_MASK && len <= LINE_MASK && (first == 0) == (len == 0));
    line | (len << 32)
}

/// The block address named by the line-index field of a head or link.
fn line_addr(w: u64) -> u64 {
    (w & LINE_MASK) * WORDS_PER_LINE as u64
}

/// The list length recorded in a head.
fn head_len(w: u64) -> u64 {
    w >> 32
}

impl PmemPool {
    /// Was this pool built with the free-list allocator
    /// ([`crate::PoolCfg::reclaim`])?
    pub fn reclaim_enabled(&self) -> bool {
        self.reclaim
    }

    /// Word `off` of thread `tid`'s allocation line.
    fn meta_word(&self, tid: usize, off: usize) -> PAddr {
        debug_assert!(self.reclaim);
        assert!(
            tid < self.max_threads(),
            "palloc tid {tid} >= max_threads {}",
            self.max_threads()
        );
        PAddr((self.palloc_base + tid * WORDS_PER_LINE + off) as u64)
    }

    /// Word `off` of thread `tid`'s limbo line.
    fn limbo_word(&self, tid: usize, off: usize) -> PAddr {
        self.meta_word(tid, off)
            .add((self.max_threads() * WORDS_PER_LINE) as u64)
    }

    /// Allocates `nlines` zeroed cache lines for thread `tid`, recycling a
    /// retired block of the same size class when one is available.
    ///
    /// On a pool built without [`crate::PoolCfg::reclaim`] (or for
    /// `nlines > `[`MAX_CLASS`]) this is *exactly* [`Self::alloc_lines`]:
    /// no metadata is touched and no instrumented event is executed, so
    /// reclaim-off event counts are bit-identical to the pure bump arena.
    ///
    /// # Panics
    /// On pool exhaustion, with the same actionable message as
    /// [`Self::alloc_lines`].
    pub fn palloc_lines(&self, tid: usize, nlines: usize) -> PAddr {
        if !self.reclaim || nlines == 0 || nlines > MAX_CLASS {
            return self.alloc_lines(nlines);
        }
        let c = nlines;
        let head_a = self.meta_word(tid, c - 1);
        let head = self.raw_load(head_a.word());
        if head == 0 {
            return self.alloc_lines(nlines);
        }
        let b = line_addr(head);
        // Stop counting the block as free *before* the pop can take effect,
        // so `remaining_lines` stays a lower bound throughout. A crash that
        // aborts the pop is repaired by the post-recovery recount.
        let _ = self
            .free_lines
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(c))
            });
        // 1. Announce the pop (alloc cursor := pre-pop first block).
        let ann_a = self.meta_word(tid, W_ALLOC_ANN);
        self.store_at(ann_a, pack_ann(b, c, KIND_ALLOC), P_ANN);
        self.pwb(ann_a, P_ANN);
        self.pfence();
        // 2. Pop: head := (b.link, len − 1), durable before the address
        //    escapes.
        let next = line_addr(self.raw_load(link_word(b, c)));
        self.store_at(head_a, pack_head(next, head_len(head) - 1), P_HEAD);
        self.pwb(head_a, P_HEAD);
        self.pfence();
        #[cfg(debug_assertions)]
        {
            let retired = self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                !retired.contains(&b),
                "retired address {b:#x} re-issued before a full epoch quiescence"
            );
        }
        // 3. Fresh-zero semantics (uninstrumented; see module docs).
        self.raw_zero_words(b as usize, c * WORDS_PER_LINE);
        // 4. Clear the cursor and sync before returning the address.
        self.store_at(ann_a, 0, P_ANN);
        self.pwb(ann_a, P_ANN);
        self.psync();
        PAddr(b)
    }

    /// Retires a `nlines`-line block that thread `tid` has just unlinked
    /// from its structure: parks it on `tid`'s class limbo list, to become
    /// allocatable only after the next quiescent [`Self::palloc_drain`].
    ///
    /// The caller must guarantee the block's removal from the structure is
    /// durable *before* retiring it (otherwise a crash could leave it
    /// reachable from both the structure and a list), and that no recovery
    /// path reads the block's last word — the list link overwrites it
    /// immediately. No-op without [`crate::PoolCfg::reclaim`] or for
    /// blocks above [`MAX_CLASS`] — those keep the bump arena's
    /// leak-forever semantics.
    pub fn pretire_lines(&self, tid: usize, addr: PAddr, nlines: usize) {
        if !self.reclaim || nlines == 0 || nlines > MAX_CLASS {
            return;
        }
        let c = nlines;
        let a = addr.raw();
        debug_assert!(
            addr.word() >= self.heap_base && addr.word().is_multiple_of(WORDS_PER_LINE),
            "pretire_lines: {a:#x} is not a heap block"
        );
        // 1. Announce the retire (free cursor := block).
        let ann_a = self.meta_word(tid, W_FREE_ANN);
        self.store_at(ann_a, pack_ann(a, c, KIND_RETIRE), P_ANN);
        self.pwb(ann_a, P_ANN);
        self.pfence();
        // 2–3. Push onto the class limbo list, durably.
        self.push_limbo(tid, a, c);
        // 4. Clear the cursor and sync before returning.
        self.store_at(ann_a, 0, P_ANN);
        self.pwb(ann_a, P_ANN);
        self.psync();
        #[cfg(debug_assertions)]
        self.retired_debug
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(a);
    }

    /// Splices each of thread `tid`'s non-empty class limbo lists onto the
    /// front of its class free list, in at most 8 `pwb`s and 5 fences
    /// whatever the number of blocks (protocol and crash cases in the
    /// module docs). Executes no instrumented event when every limbo list
    /// is empty.
    ///
    /// **Quiescence contract:** callers may invoke this only when no
    /// data-structure operation is in flight on any thread — the drain is
    /// the epoch boundary after which retired addresses may be re-issued,
    /// and the ABA argument (module docs) rests on no operation window
    /// spanning it.
    pub fn palloc_drain(&self, tid: usize) {
        if !self.reclaim {
            return;
        }
        let limbo: [u64; MAX_CLASS] =
            std::array::from_fn(|i| self.raw_load(self.limbo_word(tid, i).word()));
        if limbo == [0; MAX_CLASS] {
            return;
        }
        #[cfg(debug_assertions)]
        let drained = self.thread_limbo_blocks(tid);
        let classes = (1..=MAX_CLASS).filter(|&c| limbo[c - 1] != 0);
        // 1. Announce the drain.
        let ann_a = self.meta_word(tid, W_FREE_ANN);
        self.store_at(ann_a, pack_ann(0, 0, KIND_DRAIN), P_ANN);
        self.pwb(ann_a, P_ANN);
        self.pfence();
        // 2. Link each limbo tail to its class free list.
        for c in classes.clone() {
            let tail = self.raw_load(self.limbo_word(tid, W_TAIL + c - 1).word());
            let free = self.raw_load(self.meta_word(tid, c - 1).word());
            let link = PAddr(link_word(tail, c) as u64);
            self.store_at(link, free & LINE_MASK, P_BLOCK);
            self.pwb(link, P_BLOCK);
        }
        self.pfence();
        // 3. Move each free head to the limbo list's first block.
        let mut lines = 0;
        for c in classes.clone() {
            let (l, head_a) = (limbo[c - 1], self.meta_word(tid, c - 1));
            let free = self.raw_load(head_a.word());
            self.store_at(
                head_a,
                pack_head(line_addr(l), head_len(l) + head_len(free)),
                P_HEAD,
            );
            lines += c * head_len(l) as usize;
        }
        self.pwb(self.meta_word(tid, 0), P_HEAD);
        self.pfence();
        // 4. Empty the limbo lists — durably, in an epoch of its own: the
        //    cursor must not clear before the stale limbo heads do.
        for c in classes {
            self.store_at(self.limbo_word(tid, c - 1), 0, P_LIMBO);
        }
        self.pwb(self.limbo_word(tid, 0), P_LIMBO);
        self.pfence();
        // 5. Clear the cursor.
        self.store_at(ann_a, 0, P_ANN);
        self.pwb(ann_a, P_ANN);
        self.psync();
        // Only now are the blocks genuinely allocatable.
        self.free_lines.fetch_add(lines, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        {
            let mut retired = self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (b, _) in drained {
                retired.remove(&b);
            }
        }
    }

    /// [`Self::palloc_drain`] for every thread. Idle threads cost an
    /// uninstrumented peek, so quiescent boundaries in sweeps execute zero
    /// events for threads that freed nothing. Same quiescence contract as
    /// `palloc_drain`.
    pub fn palloc_drain_all(&self) {
        if !self.reclaim {
            return;
        }
        for tid in 0..self.max_threads() {
            self.palloc_drain(tid);
        }
    }

    /// Post-crash allocator recovery: resolves every thread's in-flight
    /// alloc/free announcement (see module docs for the case analysis),
    /// then rebuilds the volatile accounting. Must run after
    /// [`Self::crash`] and before any structure recovery allocates.
    /// Idempotent; a no-op without [`crate::PoolCfg::reclaim`].
    pub fn recover_allocator(&self) {
        if !self.reclaim {
            return;
        }
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            // Idle threads (no cursor set): zero instrumented events.
            let alloc_ann = self.raw_load(meta + W_ALLOC_ANN);
            let free_ann = self.raw_load(meta + W_FREE_ANN);
            debug_assert!(
                alloc_ann == 0 || free_ann == 0,
                "both cursors in flight for tid {tid}"
            );
            if alloc_ann != 0 {
                let (a, c, kind) = unpack_ann(alloc_ann);
                debug_assert_eq!(kind, KIND_ALLOC);
                let head_a = self.meta_word(tid, c - 1);
                if line_addr(self.raw_load(head_a.word())) != a {
                    // The pop persisted but the address never escaped the
                    // allocator: push the block back.
                    self.push(head_a, None, a, c);
                }
                self.clear_cursor(tid, W_ALLOC_ANN);
            }
            if free_ann != 0 {
                let (b, c, kind) = unpack_ann(free_ann);
                match kind {
                    KIND_RETIRE => {
                        let limbo_a = self.limbo_word(tid, c - 1);
                        if line_addr(self.raw_load(limbo_a.word())) != b {
                            // Push never persisted: redo it from scratch.
                            self.push_limbo(tid, b, c);
                        }
                    }
                    KIND_DRAIN => self.resolve_drain(tid),
                    k => debug_assert!(false, "corrupt free cursor kind {k}"),
                }
                self.clear_cursor(tid, W_FREE_ANN);
            }
        }
        self.refresh_palloc_accounting();
    }

    /// Recovery of a drain cut short on thread `tid`, class by class (see
    /// the module docs): a limbo list whose first block heads the free
    /// list was spliced, so its stale head is cleared; any other limbo
    /// list was not, so its tail is unlinked from the free list again.
    /// Both repairs are durable before returning.
    fn resolve_drain(&self, tid: usize) {
        let mut cleared = false;
        for c in 1..=MAX_CLASS {
            let limbo_a = self.limbo_word(tid, c - 1);
            let l = self.raw_load(limbo_a.word());
            if l == 0 {
                continue;
            }
            if line_addr(l) == line_addr(self.raw_load(self.meta_word(tid, c - 1).word())) {
                self.store_at(limbo_a, 0, P_LIMBO);
                cleared = true;
            } else {
                let tail = self.raw_load(self.limbo_word(tid, W_TAIL + c - 1).word());
                let link = PAddr(link_word(tail, c) as u64);
                if self.raw_load(link.word()) != 0 {
                    self.store_at(link, 0, P_BLOCK);
                    self.pwb(link, P_BLOCK);
                }
            }
        }
        if cleared {
            self.pwb(self.limbo_word(tid, 0), P_LIMBO);
        }
        self.pfence();
    }

    /// Clears cursor word `off` of thread `tid`'s allocation line, synced.
    fn clear_cursor(&self, tid: usize, off: usize) {
        let ann_a = self.meta_word(tid, off);
        self.store_at(ann_a, 0, P_ANN);
        self.pwb(ann_a, P_ANN);
        self.psync();
    }

    /// Pushes block `b` of class `c` onto thread `tid`'s class limbo list,
    /// recording it as the list's tail when the list was empty.
    fn push_limbo(&self, tid: usize, b: u64, c: usize) {
        let tail_a = self.limbo_word(tid, W_TAIL + c - 1);
        self.push(self.limbo_word(tid, c - 1), Some(tail_a), b, c);
    }

    /// Pushes block `b` of class `c` onto the list headed at `head_a`,
    /// durably: the link word persists before the head names `b`. An
    /// empty list's `tail_a` (limbo lists only; on the head's line) is set
    /// to `b` before the head store, so the head's `pwb` covers it.
    fn push(&self, head_a: PAddr, tail_a: Option<PAddr>, b: u64, c: usize) {
        let h = self.raw_load(head_a.word());
        let link = PAddr(link_word(b, c) as u64);
        self.store_at(link, h & LINE_MASK, P_BLOCK);
        self.pwb(link, P_BLOCK);
        self.pfence();
        let site = if tail_a.is_some() { P_LIMBO } else { P_HEAD };
        if let (0, Some(t)) = (h, tail_a) {
            self.store_at(t, b, site);
        }
        self.store_at(head_a, pack_head(b, head_len(h) + 1), site);
        self.pwb(head_a, site);
        self.pfence();
    }

    /// The blocks of the class-`c` list whose head word is at `head_a`,
    /// appended to `out` in list order by following the links to the end
    /// (not by the head's recorded length), gathered with uninstrumented
    /// reads. Stops at a link leaving the pool or after more blocks than
    /// the pool holds.
    fn walk_list(&self, head_a: PAddr, c: usize, out: &mut Vec<(u64, usize)>) {
        let mut b = line_addr(self.raw_load(head_a.word()));
        for _ in 0..=self.nwords() / WORDS_PER_LINE {
            if b == 0 || link_word(b, c) >= self.nwords() {
                return;
            }
            out.push((b, c));
            b = line_addr(self.raw_load(link_word(b, c)));
        }
    }

    /// Every block on thread `tid`'s class limbo lists.
    fn thread_limbo_blocks(&self, tid: usize) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        for c in 1..=MAX_CLASS {
            self.walk_list(self.limbo_word(tid, c - 1), c, &mut out);
        }
        out
    }

    /// Every block currently on a class free list, as `(addr, class)`
    /// pairs, gathered with uninstrumented reads (audit/test use).
    pub fn palloc_free_blocks(&self) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        if !self.reclaim {
            return out;
        }
        for tid in 0..self.max_threads() {
            for c in 1..=MAX_CLASS {
                self.walk_list(self.meta_word(tid, c - 1), c, &mut out);
            }
        }
        out
    }

    /// Every block currently on a limbo list, as `(addr, class)` pairs,
    /// gathered with uninstrumented reads (audit/test use).
    pub fn palloc_limbo_blocks(&self) -> Vec<(u64, usize)> {
        if !self.reclaim {
            return Vec::new();
        }
        (0..self.max_threads())
            .flat_map(|tid| self.thread_limbo_blocks(tid))
            .collect()
    }

    /// Structural audit of the allocator's persistent state, for verdict
    /// phases: every free/limbo block is line-aligned, inside the allocated
    /// heap, appears on exactly one list, and no two blocks overlap; every
    /// list head records the length of its chain, and the chain ends
    /// exactly there; a non-empty limbo list's tail word names its last
    /// block; all cursors are resolved. Uninstrumented — safe to call from
    /// traced verdict phases.
    ///
    /// Returns `Err` with a description of the first violation found.
    pub fn palloc_check(&self) -> Result<(), String> {
        if !self.reclaim {
            return Ok(());
        }
        let mut blocks: Vec<(u64, usize, String)> = Vec::new();
        for tid in 0..self.max_threads() {
            for c in 1..=MAX_CLASS {
                let free = self.raw_load(self.meta_word(tid, c - 1).word());
                let list = format!("tid {tid} class-{c} free list");
                self.check_list(list, free, c, &mut blocks)?;
                let limbo = self.raw_load(self.limbo_word(tid, c - 1).word());
                let list = format!("tid {tid} class-{c} limbo list");
                let last = self.check_list(list.clone(), limbo, c, &mut blocks)?;
                let tail = self.raw_load(self.limbo_word(tid, W_TAIL + c - 1).word());
                if let Some(last) = last.filter(|&b| b != tail) {
                    return Err(format!(
                        "{list}: tail word {tail:#x} does not name the last block {last:#x}"
                    ));
                }
            }
            for (off, name) in [(W_ALLOC_ANN, "alloc"), (W_FREE_ANN, "free")] {
                let ann = self.raw_load(self.meta_word(tid, off).word());
                if ann != 0 {
                    return Err(format!(
                        "tid {tid}: unresolved {name} cursor {ann:#x} (recover_allocator not run?)"
                    ));
                }
            }
        }
        blocks.sort_unstable_by_key(|&(b, _, _)| b);
        for pair in blocks.windows(2) {
            let (a, ca, ref la) = pair[0];
            let (b, _, ref lb) = pair[1];
            if a == b {
                return Err(format!("block {a:#x} on two lists: {la} and {lb}"));
            }
            if a + (ca * WORDS_PER_LINE) as u64 > b {
                return Err(format!(
                    "block {a:#x} (class {ca}, {la}) overlaps block {b:#x} ({lb})"
                ));
            }
        }
        Ok(())
    }

    /// Audits one class-`c` list headed by `head` for
    /// [`Self::palloc_check`]: each block is a heap block, and the chain
    /// holds exactly the head's recorded length. Appends the blocks to
    /// `blocks` and returns the last one (`None` for an empty list).
    fn check_list(
        &self,
        list: String,
        head: u64,
        c: usize,
        blocks: &mut Vec<(u64, usize, String)>,
    ) -> Result<Option<u64>, String> {
        let wm = self.alloc_watermark() as u64;
        let len = head_len(head);
        let mut b = line_addr(head);
        if (b == 0) != (len == 0) || len as usize > self.nwords() / WORDS_PER_LINE {
            return Err(format!(
                "{list}: head {head:#x} records length {len} for first block {b:#x}"
            ));
        }
        let mut last = None;
        let mut n = 0;
        while b != 0 {
            if n == len {
                return Err(format!(
                    "{list}: chain runs past the head's recorded length {len} to block {b:#x}"
                ));
            }
            if (b as usize) < self.heap_base || b + (c * WORDS_PER_LINE) as u64 > wm {
                return Err(format!("{list}: block {b:#x} (class {c}) outside the heap"));
            }
            blocks.push((b, c, list.clone()));
            last = Some(b);
            b = line_addr(self.raw_load(link_word(b, c)));
            n += 1;
        }
        if n != len {
            return Err(format!(
                "{list}: chain ends after {n} blocks, but the head records length {len}"
            ));
        }
        Ok(last)
    }

    /// Rebuilds the volatile allocator accounting (the `remaining_lines`
    /// free counter and, in debug builds, the retired-address ledger) from
    /// the persistent lists. Called at the quiescent points — `restore`,
    /// `crash` resolution, and the end of recovery — where the lists are
    /// the only source of truth. The free count reads each class free
    /// head's recorded length, so it costs O(`max_threads` × [`MAX_CLASS`])
    /// however many blocks are free.
    pub(crate) fn refresh_palloc_accounting(&self) {
        let mut free = 0usize;
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            for c in 1..=MAX_CLASS {
                free += c * head_len(self.raw_load(meta + c - 1)) as usize;
            }
        }
        self.free_lines.store(free, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        {
            let retired = self.palloc_limbo_blocks().into_iter().map(|(b, _)| b);
            *self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = retired.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::run_crashable;
    use crate::pool::{PmemPool, PoolCfg};
    use crate::shadow::{PessimistAdversary, SeededAdversary};

    fn reclaim_pool(capacity: usize) -> PmemPool {
        PmemPool::new(PoolCfg {
            reclaim: true,
            ..PoolCfg::model(capacity)
        })
    }

    /// The constant-time accounting `recover_allocator` rebuilds must equal
    /// what the old full walk counted: the bump remainder plus every line
    /// on a class free list.
    fn assert_accounting_exact(p: &PmemPool, ctx: &str) {
        let bump = (p.nwords() - p.alloc_watermark().min(p.nwords())) / WORDS_PER_LINE;
        let walked: usize = p.palloc_free_blocks().iter().map(|&(_, c)| c).sum();
        assert_eq!(
            p.remaining_lines(),
            bump + walked,
            "{ctx}: recorded free-list lengths disagree with the lists"
        );
    }

    #[test]
    fn recycles_after_retire_and_drain() {
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, 1);
        p.store(a, 77);
        p.pretire_lines(0, a, 1);
        // Still in limbo: not allocatable yet.
        let b = p.palloc_lines(0, 1);
        assert_ne!(a, b, "limbo block re-issued before quiescence");
        p.palloc_drain(0);
        let c = p.palloc_lines(0, 1);
        assert_eq!(a, c, "drained block was not recycled");
        assert_eq!(p.load(c), 0, "recycled block must be zeroed");
    }

    #[test]
    fn retire_preserves_block_payload_words() {
        // Post-mortem readers (a completed op's recovery) may re-read a
        // retired descriptor's header/result; only the last word may go.
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, 3);
        for i in 0..23 {
            p.store(a.add(i), 1000 + i);
        }
        p.pretire_lines(0, a, 3);
        for i in 0..23 {
            assert_eq!(p.load(a.add(i)), 1000 + i, "word {i} clobbered by retire");
        }
    }

    #[test]
    fn classes_are_segregated() {
        let p = reclaim_pool(1 << 20);
        let a1 = p.palloc_lines(0, 1);
        let a3 = p.palloc_lines(0, 3);
        p.pretire_lines(0, a1, 1);
        p.pretire_lines(0, a3, 3);
        p.palloc_drain(0);
        assert_eq!(p.palloc_lines(0, 3), a3);
        assert_eq!(p.palloc_lines(0, 1), a1);
    }

    #[test]
    fn oversize_blocks_fall_back_to_bump() {
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, MAX_CLASS + 1);
        p.pretire_lines(0, a, MAX_CLASS + 1); // no-op: leaks, arena-style
        p.palloc_drain(0);
        assert!(p.palloc_limbo_blocks().is_empty());
        assert_ne!(p.palloc_lines(0, MAX_CLASS + 1), a);
    }

    #[test]
    fn reclaim_off_pool_is_pure_bump() {
        let p = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.palloc_lines(0, 1);
        p.pretire_lines(0, a, 1);
        p.palloc_drain(0);
        p.recover_allocator();
        assert_eq!(
            p.trace_snapshot().total(),
            0,
            "reclaim-off allocator paths must execute zero instrumented events"
        );
        assert_ne!(p.palloc_lines(0, 1), a, "bump arena never recycles");
        assert!(p.palloc_check().is_ok());
    }

    #[test]
    fn remaining_lines_is_a_lower_bound_through_the_lifecycle() {
        let p = reclaim_pool(1 << 20);
        let before = p.remaining_lines();
        let a = p.palloc_lines(0, 2);
        assert_eq!(p.remaining_lines(), before - 2);
        p.pretire_lines(0, a, 2);
        // Limbo blocks are not allocatable: still excluded.
        assert_eq!(p.remaining_lines(), before - 2);
        p.palloc_drain(0);
        assert_eq!(p.remaining_lines(), before, "drained block counts again");
        let b = p.palloc_lines(0, 2);
        assert_eq!(b, a);
        assert_eq!(p.remaining_lines(), before - 2);
    }

    /// The tentpole's longevity criterion: with reclamation on, a churn
    /// loop runs ≥10× more allocations than the arena capacity allows at
    /// the same pool size.
    #[test]
    fn churn_runs_10x_past_arena_capacity() {
        let p = reclaim_pool(1 << 20);
        let arena_cap = p.remaining_lines();
        for _ in 0..10 * arena_cap {
            // Panics with the pool's exhaustion message if reclamation
            // ever fails to keep up.
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
        }
        assert!(
            p.remaining_lines() > 0,
            "churn loop exhausted the pool despite reclamation"
        );
        assert!(p.palloc_check().is_ok());
    }

    /// Satellite: crash at every instrumented event of one recycled
    /// allocation; after `recover_allocator` the heap-walk audit must show
    /// no double-allocate and at most a one-block bounded leak.
    #[test]
    fn alloc_crash_swept_at_every_event() {
        // Count the events of a recycled alloc once.
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_lines(0, 1);
            p.trace_event_total() - before
        };
        assert!(count > 0, "recycled alloc must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.pretire_lines(0, a, 1);
                p.palloc_drain(0);
                let free_before = p.palloc_free_blocks();
                assert_eq!(free_before, vec![(a.raw(), 1)]);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_lines(0, 1)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0x5EED));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                assert_accounting_exact(&p, &format!("alloc crash at {k} (seeded={seeded})"));
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after alloc crash at {k} (seeded={seeded}): {e}")
                });
                let free = p.palloc_free_blocks();
                assert!(p.palloc_limbo_blocks().is_empty());
                // Either the block is back on the free list (pop undone or
                // pushed back) or it leaked — bounded to this one block.
                assert!(
                    free == vec![(a.raw(), 1)] || free.is_empty(),
                    "alloc crash at {k}: unexpected free set {free:?}"
                );
                // No double-allocate: two fresh allocations are disjoint
                // and at most one of them recycles the block.
                let x = p.palloc_lines(0, 1);
                let y = p.palloc_lines(0, 1);
                assert_ne!(x, y, "alloc crash at {k} double-allocated");
            }
        }
    }

    /// Satellite: crash at every instrumented event of one retire; the
    /// block must end up in limbo exactly once or leak (bounded), never
    /// reach a free list, and never be double-linked.
    #[test]
    fn retire_crash_swept_at_every_event() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.pretire_lines(0, a, 1);
            p.trace_event_total() - before
        };
        assert!(count > 0, "retire must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.pretire_lines(0, a, 1)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0xF00D));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                assert_accounting_exact(&p, &format!("retire crash at {k} (seeded={seeded})"));
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after retire crash at {k} (seeded={seeded}): {e}")
                });
                assert!(p.palloc_free_blocks().is_empty());
                let limbo = p.palloc_limbo_blocks();
                assert!(
                    limbo == vec![(a.raw(), 1)] || limbo.is_empty(),
                    "retire crash at {k}: unexpected limbo set {limbo:?}"
                );
            }
        }
    }

    /// Crash at every instrumented event of a one-block drain onto an empty
    /// free list: the block must land on exactly one list — never both
    /// (the double-allocate hazard the splice ordering exists to prevent).
    #[test]
    fn drain_crash_swept_at_every_event() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_drain(0);
            p.trace_event_total() - before
        };
        assert!(count > 0, "drain must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.pretire_lines(0, a, 1);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_drain(0)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0xD8A1));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                assert_accounting_exact(&p, &format!("drain crash at {k} (seeded={seeded})"));
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after drain crash at {k} (seeded={seeded}): {e}")
                });
                let free = p.palloc_free_blocks();
                let limbo = p.palloc_limbo_blocks();
                assert!(
                    free.len() + limbo.len() <= 1,
                    "drain crash at {k}: block on multiple lists (free={free:?}, limbo={limbo:?})"
                );
                // Wherever it landed, a follow-up drain + alloc must
                // re-issue it exactly once.
                p.palloc_drain(0);
                if free.len() + limbo.len() == 1 {
                    assert_eq!(p.palloc_lines(0, 1), a);
                    assert_ne!(p.palloc_lines(0, 1), a, "double-allocate after drain crash");
                }
            }
        }
    }

    /// `recover_allocator` is idempotent: running it twice (a crash during
    /// recovery re-runs it from the top) leaves the same state.
    #[test]
    fn recover_allocator_is_idempotent() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_lines(0, 1);
            p.trace_event_total() - before
        };
        for k in 0..count {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.crash_ctl().arm_after(k);
            assert!(run_crashable(|| p.palloc_lines(0, 1)).is_none());
            p.crash(&mut PessimistAdversary);
            p.recover_allocator();
            assert_accounting_exact(&p, &format!("first recovery after crash at {k}"));
            let free_once = p.palloc_free_blocks();
            p.recover_allocator();
            assert_accounting_exact(&p, &format!("second recovery after crash at {k}"));
            assert_eq!(free_once, p.palloc_free_blocks());
            assert!(p.palloc_check().is_ok());
        }
    }

    /// Randomized mixed churn on two threads over all four classes, with
    /// crashes at sampled events resolved by a seeded adversary: after
    /// every recovery the recorded lengths must account for exactly the
    /// lines on the lists, and the audit (which checks each length against
    /// its successor's) must pass.
    #[test]
    fn randomized_crashes_keep_recorded_lengths_exact() {
        let mut crashes = 0;
        for seed in 1..=24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut roll = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let p = reclaim_pool(1 << 20);
            // Blocks handed out and not yet retired, per tid.
            let mut live: [Vec<(PAddr, usize)>; 2] = [Vec::new(), Vec::new()];
            for step in 0..160 {
                let tid = roll(2) as usize;
                let op = roll(8);
                // A quarter of the ops run with a crash armed at a sampled
                // event (one past their last event merely never fires).
                if roll(4) == 0 {
                    p.crash_ctl().arm_after(roll(14));
                }
                let done = match op {
                    // Alloc (half the ops): the address escapes only if the
                    // call returned.
                    0..=3 => {
                        let c = 1 + roll(MAX_CLASS as u64) as usize;
                        run_crashable(|| p.palloc_lines(tid, c))
                            .map(|a| live[tid].push((a, c)))
                            .is_some()
                    }
                    // Retire a live block: in limbo or bounded-leaked
                    // either way, so it leaves `live` even on a crash.
                    4..=6 if !live[tid].is_empty() => {
                        let i = roll(live[tid].len() as u64) as usize;
                        let (a, c) = live[tid].swap_remove(i);
                        run_crashable(|| p.pretire_lines(tid, a, c)).is_some()
                    }
                    _ => run_crashable(|| p.palloc_drain(tid)).is_some(),
                };
                if done {
                    p.crash_ctl().disarm();
                    continue;
                }
                crashes += 1;
                p.crash(&mut SeededAdversary::new(seed << 16 | step));
                p.recover_allocator();
                let ctx = format!("seed {seed} step {step}");
                assert_accounting_exact(&p, &ctx);
                p.palloc_check()
                    .unwrap_or_else(|e| panic!("{ctx}: audit failed after recovery: {e}"));
            }
            p.palloc_drain_all();
            p.recover_allocator();
            assert_accounting_exact(&p, &format!("seed {seed} end"));
            p.palloc_check().unwrap();
        }
        assert!(crashes > 50, "only {crashes} sampled crashes fired");
    }

    /// Thread 0 with non-empty free lists in classes 1 and 3 and limbo
    /// lists in classes 1, 2 and 4, several blocks each; returns the pool
    /// and every listed block, sorted.
    fn splice_state() -> (PmemPool, Vec<(u64, usize)>) {
        let p = reclaim_pool(1 << 20);
        let blocks = |spec: &[(usize, usize)]| -> Vec<(PAddr, usize)> {
            spec.iter()
                .flat_map(|&(c, n)| (0..n).map(move |_| c))
                .map(|c| (p.palloc_lines(0, c), c))
                .collect()
        };
        let free = blocks(&[(1, 3), (3, 2)]);
        let limbo = blocks(&[(1, 4), (2, 3), (4, 2)]);
        for (a, c) in free {
            p.pretire_lines(0, a, c);
        }
        p.palloc_drain(0);
        for (a, c) in limbo {
            p.pretire_lines(0, a, c);
        }
        let mut all = p.palloc_free_blocks();
        all.extend(p.palloc_limbo_blocks());
        all.sort_unstable();
        assert_eq!(all.len(), 14);
        (p, all)
    }

    /// Satellite: crash at every instrumented event of one multi-class
    /// splice drain, under the pessimist and 16 seeded adversaries. After
    /// recovery the accounting is exact, the audit passes, every block
    /// sits on exactly one list (a drain leaks nothing), and a drain plus
    /// allocating everything issues each block exactly once.
    #[test]
    fn splice_drain_crash_swept_at_every_event() {
        let count = {
            let (p, _) = splice_state();
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_drain(0);
            p.trace_event_total() - before
        };
        assert!(count > 0, "drain must be instrumented");
        for adversary in 0..=16u64 {
            for k in 0..count {
                let ctx = format!("splice crash at {k} (adversary {adversary})");
                let (p, all) = splice_state();
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_drain(0)).is_none(),
                    "{ctx} did not fire"
                );
                if adversary == 0 {
                    p.crash(&mut PessimistAdversary);
                } else {
                    p.crash(&mut SeededAdversary::new(adversary << 16 | k));
                }
                p.recover_allocator();
                assert_accounting_exact(&p, &ctx);
                p.palloc_check()
                    .unwrap_or_else(|e| panic!("{ctx}: audit failed after recovery: {e}"));
                let mut listed = p.palloc_free_blocks();
                listed.extend(p.palloc_limbo_blocks());
                listed.sort_unstable();
                assert_eq!(
                    listed, all,
                    "{ctx}: every block must sit on exactly one list"
                );
                p.palloc_drain(0);
                let mut issued: Vec<(u64, usize)> = all
                    .iter()
                    .map(|&(_, c)| (p.palloc_lines(0, c).raw(), c))
                    .collect();
                issued.sort_unstable();
                assert_eq!(
                    issued, all,
                    "{ctx}: drain + alloc must issue each block once"
                );
            }
        }
    }

    /// Satellite (hard gate): a drain's instrumented-event, `pwb` and fence
    /// counts do not depend on how many blocks it moves, and a drain over
    /// all four classes costs exactly 8 `pwb`s (the cursor twice, four
    /// tail links, the free-head line, the limbo-head line) and 5 fences.
    #[test]
    fn drain_cost_is_independent_of_limbo_length() {
        fn drain_cost(classes: &[usize], n: usize) -> (u64, u64, u64) {
            let p = reclaim_pool(8 << 20);
            for &c in classes {
                for _ in 0..n {
                    let a = p.palloc_lines(0, c);
                    p.pretire_lines(0, a, c);
                }
            }
            p.set_trace_enabled(true);
            p.stats_reset();
            let before = p.trace_event_total();
            p.palloc_drain(0);
            let s = p.stats();
            assert_eq!(p.palloc_free_blocks().len(), classes.len() * n);
            (
                p.trace_event_total() - before,
                s.pwb_total(),
                s.pfence + s.psync,
            )
        }
        for classes in [&[1][..], &[2, 4], &[1, 2, 3, 4]] {
            assert_eq!(
                drain_cost(classes, 1),
                drain_cost(classes, 4096),
                "drain cost over classes {classes:?} grows with the limbo length"
            );
        }
        let (_, pwb, fences) = drain_cost(&[1, 2, 3, 4], 4096);
        assert_eq!((pwb, fences), (8, 5));
    }

    /// Three class-2 free blocks and two class-2 limbo blocks on thread 0.
    fn audit_state() -> PmemPool {
        let p = reclaim_pool(1 << 20);
        let blocks: Vec<PAddr> = (0..5).map(|_| p.palloc_lines(0, 2)).collect();
        for &b in &blocks[..3] {
            p.pretire_lines(0, b, 2);
        }
        p.palloc_drain(0);
        for &b in &blocks[3..] {
            p.pretire_lines(0, b, 2);
        }
        p.palloc_check().unwrap();
        assert_eq!(p.palloc_free_blocks().len(), 3);
        assert_eq!(p.palloc_limbo_blocks().len(), 2);
        p
    }

    #[test]
    fn audit_rejects_a_corrupted_head_length() {
        // Lengths one short of and one past the chains, on the class-2
        // free head (3 blocks) and limbo head (2 blocks).
        for (limbo, len) in [(false, 2), (false, 4), (true, 1), (true, 3)] {
            let p = audit_state();
            let head = if limbo {
                p.limbo_word(0, 1)
            } else {
                p.meta_word(0, 1)
            };
            let w = p.raw_load(head.word());
            p.store(head, pack_head(line_addr(w), len));
            let err = p.palloc_check().unwrap_err();
            assert!(
                err.contains("recorded length") || err.contains("records length"),
                "{err}"
            );
        }
    }

    #[test]
    fn audit_rejects_a_corrupted_tail_word() {
        let p = audit_state();
        let tail = p.limbo_word(0, W_TAIL + 1);
        let first = line_addr(p.raw_load(p.limbo_word(0, 1).word()));
        p.store(tail, first);
        let err = p.palloc_check().unwrap_err();
        assert!(err.contains("tail word"), "{err}");
    }

    #[test]
    fn audit_rejects_a_corrupted_tail_link() {
        // A limbo tail still linked into the free list: the splice's step 2
        // without its recovery repair.
        let p = audit_state();
        let tail = p.raw_load(p.limbo_word(0, W_TAIL + 1).word());
        let free = p.raw_load(p.meta_word(0, 1).word());
        p.store(PAddr(link_word(tail, 2) as u64), free & LINE_MASK);
        let err = p.palloc_check().unwrap_err();
        assert!(err.contains("chain runs past"), "{err}");
    }

    /// A 1 TiB `reclaim` pool is refused before any memory is allocated
    /// (the test would otherwise abort on allocation, not panic).
    #[test]
    #[should_panic(expected = "PoolCfg::reclaim supports pools of at most")]
    fn oversized_reclaim_pool_is_rejected_up_front() {
        reclaim_pool(1 << 40);
    }
}
