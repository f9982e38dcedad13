//! `palloc` — a recoverable free-list allocator layered on the bump arena.
//!
//! The paper leaves recoverable memory management to future work (§7) and
//! the base pool mirrors that: [`PmemPool::alloc_lines`] is a monotone bump
//! arena that never recycles, which caps every workload at arena size and
//! keeps allocation invisible to the crash-sweep engines. This module
//! closes both gaps. A pool built with [`crate::PoolCfg::reclaim`] reserves
//! one persistent *metadata line* per thread, and every allocator step goes
//! through the instrumented word primitives (`store`/`pwb`/`pfence`), so
//! the sweep and explore engines can place a crash inside an allocation or
//! a free exactly as they do inside a data-structure operation.
//!
//! ## Metadata layout
//!
//! Thread `q`'s metadata line (words, off the line base):
//!
//! | word | contents |
//! |------|----------|
//! | 0..4 | free-list heads for size classes 1–4 (lines per block)       |
//! | 4    | limbo-list head (retired, awaiting quiescence)               |
//! | 5    | *alloc cursor*: announcement of the in-flight allocation     |
//! | 6    | *free cursor*: announcement of the in-flight retire/move     |
//! | 7    | spare                                                        |
//!
//! A listed block links through its **last word** (`addr + 8·class − 1`),
//! deliberately leaving the rest of the block untouched: a retired block
//! can still have legitimate post-mortem readers — a crash right after an
//! operation completed recovers by re-reading the operation's (already
//! retired) descriptor's header and result words, and an idempotent help
//! replay may re-examine a removed node's info field. Only the link word
//! is sacrificed, and no recovery path reads a block's last word.
//!
//! Class free-list heads are plain addresses (the class is implied by the
//! list). A class free-list *link* packs two fields into the one word:
//!
//! | bits   | contents                                                  |
//! |--------|-----------------------------------------------------------|
//! | 0..32  | the next block's line index (0 = end of list)             |
//! | 32..64 | the length of the list from this block on (this block = 1) |
//!
//! so a list's length is one read of its head's link word. The limbo list
//! mixes classes, so its head and links pack `addr | class << 48` into one
//! word instead (limbo lists are short-lived and carry no length). Cursor
//! announcements pack `(addr, class, kind)` the same way, so publishing
//! one is a single atomic store. The 32-bit line index caps a `reclaim`
//! pool at [`MAX_RECLAIM_LINES`] cache lines; [`PmemPool::new`] rejects a
//! larger geometry up front.
//!
//! ## Why the protocols are crash-safe
//!
//! Every list is **single-owner**: only thread `q` (or, during quiescent
//! drains and recovery, the unique thread standing in for `q`) mutates
//! `q`'s heads. Every head update is made durable (`pwb`+`pfence`) before
//! the protocol's next step, so after a crash the persisted head is either
//! the value recorded in the announcement or its successor — recovery can
//! always tell whether a pop/push took effect by a single comparison, with
//! no ambiguity window.
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
//! * **alloc** (`kind = ALLOC`, announcing the pre-pop head `a`): if the
//!   class head still equals `a` the pop never persisted — nothing to do.
//!   Otherwise the pop persisted but the address never escaped: push `a`
//!   back. Either way no block is lost and no block can be handed out
//!   twice. A crash after the cursor-clearing store but before its `psync`
//!   may resolve the cursor to 0 with the block already popped — that is
//!   the one *bounded* leak the allocator admits: at most one block (≤ 4
//!   lines) per crash, the analogue of the paper's bounded-leak argument
//!   for in-flight nodes.
//! * **retire** (`kind = RETIRE`): the block is at the limbo head iff the
//!   push persisted; otherwise redo the push (idempotent — the link word
//!   is rewritten from scratch).
//! * **move** (`kind = MOVE`, limbo → class list at a drain): the drain
//!   persists the limbo *pop* before overwriting the block's link word for
//!   the class-list *push* — overwriting first would cross-link the limbo
//!   tail into the class list and double-allocate it. Recovery: block at
//!   the class head ⇒ done; block still at the limbo head ⇒ the next
//!   drain redoes the whole move; otherwise the pop persisted and the
//!   push didn't — complete the push (the block is orphaned otherwise).
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
//! [`PmemPool::recover_allocator`] costs O(`max_threads` × [`MAX_CLASS`])
//! reads plus the resolution of at most two cursors per thread, whatever
//! the number of free blocks: the volatile `remaining_lines` accounting is
//! rebuilt as `Σ c × len(head)` over the class heads, one link-word read
//! per non-empty list, instead of by walking the lists. The length rides
//! in the link word its push already writes, in the same store, so it adds
//! no store, `pwb`, fence or crash point, and the crash argument above
//! covers it unchanged: a block's link word is durable before the block
//! becomes reachable from its head, and it is never rewritten while the
//! block stays on the list, so every reachable block records
//! `1 + len(successor)` in every crash image. [`PmemPool::palloc_check`]
//! verifies exactly that relation on every list it walks.
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

/// Word offset of the limbo-list head in a thread's metadata line.
const W_LIMBO: usize = 4;
/// Word offset of the alloc cursor (in-flight allocation announcement).
const W_ALLOC_ANN: usize = 5;
/// Word offset of the free cursor (in-flight retire/move announcement).
const W_FREE_ANN: usize = 6;

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
const KIND_MOVE: u64 = 3;

const ADDR_MASK: u64 = (1 << 48) - 1;

/// Largest pool, in cache lines, that a `reclaim` pool may span: a class
/// free-list link stores the next block's line index in 32 bits.
pub const MAX_RECLAIM_LINES: usize = u32::MAX as usize;

fn pack_ann(addr: u64, class: usize, kind: u64) -> u64 {
    debug_assert!(addr != 0 && addr <= ADDR_MASK);
    addr | ((class as u64) << 48) | (kind << 56)
}

fn unpack_ann(w: u64) -> (u64, usize, u64) {
    (w & ADDR_MASK, ((w >> 48) & 0xff) as usize, w >> 56)
}

/// Limbo head/link encoding: address plus the class of the block it names.
fn pack_limbo(addr: u64, class: usize) -> u64 {
    debug_assert!(addr <= ADDR_MASK);
    addr | ((class as u64) << 48)
}

fn unpack_limbo(w: u64) -> (u64, usize) {
    (w & ADDR_MASK, (w >> 48) as usize)
}

/// Word index of a block's link word: its last word.
fn link_word(addr: u64, class: usize) -> usize {
    addr as usize + class * WORDS_PER_LINE - 1
}

/// Class free-list link encoding: the next block's line index in the low
/// 32 bits, the length of the list from this block on in the high 32.
fn pack_link(next: u64, len: u64) -> u64 {
    let line = next / WORDS_PER_LINE as u64;
    debug_assert!(line <= u32::MAX as u64 && len <= u32::MAX as u64);
    line | (len << 32)
}

/// The next block's address named by a class free-list link.
fn link_next(w: u64) -> u64 {
    (w & u32::MAX as u64) * WORDS_PER_LINE as u64
}

/// The list length recorded in a class free-list link.
fn link_len(w: u64) -> u64 {
    w >> 32
}

impl PmemPool {
    /// Was this pool built with the free-list allocator
    /// ([`crate::PoolCfg::reclaim`])?
    pub fn reclaim_enabled(&self) -> bool {
        self.reclaim
    }

    fn meta_word(&self, tid: usize, off: usize) -> PAddr {
        debug_assert!(self.reclaim);
        assert!(
            tid < self.max_threads(),
            "palloc tid {tid} >= max_threads {}",
            self.max_threads()
        );
        PAddr((self.palloc_base + tid * WORDS_PER_LINE + off) as u64)
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
        // Stop counting the block as free *before* the pop can take effect,
        // so `remaining_lines` stays a lower bound throughout. A crash that
        // aborts the pop is repaired by the post-recovery recount.
        let _ = self
            .free_lines
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(c))
            });
        // 1. Announce the pop (alloc cursor := pre-pop head).
        let ann_a = self.meta_word(tid, W_ALLOC_ANN);
        self.store_at(ann_a, pack_ann(head, c, KIND_ALLOC), P_ANN);
        self.pwb(ann_a, P_ANN);
        self.pfence();
        // 2. Pop: head := head.link, durable before the address escapes.
        let next = link_next(self.raw_load(link_word(head, c)));
        self.store_at(head_a, next, P_HEAD);
        self.pwb(head_a, P_HEAD);
        self.pfence();
        #[cfg(debug_assertions)]
        {
            let retired = self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                !retired.contains(&head),
                "retired address {head:#x} re-issued before a full epoch quiescence"
            );
        }
        // 3. Fresh-zero semantics (uninstrumented; see module docs).
        self.raw_zero_words(head as usize, c * WORDS_PER_LINE);
        // 4. Clear the cursor and sync before returning the address.
        self.store_at(ann_a, 0, P_ANN);
        self.pwb(ann_a, P_ANN);
        self.psync();
        PAddr(head)
    }

    /// Retires a `nlines`-line block that thread `tid` has just unlinked
    /// from its structure: parks it on `tid`'s limbo list, to become
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
        // 2. Write the block's link word and make it durable before the
        //    block becomes reachable from the limbo head.
        let limbo_a = self.meta_word(tid, W_LIMBO);
        let h = self.raw_load(limbo_a.word());
        let link = PAddr(link_word(a, c) as u64);
        self.store_at(link, h, P_BLOCK);
        self.pwb(link, P_BLOCK);
        self.pfence();
        // 3. Push, durably.
        self.store_at(limbo_a, pack_limbo(a, c), P_LIMBO);
        self.pwb(limbo_a, P_LIMBO);
        self.pfence();
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

    /// Drains thread `tid`'s limbo list onto its class free lists.
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
        let limbo_a = self.meta_word(tid, W_LIMBO);
        let ann_a = self.meta_word(tid, W_FREE_ANN);
        loop {
            let hp = self.raw_load(limbo_a.word());
            if hp == 0 {
                return;
            }
            let (b, c) = unpack_limbo(hp);
            debug_assert!(
                (1..=MAX_CLASS).contains(&c),
                "limbo head {hp:#x} carries corrupt class {c}"
            );
            // 1. Announce the move.
            self.store_at(ann_a, pack_ann(b, c, KIND_MOVE), P_ANN);
            self.pwb(ann_a, P_ANN);
            self.pfence();
            // 2. Pop off limbo — and persist the pop — *before* the block's
            //    link word is overwritten for the class-list push. The
            //    reverse order would cross-link the limbo tail into the
            //    class list and double-allocate it.
            let link = PAddr(link_word(b, c) as u64);
            let next = self.raw_load(link.word());
            self.store_at(limbo_a, next, P_LIMBO);
            self.pwb(limbo_a, P_LIMBO);
            self.pfence();
            // 3. Relink onto the class list, durably.
            self.push_free(tid, b, c);
            // 4. Clear the cursor.
            self.store_at(ann_a, 0, P_ANN);
            self.pwb(ann_a, P_ANN);
            self.psync();
            // Only now is the block genuinely allocatable.
            self.free_lines.fetch_add(c, Ordering::SeqCst);
            #[cfg(debug_assertions)]
            self.retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&b);
        }
    }

    /// [`Self::palloc_drain`] for every thread with a nonempty limbo list.
    /// Idle threads are skipped with an uninstrumented peek, so quiescent
    /// boundaries in sweeps cost zero events for threads that freed
    /// nothing. Same quiescence contract as `palloc_drain`.
    pub fn palloc_drain_all(&self) {
        if !self.reclaim {
            return;
        }
        for tid in 0..self.max_threads() {
            if self.raw_load(self.palloc_base + tid * WORDS_PER_LINE + W_LIMBO) != 0 {
                self.palloc_drain(tid);
            }
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
                if self.raw_load(self.meta_word(tid, c - 1).word()) != a {
                    // The pop persisted but the address never escaped the
                    // allocator: push the block back.
                    self.push_free(tid, a, c);
                }
                let ann_a = self.meta_word(tid, W_ALLOC_ANN);
                self.store_at(ann_a, 0, P_ANN);
                self.pwb(ann_a, P_ANN);
                self.psync();
            }
            if free_ann != 0 {
                let (b, c, kind) = unpack_ann(free_ann);
                let limbo_a = self.meta_word(tid, W_LIMBO);
                match kind {
                    KIND_RETIRE => {
                        if unpack_limbo(self.raw_load(limbo_a.word())).0 != b {
                            // Push never persisted: redo it from scratch.
                            let h = self.raw_load(limbo_a.word());
                            let link = PAddr(link_word(b, c) as u64);
                            self.store_at(link, h, P_BLOCK);
                            self.pwb(link, P_BLOCK);
                            self.pfence();
                            self.store_at(limbo_a, pack_limbo(b, c), P_LIMBO);
                            self.pwb(limbo_a, P_LIMBO);
                            self.pfence();
                        }
                    }
                    KIND_MOVE => {
                        let at_class_head = self.raw_load(self.meta_word(tid, c - 1).word()) == b;
                        let at_limbo_head = unpack_limbo(self.raw_load(limbo_a.word())).0 == b;
                        if !at_class_head && !at_limbo_head {
                            // Limbo pop persisted, class push didn't:
                            // complete the push (the block is orphaned
                            // otherwise).
                            self.push_free(tid, b, c);
                        }
                        // At the limbo head: the move never took; the next
                        // drain redoes it. At the class head: fully done.
                    }
                    k => debug_assert!(false, "corrupt free cursor kind {k}"),
                }
                let ann_a = self.meta_word(tid, W_FREE_ANN);
                self.store_at(ann_a, 0, P_ANN);
                self.pwb(ann_a, P_ANN);
                self.psync();
            }
        }
        self.refresh_palloc_accounting();
    }

    /// Pushes block `b` of class `c` onto thread `tid`'s class free list,
    /// durably: the link word (next = the old head, length = the old
    /// head's plus one) persists before the head names `b`. The shared
    /// tail of the drain's relink and of recovery's alloc push-back and
    /// move completion.
    fn push_free(&self, tid: usize, b: u64, c: usize) {
        let head_a = self.meta_word(tid, c - 1);
        let h = self.raw_load(head_a.word());
        let link = PAddr(link_word(b, c) as u64);
        self.store_at(link, pack_link(h, self.free_list_len(h, c) + 1), P_BLOCK);
        self.pwb(link, P_BLOCK);
        self.pfence();
        self.store_at(head_a, b, P_HEAD);
        self.pwb(head_a, P_HEAD);
        self.pfence();
    }

    /// Length of the class-`c` free list headed by `head` (0 for an empty
    /// list): one uninstrumented read of the head's link word.
    fn free_list_len(&self, head: u64, c: usize) -> u64 {
        if head == 0 {
            0
        } else {
            link_len(self.raw_load(link_word(head, c)))
        }
    }

    /// Every block currently on a class free list, as `(addr, class)`
    /// pairs, gathered with uninstrumented reads (audit/test use).
    pub fn palloc_free_blocks(&self) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        if !self.reclaim {
            return out;
        }
        let bound = self.nwords() / WORDS_PER_LINE + 1;
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            for c in 1..=MAX_CLASS {
                let mut b = self.raw_load(meta + c - 1);
                let mut steps = 0;
                while b != 0 && steps < bound {
                    out.push((b, c));
                    b = link_next(self.raw_load(link_word(b, c)));
                    steps += 1;
                }
            }
        }
        out
    }

    /// Every block currently on a limbo list, as `(addr, class)` pairs,
    /// gathered with uninstrumented reads (audit/test use).
    pub fn palloc_limbo_blocks(&self) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        if !self.reclaim {
            return out;
        }
        let bound = self.nwords() / WORDS_PER_LINE + 1;
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            let mut hp = self.raw_load(meta + W_LIMBO);
            let mut steps = 0;
            while hp != 0 && steps < bound {
                let (b, c) = unpack_limbo(hp);
                out.push((b, c));
                if !(1..=MAX_CLASS).contains(&c) {
                    break; // corrupt link; palloc_check reports it
                }
                hp = self.raw_load(link_word(b, c));
                steps += 1;
            }
        }
        out
    }

    /// Structural audit of the allocator's persistent state, for verdict
    /// phases: every free/limbo block is line-aligned, inside the allocated
    /// heap, carries a valid class, appears on exactly one list, and no two
    /// blocks overlap; every free-list block records a list length one more
    /// than its successor's (1 at the tail); all lists are acyclic and all
    /// cursors are resolved. Uninstrumented — safe to call from traced
    /// verdict phases.
    ///
    /// Returns `Err` with a description of the first violation found.
    pub fn palloc_check(&self) -> Result<(), String> {
        if !self.reclaim {
            return Ok(());
        }
        let wm = self.alloc_watermark() as u64;
        let bound = self.nwords() / WORDS_PER_LINE + 1;
        let mut blocks: Vec<(u64, usize, String)> = Vec::new();
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            for c in 1..=MAX_CLASS {
                let list = format!("tid {tid} class-{c} free list");
                let mut b = self.raw_load(meta + c - 1);
                let mut steps = 0;
                // The length the predecessor's link implies for `b`.
                let mut want = None;
                while b != 0 {
                    if steps >= bound {
                        return Err(format!("cycle in {list}"));
                    }
                    check_block(self, &list, b, c, wm)?;
                    blocks.push((b, c, list.clone()));
                    let w = self.raw_load(link_word(b, c));
                    let (next, len) = (link_next(w), link_len(w));
                    if len == 0 || want.is_some_and(|n| n != len) || (next == 0 && len != 1) {
                        return Err(format!(
                            "{list}: block {b:#x} records list length {len}, \
                             not one more than its successor's (the list end counts 0)"
                        ));
                    }
                    want = Some(len - 1);
                    b = next;
                    steps += 1;
                }
            }
            let list = format!("tid {tid} limbo list");
            let mut hp = self.raw_load(meta + W_LIMBO);
            let mut steps = 0;
            while hp != 0 {
                if steps >= bound {
                    return Err(format!("cycle in {list}"));
                }
                let (b, c) = unpack_limbo(hp);
                check_block(self, &list, b, c, wm)?;
                blocks.push((b, c, list.clone()));
                hp = self.raw_load(link_word(b, c));
                steps += 1;
            }
            for (off, name) in [(W_ALLOC_ANN, "alloc"), (W_FREE_ANN, "free")] {
                let ann = self.raw_load(meta + off);
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

    /// Rebuilds the volatile allocator accounting (the `remaining_lines`
    /// free counter and, in debug builds, the retired-address ledger) from
    /// the persistent lists. Called at the quiescent points — `restore`,
    /// `crash` resolution, and the end of recovery — where the lists are
    /// the only source of truth. The free count reads one link word per
    /// non-empty class list (its recorded length), so it costs
    /// O(`max_threads` × [`MAX_CLASS`]) however many blocks are free.
    pub(crate) fn refresh_palloc_accounting(&self) {
        let mut free = 0usize;
        for tid in 0..self.max_threads() {
            let meta = self.palloc_base + tid * WORDS_PER_LINE;
            for c in 1..=MAX_CLASS {
                free += c * self.free_list_len(self.raw_load(meta + c - 1), c) as usize;
            }
        }
        self.free_lines.store(free, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        {
            let bound = self.nwords() / WORDS_PER_LINE + 1;
            let mut retired = std::collections::HashSet::new();
            for tid in 0..self.max_threads() {
                let meta = self.palloc_base + tid * WORDS_PER_LINE;
                let mut hp = self.raw_load(meta + W_LIMBO);
                let mut steps = 0;
                while hp != 0 && steps < bound {
                    let (b, c) = unpack_limbo(hp);
                    retired.insert(b);
                    if !(1..=MAX_CLASS).contains(&c) {
                        break;
                    }
                    hp = self.raw_load(link_word(b, c));
                    steps += 1;
                }
            }
            *self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = retired;
        }
    }
}

/// One block's structural validity (shared by the audit walks).
fn check_block(pool: &PmemPool, list: &str, b: u64, c: usize, wm: u64) -> Result<(), String> {
    if !(1..=MAX_CLASS).contains(&c) {
        return Err(format!("{list}: block {b:#x} carries invalid class {c}"));
    }
    if (b as usize) < pool.heap_base
        || b + (c * WORDS_PER_LINE) as u64 > wm
        || !b.is_multiple_of(WORDS_PER_LINE as u64)
    {
        return Err(format!("{list}: block {b:#x} (class {c}) outside the heap"));
    }
    Ok(())
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

    /// Crash at every instrumented event of a drain (the limbo → free-list
    /// move): the block must land on exactly one list — never both (the
    /// double-allocate hazard the move ordering exists to prevent).
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

    #[test]
    fn audit_rejects_a_corrupted_length() {
        let p = reclaim_pool(1 << 20);
        let blocks: Vec<PAddr> = (0..3).map(|_| p.palloc_lines(0, 2)).collect();
        for &b in &blocks {
            p.pretire_lines(0, b, 2);
        }
        p.palloc_drain(0);
        p.palloc_check().unwrap();
        assert_eq!(p.palloc_free_blocks().len(), 3);
        // Bump the middle block's recorded length: its predecessor no
        // longer records one more than it does.
        let mid = p.palloc_free_blocks()[1].0;
        let link = PAddr(link_word(mid, 2) as u64);
        let w = p.raw_load(link.word());
        p.store(link, pack_link(link_next(w), link_len(w) + 1));
        let err = p.palloc_check().unwrap_err();
        assert!(err.contains("records list length"), "{err}");
        // A tail recording anything but 1 is caught too.
        p.store(link, w);
        p.palloc_check().unwrap();
        let tail = p.palloc_free_blocks()[2].0;
        let link = PAddr(link_word(tail, 2) as u64);
        p.store(link, pack_link(0, 2));
        assert!(p.palloc_check().is_err());
    }

    /// A 1 TiB `reclaim` pool is refused before any memory is allocated
    /// (the test would otherwise abort on allocation, not panic).
    #[test]
    #[should_panic(expected = "PoolCfg::reclaim supports pools of at most")]
    fn oversized_reclaim_pool_is_rejected_up_front() {
        reclaim_pool(1 << 40);
    }
}
