//! The structure under test behind one request interface, and the
//! crash-aware way a client issues a request.

use std::sync::Arc;

use pmem::{run_crashable, PmemPool, ThreadCtx};
use tracking::sites::S_CP;
use tracking::{RecoverableHashMap, RecoverableList};

use crate::workload::{Op, Req, Structure, LIST_VAL};

/// Every response is an `Option<u64>`: a get's value, a remove's removed
/// value, and for a put the value it bound (`None` if the key was bound).
pub type Resp = Option<u64>;

#[derive(Clone)]
pub enum Store {
    Map(RecoverableHashMap),
    List(RecoverableList),
}

/// How a crashable request ended.
pub enum Exec {
    Done(Resp),
    /// The crash struck inside `ThreadCtx::begin_op`: the operation was
    /// never invoked, so there is nothing to recover; the client re-issues it.
    NotInvoked,
    /// The crash struck inside the operation: recovery decides its response.
    Interrupted,
}

impl Store {
    /// Creates the structure in root 0, or re-attaches to it after a reboot.
    pub fn attach(structure: Structure, pool: &Arc<PmemPool>) -> Store {
        match structure {
            Structure::Map => Store::Map(RecoverableHashMap::new(pool.clone(), 0)),
            Structure::List => Store::List(RecoverableList::new(pool.clone(), 0)),
        }
    }

    fn get(&self, ctx: &ThreadCtx, key: u64) -> Resp {
        match self {
            Store::Map(m) => m.get(ctx, key),
            Store::List(l) => l.find(ctx, key).then_some(LIST_VAL),
        }
    }

    /// An update whose `begin_op` the caller already ran.
    fn update_started(&self, ctx: &ThreadCtx, req: &Req) -> Resp {
        match (self, req.op) {
            (Store::Map(m), Op::Put) => m.put_started(ctx, req.key, req.val).then_some(req.val),
            (Store::Map(m), Op::Remove) => m.remove_started(ctx, req.key),
            (Store::List(l), Op::Put) => l.insert_started(ctx, req.key).then_some(LIST_VAL),
            (Store::List(l), Op::Remove) => l.delete_started(ctx, req.key).then_some(LIST_VAL),
            (_, Op::Get) => unreachable!("gets are not updates"),
        }
    }

    /// Issues `req` with crashes disarmed.
    pub fn exec(&self, ctx: &ThreadCtx, req: &Req) -> Resp {
        match req.op {
            Op::Get => self.get(ctx, req.key),
            _ => {
                ctx.begin_op(S_CP);
                self.update_started(ctx, req)
            }
        }
    }

    /// Issues `req` so that a broadcast crash stops it wherever it is.
    pub fn exec_crashable(&self, ctx: &ThreadCtx, req: &Req) -> Exec {
        if req.op == Op::Get {
            return run_crashable(|| self.get(ctx, req.key)).map_or(Exec::Interrupted, Exec::Done);
        }
        if run_crashable(|| ctx.begin_op(S_CP)).is_none() {
            return Exec::NotInvoked;
        }
        run_crashable(|| self.update_started(ctx, req)).map_or(Exec::Interrupted, Exec::Done)
    }

    /// The detectable recovery of an interrupted `req` (the `recover_*` API).
    pub fn recover(&self, ctx: &ThreadCtx, req: &Req) -> Resp {
        match (self, req.op) {
            (Store::Map(m), Op::Get) => m.recover_get(ctx, req.key),
            (Store::Map(m), Op::Put) => m.recover_put(ctx, req.key, req.val).then_some(req.val),
            (Store::Map(m), Op::Remove) => m.recover_remove(ctx, req.key),
            (Store::List(l), Op::Get) => l.recover_find(ctx, req.key).then_some(LIST_VAL),
            (Store::List(l), Op::Put) => l.recover_insert(ctx, req.key).then_some(LIST_VAL),
            (Store::List(l), Op::Remove) => l.recover_delete(ctx, req.key).then_some(LIST_VAL),
        }
    }

    /// Sorted `(key, value)` contents (quiescent).
    pub fn contents(&self) -> Vec<(u64, u64)> {
        match self {
            Store::Map(m) => m.entries(),
            Store::List(l) => l.keys().into_iter().map(|k| (k, LIST_VAL)).collect(),
        }
    }

    /// The structure's own invariant check (quiescent); `Err` carries the
    /// violated assertion.
    pub fn check_invariants(&self) -> Result<usize, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
            Store::Map(m) => m.check_invariants(),
            Store::List(l) => l.check_invariants(),
        }))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "invariant check panicked".to_string())
        })
    }

    /// Bucket count of the current level (0 for the list).
    pub fn bucket_count(&self) -> u64 {
        match self {
            Store::Map(m) => m.bucket_count(),
            Store::List(_) => 0,
        }
    }
}
