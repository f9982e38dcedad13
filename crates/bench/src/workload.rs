//! The timed throughput runner: the paper's benchmark loop.
//!
//! Keys are drawn uniformly from `[1, key_range]`; the structure is
//! prefilled with `key_range / 2` random inserts (the paper's 250 inserts
//! over range 500 ≈ 40 % full); each worker then draws operations from the
//! configured mix until the deadline. The window is [`measure::window`], so
//! every run reports its `pwb`/`psync` per operation alongside throughput.

use std::sync::Arc;
use std::time::Duration;

use pmem::{Backend, PmemPool, PoolCfg, ThreadCtx};

use crate::adapter::{build, AlgoKind};
use crate::measure::{self, WindowCfg};

/// Operation mix (percentages; insert/delete split the remainder evenly).
#[derive(Copy, Clone, Debug)]
pub struct Mix {
    /// Percentage of `find` operations.
    pub find_pct: u32,
}

impl Mix {
    /// The paper's read-intensive benchmark (70 % finds).
    pub const READ_INTENSIVE: Mix = Mix { find_pct: 70 };
    /// The paper's update-intensive benchmark (30 % finds).
    pub const UPDATE_INTENSIVE: Mix = Mix { find_pct: 30 };
}

/// One throughput-run configuration.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Which implementation to run.
    pub kind: AlgoKind,
    /// Worker threads.
    pub threads: usize,
    /// Timed-window length.
    pub duration: Duration,
    /// Keys are uniform in `[1, key_range]`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Pool capacity in bytes (arena for nodes + descriptors).
    pub pool_bytes: usize,
    /// Persistence backend for the run.
    pub backend: Backend,
    /// RNG seed (deterministic workloads across variants).
    pub seed: u64,
    /// Disable `psync`/`pfence` (the paper's `[no psyncs]` variants).
    pub psync_enabled: bool,
    /// `pwb` site mask (bit *i* enables site *i*); `u64::MAX` = all.
    pub site_mask: u64,
}

impl RunCfg {
    /// Paper-shaped defaults for `kind` at `threads` threads.
    pub fn paper(kind: AlgoKind, threads: usize) -> RunCfg {
        RunCfg {
            kind,
            threads,
            duration: Duration::from_millis(300),
            key_range: 500,
            mix: Mix::READ_INTENSIVE,
            pool_bytes: 1 << 30,
            backend: Backend::Clflush,
            seed: 0xD1CE,
            psync_enabled: true,
            site_mask: u64::MAX,
        }
    }
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Completed operations across all threads.
    pub ops: u64,
    /// Actual timed-window length.
    pub elapsed: Duration,
    /// `pwb` executions per site during the window.
    pub pwb_per_site: [u64; pmem::MAX_SITES],
    /// `psync` + `pfence` executions during the window.
    pub psync: u64,
}

impl RunResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Total `pwb`s in the window.
    pub fn pwb_total(&self) -> u64 {
        self.pwb_per_site.iter().sum()
    }

    /// `pwb`s per completed operation.
    pub fn pwb_per_op(&self) -> f64 {
        measure::per_op(self.pwb_total(), self.ops)
    }

    /// `psync`s (incl. `pfence`s) per completed operation.
    pub fn psync_per_op(&self) -> f64 {
        measure::per_op(self.psync, self.ops)
    }
}

/// Runs one timed throughput measurement per `cfg`.
pub fn run(cfg: &RunCfg) -> RunResult {
    let pool = Arc::new(PmemPool::new(PoolCfg {
        capacity: cfg.pool_bytes,
        backend: cfg.backend,
        shadow: false,
        max_threads: cfg.threads.max(1).next_power_of_two().max(8),
        ..Default::default()
    }));
    let algo = build(cfg.kind, pool.clone(), cfg.threads, cfg.key_range);
    let ctx = ThreadCtx::new(pool.clone(), 0);
    measure::prefill(&*algo, &ctx, cfg.key_range, cfg.seed ^ 0xABCDEF);
    pool.set_psync_enabled(cfg.psync_enabled);
    pool.set_sites_mask(cfg.site_mask);

    let (key_range, find) = (cfg.key_range, cfg.mix.find_pct as u64);
    let window = WindowCfg {
        subject: cfg.kind.name(),
        threads: cfg.threads,
        duration: cfg.duration,
        headroom_lines: 4096,
        chunk_lines: 0,
        seed: cfg.seed,
    };
    let w = measure::window(&pool, &window, move |ctx, r| {
        let key = r % key_range + 1;
        let dice = (r >> 32) % 100;
        if dice < find {
            std::hint::black_box(algo.find(ctx, key));
        } else if dice < find + (100 - find) / 2 {
            std::hint::black_box(algo.insert(ctx, key));
        } else {
            std::hint::black_box(algo.delete(ctx, key));
        }
    });
    RunResult {
        ops: w.ops(),
        elapsed: w.elapsed,
        pwb_per_site: w.delta.pwb_per_site,
        psync: w.delta.psync + w.delta.pfence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: AlgoKind) -> RunCfg {
        RunCfg {
            duration: Duration::from_millis(50),
            pool_bytes: 256 << 20,
            key_range: 64,
            backend: Backend::Noop,
            ..RunCfg::paper(kind, 2)
        }
    }

    #[test]
    fn every_algorithm_sustains_a_tiny_run() {
        for kind in AlgoKind::paper_lineup() {
            let r = run(&tiny(kind));
            assert!(r.ops > 0, "{kind:?} completed no ops");
            assert!(r.elapsed.as_millis() >= 45, "{kind:?} window too short");
        }
    }

    #[test]
    fn tracking_counts_persistence_instructions() {
        let r = run(&tiny(AlgoKind::Tracking));
        assert!(r.pwb_total() > 0, "tracking must flush");
        assert!(r.psync > 0, "tracking must fence");
        assert!(r.pwb_per_op() >= 1.0, "at least the RD flush per op");
    }

    #[test]
    fn site_mask_suppresses_pwbs() {
        let mut cfg = tiny(AlgoKind::Tracking);
        cfg.site_mask = 0;
        cfg.psync_enabled = false;
        let r = run(&cfg);
        assert_eq!(r.pwb_total(), 0, "persistence-free run must not flush");
        assert_eq!(r.psync, 0);
    }

    #[test]
    fn update_mix_produces_more_updates_than_read_mix() {
        let mut read = tiny(AlgoKind::Tracking);
        read.mix = Mix::READ_INTENSIVE;
        let mut upd = tiny(AlgoKind::Tracking);
        upd.mix = Mix::UPDATE_INTENSIVE;
        let r1 = run(&read);
        let r2 = run(&upd);
        // update ops persist more: pwb/op must be clearly higher
        assert!(
            r2.pwb_per_op() > r1.pwb_per_op(),
            "update-intensive should flush more per op ({} vs {})",
            r2.pwb_per_op(),
            r1.pwb_per_op()
        );
    }
}
