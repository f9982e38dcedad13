//! # bench — the harness regenerating every figure of the paper
//!
//! The paper's evaluation (Section 5) consists of Figures 3–6 over a sorted
//! linked list with keys uniform in `[1, 500]`, prefilled with 250 random
//! inserts, under a read-intensive (70 % find) and an update-intensive
//! (30 % find) mix. This crate provides:
//!
//! * [`adapter`] — one uniform [`adapter::SetAlgo`] interface over all five
//!   evaluated implementations (Tracking list & BST, Capsules,
//!   Capsules-Opt, Romulus, RedoOpt);
//! * [`measure`] — the one measurement engine every timing goes through:
//!   the multi-thread timed window (with a watchdog that fails a stuck
//!   worker loudly), median-of-5 interleaved single-thread trials with
//!   exact count checks, the workload RNG, the per-op conversion and the
//!   latency histogram;
//! * [`workload`] — the paper's throughput runner over the set
//!   competitors, on [`measure::window`];
//! * [`parallel`] / `bin/throughput` — the genuinely parallel throughput
//!   engine: N real OS threads over sharded queue/stack roots (plain
//!   Tracking and flat-combining variants) with per-thread
//!   [`pmem::SubArena`] allocation, emitting `bench-throughput/v1` JSON
//!   and the baseline's `thread_sweep` series;
//! * [`figures`] — drivers that reproduce each figure's measurement
//!   protocol, including the paper's pwb-categorization methodology
//!   (persistence-free baseline → single-site impact → L/M/H classes →
//!   category add/remove sweeps);
//! * [`sweep`] — the exhaustive crash-sweep verification engine: crash a
//!   scripted workload at every instrumented persistence event, then check
//!   detectability and durable linearizability of the recovered state
//!   against the [`linearize`] specifications;
//! * [`explore`] — the deterministic concurrent-schedule explorer:
//!   serialize N virtual threads through the pool's instrumented events
//!   under round-robin / seeded-random / PCT strategies, optionally crash
//!   at any (schedule, event) point, and check the concurrent history
//!   linearizes after recovery;
//! * `bin/figures` — the CLI that writes one CSV per figure into
//!   `results/`;
//! * `bin/crashsweep` — the CLI driving [`sweep`] over the full
//!   structure × algorithm matrix, writing one CSV per pair into
//!   `results/crashsweep/`;
//! * `bin/explore` — the CLI driving [`explore`] over the schedulable
//!   matrix, writing one CSV per pair into `results/explore/`;
//! * [`baseline`] / `bin/baseline` — the tracked perf baseline: fixed
//!   per-structure/per-competitor micro-workloads plus an
//!   instrumentation-overhead benchmark, each the median of
//!   [`measure::trials`], emitted as `BENCH_*.json` at the repo root so
//!   successive changes leave a comparable trajectory, with an exact
//!   count gate and a ratio gate against a previous capture;
//! * `bin/latency` — per-operation mean and percentiles per competitor.
//!
//! Numbers are *shapes*, not absolutes: the substrate is simulated NVMM
//! over DRAM (`clwb`/`sfence`), and thread scaling is only real up to the
//! host's CPU count. See EXPERIMENTS.md for the paper-vs-measured
//! discussion.

#![warn(missing_docs)]

pub mod adapter;
pub mod baseline;
pub mod case;
pub mod csv;
pub mod explore;
pub mod figures;
pub mod measure;
pub mod parallel;
pub mod sweep;
pub mod workload;

pub use adapter::{build, AlgoKind, SetAlgo, StructureKind};
pub use explore::{run_explore, CrashMode, ExploreCfg, ExploreReport, StrategyKind};
pub use parallel::{run_parallel, run_thread_sweep, ParSubject, ParallelCfg, ParallelResult};
pub use sweep::{run_palloc_sweep, run_sweep, SweepCfg, SweepReport};
pub use workload::{run, Mix, RunCfg, RunResult};
