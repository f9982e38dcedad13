//! Regression pins for the crash-sweep verification engine
//! (`bench::sweep`).
//!
//! The sweep's coverage guarantee rests on one invariant: the instrumented
//! event count `N` of the scripted workload is an exact, stable function of
//! the configuration, because every crash point `k ∈ [0, N)` is enumerated
//! from it. These tests pin `N` for fixed seeds so that any change to the
//! persistence-instruction placement of the algorithms — an extra `pwb`, a
//! dropped `psync`, a reordered store — shows up as a failed pin rather
//! than as silently shifted crash points. When a pin moves *intentionally*
//! (the placement really changed), update the constant and say so in the
//! commit message.

use bench::sweep::{run_sweep, AdversaryKind, SweepCfg};
use bench::{AlgoKind, StructureKind};

/// Fixed seed for the pinned workloads (any change to it invalidates pins).
const PIN_SEED: u64 = 0xDECA_FBAD;

fn pinned_cfg(structure: StructureKind, algo: AlgoKind) -> SweepCfg {
    let mut cfg = SweepCfg::new(structure, algo);
    cfg.seed = PIN_SEED;
    cfg.script_len = 6;
    cfg.pool_bytes = 16 << 20;
    cfg
}

/// The Tracking list pin: 6 scripted ops produce exactly this many
/// instrumented events (each one a distinct crash point).
#[test]
fn tracking_list_event_count_is_pinned() {
    let mut cfg = pinned_cfg(StructureKind::List, AlgoKind::Tracking);
    // Counting alone needs no replays; skip them so the pin stays cheap.
    cfg.sample = 0.0;
    let report = run_sweep(&cfg);
    assert_eq!(
        report.total_events, 319,
        "Tracking list persistence-event count changed: the paper's \
         persistence-instruction placement moved (or the script generator \
         changed). If intentional, update this pin."
    );
    assert_eq!(report.points_skipped, report.total_events);
}

/// The Tracking queue pin, plus a sampled end-to-end run: the sampled
/// points must all recover detectably and durably.
#[test]
fn tracking_queue_pin_and_sampled_sweep_is_clean() {
    let mut cfg = pinned_cfg(StructureKind::Queue, AlgoKind::Tracking);
    cfg.sample = 0.2;
    let report = run_sweep(&cfg);
    assert_eq!(report.total_events, 300, "Tracking queue event count moved");
    assert!(report.points_run > 0, "0.2 sample selected nothing");
    assert!(
        report.ok(),
        "sampled queue sweep found violations: {:?}",
        report.violations
    );
}

/// The Tracking hashmap pin, plus a sampled end-to-end run. The pinned
/// script is put-heavy over a 2-bucket / max-chain-2 table, so the counted
/// event space includes at least one full resize (level publish, bucket
/// migration, seal and finish) — a moved pin means the resize protocol's
/// persistence-instruction placement changed, not just the bucket ops'.
#[test]
fn tracking_hashmap_pin_and_sampled_sweep_is_clean() {
    let mut cfg = pinned_cfg(StructureKind::Hashmap, AlgoKind::Tracking);
    // The short 6-op script shared by the other pins never trips the
    // aggressive config's resize threshold; 24 ops do (guarded by
    // `pinned_hashmap_script_reaches_a_resize` in bench).
    cfg.script_len = 24;
    cfg.sample = 0.05;
    let report = run_sweep(&cfg);
    assert_eq!(
        report.total_events, 2078,
        "Tracking hashmap persistence-event count changed: bucket-op or \
         resize instruction placement moved. If intentional, update this pin."
    );
    assert!(report.points_run > 0, "0.1 sample selected nothing");
    assert!(
        report.ok(),
        "sampled hashmap sweep found violations: {:?}",
        report.violations
    );
}

/// Counting is idempotent and replay-independent: two sweeps of the same
/// configuration see the same `N` and the same per-point outcomes.
#[test]
fn sweep_is_deterministic_across_runs() {
    let mut cfg = pinned_cfg(StructureKind::List, AlgoKind::Tracking);
    cfg.sample = 0.05;
    let a = run_sweep(&cfg);
    let b = run_sweep(&cfg);
    assert_eq!(a.total_events, b.total_events);
    assert_eq!(a.points_run, b.points_run);
    assert!(a.ok() && b.ok());
}

/// The seeded adversary must also recover cleanly on a sampled Tracking
/// sweep (partial cache-line survival instead of maximal loss).
#[test]
fn seeded_adversary_sampled_sweep_is_clean() {
    let mut cfg = pinned_cfg(StructureKind::Stack, AlgoKind::Tracking);
    cfg.adversary = AdversaryKind::Seeded;
    cfg.sample = 0.2;
    let report = run_sweep(&cfg);
    assert!(
        report.ok(),
        "seeded stack sweep found violations: {:?}",
        report.violations
    );
}

/// Masked-site pins: disabling a `pwb` site removes exactly its events
/// from the crash-point space, and the resulting total is stable. The
/// masked totals are pinned absolutely (not just as deltas) so that a
/// placement change hiding behind a compensating change elsewhere still
/// trips a pin.
#[test]
fn masked_site_event_totals_are_pinned() {
    let mut cfg = pinned_cfg(StructureKind::List, AlgoKind::Tracking);
    cfg.sample = 0.0; // count only
    let full = run_sweep(&cfg);
    assert_eq!(full.total_events, 319, "unmasked pin moved");

    cfg.site_mask = !(1 << tracking::sites::S_CP.0);
    let masked = run_sweep(&cfg);
    assert_eq!(masked.total_events, 308, "masked S_CP pin moved");

    cfg.site_mask = !(1 << tracking::sites::S_RESULT.0);
    let masked = run_sweep(&cfg);
    assert_eq!(masked.total_events, 316, "masked S_RESULT pin moved");
}

/// Hashes a trace stream's observable content (everything but the seq
/// numbers, which per-thread banking makes allocation-order dependent):
/// kind, site, line, tid and dirty annotation of every retained event, in
/// global order. Two runs with equal hashes executed bit-identical
/// instrumented event streams.
fn stream_hash(snap: &pmem::TraceSnapshot) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for e in &snap.events {
        mix(e.kind.label().len() as u64 ^ (e.kind as u64) << 8);
        mix(e.site as u64);
        mix(e.line as u64);
        mix(e.tid as u64);
        mix(e.dirty as u64);
    }
    mix(snap.dropped);
    h
}

/// Runs the pinned deterministic single-thread scripted workload against a
/// traced Model pool and returns the stream hash.
fn pinned_stream(algo: AlgoKind) -> u64 {
    use pmem::{PmemPool, PoolCfg, ThreadCtx};
    let pool = std::sync::Arc::new(PmemPool::new(PoolCfg {
        trace: true,
        ..PoolCfg::model(16 << 20)
    }));
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let set = bench::adapter::build(algo, pool.clone(), 1, 32);
    let mut rng = PIN_SEED;
    for i in 0..24u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = rng >> 33 & 31;
        match i % 4 {
            0 | 1 => {
                set.insert(&ctx, key);
            }
            2 => {
                set.delete(&ctx, key);
            }
            _ => {
                set.find(&ctx, key);
            }
        }
    }
    stream_hash(&pool.trace_snapshot())
}

/// The event streams are bit-identical to PR 8: every store/pwb/fence
/// takes exactly the code path it took then, pinned here as a content hash
/// over the full trace of a scripted Tracking run and a scripted Capsules
/// (Full-persist) run. If either hash moves, the instructions the
/// algorithms execute changed — that is a regression, not a pin to update
/// lightly.
#[test]
fn streams_are_bit_identical_to_pr8() {
    assert_eq!(
        pinned_stream(AlgoKind::Tracking),
        TRACKING_PR8_STREAM_HASH,
        "Tracking stream diverged from PR 8"
    );
    assert_eq!(
        pinned_stream(AlgoKind::Capsules),
        CAPSULES_PR8_STREAM_HASH,
        "Capsules stream diverged from PR 8"
    );
}

/// Trace events name the logical thread (the `ThreadCtx` tid), not an
/// ordinal of the OS threads the process has traced so far: a stream
/// recorded after another thread already traced on a different pool still
/// hashes to the pin.
#[test]
fn stream_pin_ignores_earlier_tracing_threads() {
    let hash = on_fresh_thread_after_other_tracers(|| pinned_stream(AlgoKind::Tracking));
    assert_eq!(hash, TRACKING_PR8_STREAM_HASH);
}

/// Runs `f` on a fresh thread after another thread has already traced on
/// a pool of its own, so any process-wide thread ordinal the code under
/// test leaked would differ from the logical ids it is meant to use.
fn on_fresh_thread_after_other_tracers<R: Send + 'static>(
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    use pmem::{PmemPool, PoolCfg};
    std::thread::spawn(|| {
        let pool = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = pool.alloc_lines(1);
        pool.store(a, 1);
        assert_eq!(pool.trace_snapshot().total(), 1);
    })
    .join()
    .unwrap();
    std::thread::spawn(f).join().unwrap()
}

/// Lint diagnostics name the logical thread, as trace events do.
#[test]
fn lint_diagnostics_name_the_logical_thread() {
    use pmem::{PmemPool, PoolCfg, SiteId, ThreadCtx};
    use std::sync::Arc;
    let diags = on_fresh_thread_after_other_tracers(|| {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        }));
        let _ctx = ThreadCtx::new(pool.clone(), 77);
        let [a, b] = [pool.alloc_lines(1), pool.alloc_lines(1)];
        pool.store(a, 1);
        pool.pwb(a, SiteId(1));
        pool.psync();
        pool.pwb(a, SiteId(1)); // redundant: found on this thread
        pool.store(b, 1); // left dirty: attributed to this thread's store
        pool.lint_report().diags
    });
    assert_eq!(diags.len(), 2, "{diags:?}");
    for d in &diags {
        assert_eq!(d.tid, 77, "diagnostic labels an OS ordinal: {d:?}");
    }
}

/// Committed explorer matrices regenerate byte-identically on a thread
/// that starts after other tracers: what they record follows the workers'
/// logical ids, not the process's thread history.
#[test]
fn explore_matrices_ignore_earlier_tracing_threads() {
    use bench::explore::{run_explore, ExploreCfg};
    let csvs = on_fresh_thread_after_other_tracers(|| {
        let mut list = ExploreCfg::new(StructureKind::List, AlgoKind::Tracking);
        list.threads = 4;
        let mut map = ExploreCfg::new(StructureKind::Hashmap, AlgoKind::Tracking);
        map.ops_per_thread = 12;
        [list, map].map(|cfg| {
            let report = run_explore(&cfg);
            assert!(report.ok(), "violations: {:?}", report.violations);
            let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("explore-rerun");
            std::fs::read_to_string(report.csv.write(&dir).unwrap()).unwrap()
        })
    });
    assert_eq!(
        csvs[0],
        include_str!("../../results/explore/explore_list_tracking_t4.csv")
    );
    assert_eq!(
        csvs[1],
        include_str!("../../results/explore/explore_hashmap_tracking_t2.csv")
    );
}

const TRACKING_PR8_STREAM_HASH: u64 = 1931165606446196522;
const CAPSULES_PR8_STREAM_HASH: u64 = 16994248641333252118;

/// A masked site is invisible at the substrate level, not just in sweep
/// accounting: its `pwb` neither ticks the crash countdown, nor records a
/// trace event, nor counts in the per-site stats.
#[test]
fn masked_site_is_invisible_at_pool_level() {
    use pmem::{run_crashable, PmemPool, PoolCfg, SiteId};
    let pool = PmemPool::new(PoolCfg {
        trace: true,
        ..PoolCfg::model(1 << 20)
    });
    let a = pool.alloc_lines(1);
    pool.store(a, 1);
    let site = SiteId(7);
    pool.set_site_enabled(site, false);

    let events_before = pool.trace_snapshot().total();
    pool.crash_ctl().arm_after(0); // the very next counted event fires
    pool.pwb(a, site); // masked: must not be that event
    assert!(
        !pool.crash_ctl().raised(),
        "masked pwb ticked the crash countdown"
    );
    assert_eq!(
        pool.trace_snapshot().total(),
        events_before,
        "masked pwb recorded a trace event"
    );
    assert_eq!(pool.stats().pwb_at(site), 0, "masked pwb was counted");

    // The countdown is still pending: the next *unmasked* event fires it
    // (and the crash preempts the fence, so nothing is traced for it).
    assert!(run_crashable(|| pool.psync()).is_none());

    // Re-enabled, the same call is visible again.
    pool.set_site_enabled(site, true);
    pool.pwb(a, site);
    assert_eq!(pool.stats().pwb_at(site), 1);
    assert_eq!(pool.trace_snapshot().total(), events_before + 1); // the pwb
}
