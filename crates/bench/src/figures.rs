//! Figure drivers: one function per figure of the paper's evaluation.
//!
//! Every driver mirrors the measurement protocol Section 5 describes:
//!
//! * **3a/4a** — throughput of the five implementations across threads;
//! * **3b/4b** — `psync`s per operation;
//! * **3c/4c** — throughput with all `psync`/`pfence` removed, against the
//!   full version (Tracking and Capsules-Opt — the pairs whose overlap is
//!   the paper's "psync cost is negligible" finding);
//! * **3d/4d** — `pwb`s per operation;
//! * **3e/4e** — executed `pwb`s split into the low/medium/high impact
//!   categories (single-site impact measured against the persistence-free
//!   version; thresholds 10 % and 30 % as in the paper);
//! * **3f/4f** — the combined-impact sweep: full version, then remove
//!   category L, then M, then H (the last point being `[no pwbs]`);
//! * **5/6** — the X-caused performance loss: persistence-free plus
//!   exactly one category, for X ∈ {L, M, H}.

use std::path::PathBuf;
use std::time::Duration;

use pmem::{Backend, SiteId};

use crate::adapter::AlgoKind;
use crate::csv::Csv;
use crate::workload::{run, Mix, RunCfg};

/// Impact categories of `pwb` code lines (paper's L/M/H).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Category {
    /// ≤ 10 % single-site performance loss.
    Low,
    /// 10–30 %.
    Medium,
    /// > 30 %.
    High,
}

impl Category {
    fn of(impact: f64) -> Category {
        if impact <= 0.10 {
            Category::Low
        } else if impact <= 0.30 {
            Category::Medium
        } else {
            Category::High
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Low => "L",
            Category::Medium => "M",
            Category::High => "H",
        }
    }
}

/// Sweep-wide configuration shared by all figure drivers.
#[derive(Clone, Debug)]
pub struct FigCfg {
    /// Thread counts for the X axis.
    pub threads: Vec<usize>,
    /// Timed window per data point.
    pub duration: Duration,
    /// Key range (paper: 500).
    pub key_range: u64,
    /// Pool capacity per run.
    pub pool_bytes: usize,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Thread count at which single-site impacts are measured.
    pub categorize_threads: usize,
}

impl Default for FigCfg {
    fn default() -> Self {
        FigCfg {
            threads: vec![1, 2, 4, 8],
            duration: Duration::from_millis(300),
            key_range: 500,
            pool_bytes: 1 << 30,
            out_dir: PathBuf::from("results"),
            categorize_threads: 4,
        }
    }
}

impl FigCfg {
    /// A very small configuration for smoke tests and `cargo bench` runs.
    pub fn smoke() -> Self {
        FigCfg {
            threads: vec![2],
            duration: Duration::from_millis(60),
            key_range: 128,
            pool_bytes: 512 << 20,
            categorize_threads: 2,
            ..Default::default()
        }
    }

    fn base(&self, kind: AlgoKind, threads: usize, mix: Mix) -> RunCfg {
        RunCfg {
            kind,
            threads,
            duration: self.duration,
            key_range: self.key_range,
            mix,
            pool_bytes: self.pool_bytes,
            backend: Backend::Clflush,
            seed: 0xD1CE,
            psync_enabled: true,
            site_mask: u64::MAX,
        }
    }
}

fn mixname(mix: Mix) -> &'static str {
    if mix.find_pct >= 50 {
        "read-intensive"
    } else {
        "update-intensive"
    }
}

/// Figures 3a / 4a: throughput vs threads for the five implementations.
pub fn fig_throughput(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "threads", "mops", "ops"]);
    for kind in AlgoKind::paper_lineup() {
        for &t in &cfg.threads {
            let r = run(&cfg.base(kind, t, mix));
            csv.push(&[
                kind.name().to_string(),
                t.to_string(),
                format!("{:.4}", r.mops()),
                r.ops.to_string(),
            ]);
        }
    }
    csv
}

/// Figures 3b / 4b: `psync`s per operation (counting backend — the counts
/// are backend-independent and the no-op backend keeps the sweep fast).
pub fn fig_psyncs(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "threads", "psync_per_op"]);
    for kind in AlgoKind::paper_lineup() {
        for &t in &cfg.threads {
            let mut rc = cfg.base(kind, t, mix);
            rc.backend = Backend::Noop;
            let r = run(&rc);
            csv.push(&[
                kind.name().to_string(),
                t.to_string(),
                format!("{:.3}", r.psync_per_op()),
            ]);
        }
    }
    csv
}

/// Figures 3c / 4c: full vs `[no psyncs]` throughput for Tracking and
/// Capsules-Opt.
pub fn fig_no_psync(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["variant", "threads", "mops"]);
    for kind in [AlgoKind::Tracking, AlgoKind::CapsulesOpt] {
        for &t in &cfg.threads {
            let full = run(&cfg.base(kind, t, mix));
            let mut rc = cfg.base(kind, t, mix);
            rc.psync_enabled = false;
            let nosync = run(&rc);
            csv.push(&[
                kind.name().to_string(),
                t.to_string(),
                format!("{:.4}", full.mops()),
            ]);
            csv.push(&[
                format!("{}[no psyncs]", kind.name()),
                t.to_string(),
                format!("{:.4}", nosync.mops()),
            ]);
        }
    }
    csv
}

/// Figures 3d / 4d: `pwb`s per operation.
pub fn fig_pwbs(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "threads", "pwb_per_op"]);
    for kind in AlgoKind::paper_lineup() {
        for &t in &cfg.threads {
            let mut rc = cfg.base(kind, t, mix);
            rc.backend = Backend::Noop;
            let r = run(&rc);
            csv.push(&[
                kind.name().to_string(),
                t.to_string(),
                format!("{:.3}", r.pwb_per_op()),
            ]);
        }
    }
    csv
}

/// One categorized site: id, name, measured single-site impact, class.
#[derive(Clone, Debug)]
pub struct SiteImpact {
    /// Site id.
    pub site: SiteId,
    /// Site name (from the algorithm's site table).
    pub name: &'static str,
    /// Relative throughput loss of enabling only this site over the
    /// persistence-free version.
    pub impact: f64,
    /// The L/M/H class.
    pub category: Category,
}

/// The paper's single-site categorization methodology: measure the
/// persistence-free version, then each `pwb` code line alone (psync stays
/// removed), and classify by relative loss.
pub fn categorize(cfg: &FigCfg, mix: Mix, kind: AlgoKind) -> Vec<SiteImpact> {
    let t = cfg.categorize_threads;
    let mut free = cfg.base(kind, t, mix);
    free.psync_enabled = false;
    free.site_mask = 0;
    let base = run(&free).mops();
    // Discover the algorithm's sites from its site table.
    let sites: &[(SiteId, &'static str)] = {
        // a throwaway build to query the table
        let pool = std::sync::Arc::new(pmem::PmemPool::new(pmem::PoolCfg {
            capacity: 16 << 20,
            backend: Backend::Noop,
            shadow: false,
            max_threads: 8,
            ..Default::default()
        }));
        crate::adapter::build(kind, pool, 1, cfg.key_range).sites()
    };
    let mut out = Vec::new();
    for &(site, name) in sites {
        let mut rc = cfg.base(kind, t, mix);
        rc.psync_enabled = false;
        rc.site_mask = 1u64 << site.0;
        let r = run(&rc);
        if r.pwb_total() == 0 {
            continue; // site never executes under this policy/mix
        }
        let impact = (1.0 - r.mops() / base).max(0.0);
        out.push(SiteImpact {
            site,
            name,
            impact,
            category: Category::of(impact),
        });
    }
    out
}

fn mask_of(sites: &[SiteImpact], pred: impl Fn(&SiteImpact) -> bool) -> u64 {
    sites
        .iter()
        .filter(|s| pred(s))
        .fold(0u64, |m, s| m | 1u64 << s.site.0)
}

/// Figures 3e / 4e: executed `pwb`s per impact category, for Tracking and
/// Capsules-Opt. Also records each site's measured impact (the raw data of
/// the categorization).
pub fn fig_pwb_categories(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(
        name,
        &["algo", "site", "impact_pct", "category", "pwbs_per_op"],
    );
    for kind in [AlgoKind::Tracking, AlgoKind::CapsulesOpt] {
        let sites = categorize(cfg, mix, kind);
        // Count executed pwbs per site in a full (all sites) counting run.
        let mut rc = cfg.base(kind, cfg.categorize_threads, mix);
        rc.backend = Backend::Noop;
        let full = run(&rc);
        for s in &sites {
            let per_op = full.pwb_per_site[s.site.0 as usize] as f64 / full.ops.max(1) as f64;
            csv.push(&[
                kind.name().to_string(),
                s.name.to_string(),
                format!("{:.1}", s.impact * 100.0),
                s.category.label().to_string(),
                format!("{:.3}", per_op),
            ]);
        }
        for cat in [Category::Low, Category::Medium, Category::High] {
            let total: u64 = sites
                .iter()
                .filter(|s| s.category == cat)
                .map(|s| full.pwb_per_site[s.site.0 as usize])
                .sum();
            csv.push(&[
                kind.name().to_string(),
                format!("TOTAL-{}", cat.label()),
                String::new(),
                cat.label().to_string(),
                format!("{:.3}", total as f64 / full.ops.max(1) as f64),
            ]);
        }
    }
    csv
}

/// Figures 3f / 4f: the combined impact of removing categories one by one:
/// full → −L → −L−M → −L−M−H (= `[no pwbs]`), across threads.
pub fn fig_category_sweep(cfg: &FigCfg, mix: Mix, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["variant", "threads", "mops"]);
    for kind in [AlgoKind::Tracking, AlgoKind::CapsulesOpt] {
        let sites = categorize(cfg, mix, kind);
        let all = mask_of(&sites, |_| true);
        let not_l = mask_of(&sites, |s| s.category != Category::Low);
        let only_h = mask_of(&sites, |s| s.category == Category::High);
        let variants: [(String, u64); 4] = [
            (kind.name().to_string(), u64::MAX),
            (format!("{}[-L]", kind.name()), not_l | !all),
            (format!("{}[-L-M]", kind.name()), only_h | !all),
            (format!("{}[no pwbs]", kind.name()), !all),
        ];
        for &t in &cfg.threads {
            for (label, mask) in &variants {
                let mut rc = cfg.base(kind, t, mix);
                rc.site_mask = *mask;
                let r = run(&rc);
                csv.push(&[label.clone(), t.to_string(), format!("{:.4}", r.mops())]);
            }
        }
    }
    csv
}

/// Figures 5 / 6: the X-caused performance loss for one algorithm:
/// persistence-free, free + only category X (X ∈ {L, M, H}), and full,
/// across threads.
pub fn fig_x_loss(cfg: &FigCfg, mix: Mix, kind: AlgoKind, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["variant", "threads", "mops"]);
    let sites = categorize(cfg, mix, kind);
    let cats = [
        ("persistence-free", 0u64),
        ("+L", mask_of(&sites, |s| s.category == Category::Low)),
        ("+M", mask_of(&sites, |s| s.category == Category::Medium)),
        ("+H", mask_of(&sites, |s| s.category == Category::High)),
    ];
    for &t in &cfg.threads {
        for (label, mask) in &cats {
            let mut rc = cfg.base(kind, t, mix);
            rc.psync_enabled = false;
            rc.site_mask = *mask;
            let r = run(&rc);
            csv.push(&[label.to_string(), t.to_string(), format!("{:.4}", r.mops())]);
        }
        let full = run(&cfg.base(kind, t, mix));
        csv.push(&[
            "full".to_string(),
            t.to_string(),
            format!("{:.4}", full.mops()),
        ]);
    }
    csv
}

/// Ablation study (beyond the paper's figures): what Tracking's two design
/// choices buy. Compares the paper's configuration against the naive
/// flush-every-read placement and against disabling the read-only
/// optimization, reporting throughput and pwb volume.
pub fn fig_ablation(cfg: &FigCfg, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["variant", "mix", "threads", "mops", "pwb_per_op"]);
    let variants = [
        AlgoKind::Tracking,
        AlgoKind::TrackingNaive,
        AlgoKind::TrackingNoReadOpt,
        AlgoKind::CapsulesOpt,
    ];
    for mix in [Mix::READ_INTENSIVE, Mix::UPDATE_INTENSIVE] {
        for kind in variants {
            for &t in &cfg.threads {
                let r = run(&cfg.base(kind, t, mix));
                csv.push(&[
                    kind.name().to_string(),
                    mixname(mix).to_string(),
                    t.to_string(),
                    format!("{:.4}", r.mops()),
                    format!("{:.2}", r.pwb_per_op()),
                ]);
            }
        }
    }
    csv
}

/// Key-range sweep (the paper's appendix: "experiments for other ranges …
/// exhibit the same trends").
pub fn fig_range_sweep(cfg: &FigCfg, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "range", "mops"]);
    let t = cfg.categorize_threads;
    for range in [100u64, 500, 2000] {
        for kind in AlgoKind::paper_lineup() {
            let mut rc = cfg.base(kind, t, Mix::UPDATE_INTENSIVE);
            rc.key_range = range;
            let r = run(&rc);
            csv.push(&[
                kind.name().to_string(),
                range.to_string(),
                format!("{:.4}", r.mops()),
            ]);
        }
    }
    csv
}

/// Operation-mix sweep (the paper: "results for other operation type
/// distributions were similar").
pub fn fig_mix_sweep(cfg: &FigCfg, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "find_pct", "mops", "pwb_per_op"]);
    let t = cfg.categorize_threads;
    for find_pct in [0u32, 30, 50, 70, 90, 100] {
        for kind in [AlgoKind::Tracking, AlgoKind::CapsulesOpt] {
            let r = run(&cfg.base(kind, t, Mix { find_pct }));
            csv.push(&[
                kind.name().to_string(),
                find_pct.to_string(),
                format!("{:.4}", r.mops()),
                format!("{:.2}", r.pwb_per_op()),
            ]);
        }
    }
    csv
}

/// Universal-construction head-to-head (checks the paper's parenthetical
/// claim that "RedoOpt constantly outperformed OneFile and all other
/// algorithms in \[16\]"): RedoOpt's whole-object copies vs OneFile's
/// word-granular redo logs, both mixes.
pub fn fig_uc_compare(cfg: &FigCfg, name: &str) -> Csv {
    let mut csv = Csv::new(name, &["algo", "mix", "threads", "mops", "pwb_per_op"]);
    for mix in [Mix::READ_INTENSIVE, Mix::UPDATE_INTENSIVE] {
        for kind in [AlgoKind::RedoOpt, AlgoKind::OneFile] {
            for &t in &cfg.threads {
                let r = run(&cfg.base(kind, t, mix));
                csv.push(&[
                    kind.name().to_string(),
                    mixname(mix).to_string(),
                    t.to_string(),
                    format!("{:.4}", r.mops()),
                    format!("{:.2}", r.pwb_per_op()),
                ]);
            }
        }
    }
    csv
}

/// Per-site cost attribution (beyond the paper's figures), built on the
/// pmem trace/lint instrumentation: for every algorithm, a deterministic
/// single-threaded workload runs with the flush lint enabled and the table
/// reports, per `pwb` call site, the executed flush count, flushes per
/// operation, the fraction of flushes that wrote back a genuinely dirty
/// line (`dirty_ratio` — low values mean the site mostly re-flushes clean
/// lines), and the absolute number of redundant flushes. `unflushed` counts
/// lint findings whose lost store originated at the site (non-zero only
/// for lines legitimately in flight when the run stopped, or for real
/// durability gaps).
pub fn fig_attribution(cfg: &FigCfg, name: &str) -> Csv {
    use pmem::LintKind;
    let mut csv = Csv::new(
        name,
        &[
            "algo",
            "site",
            "name",
            "pwbs",
            "pwb_per_op",
            "dirty_ratio",
            "redundant",
            "unflushed",
        ],
    );
    const OPS: u64 = 4_000;
    let kinds = [
        AlgoKind::Tracking,
        AlgoKind::TrackingBst,
        AlgoKind::Capsules,
        AlgoKind::CapsulesOpt,
        AlgoKind::Romulus,
        AlgoKind::RedoOpt,
        AlgoKind::OneFile,
    ];
    for kind in kinds {
        let pool = std::sync::Arc::new(pmem::PmemPool::new(pmem::PoolCfg {
            capacity: 256 << 20,
            backend: Backend::Noop,
            shadow: false,
            max_threads: 8,
            lint: true,
            ..Default::default()
        }));
        let algo = crate::adapter::build(kind, pool.clone(), 1, cfg.key_range);
        let ctx = pmem::ThreadCtx::new(pool.clone(), 0);
        // Attribute only steady-state operations, not construction.
        pool.stats_reset();
        pool.lint_clear();
        let mut rng = 0x5EED_D1CEu64;
        for i in 0..OPS {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % cfg.key_range + 1;
            match i % 4 {
                0 => {
                    algo.insert(&ctx, key);
                }
                2 => {
                    algo.delete(&ctx, key);
                }
                _ => {
                    algo.find(&ctx, key);
                }
            }
        }
        let stats = pool.stats();
        let report = pool.lint_report();
        for (site, pwbs) in stats.site_rows() {
            let unflushed = report
                .of_kind(LintKind::UnflushedDirty)
                .filter(|d| d.site == site.0)
                .count();
            csv.push(&[
                kind.name().to_string(),
                site.0.to_string(),
                pool.site_name(site).unwrap_or("?").to_string(),
                pwbs.to_string(),
                format!("{:.3}", pwbs as f64 / OPS as f64),
                format!("{:.3}", report.dirty_ratio(site)),
                report.pwb_redundant[site.0 as usize].to_string(),
                unflushed.to_string(),
            ]);
        }
    }
    csv
}

/// Runs every figure of the paper and writes the CSVs. Returns the list of
/// written files.
pub fn run_all(cfg: &FigCfg) -> Vec<PathBuf> {
    let mut written = Vec::new();
    let mut emit = |csv: Csv| {
        println!("\n== {} ==\n{}", csv.name(), csv.to_text());
        written.push(csv.write(&cfg.out_dir).expect("writing CSV"));
    };
    for (mix, f) in [
        (Mix::READ_INTENSIVE, "fig3"),
        (Mix::UPDATE_INTENSIVE, "fig4"),
    ] {
        emit(fig_throughput(
            cfg,
            mix,
            &format!("{f}a_throughput_{}", mixname(mix)),
        ));
        emit(fig_psyncs(
            cfg,
            mix,
            &format!("{f}b_psyncs_{}", mixname(mix)),
        ));
        emit(fig_no_psync(
            cfg,
            mix,
            &format!("{f}c_no_psync_{}", mixname(mix)),
        ));
        emit(fig_pwbs(cfg, mix, &format!("{f}d_pwbs_{}", mixname(mix))));
        emit(fig_pwb_categories(
            cfg,
            mix,
            &format!("{f}e_pwb_categories_{}", mixname(mix)),
        ));
        emit(fig_category_sweep(
            cfg,
            mix,
            &format!("{f}f_category_sweep_{}", mixname(mix)),
        ));
    }
    emit(fig_x_loss(
        cfg,
        Mix::UPDATE_INTENSIVE,
        AlgoKind::Tracking,
        "fig5_x_loss_tracking",
    ));
    emit(fig_x_loss(
        cfg,
        Mix::UPDATE_INTENSIVE,
        AlgoKind::CapsulesOpt,
        "fig6_x_loss_capsules_opt",
    ));
    emit(fig_ablation(cfg, "ablation_tracking_design_choices"));
    emit(fig_range_sweep(cfg, "appendix_range_sweep"));
    emit(fig_mix_sweep(cfg, "appendix_mix_sweep"));
    emit(fig_uc_compare(cfg, "appendix_uc_compare"));
    emit(fig_attribution(cfg, "appendix_site_attribution"));
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_thresholds() {
        assert_eq!(Category::of(0.05), Category::Low);
        assert_eq!(Category::of(0.10), Category::Low);
        assert_eq!(Category::of(0.2), Category::Medium);
        assert_eq!(Category::of(0.30), Category::Medium);
        assert_eq!(Category::of(0.5), Category::High);
    }

    #[test]
    fn attribution_emits_rows_for_every_algo() {
        let cfg = FigCfg::smoke();
        let csv = fig_attribution(&cfg, "attribution_test");
        let text = csv.to_text();
        for algo in ["Tracking", "Capsules-Opt", "Romulus", "RedoOpt", "OneFile"] {
            assert!(text.contains(algo), "missing rows for {algo}:\n{text}");
        }
        // site names resolved through the pool registry, not left unknown
        assert!(
            text.contains("new-node") || text.contains("result"),
            "{text}"
        );
    }

    #[test]
    fn categorize_tracking_smoke() {
        let cfg = FigCfg::smoke();
        let sites = categorize(&cfg, Mix::UPDATE_INTENSIVE, AlgoKind::Tracking);
        assert!(!sites.is_empty(), "tracking must have active pwb sites");
        // every executed site got a class
        for s in &sites {
            assert!(
                s.impact >= 0.0 && s.impact <= 1.0,
                "{}: {}",
                s.name,
                s.impact
            );
        }
    }

    #[test]
    fn fig_throughput_smoke() {
        let cfg = FigCfg::smoke();
        let csv = fig_throughput(&cfg, Mix::READ_INTENSIVE, "smoke_fig3a");
        let text = csv.to_text();
        for kind in AlgoKind::paper_lineup() {
            assert!(text.contains(kind.name()), "{} missing", kind.name());
        }
    }
}
