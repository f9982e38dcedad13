//! `svcbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <kv-read|kv-churn|list-update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two closed-loop clients drive one workload through the public APIs of
//! `tracking` and `pmem`, every response is checked, and the last line of
//! standard output is one JSON object with the metrics: the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1`. See
//! `svcbench/README.md` for the workloads and metrics.

mod check;
mod host;
mod ladder;
mod service;
mod store;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use pmem::{Backend, SiteId, StatsSnapshot, PALLOC_SITES};
use tracking::hashmap::HashMapConfig;

use check::{checker_selftest, Tally};
use ladder::{LadderOut, Rung};
use service::{request_budget, run_window, PoolPlan, Service, WindowOut};
use workload::{Op, Spec, Structure, CLIENTS};

const USAGE: &str = "usage: svcbench --workload <kv-read|kv-churn|list-update> --seed <n> --seconds <s> --trace <0|1>";

/// Setups per untraced run: at least `MIN_SETUPS`, more while they have
/// taken under `SETUP_TIME_S` (short setups need many samples for a
/// steady median), at most `MAX_SETUPS`. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_TIME_S: f64 = 1.0;
/// Groups of consecutive epochs a window is cut into: throughput and
/// latency percentiles are the median of their per-group values, so a
/// short disturbance moves one group, not the result.
const GROUPS: usize = 20;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::spec(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// One run's result: the final JSON line plus the context printed above it.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    notes: Vec<String>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn fail(&mut self, note: String) {
        self.tally.failed += 1;
        self.notes.push(note);
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.notes.is_empty()
    }

    fn print(&self, host: &host::Host) {
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<40} {:>14.4} {}{n}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        let mut ctx = format!("{{\"host\":{}", host.json());
        for (k, v) in &self.context {
            write!(ctx, ",\"{k}\":{v}").expect("writing to a String");
        }
        println!("{{\"context\":{ctx}}}}}");
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                line,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
            .expect("writing to a String");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nearest-rank quantile of ns samples, in µs.
fn quantile_us(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(k).1 as f64 / 1e3
}

fn quantile_f64(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[k]
}

/// Reboots per group of consecutive reboots, at least.
const MIN_REBOOTS_PER_GROUP: usize = 10;

/// The `q`-quantile of each group of consecutive samples (up to `GROUPS`
/// groups of at least `MIN_REBOOTS_PER_GROUP`), then their median, so a
/// burst of host noise during a few reboots moves one group, not the
/// result.
fn grouped_quantile(v: &[f64], q: f64) -> f64 {
    let n = (v.len() / MIN_REBOOTS_PER_GROUP).clamp(1, GROUPS);
    let per_group: Vec<f64> = (0..n)
        .map(|g| quantile_f64(&v[g * v.len() / n..(g + 1) * v.len() / n], q))
        .collect();
    quantile_f64(&per_group, 0.5)
}

/// Median over epoch groups of completed requests per second.
fn median_throughput_kops(groups: &[service::Group]) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .map(|g| g.completed as f64 / g.seconds / 1e3)
        .collect();
    quantile_f64(&per_group, 0.5)
}

fn service_plan(spec: &Spec, seconds: f64) -> PoolPlan {
    PoolPlan {
        backend: Backend::Clflush,
        masked_load: false,
        requests: request_budget(spec, seconds),
    }
}

fn site_id(name: &str) -> Option<SiteId> {
    tracking::sites::SITES
        .iter()
        .chain(PALLOC_SITES.iter())
        .find(|(_, n)| *n == name)
        .map(|(id, _)| *id)
}

/// The pwb sites the three workloads execute, by registered name.
const SITE_METRICS: [&str; 15] = [
    "cp",
    "rd",
    "desc",
    "new-node",
    "tag-info",
    "backtrack-info",
    "updated-field",
    "result",
    "cleanup-info",
    "level",
    "migrate-cursor",
    "palloc-head",
    "palloc-limbo",
    "palloc-cursor",
    "palloc-block",
];

/// Per-site pwb counts and the fence counts, as a JSON object.
fn site_counts_json(s: &StatsSnapshot) -> String {
    let mut out = String::from("{");
    for (i, name) in SITE_METRICS.iter().enumerate() {
        let n = site_id(name).map_or(0, |id| s.pwb_at(id));
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\"{name}\":{n}").expect("writing to a String");
    }
    write!(out, ",\"psync\":{},\"pfence\":{}}}", s.psync, s.pfence).expect("writing to a String");
    out
}

/// Checks that run before every measurement: the checker must count a
/// wrong response and a lost put.
fn selftest(report: &mut Report) {
    let t = checker_selftest();
    if t.failed != 2 {
        report.fail(format!(
            "checker self-test counted {} of 2 planted failures",
            t.failed
        ));
    }
    report.context.push((
        "checker_selftest",
        format!(
            "{{\"planted\":2,\"counted\":{},\"attempted\":{},\"error_rate\":{}}}",
            t.failed,
            t.attempted,
            t.error_rate()
        ),
    ));
}

fn window_checks(report: &mut Report, w: &WindowOut) {
    report.tally.add(w.tally());
    if w.refused {
        report.notes.push(
            "the pool ran short of its request budget: the window was stopped early and refused requests counted failed"
                .to_string(),
        );
    }
}

fn final_checks(report: &mut Report, svc: &Service) {
    let bad = svc.verify();
    if bad > 0 {
        report.fail(format!(
            "final verification found {bad} mismatching keys or a broken invariant"
        ));
    }
}

fn untraced(args: &Args, report: &mut Report) {
    let spec = args.spec;
    let mut setup_s = Vec::new();
    let mut svc = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_TIME_S)
    {
        drop(svc.take());
        let s = Service::setup(spec, args.seed, service_plan(spec, args.seconds));
        setup_s.push(s.setup_s);
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one setup");
    let space = svc.used_bytes as f64 / svc.live_keys as f64;
    let w = run_window(&mut svc, args.seconds, false, spec.power_failures as u64);
    window_checks(report, &w);
    final_checks(report, &svc);

    let mut groups = w.groups(GROUPS);
    report.metric(
        "throughput_kops",
        median_throughput_kops(&groups),
        "kops/s",
        Some(groups.len()),
    );
    for op in Op::ALL {
        let n = Some(groups.iter().map(|g| g.lat[op.idx()].len()).sum());
        for (q, name) in [(0.50, "p50"), (0.99, "p99")] {
            let per_group: Vec<f64> = groups
                .iter_mut()
                .map(|g| quantile_us(&mut g.lat[op.idx()], q))
                .collect();
            report.metric(
                format!("{}_{name}_us", op.name()),
                quantile_f64(&per_group, 0.5),
                "us",
                n,
            );
        }
    }
    let ttfs: Vec<f64> = w.reboots.iter().map(|r| r.total_ns as f64 / 1e3).collect();
    for (q, name) in [(0.50, "recover_p50_us"), (0.90, "recover_p90_us")] {
        report.metric(name, grouped_quantile(&ttfs, q), "us", Some(ttfs.len()));
    }
    report.metric(
        "setup_s",
        quantile_f64(&setup_s, 0.5),
        "s",
        Some(setup_s.len()),
    );
    report.metric("space_bytes_per_key", space, "B", None);

    let stats = w.close.stats.delta(&w.open.stats);
    report
        .context
        .push(("mean_throughput_kops", format!("{}", w.throughput_kops())));
    let per_group: Vec<String> = groups
        .iter()
        .map(|g| format!("{:.1}", g.completed as f64 / g.seconds / 1e3))
        .collect();
    report.context.push((
        "group_throughput_kops",
        format!("[{}]", per_group.join(",")),
    ));
    report.context.push(("window_s", format!("{}", w.window_s)));
    report
        .context
        .push(("completed", format!("{}", w.completed())));
    report
        .context
        .push(("power_failures", format!("{}", w.reboots.len())));
    report
        .context
        .push(("window_persist_counts", site_counts_json(&stats)));
}

fn traced(args: &Args, report: &mut Report) {
    let spec = args.spec;
    let mut svc = Service::setup(spec, args.seed, service_plan(spec, args.seconds));
    let setup_buckets = svc.buckets;
    let half = args.seconds / 2.0;
    let plain = run_window(&mut svc, half, false, 0);
    window_checks(report, &plain);
    let w = run_window(&mut svc, half, true, spec.power_failures as u64);
    window_checks(report, &w);
    final_checks(report, &svc);
    let final_buckets = svc.store.bucket_count();
    let live_keys = svc.live_keys;
    drop(svc);
    let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
    match trace::write_spans(&trace_path, &w) {
        Ok(omitted) => report.context.push((
            "spans",
            format!(
                "{{\"file\":\"{}\",\"request_spans_not_written\":{omitted}}}",
                trace_path.display()
            ),
        )),
        Err(e) => report.notes.push(format!(
            "could not write spans to {}: {e}",
            trace_path.display()
        )),
    }
    let ladder = ladder::run(spec, args.seed);
    report.tally.add(ladder.tally);
    layer_metrics(
        report,
        spec,
        &w,
        &plain,
        &ladder,
        setup_buckets,
        final_buckets,
        live_keys,
    );
    report.context.push((
        "window_persist_counts",
        site_counts_json(&w.close.stats.delta(&w.open.stats)),
    ));
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    spec: &Spec,
    w: &WindowOut,
    plain: &WindowOut,
    ladder: &LadderOut,
    setup_buckets: u64,
    final_buckets: u64,
    live_keys: u64,
) {
    let reqs = w.completed().max(1) as f64;
    for rung in Rung::ALL {
        report.metric(
            format!("ladder.{}_ns_per_op", rung.name()),
            ladder.rung(rung).ns_per_op,
            "ns/op",
            None,
        );
    }
    let fo = &ladder.rung(Rung::Flushopt).stats;
    report.metric(
        "pmem.flushopt.pwb_elided_per_op",
        fo.pwb_elided_total() as f64 / ladder::LADDER_REQS as f64,
        "count/op",
        None,
    );

    let stats = w.close.stats.delta(&w.open.stats);
    report.metric(
        "pmem.persist.pwb_per_op",
        stats.pwb_total() as f64 / reqs,
        "count/op",
        None,
    );
    report.metric(
        "pmem.persist.psync_per_op",
        (stats.psync + stats.pfence) as f64 / reqs,
        "count/op",
        None,
    );
    for name in SITE_METRICS {
        let n = site_id(name).map_or(0, |id| stats.pwb_at(id));
        report.metric(
            format!("pmem.persist.pwb_per_op.{name}"),
            n as f64 / reqs,
            "count/op",
            None,
        );
    }
    let lines = w.open.remaining_lines as f64 - w.close.remaining_lines as f64;
    report.metric("pmem.pool.lines_per_op", lines / reqs, "count/op", None);
    report.metric(
        "pmem.pool.events_per_op",
        ladder.events_per_op,
        "count/op",
        None,
    );

    let (resizes, buckets_per_key) = match spec.structure {
        Structure::Map => (
            (final_buckets / HashMapConfig::default().initial_buckets).ilog2() as f64,
            setup_buckets as f64 / live_keys as f64,
        ),
        Structure::List => (0.0, 0.0),
    };
    report.metric("tracking.hashmap.resizes", resizes, "count", None);
    report.metric(
        "tracking.hashmap.buckets_per_key",
        buckets_per_key,
        "count",
        None,
    );
    let updates: u64 = w.clients.iter().map(|c| c.updates).sum();
    let effective: u64 = w.clients.iter().map(|c| c.effective).sum();
    report.metric(
        "tracking.update_success_frac",
        effective as f64 / updates.max(1) as f64,
        "fraction",
        Some(updates as usize),
    );

    let bounds: Vec<_> = w.clients.iter().flat_map(|c| c.boundaries.iter()).collect();
    let drains: Vec<f64> = bounds.iter().map(|b| b.drain_ns() as f64 / 1e3).collect();
    let drain_total: f64 = drains.iter().sum();
    let waits: f64 = bounds.iter().map(|b| b.wait_ns() as f64 / 1e3).sum();
    report.metric(
        "pmem.palloc.drain_us",
        quantile_f64(&drains, 0.5),
        "us",
        Some(drains.len()),
    );
    report.metric(
        "pmem.palloc.drain_share",
        drain_total / 1e6 / (w.window_s * CLIENTS as f64),
        "fraction",
        None,
    );
    let limbo: usize = w.boundaries.iter().map(|c| c.limbo_blocks).sum();
    report.metric(
        "pmem.palloc.limbo_blocks_per_drain",
        limbo as f64 / (w.boundaries.len().max(1) * CLIENTS) as f64,
        "count",
        Some(drains.len()),
    );
    report.metric(
        "bench.client.quiesce_wait_us",
        waits / bounds.len().max(1) as f64,
        "us",
        Some(bounds.len()),
    );

    let rb = &w.reboots;
    let med = |f: &dyn Fn(&service::Reboot) -> f64| {
        quantile_f64(&rb.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    report.metric(
        "pmem.palloc.recover_allocator_us",
        med(&|r| r.alloc_ns as f64 / 1e3),
        "us",
        Some(rb.len()),
    );
    report.metric(
        "pmem.palloc.free_blocks",
        med(&|r| r.free_blocks as f64),
        "count",
        Some(rb.len()),
    );
    report.metric(
        "tracking.attach_us",
        med(&|r| r.attach_ns as f64 / 1e3),
        "us",
        Some(rb.len()),
    );
    let recs: Vec<f64> = rb
        .iter()
        .flat_map(|r| r.recover_ns.iter().map(|x| x.1 as f64 / 1e3))
        .collect();
    report.metric(
        "tracking.recover_op_us",
        quantile_f64(&recs, 0.5),
        "us",
        Some(recs.len()),
    );
    report.metric(
        "tracking.first_get_us",
        med(&|r| r.first_get_ns as f64 / 1e3),
        "us",
        Some(rb.len()),
    );
    report.metric(
        "bench.reboot_child_share",
        med(&|r| r.children_ns() as f64 / r.total_ns.max(1) as f64),
        "fraction",
        Some(rb.len()),
    );

    let spans: Vec<_> = w.clients.iter().flat_map(|c| c.req_spans.iter()).collect();
    let self_ns: f64 = spans
        .iter()
        .map(|s| ((s.end - s.start) - (s.op_end - s.op_start)) as f64)
        .sum();
    report.metric(
        "bench.request_self_ns",
        self_ns / spans.len().max(1) as f64,
        "ns/op",
        Some(spans.len()),
    );
    report.metric(
        "bench.trace_overhead",
        median_throughput_kops(&w.groups(GROUPS)) / median_throughput_kops(&plain.groups(GROUPS)),
        "ratio",
        None,
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::Host::probe();
    let mut report = Report::default();
    report
        .context
        .push(("workload", format!("\"{}\"", args.spec.name)));
    report.context.push(("seed", args.seed.to_string()));
    report.context.push(("seconds", args.seconds.to_string()));
    report
        .context
        .push(("trace", (args.trace as u8).to_string()));
    report
        .context
        .push(("clients", format!("\"{CLIENTS} closed-loop threads\"")));
    selftest(&mut report);
    if args.trace {
        traced(&args, &mut report);
    } else {
        untraced(&args, &mut report);
    }
    report
        .context
        .push(("error_rate", format!("{}", report.tally.error_rate())));
    report.print(&host);
    if !report.correct() {
        std::process::exit(1);
    }
}
