//! Wall-clock end-to-end benchmark of the PaStiX reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <solve_stream|refactor_shell|refactor_solid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same request sequence untraced and then traced,
//! and prints the per-layer ledger. Every solution is verified; the last
//! line of standard output is one JSON object with the result, and the
//! exit code is non-zero when any output was wrong. See `README.md`.

mod check;
mod inputs;
mod ledger;
mod probes;
mod refactor;
mod stats;
mod stream;

use check::Checks;
use inputs::{Workload, PROCS};
use ledger::{Accounts, Ledger};
use refactor::Refactor;
use stats::{mean, median, percentile};
use std::time::Instant;
use stream::{Served, Stream};

const USAGE: &str =
    "usage: e2ebench --workload <solve_stream|refactor_shell|refactor_solid> --seed <n> --seconds <s> --trace <0|1>";
/// Set-ups per run; the median time is reported and the last one is used.
const SETUP_REPS: usize = 7;
/// Share of `solve_stream`'s run spent in the open-loop phase; the rest
/// is the saturated phase.
const OPEN_SHARE: f64 = 0.86;
/// Latency percentiles leave out requests that start in the first
/// `WARMUP_S` seconds of the timed phase, while caches and allocations
/// settle. The rest of the phase is cut into `WINDOWS` equal time
/// windows and the median of the windows' percentiles is reported, so a
/// slowdown of the host that hits one or two windows does not move the
/// result.
const WARMUP_S: f64 = 2.0;
const WINDOWS: usize = 5;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Analyze parallelism is fixed by the workload, not the environment.
    std::env::remove_var("PASTIX_ANALYZE_THREADS");
    // A black box dumped by the flight recorder lands next to the spans.
    pastix_trace::flight::set_blackbox_dir(Some(&out_dir()));
    let cpus = stats::cpus();
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} procs={PROCS} cpus={cpus}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (checks, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for m in &metrics {
        println!("{:<30} {:>16.6} {:<8} cpus={cpus}", m.name, m.value, m.unit);
    }
    println!(
        "verified {} of {} requests, worst scaled residual {:e}",
        checks.passed, checks.attempted, checks.worst_residual
    );
    let correct =
        checks.attempted > 0 && checks.failed() == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Where traced runs write their spans: the Cargo target directory the
/// benchmark was built in.
fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "e2ebench/target".into(), std::path::PathBuf::from)
        .join("e2ebench-spans")
}

/// Runs `setup` [`SETUP_REPS`] times (dropping each state before the
/// next) and returns the last state with the median set-up time in s.
fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS >= 1"), median(&times))
}

/// (due time s since the first due, latency ms from the due time).
fn open_latencies(served: &[Served]) -> Vec<(f64, f64)> {
    let first = served.iter().map(|s| s.due).min().unwrap_or(0);
    served
        .iter()
        .map(|s| (stats::ms(s.due - first) / 1e3, stats::ms(s.finish - s.due)))
        .collect()
}

fn median_latency(samples: &[(f64, f64)]) -> f64 {
    median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
}

/// The end-to-end metrics, tracing off.
fn untraced(args: &Args) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let (lat, span_s, throughput, capacity, setup_s) = match args.workload {
        Workload::SolveStream => {
            let (mut st, setup_s) = timed_setup(|| Stream::setup(args.seed));
            let open_s = args.seconds * OPEN_SHARE;
            let served = st.run_open(open_s, &mut checks);
            let first = served.iter().map(|s| s.due).min().unwrap_or(0);
            let last = served.iter().map(|s| s.finish).max().unwrap_or(0);
            let throughput = served.len() as f64 / (stats::ms(last - first) / 1e3).max(1e-9);
            // Capacity: a full panel per median batch service time.
            let batch_s = st.run_saturated(args.seconds - open_s, &mut checks);
            let capacity = inputs::MAX_PANEL as f64 / median(&batch_s).max(1e-9);
            (
                open_latencies(&served),
                open_s,
                throughput,
                capacity,
                setup_s,
            )
        }
        w => {
            let (mut rf, setup_s) = timed_setup(|| Refactor::setup(w, args.seed));
            let (lat, wall_s) = rf.run(args.seconds, &mut checks);
            let busy_s = lat.iter().map(|s| s.1).sum::<f64>() / 1e3;
            let n = lat.len() as f64;
            (lat, args.seconds, n / wall_s, n / busy_s.max(1e-9), setup_s)
        }
    };
    println!(
        "latency samples: {}, {} after the warm-up, in {WINDOWS} windows",
        lat.len(),
        lat.iter().filter(|s| s.0 >= WARMUP_S).count()
    );
    let pct = |q| stats::windowed_percentile(&lat, WARMUP_S, span_s, WINDOWS, q);
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_ms", pct(0.50), "ms"),
        metric("latency_p90_ms", pct(0.90), "ms"),
        metric("latency_p99_ms", pct(0.99), "ms"),
        metric("throughput_rps", throughput, "1/s"),
        metric("capacity_rps", capacity, "1/s"),
        metric(
            "success_frac",
            checks.passed as f64 / checks.attempted.max(1) as f64,
            "frac",
        ),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ];
    (checks, metrics)
}

/// Session counters over one phase: (cache hit rate, evictions per
/// request).
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheCounters {
    fn read(m: &pastix_solver::MetricsRegistry) -> Self {
        Self {
            hits: m.counter("serve.cache.hits"),
            misses: m.counter("serve.cache.misses"),
            evictions: m.counter("serve.cache.evictions"),
        }
    }

    /// (hit rate, evictions per request) between `self` and `later`.
    fn rates(&self, later: &Self, requests: usize) -> (f64, f64) {
        let hits = (later.hits - self.hits) as f64;
        let lookups = hits + (later.misses - self.misses) as f64;
        let evictions = (later.evictions - self.evictions) as f64;
        (
            hits / lookups.max(1.0),
            evictions / (requests as f64).max(1.0),
        )
    }
}

/// Harness-side numbers of the traced run that are not spans.
struct Traced {
    untraced_p50_ms: f64,
    hit_rate: f64,
    evictions_per_request: f64,
    lookup_ms: f64,
    queue_wait_ms: Vec<f64>,
    batch_width_mean: f64,
    generator_lag_ms: Vec<f64>,
}

/// The per-layer ledger: the request sequence runs untraced for half the
/// time (the overhead baseline and the session counters), then traced
/// for the other half, then the probes run on the workload's inputs.
fn traced(args: &Args) -> (Checks, Vec<Metric>) {
    let half = args.seconds / 2.0;
    let mut checks = Checks::default();
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch);
    let (t, probes) = match args.workload {
        Workload::SolveStream => {
            let mut st = Stream::setup(args.seed);
            let before = CacheCounters::read(st.session.metrics());
            let served = st.run_open(half, &mut checks);
            let (hit_rate, evictions_per_request) =
                before.rates(&CacheCounters::read(st.session.metrics()), served.len());
            let untraced_p50_ms = median_latency(&open_latencies(&served));

            let served = st.run_open_traced(half, &mut checks, &mut ledger, epoch);
            for s in &served {
                let root = ledger.record("request", s.due, s.finish, None, s.id);
                ledger.record("serve.queue_wait", s.due, s.dispatch, Some(root), s.id);
                ledger.request(root, s.batch_span);
            }
            let batches = served
                .iter()
                .filter_map(|s| s.batch_span)
                .collect::<std::collections::BTreeSet<_>>();
            let a = &st.inputs.a;
            let (lookup_ms, hit) = stats::time_median(probes::REPS, || {
                st.session.get_or_factorize_info(a).map(|(_, h)| h)
            });
            assert!(matches!(hit, Ok(true)), "the resident factor must hit");
            let cfg = inputs::miss_config(st.session.options());
            let t = Traced {
                untraced_p50_ms,
                hit_rate,
                evictions_per_request,
                lookup_ms,
                queue_wait_ms: served
                    .iter()
                    .map(|s| stats::ms(s.dispatch - s.due))
                    .collect(),
                batch_width_mean: served.len() as f64 / (batches.len() as f64).max(1.0),
                generator_lag_ms: served
                    .iter()
                    .map(|s| stats::ms(s.submitted - s.due))
                    .collect(),
            };
            (t, probes::run(a, &st.cached.plan, &cfg, args.seed))
        }
        w => {
            let mut rf = Refactor::setup(w, args.seed);
            let before = CacheCounters::read(rf.session.metrics());
            let (lat, _) = rf.run(half, &mut checks);
            let (hit_rate, evictions_per_request) =
                before.rates(&CacheCounters::read(rf.session.metrics()), lat.len());
            // The session now holds the last request's factor: time a hit.
            let (resident, _) = rf.request(checks.attempted - 1);
            let (lookup_ms, hit) = stats::time_median(probes::REPS, || {
                rf.session.get_or_factorize_info(&resident).map(|(_, h)| h)
            });
            assert!(
                matches!(hit, Ok(true)),
                "the last request's factor must hit"
            );

            let (a, plan) = rf.run_traced(half, &mut checks, &mut ledger);
            let t = Traced {
                untraced_p50_ms: median_latency(&lat),
                hit_rate,
                evictions_per_request,
                lookup_ms,
                queue_wait_ms: Vec::new(),
                batch_width_mean: 1.0,
                generator_lag_ms: Vec::new(),
            };
            (
                t,
                probes::run(&a, &plan, &inputs::miss_config(&rf.opts), args.seed),
            )
        }
    };
    let acc = ledger.accounts();
    print_ledger(&acc);
    let path = out_dir().join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match ledger.write(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }

    let med = |name: &str| median(&ledger.durations_ms(name));
    let traced_p50_ms = median(&ledger.latencies_ms());
    let metrics = vec![
        metric("serve.fingerprint_ms", med("serve.fingerprint"), "ms"),
        metric("serve.lookup_ms", t.lookup_ms, "ms"),
        metric(
            "serve.queue_wait_p50_ms",
            percentile(&t.queue_wait_ms, 0.50),
            "ms",
        ),
        metric(
            "serve.queue_wait_p99_ms",
            percentile(&t.queue_wait_ms, 0.99),
            "ms",
        ),
        metric("serve.batch_width_mean", t.batch_width_mean, "rhs"),
        metric("serve.cache_hit_rate", t.hit_rate, "frac"),
        metric(
            "serve.evictions_per_request",
            t.evictions_per_request,
            "count",
        ),
        metric("solver.analyze_ms", med("solver.analyze"), "ms"),
        metric(
            "ordering.nested_dissection_ms",
            med("ordering.nested_dissection"),
            "ms",
        ),
        metric("symbolic.analyze_ms", med("symbolic.analyze"), "ms"),
        metric(
            "sched.map_and_schedule_ms",
            med("sched.map_and_schedule"),
            "ms",
        ),
        metric("graph.permute_ms", probes.permute_ms, "ms"),
        metric("solver.factorize_ms", med("solver.factorize"), "ms"),
        metric(
            "solver.factorize_gflops",
            probes.opc / probes.factorize_ms / 1e6,
            "Gflop/s",
        ),
        metric(
            "solver.factorize_vs_seq",
            probes.factorize_ms / probes.seq_factorize_ms,
            "ratio",
        ),
        metric("sched.solve_schedule_ms", med("sched.solve_schedule"), "ms"),
        metric("solver.solve_ms", med("solver.solve"), "ms"),
        metric("solver.solve1_ms", probes.solve1_ms, "ms"),
        metric("solver.solve_panel_ms", probes.solve_panel_ms, "ms"),
        metric(
            "solver.solve_vs_seq",
            probes.solve1_ms / probes.seq_solve_ms,
            "ratio",
        ),
        metric("solver.factor_mb", probes.factor_mb, "MB"),
        metric("kernels.opc", probes.opc, "flop"),
        metric("runtime.comm_sends", probes.comm_sends, "count"),
        metric("runtime.comm_bytes", probes.comm_bytes, "B"),
        metric("runtime.steals", probes.steals, "count"),
        metric("bench.unaccounted_frac", acc.unaccounted_frac(), "frac"),
        metric(
            "bench.trace_overhead_frac",
            traced_p50_ms / t.untraced_p50_ms - 1.0,
            "frac",
        ),
        metric(
            "bench.generator_lag_p99_ms",
            percentile(&t.generator_lag_ms, 0.99),
            "ms",
        ),
        metric("bench.cpus", stats::cpus() as f64, "count"),
    ];
    println!(
        "sequential baseline: factorize {:.3} ms, solve {:.3} ms; traced requests {}, mean latency {:.3} ms",
        probes.seq_factorize_ms,
        probes.seq_solve_ms,
        ledger.requests(),
        mean(&ledger.latencies_ms())
    );
    (checks, metrics)
}

/// Prints each layer's share of the summed request latency.
fn print_ledger(acc: &Accounts) {
    let mut rows: Vec<_> = acc.self_ns.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    println!("ledger (self time as a share of summed request latency):");
    for (name, ns) in rows {
        println!(
            "  {name:<30} {:>7.2}%",
            100.0 * *ns as f64 / acc.latency_ns.max(1) as f64
        );
    }
    println!(
        "  {:<30} {:>7.2}%",
        "(unaccounted)",
        100.0 * acc.unaccounted_frac()
    );
}
