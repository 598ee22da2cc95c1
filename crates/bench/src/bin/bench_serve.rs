//! Factorization-as-a-service benchmark: the serving layer under an
//! open-loop arrival process, with its observability surface gated.
//!
//! Six segments, all on the Shipsec5 analog:
//!
//! 1. **Agreement + batching throughput** (threads backend): a k=8
//!    multi-RHS panel solve must agree entrywise with 8 independent
//!    single-RHS solves (gated, ≤ 1e-7 relative) and complete at least
//!    2× faster than serving the same 8 requests one at a time (gated).
//! 2. **Open-loop serving**: deterministic arrivals against a virtual
//!    clock through `RequestQueue::serve_batch`; reports solves/sec and
//!    p50/p99 latency for each stage (end-to-end, queue wait, solve) out
//!    of the session's metrics histograms.
//! 3. **Cache behavior**: three distinct matrices through a
//!    capacity-2 session; reports the hit rate and eviction count.
//! 4. **Observability overhead** (gated): the same batch workload with
//!    the flight recorder disabled + an untraced queue vs. both on must
//!    cost < 2% extra (paired best-of timing).
//! 5. **Scheduled-solve reconciliation** (sim backend, logical clocks):
//!    the traced panel solve must reconcile ≥ 95% against the level-set
//!    solve schedule (gated); a chaos `StarveRank` run served through a
//!    traced queue trips the in-queue watchdog
//!    (`PASTIX_WATCHDOG_BACKLOG=8,0.2`) and must leave a black-box dump
//!    naming the batch's tickets as in flight (gated).
//! 6. **Trace determinism** (gated): two identical traced serving runs
//!    on the sim backend must export byte-identical Chrome traces.
//!
//! Outputs `BENCH_serve.json` at the repo root and the serve trace
//! reconciliation report at `target/serve_trace.json` (CI artifacts).
//! `--quick` shrinks the problem for CI.

use pastix_bench::{prepare, scale, scotch_ordering};
use pastix_graph::{ProblemId, SymCsc};
use pastix_json::{obj, Json};
use pastix_runtime::sim::{FaultPlan, SchedPolicy};
use pastix_runtime::Backend;
use pastix_sched::{solve_schedule, SchedOptions};
use pastix_serve::{RequestQueue, SessionOptions, SolverSession};
use pastix_solver::SolverConfig;
use pastix_trace::export::chrome_trace;
use pastix_trace::flight;
use pastix_trace::report::build_solve_report;
use pastix_trace::watchdog::{analyze as watchdog_analyze, WatchdogOptions};
use pastix_trace::TraceOptions;
use std::path::Path;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
const TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serve_trace.json");
const BLACKBOX_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");

/// Agreement gate: batched vs single-RHS entrywise relative error.
const AGREE_TOL: f64 = 1e-7;
/// Throughput gate: batched k=8 must beat one-at-a-time by this factor.
const SPEEDUP_MIN: f64 = 2.0;
/// Reconciliation gate for the scheduled solve trace.
const RECONCILE_MIN: f64 = 0.95;
/// Observability gate: flight recorder + request tracing overhead.
const OVERHEAD_MAX: f64 = 0.02;
/// Panel width of the gated throughput comparison.
const K: usize = 8;

fn session_opts(procs: usize, block: usize, solver: SolverConfig) -> SessionOptions {
    SessionOptions {
        procs,
        max_panel: K,
        sched: SchedOptions { block_size: block, ..Default::default() },
        solver,
        ..Default::default()
    }
}

/// Deterministic request stream: RHS r of order n.
fn request_rhs(a: &SymCsc<f64>, r: usize) -> Vec<f64> {
    let n = a.n();
    let xe: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 + r * 13) % 17) as f64 * 0.125).collect();
    pastix_graph::rhs_for_solution(a, &xe)
}

/// Black-box dump files currently in the target directory.
fn blackbox_files() -> Vec<String> {
    std::fs::read_dir(BLACKBOX_DIR)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("blackbox-") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_serve ({mode}) — factorization-as-a-service on Shipsec5");

    let sc = if quick { 0.02 } else { scale() };
    let procs = 4;
    let block = if quick { 16 } else { 32 };
    let prep = prepare(ProblemId::Shipsec5, sc, &scotch_ordering());
    let a = prep.matrix.clone();
    let n = a.n();
    println!("problem {} n={n} procs={procs}", prep.id.name());

    // ---- segment 1: agreement + batching throughput (threads) ----
    let mut session = SolverSession::<f64>::new(session_opts(procs, block, SolverConfig::default()));
    session.get_or_factorize(&a).expect("factorization failed");
    let rhs: Vec<Vec<f64>> = (0..K).map(|r| request_rhs(&a, r)).collect();
    let mut panel = vec![0.0f64; n * K];
    for (r, b) in rhs.iter().enumerate() {
        panel[r * n..(r + 1) * n].copy_from_slice(b);
    }

    // Warm both paths once, then time best-of-3.
    let singles: Vec<Vec<f64>> =
        rhs.iter().map(|b| session.solve(&a, b).expect("single solve")).collect();
    let (batched, _) = session.solve_panel(&a, &panel, K).expect("panel solve");
    let mut max_rel = 0.0f64;
    for (r, x1) in singles.iter().enumerate() {
        for (u, v) in batched[r * n..(r + 1) * n].iter().zip(x1) {
            let rel = (u - v).abs() / v.abs().max(1.0);
            max_rel = max_rel.max(rel);
        }
    }
    let resid = (0..K)
        .map(|r| a.residual_norm(&batched[r * n..(r + 1) * n], &rhs[r]))
        .fold(0.0f64, f64::max);
    let agree_ok = max_rel <= AGREE_TOL && resid < 1e-9;
    println!(
        "agreement: batched k={K} vs singles max rel err {max_rel:.2e}, worst residual {resid:.2e} — {}",
        if agree_ok { "MET" } else { "NOT MET" }
    );

    let time_best = |mut f: Box<dyn FnMut() + '_>| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    let one_at_a_time_ns = {
        let s = &mut session;
        let a = &a;
        let rhs = &rhs;
        time_best(Box::new(move || {
            for b in rhs {
                let _ = s.solve(a, b).expect("single solve");
            }
        }))
    };
    let batched_ns = {
        let s = &mut session;
        let a = &a;
        let panel = &panel;
        time_best(Box::new(move || {
            let _ = s.solve_panel(a, panel, K).expect("panel solve");
        }))
    };
    let speedup = one_at_a_time_ns as f64 / batched_ns.max(1) as f64;
    let speedup_ok = speedup >= SPEEDUP_MIN;
    println!(
        "throughput: {K} singles {:.3} ms vs one k={K} panel {:.3} ms — batched {speedup:.2}x ({})",
        one_at_a_time_ns as f64 / 1e6,
        batched_ns as f64 / 1e6,
        if speedup_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 2: open-loop serving against a virtual clock ----
    let n_requests = if quick { 48 } else { 256 };
    // Deterministic arrivals: mean spacing well below the batched solve
    // time, so the queue actually coalesces.
    let mean_gap_ns = (batched_ns / K as u64 / 2).max(1);
    let arrivals: Vec<u64> = (0..n_requests)
        .scan(0u64, |t, i| {
            *t += mean_gap_ns * ((i * 31 + 7) % 23 + 12) as u64 / 23;
            Some(*t)
        })
        .collect();
    let mut q = RequestQueue::new();
    let mut now = 0u64;
    let mut next = 0usize;
    let mut served = 0usize;
    let mut batches = 0usize;
    let t_serve0 = Instant::now();
    while next < arrivals.len() || !q.is_empty() {
        if q.is_empty() {
            now = now.max(arrivals[next]);
        }
        while next < arrivals.len() && arrivals[next] <= now {
            q.submit(request_rhs(&a, next), arrivals[next]);
            next += 1;
        }
        let width = q.len().min(session.options().max_panel);
        if width == 0 {
            continue;
        }
        // Virtual solve cost: the measured k=K panel time, pro-rated to
        // this batch's width. serve_batch splits each ticket's latency at
        // the dispatch timestamp into queue-wait and solve.
        let cost = (batched_ns * width as u64 / K as u64).max(1);
        let done = q.serve_batch(&mut session, &a, now, now + cost).expect("serve batch");
        now += cost;
        served += done.len();
        batches += 1;
    }
    let wall_serving_ns = t_serve0.elapsed().as_nanos().max(1) as u64;
    let virtual_span_s = now as f64 / 1e9;
    let solves_per_sec = served as f64 / virtual_span_s.max(1e-12);
    let m = session.metrics();
    let lat = m.histogram("serve.latency_ns").expect("latency histogram");
    let qw = m.histogram("serve.queue_wait_ns").expect("queue-wait histogram");
    let sv = m.histogram("serve.solve_ns").expect("solve histogram");
    let (p50, p99) = (lat.quantile(0.5), lat.quantile(0.99));
    let (qw50, qw99) = (qw.quantile(0.5), qw.quantile(0.99));
    let (sv50, sv99) = (sv.quantile(0.5), sv.quantile(0.99));
    let mean_width = m.histogram("serve.batch_width").map(|h| h.mean()).unwrap_or(0.0);
    let (ol_hits, ol_misses) = (m.counter("serve.cache.hits"), m.counter("serve.cache.misses"));
    let ol_hit_rate = ol_hits as f64 / (ol_hits + ol_misses).max(1) as f64;
    println!(
        "open loop: {served} requests in {batches} batches (mean width {mean_width:.2}) — {solves_per_sec:.1} solves/s (virtual clock; wall {:.0} ms)",
        wall_serving_ns as f64 / 1e6,
    );
    println!(
        "  stage latency (ms): end-to-end p50 {:.3} p99 {:.3} | queue-wait p50 {:.3} p99 {:.3} | solve p50 {:.3} p99 {:.3} | cache hit rate {:.0}%",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        qw50 as f64 / 1e6,
        qw99 as f64 / 1e6,
        sv50 as f64 / 1e6,
        sv99 as f64 / 1e6,
        ol_hit_rate * 100.0,
    );

    // ---- segment 3: cache behavior across matrices ----
    let mut cache_session =
        SolverSession::<f64>::new(SessionOptions { capacity: 2, ..session_opts(procs, block, SolverConfig::default()) });
    // Three distinct fingerprints: the serving matrix plus two numeric
    // variants (same structure, different values — distinct factors).
    let variant = |shift: f64| {
        let mut m = a.clone();
        m.make_diag_dominant(shift);
        m
    };
    // (`prepare` already shifts by 1.0, so 1.0 would reproduce `a` exactly
    // — the fingerprint would correctly coalesce them into one entry.)
    let (m1, m2, m3) = (a.clone(), variant(0.5), variant(1.5));
    for m in [&m1, &m2, &m1, &m2, &m3, &m1] {
        let b = request_rhs(m, 0);
        let _ = cache_session.solve(m, &b).expect("cache segment solve");
    }
    let cm = cache_session.metrics();
    let (hits, misses, evictions) =
        (cm.counter("serve.cache.hits"), cm.counter("serve.cache.misses"), cm.counter("serve.cache.evictions"));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "cache: {hits} hits / {misses} misses (rate {:.0}%), {evictions} evictions, resident {} entries / {:.1} MiB",
        hit_rate * 100.0,
        cache_session.len(),
        cache_session.resident_bytes() as f64 / (1024.0 * 1024.0),
    );

    // ---- segment 4: observability overhead gate ----
    // The same warm-cache batch workload, paired: flight recorder off +
    // untraced queue vs. both on. Every rep times both variants back to
    // back; best-of filters scheduler noise. The gate carries a small
    // absolute floor so quick-mode runs (sub-ms solves) don't flake on
    // timer granularity.
    let reps = if quick { 5 } else { 7 };
    let obs_requests = 2 * K;
    let mut base_ns = u64::MAX;
    let mut inst_ns = u64::MAX;
    for _ in 0..reps {
        for traced in [false, true] {
            flight::set_enabled(traced);
            let mut oq = if traced { RequestQueue::traced() } else { RequestQueue::new() };
            let t0 = Instant::now();
            for r in 0..obs_requests {
                oq.submit(request_rhs(&a, r), r as u64 * 1_000);
            }
            let mut t = obs_requests as u64 * 1_000;
            while !oq.is_empty() {
                oq.serve_batch(&mut session, &a, t, t + 1_000).expect("overhead serve");
                t += 2_000;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if traced {
                inst_ns = inst_ns.min(ns);
            } else {
                base_ns = base_ns.min(ns);
            }
        }
    }
    flight::set_enabled(true);
    let overhead = inst_ns as f64 / base_ns.max(1) as f64 - 1.0;
    let overhead_ok =
        inst_ns <= base_ns + (base_ns as f64 * OVERHEAD_MAX) as u64 + 10_000;
    println!(
        "observability overhead: baseline {:.3} ms vs flight+tracing {:.3} ms — {:+.2}% (gate < {:.0}%): {}",
        base_ns as f64 / 1e6,
        inst_ns as f64 / 1e6,
        overhead * 100.0,
        OVERHEAD_MAX * 100.0,
        if overhead_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 5: scheduled solve reconciliation + watchdog (sim) ----
    let mut topts = TraceOptions::deterministic();
    topts.sample_every = 1;
    let sim_cfg = SolverConfig::new()
        .with_backend(Backend::Sim(FaultPlan::builder(1).build()))
        .with_trace(topts);
    let mut sim_session = SolverSession::<f64>::new(session_opts(procs, block, sim_cfg));
    let cached = sim_session.get_or_factorize(&a).expect("sim factorization");
    let (_, log) = sim_session.solve_panel(&a, &panel, K).expect("sim panel solve");
    let ssched = solve_schedule(
        cached.plan.graph(),
        cached.plan.schedule().expect("session plans carry a static schedule"),
    );
    let report = build_solve_report(&ssched, &log);
    println!("{}", report.render());
    let reconcile_ok = report.reconciliation >= RECONCILE_MIN;
    println!(
        "reconciliation gate (≥ {:.0}%): {}",
        RECONCILE_MIN * 100.0,
        if reconcile_ok { "MET" } else { "NOT MET" }
    );

    // Chaos serving run: starve a rank, let the watchdog name it. The
    // solve DAG's tasks are far finer-grained than factorization panels,
    // so the library defaults (tuned on factorization chaos runs) are too
    // coarse here: a starved rank shows up as mailbox backlog, not as a
    // progress gap — downstream ranks blocked on its output post the
    // larger gaps. This is exactly the "unusual problem shape" case the
    // watchdog docs route through the env knobs, so exercise that path.
    let chaos_cfg = SolverConfig::new()
        .with_backend(Backend::Sim(
            FaultPlan::builder(7).policy(SchedPolicy::StarveRank(1)).build(),
        ))
        .with_trace(topts);
    let mut chaos_session = SolverSession::<f64>::new(session_opts(procs, block, chaos_cfg));
    chaos_session.get_or_factorize(&a).expect("chaos factorization");
    let (_, chaos_log) = chaos_session.solve_panel(&a, &panel, K).expect("chaos panel solve");
    std::env::set_var("PASTIX_WATCHDOG_BACKLOG", "8,0.2");
    let wd = watchdog_analyze(&chaos_log, &WatchdogOptions::from_env());
    print!("{}", wd.render());
    let stalled = wd.stalled_ranks();
    println!(
        "watchdog (StarveRank(1), PASTIX_WATCHDOG_BACKLOG=8,0.2): stalled ranks {:?}",
        stalled
    );
    // Now the same chaos solve through a traced queue: serve_batch runs
    // the watchdog on the fresh solve trace before the batch's tickets
    // leave the flight ring, so a trip dumps a black box that names them
    // as in flight. The gap knob here is deliberately hair-trigger (any
    // progress gap flags) so the trip→dump plumbing is exercised
    // deterministically at every problem scale — the realistic
    // StarveRank detection is the report above.
    flight::set_blackbox_dir(Some(Path::new(BLACKBOX_DIR)));
    let before = blackbox_files();
    std::env::set_var("PASTIX_WATCHDOG_GAP", "1,0.001");
    let mut cq = RequestQueue::traced();
    for (r, b) in rhs.iter().enumerate() {
        cq.submit(b.clone(), r as u64 * 100);
    }
    cq.serve_batch(&mut chaos_session, &a, 1_000, 2_000).expect("chaos serve");
    std::env::remove_var("PASTIX_WATCHDOG_GAP");
    std::env::remove_var("PASTIX_WATCHDOG_BACKLOG");
    let trips = chaos_session.metrics().counter("serve.watchdog.trips");
    let new_dump = blackbox_files().into_iter().find(|f| !before.contains(f));
    let blackbox_ok = trips >= 1 && new_dump.is_some();
    println!(
        "flight recorder: {trips} watchdog trip(s), black box {} — {}",
        new_dump.as_deref().unwrap_or("MISSING"),
        if blackbox_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 6: trace determinism on the sim backend ----
    // Two identical traced serving runs (same seed, policy, request
    // stream, virtual timestamps) must export byte-identical Chrome
    // traces — the request spans ride the virtual clock and the solve
    // spans ride the sim backend's logical clocks.
    let traced_run = || -> String {
        let cfg = SolverConfig::new()
            .with_backend(Backend::Sim(FaultPlan::builder(1).build()))
            .with_trace(topts);
        let mut s = SolverSession::<f64>::new(session_opts(procs, block, cfg));
        let mut tq = RequestQueue::traced();
        for (r, b) in rhs.iter().enumerate() {
            tq.submit(b.clone(), r as u64 * 50);
        }
        tq.serve_batch(&mut s, &a, 500, 1_500).expect("traced serve");
        for (r, b) in rhs.iter().enumerate() {
            tq.submit(b.clone(), 2_000 + r as u64 * 50);
        }
        tq.serve_batch(&mut s, &a, 2_500, 3_500).expect("traced serve");
        chrome_trace(&tq.take_trace()).compact()
    };
    let (run1, run2) = (traced_run(), traced_run());
    let identical_ok = run1 == run2;
    println!(
        "trace determinism: two traced serving runs export {} bytes — {}",
        run1.len(),
        if identical_ok { "byte-identical: MET" } else { "DIVERGENT: NOT MET" }
    );

    // ---- artifacts ----
    let j = obj([
        ("problem", Json::Str(prep.id.name().to_string())),
        ("n", Json::Num(n as f64)),
        ("procs", Json::Num(procs as f64)),
        ("panel_width", Json::Num(K as f64)),
        ("agreement_max_rel_err", Json::Num(max_rel)),
        ("agreement_worst_residual", Json::Num(resid)),
        ("one_at_a_time_ns", Json::Num(one_at_a_time_ns as f64)),
        ("batched_panel_ns", Json::Num(batched_ns as f64)),
        ("batched_speedup", Json::Num(speedup)),
        ("open_loop_requests", Json::Num(served as f64)),
        ("open_loop_batches", Json::Num(batches as f64)),
        ("open_loop_mean_batch_width", Json::Num(mean_width)),
        ("open_loop_cache_hit_rate", Json::Num(ol_hit_rate)),
        ("solves_per_sec", Json::Num(solves_per_sec)),
        ("latency_p50_ns", Json::Num(p50 as f64)),
        ("latency_p99_ns", Json::Num(p99 as f64)),
        ("queue_wait_p50_ns", Json::Num(qw50 as f64)),
        ("queue_wait_p99_ns", Json::Num(qw99 as f64)),
        ("solve_p50_ns", Json::Num(sv50 as f64)),
        ("solve_p99_ns", Json::Num(sv99 as f64)),
        ("observability_overhead_frac", Json::Num(overhead)),
        ("cache_hits", Json::Num(hits as f64)),
        ("cache_misses", Json::Num(misses as f64)),
        ("cache_evictions", Json::Num(evictions as f64)),
        ("cache_hit_rate", Json::Num(hit_rate)),
        ("solve_reconciliation", Json::Num(report.reconciliation)),
        ("solve_trace_fingerprint", Json::Str(format!("{:#018x}", log.fingerprint()))),
        ("watchdog_trips", Json::Num(trips as f64)),
        ("trace_byte_identical", Json::Num(if identical_ok { 1.0 } else { 0.0 })),
        (
            "watchdog_stalled_ranks",
            Json::Arr(stalled.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
    ]);
    std::fs::write(OUT_PATH, j.pretty()).expect("write BENCH_serve.json");
    println!("wrote {OUT_PATH}");
    std::fs::write(TRACE_PATH, report.to_json().pretty()).expect("write serve_trace.json");
    println!("wrote {TRACE_PATH}");

    if !(agree_ok && speedup_ok && reconcile_ok && overhead_ok && blackbox_ok && identical_ok) {
        eprintln!(
            "FAIL: serving gates not met (agreement {agree_ok}, speedup {speedup_ok}, reconciliation {reconcile_ok}, overhead {overhead_ok}, blackbox {blackbox_ok}, trace determinism {identical_ok})"
        );
        std::process::exit(1);
    }
}
