//! Drill-down probes of the traced run: single layer calls timed on the
//! workload's own inputs, outside the request stream, plus the
//! sequential-engine baseline the parallel engines are compared with.

use crate::inputs::{self, MAX_PANEL};
use crate::stats::time_median;
use pastix_graph::SymCsc;
use pastix_solver::{
    factorize_sequential, solve_in_place, FactorStorage, MetricsRegistry, Plan, SolveRequest,
    SolverConfig, TraceOptions,
};

/// Repetitions of each probe; the median is reported.
pub const REPS: usize = 5;

pub struct Probes {
    pub permute_ms: f64,
    pub factorize_ms: f64,
    pub seq_factorize_ms: f64,
    pub solve1_ms: f64,
    pub solve_panel_ms: f64,
    pub seq_solve_ms: f64,
    pub factor_mb: f64,
    pub opc: f64,
    pub comm_sends: f64,
    pub comm_bytes: f64,
    pub steals: f64,
}

/// Probes `plan` (analyzed from `a`'s pattern) under `cfg`, the
/// configuration the session factorizes and solves with.
pub fn run(a: &SymCsc<f64>, plan: &Plan, cfg: &SolverConfig, seed: u64) -> Probes {
    let perm = plan
        .permutation()
        .expect("analyzed plans own a permutation");
    let sym = plan.symbol();
    let (permute_ms, ap) = time_median(REPS, || a.permuted(perm));

    // Sequential baseline on the same symbol: scatter + factorize.
    let (seq_factorize_ms, seq) = time_median(REPS, || {
        let mut s = FactorStorage::zeros(sym);
        s.scatter(sym, &ap);
        factorize_sequential(sym, &mut s).expect("sequential factorization failed");
        s
    });
    let (factorize_ms, run) = time_median(REPS, || {
        plan.factorize(a, cfg).expect("probe factorization failed")
    });

    let n = a.n();
    let b = inputs::rhs(n, seed, 0);
    let panel: Vec<f64> = (0..MAX_PANEL as u64)
        .flat_map(|i| inputs::rhs(n, seed, i))
        .collect();
    let (solve1_ms, _) = time_median(REPS, || run.solve_request(SolveRequest::single(&b)).x);
    let (solve_panel_ms, _) = time_median(REPS, || {
        run.solve_request(SolveRequest::panel(&panel, MAX_PANEL)).x
    });
    let (seq_solve_ms, _) = time_median(REPS, || {
        let mut x = perm.apply_vec(&b);
        solve_in_place(sym, &seq, &mut x);
        perm.unapply_vec(&x)
    });

    // Per-factorization counters: messages need a traced run, steals do
    // not.
    let traced = MetricsRegistry::new();
    plan.factorize(
        a,
        &cfg.clone()
            .with_trace(TraceOptions::wall())
            .with_metrics(traced.clone()),
    )
    .expect("traced probe factorization failed");
    let untraced = MetricsRegistry::new();
    plan.factorize(a, &cfg.clone().with_metrics(untraced.clone()))
        .expect("probe factorization failed");

    Probes {
        permute_ms,
        factorize_ms,
        seq_factorize_ms,
        solve1_ms,
        solve_panel_ms,
        seq_solve_ms,
        factor_mb: run.storage.factor_bytes() as f64 / 1e6,
        opc: plan.analyze_stats().map_or(0.0, |s| s.scalar_opc),
        comm_sends: traced.counter("comm.sends") as f64,
        comm_bytes: traced.counter("comm.send_bytes") as f64,
        steals: untraced.counter("dynamic.steals") as f64,
    }
}
