//! `refactor_shell` / `refactor_solid`: one client in a closed loop; each
//! request carries new seeded values on the workload's fixed pattern and
//! one right-hand side, so every request misses the session cache, is
//! analyzed, factorized, inserted (evicting the previous entry) and
//! solved.

use crate::check::Checks;
use crate::inputs::{self, Workload};
use crate::ledger::Ledger;
use pastix_graph::SymCsc;
use pastix_sched::solve_schedule;
use pastix_serve::{MatrixFingerprint, SessionOptions, SolverSession};
use pastix_solver::{FactorRun, Plan, SolveRequest, TraceOptions};
use pastix_trace::{EventKind, TaskClass};
use std::time::Instant;

/// Request index of the warm-up request made during setup.
const WARM: u64 = u64::MAX;

pub struct Refactor {
    base: SymCsc<f64>,
    pub opts: SessionOptions,
    pub session: SolverSession<f64>,
    seed: u64,
}

impl Refactor {
    /// Builds the base pattern and warms a session with one request, so
    /// every timed request inserts and evicts.
    pub fn setup(w: Workload, seed: u64) -> Self {
        let base = inputs::base_matrix(w);
        let opts = w.session_options();
        let mut session = SolverSession::new(opts.clone());
        let (a, b) = (
            inputs::perturbed(&base, seed, WARM),
            inputs::rhs(base.n(), seed, WARM),
        );
        let x = session.solve(&a, &b).expect("warm-up request failed");
        let mut checks = Checks {
            attempted: 1,
            ..Default::default()
        };
        checks.verify(&a, &x, &b);
        assert_eq!(checks.failed(), 0, "warm-up request gave a wrong solution");
        Refactor {
            base,
            opts,
            session,
            seed,
        }
    }

    /// Request `i`'s inputs.
    pub fn request(&self, i: u64) -> (SymCsc<f64>, Vec<f64>) {
        (
            inputs::perturbed(&self.base, self.seed, i),
            inputs::rhs(self.base.n(), self.seed, i),
        )
    }

    /// The closed loop through `SolverSession::solve` for `seconds`.
    /// Returns each completed request's (start s, latency ms) and the
    /// loop's wall time (s).
    pub fn run(&mut self, seconds: f64, checks: &mut Checks) -> (Vec<(f64, f64)>, f64) {
        let start = Instant::now();
        let mut lat = Vec::new();
        let mut i = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let (a, b) = self.request(i);
            checks.attempted += 1;
            let t0 = Instant::now();
            let x = self.session.solve(&a, &b);
            let dt = t0.elapsed();
            match x {
                Ok(x) => {
                    lat.push(((t0 - start).as_secs_f64(), dt.as_secs_f64() * 1e3));
                    checks.verify(&a, &x, &b);
                }
                Err(e) => eprintln!("request {i} failed: {e:?}"),
            }
            i += 1;
        }
        (lat, start.elapsed().as_secs_f64())
    }

    /// The same request sequence, each miss served by calling the pieces
    /// in the order the session uses them — fingerprint, lookup, analyze,
    /// factorize, solve schedule, cache write, solve — each inside a span.
    /// Analyze's own stage spans (ordering, symbolic, scheduling) come
    /// from its wall-clock trace. Returns the last request's matrix and
    /// plan for the probes.
    pub fn run_traced(
        &mut self,
        seconds: f64,
        checks: &mut Checks,
        ledger: &mut Ledger,
    ) -> (SymCsc<f64>, Plan) {
        let cfg = inputs::miss_config(&self.opts);
        let analyze_cfg = cfg.clone().with_trace(TraceOptions::wall());
        let start = Instant::now();
        let mut resident: Option<(MatrixFingerprint, FactorRun<f64>)> = None;
        let mut last = None;
        let mut i = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let (a, b) = self.request(i);
            checks.attempted += 1;
            let root = ledger.open("request", None, i);
            let fp = ledger.time("serve.fingerprint", Some(root), i, || {
                MatrixFingerprint::of(&a)
            });
            let hit = ledger.time("serve.lookup", Some(root), i, || {
                resident.as_ref().is_some_and(|(k, _)| *k == fp)
            });
            assert!(!hit, "refactorization requests must miss");
            let aspan = ledger.open("solver.analyze", Some(root), i);
            let plan = Plan::analyze(&a, &analyze_cfg);
            ledger.close(aspan);
            record_analyze_stages(ledger, aspan, &plan, i);
            let run = ledger.time("solver.factorize", Some(root), i, || {
                plan.factorize(&a, &cfg)
            });
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("request {i} failed to factorize: {e:?}");
                    ledger.close(root);
                    i += 1;
                    continue;
                }
            };
            let _ssched = ledger.time("sched.solve_schedule", Some(root), i, || {
                solve_schedule(plan.graph(), plan.schedule().expect("static schedule"))
            });
            // Inserting evicts (drops) the previous factor.
            ledger.time("serve.cache_write", Some(root), i, || {
                resident = Some((fp, run))
            });
            let run = &resident.as_ref().expect("just inserted").1;
            let x = ledger.time("solver.solve", Some(root), i, || {
                run.solve_request(SolveRequest::single(&b)).x
            });
            ledger.close(root);
            ledger.request(root, None);
            checks.verify(&a, &x, &b);
            last = Some((a, plan));
            i += 1;
        }
        last.expect("the traced phase served no request")
    }
}

/// Adds the analyze trace's ordering / symbolic / scheduling spans as
/// children of the analyze span, aligned to its end.
fn record_analyze_stages(ledger: &mut Ledger, aspan: usize, plan: &Plan, req: u64) {
    let Some(trace) = plan.analyze_trace() else {
        return;
    };
    let base = ledger.span(aspan).end_ns.saturating_sub(trace.wall_ns);
    for rank in &trace.ranks {
        let mut open = [None; 3];
        for ev in &rank.events {
            let (class, begin) = match ev.kind {
                EventKind::TaskBegin { class, .. } => (class, true),
                EventKind::TaskEnd { class, .. } => (class, false),
                _ => continue,
            };
            let (slot, name) = match class {
                TaskClass::Ordering => (0, "ordering.nested_dissection"),
                TaskClass::Symbolic => (1, "symbolic.analyze"),
                TaskClass::Sched => (2, "sched.map_and_schedule"),
                _ => continue,
            };
            if begin {
                open[slot] = Some(ev.at);
            } else if let Some(t0) = open[slot].take() {
                ledger.record(name, base + t0, base + ev.at, Some(aspan), req);
            }
        }
    }
}
