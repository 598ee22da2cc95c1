//! `solve_stream`: open-loop Poisson arrivals of single-RHS requests
//! against one resident factor, served through
//! `RequestQueue::serve_batch`, then a saturated phase that measures
//! capacity.

use crate::check::Checks;
use crate::inputs::{self, Workload, MAX_PANEL, STREAM_RATE};
use crate::ledger::Ledger;
use pastix_graph::SymCsc;
use pastix_serve::{
    pack_panel, unpack_completions, CachedFactor, Completed, MatrixFingerprint, RequestQueue,
    SolverSession,
};
use pastix_solver::SolveRequest;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct right-hand sides per run; request `i` uses `pool[i % POOL]`.
const POOL: usize = 64;
/// Completions held for verification; beyond this the loop verifies
/// right after serving, which bounds the memory they hold.
const MAX_BACKLOG: usize = 16;

/// The generated inputs: the matrix and the right-hand-side pool.
pub struct Inputs {
    pub a: SymCsc<f64>,
    pool: Vec<Vec<f64>>,
    seed: u64,
}

pub struct Stream {
    pub inputs: Inputs,
    pub session: SolverSession<f64>,
    pub cached: Arc<CachedFactor<f64>>,
}

/// One served request of an open-loop phase (ns since the phase epoch).
pub struct Served {
    pub id: u64,
    pub due: u64,
    pub submitted: u64,
    pub dispatch: u64,
    pub finish: u64,
    pub batch_span: Option<usize>,
}

/// Serves the queue's next batch at `dispatch` ns; `None` when the batch
/// failed. Also returns the batch's ledger span, when traced.
type Serve<'a> =
    dyn FnMut(&mut RequestQueue<f64>, u64) -> Option<(Vec<Completed<f64>>, Option<usize>)> + 'a;

impl Stream {
    /// Builds the matrix, makes its factor resident, generates the RHS
    /// pool, and warms the serving path once.
    pub fn setup(seed: u64) -> Self {
        let w = Workload::SolveStream;
        let a = inputs::base_matrix(w);
        let mut session = SolverSession::new(w.session_options());
        let cached = session
            .get_or_factorize(&a)
            .expect("setup factorization failed");
        let pool = (0..POOL as u64)
            .map(|i| inputs::rhs(a.n(), seed, i))
            .collect();
        let inputs = Inputs { a, pool, seed };
        let mut q = RequestQueue::new();
        for b in inputs.pool.iter().take(MAX_PANEL) {
            q.submit(b.clone(), 0);
        }
        q.serve_batch(&mut session, &inputs.a, 0, 0)
            .expect("warm-up batch failed");
        Stream {
            inputs,
            session,
            cached,
        }
    }

    /// The untraced open-loop phase over `horizon_s` seconds of arrivals.
    pub fn run_open(&mut self, horizon_s: f64, checks: &mut Checks) -> Vec<Served> {
        let (inp, session) = (&self.inputs, &mut self.session);
        let mut serve = |q: &mut RequestQueue<f64>, dispatch: u64| match q
            .serve_batch(session, &inp.a, dispatch, dispatch)
        {
            Ok(done) => Some((done, None)),
            Err(e) => {
                eprintln!("solve_stream: batch failed: {e:?}");
                None
            }
        };
        inp.open_loop(horizon_s, Instant::now(), checks, &mut serve)
    }

    /// The traced open-loop phase: the same arrivals, served by calling
    /// the pieces `serve_batch` and the session's hit path use —
    /// coalesce, fingerprint, resident lookup, panel solve, unpack — each
    /// inside a span.
    pub fn run_open_traced(
        &self,
        horizon_s: f64,
        checks: &mut Checks,
        ledger: &mut Ledger,
        epoch: Instant,
    ) -> Vec<Served> {
        let (inp, session, cached) = (&self.inputs, &self.session, &self.cached);
        let n = inp.a.n();
        let mut serve = |q: &mut RequestQueue<f64>, _dispatch: u64| {
            let batch = q.take_batch(MAX_PANEL);
            let lead = batch[0].id;
            let bspan = ledger.open("serve.batch", None, lead);
            let panel = ledger.time("serve.coalesce", Some(bspan), lead, || {
                pack_panel(&batch, n)
            });
            let fp = ledger.time("serve.fingerprint", Some(bspan), lead, || {
                MatrixFingerprint::of(&inp.a)
            });
            let hit = ledger.time("serve.lookup", Some(bspan), lead, || {
                session.resident().contains(&fp)
            });
            if !hit {
                eprintln!("solve_stream: resident factor not found");
                ledger.close(bspan);
                return None;
            }
            let out = ledger.time("solver.solve", Some(bspan), lead, || {
                cached
                    .run
                    .solve_request(SolveRequest::panel(&panel, batch.len()))
            });
            let done = ledger.time("serve.unpack", Some(bspan), lead, || {
                unpack_completions(&batch, &out.x, n, 0)
            });
            ledger.close(bspan);
            Some((done, Some(bspan)))
        };
        inp.open_loop(horizon_s, epoch, checks, &mut serve)
    }

    /// Saturated phase: the queue is topped up so it never empties, and
    /// full-width batches run back to back for `seconds`. Returns the
    /// service time (s) of each batch.
    pub fn run_saturated(&mut self, seconds: f64, checks: &mut Checks) -> Vec<f64> {
        let inp = &self.inputs;
        let mut q = RequestQueue::new();
        let start = Instant::now();
        let mut batch_s = Vec::new();
        let mut next = 0usize;
        while start.elapsed().as_secs_f64() < seconds {
            while q.len() < 2 * MAX_PANEL {
                q.submit(inp.pool[next % POOL].clone(), 0);
                checks.attempted += 1;
                next += 1;
            }
            let t0 = Instant::now();
            let done = q.serve_batch(&mut self.session, &inp.a, 0, 0);
            let dt = t0.elapsed().as_secs_f64();
            match done {
                Ok(done) => {
                    batch_s.push(dt);
                    for c in done {
                        checks.verify(&inp.a, &c.x, &inp.pool[c.id as usize % POOL]);
                    }
                }
                Err(e) => eprintln!("solve_stream: saturated batch failed: {e:?}"),
            }
        }
        // Drain what is still queued so every attempt is verified.
        while !q.is_empty() {
            match q.serve_batch(&mut self.session, &inp.a, 0, 0) {
                Ok(done) => {
                    for c in done {
                        checks.verify(&inp.a, &c.x, &inp.pool[c.id as usize % POOL]);
                    }
                }
                Err(e) => eprintln!("solve_stream: drain batch failed: {e:?}"),
            }
        }
        batch_s
    }
}

impl Inputs {
    /// Drives the seeded arrivals, due at `epoch + 1 ms + offset`,
    /// through `serve`; verifies completions while the queue is idle and
    /// the next arrival is far enough off, and the rest at the end.
    fn open_loop(
        &self,
        horizon_s: f64,
        epoch: Instant,
        checks: &mut Checks,
        serve: &mut Serve<'_>,
    ) -> Vec<Served> {
        let now = || epoch.elapsed().as_nanos() as u64;
        let start = now() + 1_000_000;
        let dues: Vec<u64> = inputs::arrivals(self.seed, STREAM_RATE, horizon_s)
            .into_iter()
            .map(|t| t + start)
            .collect();
        let mut q = RequestQueue::new();
        let mut next = 0usize;
        let mut submitted = vec![0u64; dues.len()];
        let mut out = Vec::with_capacity(dues.len());
        let mut backlog: VecDeque<Completed<f64>> = VecDeque::new();
        let mut verify_ns = 1_000_000u64;
        loop {
            let t = now();
            while next < dues.len() && dues[next] <= t {
                q.submit(self.pool[next % POOL].clone(), dues[next]);
                submitted[next] = t;
                checks.attempted += 1;
                next += 1;
            }
            if !q.is_empty() {
                let dispatch = now();
                if let Some((done, batch_span)) = serve(&mut q, dispatch) {
                    let finish = now();
                    for c in done {
                        let i = c.id as usize;
                        out.push(Served {
                            id: c.id,
                            due: dues[i],
                            submitted: submitted[i],
                            dispatch,
                            finish,
                            batch_span,
                        });
                        backlog.push_back(c);
                    }
                }
                while backlog.len() > MAX_BACKLOG {
                    let c = backlog.pop_front().expect("non-empty backlog");
                    checks.verify(&self.a, &c.x, &self.pool[c.id as usize % POOL]);
                }
                continue;
            }
            if next == dues.len() {
                break;
            }
            let gap = dues[next].saturating_sub(now());
            if gap > 3 * verify_ns {
                if let Some(c) = backlog.pop_front() {
                    let t0 = Instant::now();
                    checks.verify(&self.a, &c.x, &self.pool[c.id as usize % POOL]);
                    verify_ns = verify_ns.max(t0.elapsed().as_nanos() as u64);
                    continue;
                }
            }
            wait_until(epoch, dues[next]);
        }
        for c in backlog {
            checks.verify(&self.a, &c.x, &self.pool[c.id as usize % POOL]);
        }
        out
    }
}

/// Sleeps until about 1 ms before `due_ns`, then spins to it.
fn wait_until(epoch: Instant, due_ns: u64) {
    let left = due_ns.saturating_sub(epoch.elapsed().as_nanos() as u64);
    if left > 2_000_000 {
        std::thread::sleep(Duration::from_nanos(left - 1_000_000));
    }
    while (epoch.elapsed().as_nanos() as u64) < due_ns {
        std::hint::spin_loop();
    }
}
