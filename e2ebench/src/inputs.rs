//! Workload definitions and the seeded generators of every input the
//! program receives: matrix values, right-hand sides and arrival times.

use pastix_graph::{build_problem, Parallelism, ProblemId, SymCsc};
use pastix_serve::SessionOptions;
use pastix_solver::{AnalyzeOptions, Backend, DynamicOptions, SolverConfig};

/// Logical processors of every factorization and solve (and the worker
/// count of the dynamic engine).
pub const PROCS: usize = 2;
/// Widest panel `RequestQueue::serve_batch` coalesces.
pub const MAX_PANEL: usize = 8;
/// Open-loop arrival rate of `solve_stream`, requests per second. About
/// half of the saturated capacity measured when this benchmark was added, on a
/// 2-CPU machine; it is fixed, so a faster program sees the same load.
pub const STREAM_RATE: f64 = 100.0;
/// Scaled-residual bound every solution must meet.
pub const RESIDUAL_BOUND: f64 = 1e-10;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop single-RHS solves against one resident factor.
    SolveStream,
    /// Closed-loop refactorizations of the shell pattern (analyze-heavy).
    RefactorShell,
    /// Closed-loop refactorizations of the 3D solid on the dynamic engine
    /// (factorize-heavy).
    RefactorSolid,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "solve_stream" => Some(Self::SolveStream),
            "refactor_shell" => Some(Self::RefactorShell),
            "refactor_solid" => Some(Self::RefactorSolid),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SolveStream => "solve_stream",
            Self::RefactorShell => "refactor_shell",
            Self::RefactorSolid => "refactor_solid",
        }
    }

    /// The synthetic analog and its scale (both near n = 9 000).
    pub fn problem(self) -> (ProblemId, f64) {
        match self {
            Self::SolveStream | Self::RefactorShell => (ProblemId::Shipsec5, 0.05),
            Self::RefactorSolid => (ProblemId::Bmwcra1, 0.06),
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Self::SolveStream | Self::RefactorShell => Backend::Threads,
            Self::RefactorSolid => Backend::Dynamic(
                DynamicOptions::new()
                    .with_workers(PROCS)
                    .with_priorities(true),
            ),
        }
    }

    /// Session knobs. Capacity 1 makes every refactorization insert one
    /// entry and evict the previous one.
    pub fn session_options(self) -> SessionOptions {
        SessionOptions {
            procs: PROCS,
            capacity: 1,
            max_panel: MAX_PANEL,
            parallelism: Parallelism::Threads(PROCS),
            solver: SolverConfig::new().with_backend(self.backend()),
            ..Default::default()
        }
    }
}

/// The configuration `SolverSession` builds for a miss, rebuilt from the
/// same options so the traced run can call the pieces directly.
pub fn miss_config(opts: &SessionOptions) -> SolverConfig {
    opts.solver.clone().with_analyze(AnalyzeOptions {
        procs: opts.procs,
        machine: None,
        parallelism: opts.parallelism,
        ordering: opts.ordering.clone(),
        analysis: opts.analysis.clone(),
        sched: opts.sched.clone(),
        static_schedule: true,
    })
}

/// The workload's base matrix (fixed; the seed varies what is derived
/// from it).
pub fn base_matrix(w: Workload) -> SymCsc<f64> {
    let (id, scale) = w.problem();
    build_problem::<f64>(id, scale)
}

/// SplitMix64: one independent stream per `(seed, purpose, index)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, purpose: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const RHS: u64 = 1;
const VALUES: u64 = 2;
const ARRIVALS: u64 = 3;

/// Right-hand side of request `index`: entries uniform in `[-1, 1)`.
pub fn rhs(n: usize, seed: u64, index: u64) -> Vec<f64> {
    let mut r = Rng::new(seed, RHS, index);
    (0..n).map(|_| 2.0 * r.unit() - 1.0).collect()
}

/// Request `index`'s matrix: the base pattern with every off-diagonal
/// scaled by a seeded factor in `[0.75, 1.25)` and the diagonal made
/// dominant again, so each request is a new SPD matrix on the same
/// pattern.
pub fn perturbed(base: &SymCsc<f64>, seed: u64, index: u64) -> SymCsc<f64> {
    let mut r = Rng::new(seed, VALUES, index);
    let values = base
        .values()
        .iter()
        .map(|v| v * (0.75 + 0.5 * r.unit()))
        .collect();
    let mut a = SymCsc::from_parts(
        base.n(),
        base.colptr().to_vec(),
        base.rowind().to_vec(),
        values,
    );
    a.make_diag_dominant(1.0);
    a
}

/// Poisson arrival offsets (ns from the phase start) at `rate` per second
/// over `horizon_s` seconds.
pub fn arrivals(seed: u64, rate: f64, horizon_s: f64) -> Vec<u64> {
    let mut r = Rng::new(seed, ARRIVALS, 0);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - r.unit()).ln() / rate;
        if t >= horizon_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}
