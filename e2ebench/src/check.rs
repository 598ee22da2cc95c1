//! Output verification: every solution's scaled residual against a fixed
//! bound, checked outside any timed latency.

use crate::inputs::RESIDUAL_BOUND;
use pastix_graph::SymCsc;

/// Requests issued and requests whose solution passed. Everything issued
/// and not passed — an error, a wrong solution, or no completion — is a
/// failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub passed: u64,
    pub worst_residual: f64,
}

impl Checks {
    pub fn verify(&mut self, a: &SymCsc<f64>, x: &[f64], b: &[f64]) {
        let r = a.residual_norm(x, b);
        if r.is_finite() && r <= RESIDUAL_BOUND {
            self.passed += 1;
        } else {
            eprintln!("wrong output: scaled residual {r:e} > {RESIDUAL_BOUND:e}");
        }
        self.worst_residual = self
            .worst_residual
            .max(if r.is_finite() { r } else { f64::MAX });
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.passed
    }
}
