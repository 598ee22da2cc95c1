//! Shared harness of the benchmark binaries: problem construction, pipeline
//! runs and table formatting for regenerating the paper's tables/figures.
//!
//! Every binary accepts the environment variable `PASTIX_SCALE` (default
//! `0.05`): the fraction of each paper matrix's original column count used
//! when generating its synthetic analog. `PASTIX_PROBLEMS` (comma-separated
//! names) restricts the suite.

use pastix_graph::{build_problem, ProblemId, SymCsc};
use pastix_kernels::dense::copy_panel;
use pastix_kernels::gemm::gemm_nt_acc_ref;
use pastix_kernels::{
    ldlt_factor_inplace, scale_cols_by_diag_into, trsm_ldlt_panel, FactorError, Scalar,
};
use pastix_machine::MachineModel;
use pastix_ordering::{nested_dissection, OrderingOptions};
use pastix_sched::{map_and_schedule, MappingOptions, Mapping, SchedOptions};
use pastix_solver::FactorStorage;
use pastix_symbolic::{analyze, Analysis, AnalysisOptions, SymbolMatrix};

/// Scale factor for the problem suite, from `PASTIX_SCALE`.
pub fn scale() -> f64 {
    std::env::var("PASTIX_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

/// The problems to run, from `PASTIX_PROBLEMS` (default: all ten).
pub fn problems() -> Vec<ProblemId> {
    match std::env::var("PASTIX_PROBLEMS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| ProblemId::from_name(t.trim()))
            .collect(),
        Err(_) => ProblemId::ALL.to_vec(),
    }
}

/// The processor counts of Table 2.
pub const TABLE2_PROCS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A fully analyzed problem under one ordering strategy.
pub struct PreparedProblem {
    /// Which paper matrix this is the analog of.
    pub id: ProblemId,
    /// The generated matrix.
    pub matrix: SymCsc<f64>,
    /// Symbolic analysis (ordering + symbol).
    pub analysis: Analysis,
}

/// Builds and analyzes one problem with the given ordering options.
pub fn prepare(id: ProblemId, scale: f64, ordering: &OrderingOptions) -> PreparedProblem {
    let matrix = build_problem::<f64>(id, scale);
    let g = matrix.to_graph();
    let ord = nested_dissection(&g, ordering);
    let analysis = analyze(&g, &ord, &AnalysisOptions::default());
    PreparedProblem {
        id,
        matrix,
        analysis,
    }
}

/// Scotch-like ordering preset (the PaStiX side of the tables).
pub fn scotch_ordering() -> OrderingOptions {
    OrderingOptions::scotch_like()
}

/// MeTiS-like ordering preset (the PSPASES side of the tables).
pub fn metis_ordering() -> OrderingOptions {
    OrderingOptions::metis_like()
}

/// Maps and schedules a prepared problem for `p` SP2-model processors,
/// returning the mapping (whose makespan is the predicted Table 2 time).
pub fn schedule_for(prep: &PreparedProblem, p: usize, sched: &SchedOptions) -> Mapping {
    let machine = MachineModel::sp2(p);
    map_and_schedule(&prep.analysis.symbol, &machine, sched)
}

/// The scheduling options used throughout the tables (paper: blocking 64).
pub fn default_sched() -> SchedOptions {
    SchedOptions {
        block_size: 64,
        mapping: MappingOptions::default(),
        ..Default::default()
    }
}

/// Relative tolerance of `bench_hotpath`'s checksum gate between the seed
/// formulation ([`factorize_seed`]) and the production factor: the packed
/// path reassociates sums, so per-entry round-off differs, but the
/// aggregate must agree to far better than this.
pub const CHECKSUM_RTOL: f64 = 1e-7;

/// Sum of entry magnitudes over every factor panel: a single scalar that
/// any arithmetic divergence between two factorization paths would move.
pub fn factor_checksum(st: &FactorStorage<f64>) -> f64 {
    st.panels.iter().flatten().map(|x| x.abs()).sum()
}

/// The seed formulation of the sequential supernodal factorization, kept
/// as `bench_hotpath`'s "before" side: per column block, the unblocked
/// diagonal factor ([`ldlt_factor_inplace`]) and one axpy-reference GEMM
/// ([`gemm_nt_acc_ref`]) per pair of off-diagonal blocks, applied straight
/// to the target panel. `pastix_solver::factorize_sequential` computes the
/// same factor with the blocked diagonal factor and one fused, packed
/// product per source block; the two differ only by reassociation.
pub fn factorize_seed<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &mut FactorStorage<T>,
) -> Result<(), FactorError> {
    let layout = &storage.layout;
    let mut dtmp: Vec<T> = Vec::new();
    let mut f: Vec<T> = Vec::new();
    for k in 0..sym.n_cblks() {
        let cb = &sym.cblks[k];
        let w = cb.width();
        let lda = layout.panel_rows(k);
        let h = lda - w;
        let (left, right) = storage.panels.split_at_mut(k + 1);
        let panel = &mut left[k][..];
        ldlt_factor_inplace(w, panel, lda)
            .map_err(|FactorError::ZeroPivot(i)| FactorError::ZeroPivot(cb.fcol as usize + i))?;
        if h == 0 {
            continue;
        }
        dtmp.clear();
        dtmp.resize(w * w, T::zero());
        copy_panel(w, w, panel, lda, &mut dtmp, w);
        trsm_ldlt_panel(h, w, &dtmp, w, &mut panel[w..], lda);
        // F = L_off · D.
        let d: Vec<T> = (0..w).map(|t| dtmp[t + t * w]).collect();
        f.clear();
        f.resize(h * w, T::zero());
        scale_cols_by_diag_into(h, w, &panel[w..], lda, &d, &mut f, h);
        let offs = sym.off_bloks_of(k);
        for (c, bc) in offs.iter().enumerate() {
            let tk = bc.fcblk as usize;
            let tlda = layout.panel_rows(tk);
            let tcol = (bc.frow - sym.cblks[tk].fcol) as usize;
            let b_off = layout.panel_row[cb.blok_start + 1 + c] as usize - w;
            for (r, br) in offs.iter().enumerate().skip(c) {
                let tb = sym.covering_blok(tk, br.frow, br.lrow);
                let trow = layout.panel_row[tb] as usize + (br.frow - sym.bloks[tb].frow) as usize;
                let a_off = layout.panel_row[cb.blok_start + 1 + r] as usize;
                let target = &mut right[tk - (k + 1)][trow + tcol * tlda..];
                gemm_nt_acc_ref(
                    br.nrows(),
                    bc.nrows(),
                    w,
                    -T::one(),
                    &panel[a_off..],
                    lda,
                    &f[b_off..],
                    h,
                    target,
                    tlda,
                );
            }
        }
    }
    Ok(())
}

/// Formats a float in the paper's compact `x.xxe+yy` style.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// Gigaflop rate from an operation count and a time.
pub fn gflops(opc: f64, time: f64) -> f64 {
    if time <= 0.0 {
        0.0
    } else {
        opc / time / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_problem() {
        let prep = prepare(ProblemId::Quer, 0.01, &scotch_ordering());
        assert!(prep.matrix.n() > 100);
        prep.analysis.symbol.validate().unwrap();
    }

    #[test]
    fn schedule_small_problem() {
        let prep = prepare(ProblemId::Thread, 0.01, &scotch_ordering());
        let mut sopts = default_sched();
        sopts.block_size = 32;
        let m = schedule_for(&prep, 4, &sopts);
        assert!(m.schedule.makespan > 0.0);
    }

    #[test]
    fn problem_filter_parses_names() {
        // Direct parse path (the env-var plumbing is a thin wrapper).
        let picked: Vec<_> = "ship001, THREAD ,nope"
            .split(',')
            .filter_map(|t| pastix_graph::ProblemId::from_name(t.trim()))
            .collect();
        assert_eq!(picked, vec![pastix_graph::ProblemId::Ship001, pastix_graph::ProblemId::Thread]);
    }

    #[test]
    fn table2_procs_match_paper() {
        assert_eq!(TABLE2_PROCS, [1, 2, 4, 8, 16, 32, 64]);
    }

    /// The seed formulation and the production factorization agree within
    /// the bench's checksum tolerance, entry by entry, on a problem whose
    /// separators are wide enough for the blocked diagonal factor and the
    /// packed GEMM path to engage — and on its split symbol.
    #[test]
    fn seed_formulation_matches_production_factor() {
        use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
        use pastix_solver::factorize_sequential;
        use pastix_symbolic::split_symbol;
        let a = grid_spd::<f64>(9, 9, 7, Stencil::Star, false, ValueKind::RandomSpd(5));
        let g = a.to_graph();
        let ord = nested_dissection(&g, &scotch_ordering());
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        let ap = a.permuted(&an.perm);
        let widest = an.symbol.cblks.iter().map(|cb| cb.width()).max().unwrap();
        assert!(widest > pastix_kernels::NB_FACTOR, "the blocked diagonal factor must engage");
        let split = split_symbol(&an.symbol, 16).symbol;
        for sym in [&an.symbol, &split] {
            let mut seed = FactorStorage::zeros(sym);
            seed.scatter(sym, &ap);
            factorize_seed(sym, &mut seed).unwrap();
            let mut prod = FactorStorage::zeros(sym);
            prod.scatter(sym, &ap);
            factorize_sequential(sym, &mut prod).unwrap();
            let (cs, cp) = (factor_checksum(&seed), factor_checksum(&prod));
            assert!((cs - cp).abs() <= CHECKSUM_RTOL * cs.abs().max(1.0), "checksums {cs} vs {cp}");
            for (ps, pp) in seed.panels.iter().zip(&prod.panels) {
                for (&x, &y) in ps.iter().zip(pp) {
                    assert!((x - y).abs() <= CHECKSUM_RTOL * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(sci(1234.5), "1.23e3");
        assert!(gflops(2e9, 1.0) == 2.0);
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
