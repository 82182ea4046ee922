//! Conjugate gradient for sparse symmetric positive-definite systems.
//!
//! Two SPD systems dominate Blowfish planning. The min-norm transformed
//! database `x_G = P_Gᵀ (P_G P_Gᵀ)⁻¹ x` solves against the *grounded graph
//! Laplacian* `L = P_G P_Gᵀ` — sparse, SPD (whenever the policy graph is
//! connected and touches ⊥), and far too large to densify for grid
//! policies. The matrix mechanism's per-release reconstruction
//! `A⁺ ỹ = (AᵀA)⁻¹ Aᵀ ỹ` solves the *normal equations* of a
//! full-column-rank strategy `A` — and for hierarchical/Haar strategies
//! `AᵀA` is dense (the total row fills it in) even though `A` itself is
//! O(k log k)-sparse, so that solve must stay matrix-free.
//!
//! Both run through one Jacobi-preconditioned CG core:
//!
//! * [`conjugate_gradient`] — solve `A x = b` for an explicit sparse SPD
//!   `A`, preconditioned by `diag(A)`.
//! * [`solve_normal_equations`] — solve `AᵀA x = Aᵀ y` for a sparse
//!   (rectangular, full column rank) `A`, applying `AᵀA` as two
//!   matvecs per iteration and preconditioning by the column squared
//!   L2 norms (= `diag(AᵀA)`, computed in O(nnz)). Peak memory is
//!   O(nnz + rows + cols); no k×k object is ever formed.
//!
//! Solvers either converge to the requested tolerance or fail typed
//! ([`LinalgError::NoConvergence`] with the iteration count, or
//! [`LinalgError::NotPositiveDefinite`] when the operator betrays
//! indefiniteness mid-iteration) — an unconverged `x` is never returned
//! silently.

use crate::dense::dot;
use crate::sparse::SparseMatrix;
use crate::sparse_cholesky::SparseCholesky;
use crate::LinalgError;

/// Options for [`conjugate_gradient`] and [`solve_normal_equations`].
///
/// ## Choosing `tol`
///
/// `tol` bounds the *relative preconditioned-system residual*
/// `‖r‖₂ / ‖b‖₂` of the system actually solved. For the normal equations
/// the backward error in the least-squares solution scales like
/// `κ(AᵀA) · tol = κ(A)² · tol`, so ill-conditioned strategies need
/// headroom: the default `1e-10` is comfortable for graph Laplacians and
/// well-clustered strategy spectra (hierarchical/Haar, κ(A)² in the tens),
/// while matching a dense Cholesky/pseudoinverse reference to ≤1e-9
/// relative — as the engine's dense-oracle equivalence tests do —
/// calls for `tol = 1e-12`. Below ~`1e-14` the f64 recurrence stagnates
/// and the iteration cap becomes the practical stop.
///
/// ## Choosing `max_iter`
///
/// `max_iter = 0` (the default) auto-sizes to `10·n + 50`, generous for
/// the clustered spectra above: exact-arithmetic CG finishes in as many
/// iterations as there are *distinct* eigenvalues, which is ~log₂ k for
/// hierarchical strategies (observable via [`CgSolution::iterations`]).
/// If a strategy is so ill-conditioned that the cap trips, the solver
/// returns [`LinalgError::NoConvergence`] carrying the count — callers
/// should treat that as "factor the gram or pick a better preconditioner",
/// not retry with a bigger cap.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap; `0` auto-sizes to `10 * n + 50`.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 0, // 0 = auto (10 n + 50)
        }
    }
}

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgSolution {
    /// The approximate solution.
    pub x: Vec<f64>,
    /// Iterations performed. Tests pin convergence behaviour on this
    /// (e.g. ~log₂ k iterations on hierarchical normal equations).
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Reusable scratch for the CG solvers: every working vector a solve
/// needs (`x`, `r`, `z`, `p`, `Ap`, the preconditioner diagonal and its
/// inverse, the row-space matvec scratch) lives here, so a mechanism
/// serving many releases allocates them **once** instead of per call.
///
/// [`CgWorkspace::allocations`] counts buffer (re)allocations: after a
/// warm-up solve it stays flat across further same-shape solves — the
/// bench notes pin the before/after story on this counter.
#[derive(Clone, Debug, Default)]
pub struct CgWorkspace {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    diag: Vec<f64>,
    diag_inv: Vec<f64>,
    row_scratch: Vec<f64>,
    pc_scratch: Vec<f64>,
    allocations: usize,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        CgWorkspace::default()
    }

    /// How many buffer (re)allocations this workspace has performed.
    /// Same-shape solve sequences pay them only on the first solve.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    fn ensure(buf: &mut Vec<f64>, len: usize, allocations: &mut usize) {
        if buf.len() != len {
            *allocations += 1;
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

/// Which preconditioner a Gram-system solve runs under.
#[derive(Clone, Copy, Debug)]
pub enum GramPreconditioner<'a> {
    /// `diag(AᵀA)` computed on the fly (one O(nnz) sweep per solve).
    Jacobi,
    /// A caller-cached `diag(AᵀA)` (e.g. computed once at plan time) —
    /// skips the per-solve O(nnz) recompute.
    JacobiWith(&'a [f64]),
    /// An IC(0) incomplete-Cholesky factor of the Gram matrix
    /// ([`crate::sparse_cholesky::incomplete_cholesky0`]), applied as
    /// two zero-allocation triangular solves per iteration. Used when
    /// the *complete* factor's predicted fill exceeds the caller's
    /// budget but the Gram matrix itself is still formable.
    Ic0(&'a SparseCholesky),
}

/// Preconditioned CG over an abstract SPD operator, working entirely out
/// of `ws`. `apply` computes `out = Op(x)` and may use the provided
/// row-space scratch (length `scratch_len`); `chol_pc = None` applies
/// the Jacobi preconditioner from `ws.diag_inv` (already validated by
/// the caller).
#[allow(clippy::too_many_arguments)]
fn pcg_core(
    what: &'static str,
    n: usize,
    scratch_len: usize,
    b: &[f64],
    opts: CgOptions,
    chol_pc: Option<&SparseCholesky>,
    ws: &mut CgWorkspace,
    mut apply: impl FnMut(&[f64], &mut [f64], &mut [f64]) -> Result<(), LinalgError>,
) -> Result<CgSolution, LinalgError> {
    let max_iter = if opts.max_iter == 0 {
        10 * n + 50
    } else {
        opts.max_iter
    };
    let bnorm = dot(b, b).sqrt();
    if bnorm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let allocs = &mut ws.allocations;
    CgWorkspace::ensure(&mut ws.x, n, allocs);
    CgWorkspace::ensure(&mut ws.r, n, allocs);
    CgWorkspace::ensure(&mut ws.z, n, allocs);
    CgWorkspace::ensure(&mut ws.p, n, allocs);
    CgWorkspace::ensure(&mut ws.ap, n, allocs);
    CgWorkspace::ensure(&mut ws.row_scratch, scratch_len, allocs);
    if chol_pc.is_some() {
        CgWorkspace::ensure(&mut ws.pc_scratch, n, allocs);
    }

    ws.x.fill(0.0);
    ws.r.copy_from_slice(b);
    match chol_pc {
        Some(c) => {
            ws.z.copy_from_slice(&ws.r);
            c.solve_in_place(&mut ws.z, &mut ws.pc_scratch);
        }
        None => {
            for i in 0..n {
                ws.z[i] = ws.r[i] * ws.diag_inv[i];
            }
        }
    }
    ws.p.copy_from_slice(&ws.z);
    let mut rz = dot(&ws.r, &ws.z);

    for it in 0..max_iter {
        apply(&ws.p, &mut ws.row_scratch, &mut ws.ap)?;
        let pap = dot(&ws.p, &ws.ap);
        if pap <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: it });
        }
        let alpha = rz / pap;
        for i in 0..n {
            ws.x[i] += alpha * ws.p[i];
            ws.r[i] -= alpha * ws.ap[i];
        }
        let rnorm = dot(&ws.r, &ws.r).sqrt();
        if rnorm / bnorm <= opts.tol {
            return Ok(CgSolution {
                x: ws.x.clone(),
                iterations: it + 1,
                residual: rnorm / bnorm,
            });
        }
        match chol_pc {
            Some(c) => {
                ws.z.copy_from_slice(&ws.r);
                c.solve_in_place(&mut ws.z, &mut ws.pc_scratch);
            }
            None => {
                for i in 0..n {
                    ws.z[i] = ws.r[i] * ws.diag_inv[i];
                }
            }
        }
        let rz_new = dot(&ws.r, &ws.z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            ws.p[i] = ws.z[i] + beta * ws.p[i];
        }
    }
    Err(LinalgError::NoConvergence {
        what,
        iterations: max_iter,
    })
}

/// Validates `diag > 0` and stores its inverse in `ws.diag_inv`.
fn invert_diag_into(ws: &mut CgWorkspace, n: usize) -> Result<(), LinalgError> {
    let allocs = &mut ws.allocations;
    CgWorkspace::ensure(&mut ws.diag_inv, n, allocs);
    for i in 0..n {
        let d = ws.diag[i];
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        ws.diag_inv[i] = 1.0 / d;
    }
    Ok(())
}

/// Solves `A x = b` for sparse SPD `A` with Jacobi-preconditioned CG.
pub fn conjugate_gradient(
    a: &SparseMatrix,
    b: &[f64],
    opts: CgOptions,
) -> Result<CgSolution, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (b.len(), 1),
        });
    }
    let mut ws = CgWorkspace::new();
    CgWorkspace::ensure(&mut ws.diag, n, &mut ws.allocations);
    for i in 0..n {
        ws.diag[i] = a.get(i, i);
    }
    invert_diag_into(&mut ws, n)?;
    pcg_core(
        "conjugate gradient",
        n,
        0,
        b,
        opts,
        None,
        &mut ws,
        |x, _scratch, y| a.matvec_into(x, y),
    )
}

/// Applies the pseudoinverse of a full-column-rank sparse strategy `A` to
/// `y` by solving the normal equations `AᵀA x = Aᵀ y` matrix-free.
///
/// `AᵀA` is never materialized: each CG iteration applies it as
/// `x ↦ Aᵀ(A x)` (two O(nnz) matvecs through a reused row-space scratch
/// buffer), and the Jacobi preconditioner is [`SparseMatrix::col_sq_norms`].
/// Peak memory is O(nnz + rows + cols), which is what lets the matrix
/// mechanism serve releases at k = 65 536 where the dense k×k
/// pseudoinverse (32 GiB) cannot exist.
///
/// Requires `A` to have full column rank; a structurally empty column is
/// rejected up front as [`LinalgError::NotPositiveDefinite`], and rank
/// deficiency among nonempty columns surfaces the same way mid-iteration.
/// See [`CgOptions`] for tolerance guidance — the residual is measured on
/// the normal-equation system, so agreement with a dense reference to
/// ≤1e-9 wants `tol = 1e-12`.
pub fn solve_normal_equations(
    a: &SparseMatrix,
    y: &[f64],
    opts: CgOptions,
) -> Result<CgSolution, LinalgError> {
    solve_normal_equations_with(
        a,
        y,
        opts,
        GramPreconditioner::Jacobi,
        &mut CgWorkspace::new(),
    )
}

/// [`solve_normal_equations`] with a caller-chosen preconditioner and a
/// reusable [`CgWorkspace`] — the plan-once/serve-many entry point: a
/// mechanism holding the workspace (and, ideally, a cached
/// [`GramPreconditioner::JacobiWith`] diagonal or an
/// [`GramPreconditioner::Ic0`] factor) pays zero steady-state
/// allocations beyond the returned solution vector.
pub fn solve_normal_equations_with(
    a: &SparseMatrix,
    y: &[f64],
    opts: CgOptions,
    pc: GramPreconditioner<'_>,
    ws: &mut CgWorkspace,
) -> Result<CgSolution, LinalgError> {
    if y.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), 1),
            got: (y.len(), 1),
        });
    }
    let b = a.matvec_transpose(y)?;
    solve_gram_system_with(a, &b, opts, pc, ws)
}

/// Solves `AᵀA x = b` matrix-free for a column-space right-hand side `b`
/// (length `a.cols()`).
///
/// [`solve_normal_equations`] is this with `b = Aᵀ y`; the direct entry
/// exists for callers that already hold a column-space vector — e.g. the
/// matrix mechanism's per-query error, which needs `(AᵀA)⁻¹ wᵢ` for a
/// workload row `wᵢ`. Same preconditioner, memory profile, and typed
/// failure modes as [`solve_normal_equations`].
pub fn solve_gram_system(
    a: &SparseMatrix,
    b: &[f64],
    opts: CgOptions,
) -> Result<CgSolution, LinalgError> {
    solve_gram_system_with(
        a,
        b,
        opts,
        GramPreconditioner::Jacobi,
        &mut CgWorkspace::new(),
    )
}

/// [`solve_gram_system`] with a caller-chosen preconditioner and a
/// reusable [`CgWorkspace`]. See [`solve_normal_equations_with`].
pub fn solve_gram_system_with(
    a: &SparseMatrix,
    b: &[f64],
    opts: CgOptions,
    pc: GramPreconditioner<'_>,
    ws: &mut CgWorkspace,
) -> Result<CgSolution, LinalgError> {
    let n = a.cols();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (b.len(), 1),
        });
    }
    let chol_pc = match pc {
        GramPreconditioner::Jacobi => {
            let allocs = &mut ws.allocations;
            CgWorkspace::ensure(&mut ws.diag, n, allocs);
            ws.diag.fill(0.0);
            for i in 0..a.rows() {
                for (j, v) in a.row(i) {
                    ws.diag[j] += v * v;
                }
            }
            invert_diag_into(ws, n)?;
            None
        }
        GramPreconditioner::JacobiWith(diag) => {
            if diag.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    expected: (n, 1),
                    got: (diag.len(), 1),
                });
            }
            let allocs = &mut ws.allocations;
            CgWorkspace::ensure(&mut ws.diag, n, allocs);
            ws.diag.copy_from_slice(diag);
            invert_diag_into(ws, n)?;
            None
        }
        GramPreconditioner::Ic0(chol) => {
            if chol.n() != n {
                return Err(LinalgError::ShapeMismatch {
                    expected: (n, n),
                    got: (chol.n(), chol.n()),
                });
            }
            Some(chol)
        }
    };
    pcg_core(
        "normal-equation conjugate gradient",
        n,
        a.rows(),
        b,
        opts,
        chol_pc,
        ws,
        |x, scratch, out| {
            a.matvec_into(x, scratch)?;
            a.matvec_transpose_into(scratch, out)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Grounded Laplacian of a path on `n` vertices with a ⊥-edge at the end.
    fn grounded_path_laplacian(n: usize) -> SparseMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut deg = 0.0;
            if i > 0 {
                deg += 1.0;
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                deg += 1.0;
                b.push(i, i + 1, -1.0);
            }
            if i == n - 1 {
                deg += 1.0; // edge to ⊥ grounds the system
            }
            b.push(i, i, deg);
        }
        b.build()
    }

    #[test]
    fn solves_grounded_path() {
        let n = 50;
        let a = grounded_path_laplacian(n);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&xtrue).unwrap();
        let sol = conjugate_gradient(&a, &b, CgOptions::default()).unwrap();
        for (u, v) in sol.x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn solves_grid_laplacian() {
        // Grounded Laplacian of a 10x10 grid with one corner tied to ⊥.
        let k = 10;
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut b = TripletBuilder::new(n, n);
        let mut deg = vec![0.0_f64; n];
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                if c + 1 < k {
                    let v = idx(r, c + 1);
                    b.push(u, v, -1.0);
                    b.push(v, u, -1.0);
                    deg[u] += 1.0;
                    deg[v] += 1.0;
                }
                if r + 1 < k {
                    let v = idx(r + 1, c);
                    b.push(u, v, -1.0);
                    b.push(v, u, -1.0);
                    deg[u] += 1.0;
                    deg[v] += 1.0;
                }
            }
        }
        deg[0] += 1.0; // corner grounded
        for (i, d) in deg.iter().enumerate() {
            b.push(i, i, *d);
        }
        let a = b.build();
        let xtrue: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let rhs = a.matvec(&xtrue).unwrap();
        let sol = conjugate_gradient(&a, &rhs, CgOptions::default()).unwrap();
        for (u, v) in sol.x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = grounded_path_laplacian(5);
        let sol = conjugate_gradient(&a, &[0.0; 5], CgOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = grounded_path_laplacian(5);
        assert!(conjugate_gradient(&a, &[0.0; 4], CgOptions::default()).is_err());
    }

    #[test]
    fn rejects_zero_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let a = b.build();
        assert!(conjugate_gradient(&a, &[1.0, 1.0], CgOptions::default()).is_err());
    }

    #[test]
    fn iteration_cap_respected() {
        let a = grounded_path_laplacian(100);
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let res = conjugate_gradient(
            &a,
            &b,
            CgOptions {
                tol: 1e-14,
                max_iter: 2,
            },
        );
        assert!(matches!(res, Err(LinalgError::NoConvergence { .. })));
    }

    /// A small full-column-rank tall strategy for normal-equation tests.
    fn tall_strategy() -> SparseMatrix {
        // 6x4: identity rows plus two range rows.
        let mut b = TripletBuilder::new(6, 4);
        for j in 0..4 {
            b.push(j, j, 1.0);
        }
        for j in 0..4 {
            b.push(4, j, 1.0); // total row (dense in AᵀA!)
        }
        b.push(5, 1, 1.0);
        b.push(5, 2, 1.0);
        b.build()
    }

    #[test]
    fn normal_equations_match_dense_least_squares() {
        let a = tall_strategy();
        let y = [2.0, -1.0, 0.5, 3.0, 4.0, 1.0];
        let sol = solve_normal_equations(
            &a,
            &y,
            CgOptions {
                tol: 1e-12,
                max_iter: 0,
            },
        )
        .unwrap();
        // Dense reference: x = (AᵀA)⁻¹ Aᵀ y via pseudoinverse.
        let pinv = crate::svd::pseudoinverse(&a.to_dense()).unwrap();
        let reference = pinv.matvec(&y).unwrap();
        for (u, v) in sol.x.iter().zip(&reference) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
        // The residual of the solved system is genuinely small.
        assert!(sol.residual <= 1e-12);
    }

    #[test]
    fn normal_equations_on_identity_are_exact_and_instant() {
        let a = SparseMatrix::identity(8);
        let y: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        let sol = solve_normal_equations(&a, &y, CgOptions::default()).unwrap();
        assert!(sol.iterations <= 2);
        for (u, v) in sol.x.iter().zip(&y) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_equations_reject_empty_column() {
        // Column 2 is structurally empty: rank deficient, typed rejection.
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        b.push(2, 1, 1.0);
        let a = b.build();
        let res = solve_normal_equations(&a, &[1.0, 1.0, 1.0], CgOptions::default());
        assert!(matches!(
            res,
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        ));
    }

    #[test]
    fn normal_equations_reject_bad_shape_and_short_circuit_zero() {
        let a = tall_strategy();
        assert!(solve_normal_equations(&a, &[1.0; 4], CgOptions::default()).is_err());
        let sol = solve_normal_equations(&a, &[0.0; 6], CgOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn workspace_allocations_flatten_after_first_solve() {
        let a = tall_strategy();
        let y = [2.0, -1.0, 0.5, 3.0, 4.0, 1.0];
        let mut ws = CgWorkspace::new();
        let first = solve_normal_equations_with(
            &a,
            &y,
            CgOptions::default(),
            GramPreconditioner::Jacobi,
            &mut ws,
        )
        .unwrap();
        let after_first = ws.allocations();
        assert!(after_first > 0);
        for _ in 0..5 {
            let again = solve_normal_equations_with(
                &a,
                &y,
                CgOptions::default(),
                GramPreconditioner::Jacobi,
                &mut ws,
            )
            .unwrap();
            for (u, v) in again.x.iter().zip(&first.x) {
                assert!((u - v).abs() < 1e-12);
            }
        }
        assert_eq!(
            ws.allocations(),
            after_first,
            "steady-state solves must not grow the workspace"
        );
    }

    #[test]
    fn cached_jacobi_diag_matches_on_the_fly() {
        let a = tall_strategy();
        let y = [1.0, 0.0, -2.0, 0.5, 3.0, -1.0];
        let diag = a.col_sq_norms();
        let mut ws = CgWorkspace::new();
        let cached = solve_normal_equations_with(
            &a,
            &y,
            CgOptions::default(),
            GramPreconditioner::JacobiWith(&diag),
            &mut ws,
        )
        .unwrap();
        let fresh = solve_normal_equations(&a, &y, CgOptions::default()).unwrap();
        for (u, v) in cached.x.iter().zip(&fresh.x) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn ic0_preconditioner_converges_faster_and_agrees() {
        use crate::sparse_cholesky::incomplete_cholesky0;
        // A gram matrix with enough structure that IC(0) beats Jacobi.
        let a = grounded_path_laplacian(60);
        let gram = a.transpose().matmul(&a).unwrap();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.13).cos()).collect();
        let ic = incomplete_cholesky0(&gram).unwrap();
        let mut ws = CgWorkspace::new();
        let opts = CgOptions {
            tol: 1e-12,
            max_iter: 0,
        };
        let pc =
            solve_gram_system_with(&a, &b, opts, GramPreconditioner::Ic0(&ic), &mut ws).unwrap();
        let jacobi = solve_gram_system(&a, &b, opts).unwrap();
        for (u, v) in pc.x.iter().zip(&jacobi.x) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        assert!(
            pc.iterations <= jacobi.iterations,
            "IC(0) took {} vs Jacobi {}",
            pc.iterations,
            jacobi.iterations
        );
    }

    #[test]
    fn normal_equations_converge_in_spectrum_clusters() {
        // AᵀA of the tall strategy has few distinct eigenvalues; CG should
        // converge in far fewer than n iterations.
        let a = tall_strategy();
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sol = solve_normal_equations(&a, &y, CgOptions::default()).unwrap();
        assert!(sol.iterations <= 4, "took {}", sol.iterations);
    }
}
