//! Conjugate gradient for sparse symmetric positive-definite systems.
//!
//! Two SPD systems dominate Blowfish planning. The min-norm transformed
//! database `x_G = P_Gᵀ (P_G P_Gᵀ)⁻¹ x` solves against the *grounded graph
//! Laplacian* `L = P_G P_Gᵀ` — sparse, SPD (whenever the policy graph is
//! connected and touches ⊥), and far too large to densify for grid
//! policies. The matrix mechanism's reconstruction `A⁺ ỹ = (AᵀA)⁻¹ Aᵀ ỹ`
//! solves the *normal equations* of a full-column-rank strategy `A`; the
//! planner factors `AᵀA` once whenever it can, and a strategy it cannot
//! factor is served by matrix-free CG instead.
//!
//! Both run through one Jacobi-preconditioned CG core:
//!
//! * [`conjugate_gradient`] — solve `A x = b` for an explicit sparse SPD
//!   `A`, preconditioned by `diag(A)`.
//! * [`solve_gram_system`] — solve `AᵀA x = b` for a sparse
//!   (rectangular, full column rank) `A`, applying `AᵀA` as two
//!   matvecs per iteration and preconditioning by a caller-cached
//!   `diag(AᵀA)` ([`SparseMatrix::col_sq_norms`], O(nnz) once at plan
//!   time). Peak memory is O(nnz + rows + cols); no k×k object is ever
//!   formed, and a reusable [`CgWorkspace`] keeps steady-state solves
//!   allocation-free.
//!
//! Solvers either converge to the requested tolerance or fail typed
//! ([`LinalgError::NoConvergence`] with the iteration count, or
//! [`LinalgError::NotPositiveDefinite`] when the operator betrays
//! indefiniteness mid-iteration) — an unconverged `x` is never returned
//! silently.

use crate::dense::dot;
use crate::sparse::SparseMatrix;
use crate::LinalgError;

/// Options for [`conjugate_gradient`] and [`solve_gram_system`].
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
/// needs (`x`, `r`, `z`, `p`, `Ap`, the inverted preconditioner diagonal,
/// the row-space matvec scratch) lives here, so a mechanism
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
    diag_inv: Vec<f64>,
    row_scratch: Vec<f64>,
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

/// Jacobi-preconditioned CG over an abstract SPD operator, working
/// entirely out of `ws`. `apply` computes `out = Op(x)` and may use the
/// provided row-space scratch (length `scratch_len`); the preconditioner
/// is `ws.diag_inv` (already validated by the caller).
fn pcg_core(
    what: &'static str,
    n: usize,
    scratch_len: usize,
    b: &[f64],
    opts: CgOptions,
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

    ws.x.fill(0.0);
    ws.r.copy_from_slice(b);
    for i in 0..n {
        ws.z[i] = ws.r[i] * ws.diag_inv[i];
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
        for i in 0..n {
            ws.z[i] = ws.r[i] * ws.diag_inv[i];
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
fn invert_diag_into(ws: &mut CgWorkspace, diag: &[f64]) -> Result<(), LinalgError> {
    CgWorkspace::ensure(&mut ws.diag_inv, diag.len(), &mut ws.allocations);
    for (i, (&d, inv)) in diag.iter().zip(&mut ws.diag_inv).enumerate() {
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        *inv = 1.0 / d;
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
    let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
    let mut ws = CgWorkspace::new();
    invert_diag_into(&mut ws, &diag)?;
    pcg_core(
        "conjugate gradient",
        n,
        0,
        b,
        opts,
        &mut ws,
        |x, _scratch, y| a.matvec_into(x, y),
    )
}

/// Solves the Gram system `AᵀA x = b` matrix-free for a full-column-rank
/// sparse strategy `A` and a column-space right-hand side `b` (length
/// `a.cols()`): `b = Aᵀ y` applies the pseudoinverse `A⁺ y`, and a
/// workload row `b = wᵢ` gives the matrix mechanism's per-query error.
///
/// `AᵀA` is never materialized: each CG iteration applies it as
/// `x ↦ Aᵀ(A x)` (two O(nnz) matvecs through the workspace's row-space
/// scratch). `diag` is the Jacobi preconditioner `diag(AᵀA)` — cache
/// [`SparseMatrix::col_sq_norms`] once per strategy — and `ws` is reused
/// across solves, so a mechanism serving many releases pays zero
/// steady-state allocations beyond the returned solution vector.
///
/// Requires `A` to have full column rank; a structurally empty column
/// (a zero in `diag`) is rejected up front as
/// [`LinalgError::NotPositiveDefinite`], and rank deficiency among
/// nonempty columns surfaces the same way mid-iteration. See
/// [`CgOptions`] for tolerance guidance — the residual is measured on the
/// Gram system, so agreement with a dense reference to ≤1e-9 wants
/// `tol = 1e-12`.
pub fn solve_gram_system(
    a: &SparseMatrix,
    b: &[f64],
    opts: CgOptions,
    diag: &[f64],
    ws: &mut CgWorkspace,
) -> Result<CgSolution, LinalgError> {
    let n = a.cols();
    for len in [b.len(), diag.len()] {
        if len != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                got: (len, 1),
            });
        }
    }
    invert_diag_into(ws, diag)?;
    pcg_core(
        "normal-equation conjugate gradient",
        n,
        a.rows(),
        b,
        opts,
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

    /// `A⁺ y` through the one Gram entry point: `AᵀA x = Aᵀ y` under the
    /// strategy's own cached Jacobi diagonal.
    fn normal_equations(
        a: &SparseMatrix,
        y: &[f64],
        opts: CgOptions,
    ) -> Result<CgSolution, LinalgError> {
        let b = a.matvec_transpose(y)?;
        solve_gram_system(a, &b, opts, &a.col_sq_norms(), &mut CgWorkspace::new())
    }

    #[test]
    fn normal_equations_match_dense_least_squares() {
        let a = tall_strategy();
        let y = [2.0, -1.0, 0.5, 3.0, 4.0, 1.0];
        let sol = normal_equations(
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
        let sol = normal_equations(&a, &y, CgOptions::default()).unwrap();
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
        let res = normal_equations(&a, &[1.0, 1.0, 1.0], CgOptions::default());
        assert!(matches!(
            res,
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        ));
    }

    #[test]
    fn normal_equations_reject_bad_shape_and_short_circuit_zero() {
        let a = tall_strategy();
        let opts = CgOptions::default();
        assert!(normal_equations(&a, &[1.0; 4], opts).is_err());
        // A right-hand side or diagonal off the column space is typed.
        let diag = a.col_sq_norms();
        let mut ws = CgWorkspace::new();
        for (b, d) in [(&[1.0; 3][..], &diag[..]), (&[1.0; 4][..], &diag[..3])] {
            assert!(matches!(
                solve_gram_system(&a, b, opts, d, &mut ws),
                Err(LinalgError::ShapeMismatch {
                    expected: (4, 1),
                    got: (3, 1)
                })
            ));
        }
        let sol = normal_equations(&a, &[0.0; 6], opts).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn workspace_allocations_flatten_after_first_solve() {
        let a = tall_strategy();
        let b = a
            .matvec_transpose(&[2.0, -1.0, 0.5, 3.0, 4.0, 1.0])
            .unwrap();
        let diag = a.col_sq_norms();
        let mut ws = CgWorkspace::new();
        let first = solve_gram_system(&a, &b, CgOptions::default(), &diag, &mut ws).unwrap();
        let after_first = ws.allocations();
        assert!(after_first > 0);
        for _ in 0..5 {
            let again = solve_gram_system(&a, &b, CgOptions::default(), &diag, &mut ws).unwrap();
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
        // The cached `col_sq_norms` diagonal is exactly diag(AᵀA) read
        // off the explicitly formed Gram, and both precondition the same
        // solve to the same answer.
        let a = tall_strategy();
        let b = a
            .matvec_transpose(&[1.0, 0.0, -2.0, 0.5, 3.0, -1.0])
            .unwrap();
        let cached = a.col_sq_norms();
        let gram = a.gram();
        let fresh: Vec<f64> = (0..a.cols()).map(|j| gram.get(j, j)).collect();
        assert_eq!(cached, fresh);
        let mut ws = CgWorkspace::new();
        let x1 = solve_gram_system(&a, &b, CgOptions::default(), &cached, &mut ws).unwrap();
        let x2 = solve_gram_system(&a, &b, CgOptions::default(), &fresh, &mut ws).unwrap();
        for (u, v) in x1.x.iter().zip(&x2.x) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_equations_converge_in_spectrum_clusters() {
        // AᵀA of the tall strategy has few distinct eigenvalues; CG should
        // converge in far fewer than n iterations.
        let a = tall_strategy();
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sol = normal_equations(&a, &y, CgOptions::default()).unwrap();
        assert!(sol.iterations <= 4, "took {}", sol.iterations);
    }
}
