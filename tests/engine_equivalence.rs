//! Seeded equivalence: every registry-dispatched mechanism must reproduce
//! the corresponding pre-refactor free-function output **bit-for-bit**
//! for a fixed seed — the refactor's no-behavior-change contract.
//!
//! Covers 1-D (line and θ-line policies) and 2-D (grid and θ-grid) at
//! two ε values each, plus the answering path (a fitted `Estimate` must
//! answer ranges exactly like `answer_ranges_*` on the raw histogram).

use blowfish_privacy::linalg::Matrix;
use blowfish_privacy::mechanisms::{hierarchical_strategy, identity_strategy, wavelet_strategy};
use blowfish_privacy::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILONS: [f64; 2] = [0.1, 1.0];

fn db_1d(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k).map(|i| ((i * 7) % 13) as f64).collect();
    DataVector::new(Domain::one_dim(k), counts).unwrap()
}

fn db_2d(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k * k).map(|i| ((i * 3) % 5) as f64).collect();
    DataVector::new(Domain::square(k), counts).unwrap()
}

/// Fits a spec through the engine at an explicit ε and returns the raw
/// histogram.
fn fit_via_engine(
    session: &Session,
    spec: &MechanismSpec,
    x: &DataVector,
    eps: Epsilon,
    seed: u64,
) -> Vec<f64> {
    let mech = session.mechanism_at(spec, eps).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    mech.fit(x, &mut rng).unwrap().into_histogram()
}

#[test]
fn line_policy_mechanisms_match_free_functions() {
    let k = 64;
    let x = db_1d(k);
    let graph = PolicyGraph::line(k).unwrap();
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let seed = 100 + i as u64;

        let via = fit_via_engine(&session, &MechanismSpec::Laplace, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(via, dp_laplace(&x, eps, &mut rng).unwrap(), "laplace ε={e}");

        let via = fit_via_engine(&session, &MechanismSpec::Privelet1d, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            via,
            dp_privelet_1d(&x, eps, &mut rng).unwrap(),
            "privelet ε={e}"
        );

        let via = fit_via_engine(&session, &MechanismSpec::Dawa1d, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(via, dp_dawa_1d(&x, eps, &mut rng).unwrap(), "dawa ε={e}");

        for est in [
            TreeEstimator::Laplace,
            TreeEstimator::LaplaceConsistent,
            TreeEstimator::Dawa,
            TreeEstimator::DawaConsistent,
            TreeEstimator::Hierarchical,
            TreeEstimator::HierarchicalConsistent,
        ] {
            let via = fit_via_engine(&session, &MechanismSpec::Line(est), &x, eps, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                via,
                line_blowfish_histogram(&x, eps, est, &mut rng).unwrap(),
                "line {est:?} ε={e}"
            );
        }
    }
}

#[test]
fn theta_line_mechanisms_match_strategy_calls() {
    let k = 96;
    let theta = 4;
    let x = db_1d(k);
    let graph = PolicyGraph::theta_line(k, theta).unwrap();
    let strat = ThetaLineStrategy::new(k, theta).unwrap();
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let seed = 200 + i as u64;
        for est in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            let spec = MechanismSpec::ThetaLine {
                theta,
                estimator: est,
            };
            let via = fit_via_engine(&session, &spec, &x, eps, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                via,
                strat.histogram(&x, eps, est, &mut rng).unwrap(),
                "θ-line {est:?} ε={e}"
            );
        }
    }
}

#[test]
fn grid_mechanisms_match_free_functions() {
    let k = 16;
    let x = db_2d(k);
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session =
            Session::with_policy(Domain::square(k), Policy::Theta2d { theta: 1 }, eps).unwrap();
        let seed = 300 + i as u64;

        let via = fit_via_engine(&session, &MechanismSpec::PriveletNd, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            via,
            dp_privelet_nd(&x, eps, &mut rng).unwrap(),
            "privelet-nd ε={e}"
        );

        let via = fit_via_engine(&session, &MechanismSpec::Dawa2d, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            via,
            blowfish_privacy::strategies::dp_dawa_2d(&x, eps, &mut rng).unwrap(),
            "dawa-2d ε={e}"
        );

        // The cached-plan grid mechanism vs the plan-per-call free fn.
        let via = fit_via_engine(&session, &MechanismSpec::Grid, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            via,
            grid_blowfish_histogram(&x, eps, &mut rng).unwrap(),
            "grid ε={e}"
        );
    }
}

#[test]
fn theta_grid_mechanism_matches_strategy_call() {
    let k = 12;
    let theta = 4;
    let x = db_2d(k);
    let strat = ThetaGridStrategy::new(k, theta).unwrap();
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session =
            Session::with_policy(Domain::square(k), Policy::Theta2d { theta }, eps).unwrap();
        let seed = 400 + i as u64;
        let via = fit_via_engine(&session, &MechanismSpec::ThetaGrid { theta }, &x, eps, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            via,
            strat.histogram(&x, eps, &mut rng).unwrap(),
            "θ-grid ε={e}"
        );
    }
}

#[test]
fn estimates_answer_like_the_answering_helpers() {
    // The serve path must be bit-identical too: Estimate::answer_all vs
    // answer_ranges_* on the same raw histogram.
    let k = 64;
    let x = db_1d(k);
    let eps = Epsilon::new(0.5).unwrap();
    let graph = PolicyGraph::line(k).unwrap();
    let session = Session::new(&graph, eps).unwrap();
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(9);
    let (_, specs) = Workload::random_ranges(&d, 500, &mut qrng).unwrap();
    let mech = session
        .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let est = mech.fit(&x, &mut rng).unwrap();
    assert_eq!(
        est.answer_all(&specs).unwrap(),
        answer_ranges_1d(est.histogram(), &specs).unwrap()
    );

    let x2 = db_2d(16);
    let s2 = Session::with_policy(Domain::square(16), Policy::Theta2d { theta: 1 }, eps).unwrap();
    let d2 = Domain::square(16);
    let mut qrng = StdRng::seed_from_u64(10);
    let (_, specs2) = Workload::random_ranges(&d2, 300, &mut qrng).unwrap();
    let mech2 = s2.mechanism(&MechanismSpec::Grid).unwrap();
    let mut rng = StdRng::seed_from_u64(78);
    let est2 = mech2.fit(&x2, &mut rng).unwrap();
    assert_eq!(
        est2.answer_all(&specs2).unwrap(),
        answer_ranges_2d(est2.histogram(), 16, 16, &specs2).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's one matrix-mechanism path (CSR strategy, factored
    /// gram solve) must reproduce a dense materialized-A⁺ oracle to
    /// ≤1e-9 relative, for every strategy kind, any domain size, and any
    /// seed. Transformational equivalence makes this checkable: both
    /// draw the identical Laplace vector from the same seed, so the only
    /// divergence left is the solver.
    #[test]
    fn matrix_hist_sparse_and_dense_paths_agree(
        k in 2usize..160,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kind = [
            MatrixStrategyKind::Identity,
            MatrixStrategyKind::Hierarchical,
            MatrixStrategyKind::Wavelet,
        ][kind_ix];
        let spec = MechanismSpec::MatrixHist { strategy: kind };
        let x = db_1d(k);
        let eps = Epsilon::new(0.4).unwrap();
        let graph = PolicyGraph::line(k).unwrap();

        let dense_strategy = match kind {
            MatrixStrategyKind::Identity => identity_strategy(k),
            MatrixStrategyKind::Hierarchical => hierarchical_strategy(k),
            MatrixStrategyKind::Wavelet => wavelet_strategy(k),
        };
        let oracle = MatrixMechanism::new(Matrix::identity(k), dense_strategy).unwrap();
        let dense = oracle.run(x.counts(), eps, &mut StdRng::seed_from_u64(seed)).unwrap();

        let session = Session::new(&graph, eps).unwrap();
        let sparse = fit_via_engine(&session, &spec, &x, eps, seed);
        prop_assert_eq!(session.cache().stats().sparse_matrix_builds(), 1);
        for (d, s) in dense.iter().zip(&sparse) {
            prop_assert!(
                (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                "k={} kind={:?} seed={}: {} vs {}", k, kind, seed, d, s
            );
        }
    }
}

#[test]
fn session_budget_convention_matches_experiment_harness() {
    // Session::mechanism serves baselines at ε/2 and Blowfish at ε — the
    // Section 6 comparison convention the panels rely on.
    let k = 32;
    let x = db_1d(k);
    let eps = Epsilon::new(1.0).unwrap();
    let graph = PolicyGraph::line(k).unwrap();
    let session = Session::new(&graph, eps).unwrap();

    let base = session.mechanism(&MechanismSpec::Laplace).unwrap();
    let mut a = StdRng::seed_from_u64(5);
    let mut b = StdRng::seed_from_u64(5);
    assert_eq!(
        base.fit(&x, &mut a).unwrap().into_histogram(),
        dp_laplace(&x, eps.half(), &mut b).unwrap()
    );

    let blowfish = session
        .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
        .unwrap();
    let mut a = StdRng::seed_from_u64(6);
    let mut b = StdRng::seed_from_u64(6);
    assert_eq!(
        blowfish.fit(&x, &mut a).unwrap().into_histogram(),
        line_blowfish_histogram(&x, eps, TreeEstimator::Laplace, &mut b).unwrap()
    );
}
