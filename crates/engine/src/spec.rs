//! Mechanism specifications: the registry's name layer.
//!
//! A [`MechanismSpec`] is pure data — which algorithm, with which
//! estimator/threshold — and is what experiment configs, serving requests,
//! and the planner trade in. [`crate::Session`] turns a spec into a live
//! [`blowfish_strategies::Mechanism`] against its plan cache.
//!
//! Every baseline and Blowfish strategy used by the Figure 8/9 panels is
//! enumerable here, by stable id ([`MechanismSpec::id`] /
//! [`MechanismSpec::parse`]) and by figure-legend label
//! ([`MechanismSpec::label`]).

use blowfish_strategies::{ThetaEstimator, TreeEstimator};

/// The query workload class a plan serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// The identity workload `I_k` (the Hist panels).
    Histogram,
    /// Random 1-D range queries `R_k`.
    Range1d,
    /// Random 2-D range queries `R_{k²}`.
    Range2d,
}

/// A named, parameterized mechanism: every baseline and Blowfish strategy
/// the experiment panels use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MechanismSpec {
    /// ε-DP Laplace histogram baseline.
    Laplace,
    /// ε-DP Privelet baseline over a 1-D domain.
    Privelet1d,
    /// ε-DP Privelet baseline over a multi-dimensional domain.
    PriveletNd,
    /// ε-DP DAWA baseline over a 1-D domain.
    Dawa1d,
    /// ε-DP DAWA baseline over a 2-D domain (row-major linearization).
    Dawa2d,
    /// The `G¹_k` line strategy (Algorithm 1 / Section 5.4 variants).
    Line(TreeEstimator),
    /// The generic tree-policy strategy through the cached incidence.
    Tree(TreeEstimator),
    /// The `G^θ_k` strategy through the cached `H^θ_k` spanner.
    ThetaLine {
        /// Policy threshold θ.
        theta: usize,
        /// Edge-space estimator.
        estimator: ThetaEstimator,
    },
    /// The `G¹_{k²}` grid strategy (`Transformed + Privelet`).
    Grid,
    /// The `G^θ_{k²}` strategy through the cached block spanner.
    ThetaGrid {
        /// Policy threshold θ.
        theta: usize,
    },
    /// The ε-DP matrix mechanism on the histogram workload `I_k` with a
    /// named strategy. Planned at every domain size through the one
    /// factored path: CSR strategy, `AᵀA` factored once by the
    /// strategy's shared gram solver and two triangular solves per
    /// release (preconditioned CG if the factor budgets decline), up to
    /// k≈10⁵ domains.
    MatrixHist {
        /// Which strategy matrix answers the histogram.
        strategy: MatrixStrategyKind,
    },
    /// The ε-DP matrix mechanism serving a real W ≠ I workload: the
    /// dyadic 1-D range workload answered from the reconstructed domain
    /// estimate `x̂ = x + A⁺η`. Served through the same factored path
    /// as [`MechanismSpec::MatrixHist`], sharing the strategy's cached
    /// gram solver with it.
    MatrixRange {
        /// Which strategy matrix answers the ranges.
        strategy: MatrixStrategyKind,
    },
}

/// Strategy matrices the [`MechanismSpec::MatrixHist`] mechanism plans
/// with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixStrategyKind {
    /// `A = I_k` (the Laplace mechanism in matrix-mechanism clothing).
    Identity,
    /// The binary hierarchical strategy `H_k` (O(k log k) sparse).
    Hierarchical,
    /// The Haar wavelet strategy `Y_k` (O(k log k) sparse).
    Wavelet,
}

impl MatrixStrategyKind {
    /// The stable id fragment (`identity` / `hierarchical` / `wavelet`)
    /// used in registry ids and plan-cache keys.
    pub fn id(self) -> &'static str {
        match self {
            MatrixStrategyKind::Identity => "identity",
            MatrixStrategyKind::Hierarchical => "hierarchical",
            MatrixStrategyKind::Wavelet => "wavelet",
        }
    }

    fn parse(id: &str) -> Option<MatrixStrategyKind> {
        Some(match id {
            "identity" => MatrixStrategyKind::Identity,
            "hierarchical" => MatrixStrategyKind::Hierarchical,
            "wavelet" => MatrixStrategyKind::Wavelet,
            _ => return None,
        })
    }
}

impl MechanismSpec {
    /// The figure-legend label (matches the paper's series names; not
    /// unique across specs — e.g. 1-D and 2-D Privelet baselines share
    /// "Privelet").
    pub fn label(&self) -> &'static str {
        match self {
            MechanismSpec::Laplace => "Laplace",
            MechanismSpec::Privelet1d | MechanismSpec::PriveletNd => "Privelet",
            MechanismSpec::Dawa1d | MechanismSpec::Dawa2d => "Dawa",
            MechanismSpec::Line(e) | MechanismSpec::Tree(e) => e.name(),
            MechanismSpec::ThetaLine { estimator, .. } => estimator.name(),
            MechanismSpec::Grid | MechanismSpec::ThetaGrid { .. } => "Transformed + Privelet",
            MechanismSpec::MatrixHist { .. } | MechanismSpec::MatrixRange { .. } => {
                "Matrix Mechanism"
            }
        }
    }

    /// A stable, unique registry id, e.g. `line-dawa-consistent` or
    /// `theta-line-4-laplace`. Round-trips through [`MechanismSpec::parse`].
    pub fn id(&self) -> String {
        match self {
            MechanismSpec::Laplace => "dp-laplace".into(),
            MechanismSpec::Privelet1d => "dp-privelet-1d".into(),
            MechanismSpec::PriveletNd => "dp-privelet-nd".into(),
            MechanismSpec::Dawa1d => "dp-dawa-1d".into(),
            MechanismSpec::Dawa2d => "dp-dawa-2d".into(),
            MechanismSpec::Line(e) => format!("line-{}", tree_estimator_id(*e)),
            MechanismSpec::Tree(e) => format!("tree-{}", tree_estimator_id(*e)),
            MechanismSpec::ThetaLine { theta, estimator } => {
                format!("theta-line-{theta}-{}", theta_estimator_id(*estimator))
            }
            MechanismSpec::Grid => "grid".into(),
            MechanismSpec::ThetaGrid { theta } => format!("theta-grid-{theta}"),
            MechanismSpec::MatrixHist { strategy } => format!("mm-hist-{}", strategy.id()),
            MechanismSpec::MatrixRange { strategy } => format!("mm-range-{}", strategy.id()),
        }
    }

    /// Parses a registry id produced by [`MechanismSpec::id`].
    pub fn parse(id: &str) -> Option<MechanismSpec> {
        match id {
            "dp-laplace" => return Some(MechanismSpec::Laplace),
            "dp-privelet-1d" => return Some(MechanismSpec::Privelet1d),
            "dp-privelet-nd" => return Some(MechanismSpec::PriveletNd),
            "dp-dawa-1d" => return Some(MechanismSpec::Dawa1d),
            "dp-dawa-2d" => return Some(MechanismSpec::Dawa2d),
            "grid" => return Some(MechanismSpec::Grid),
            _ => {}
        }
        if let Some(rest) = id.strip_prefix("line-") {
            return parse_tree_estimator(rest).map(MechanismSpec::Line);
        }
        if let Some(rest) = id.strip_prefix("tree-") {
            return parse_tree_estimator(rest).map(MechanismSpec::Tree);
        }
        if let Some(rest) = id.strip_prefix("theta-line-") {
            let (theta, est) = rest.split_once('-')?;
            return Some(MechanismSpec::ThetaLine {
                theta: theta.parse().ok()?,
                estimator: parse_theta_estimator(est)?,
            });
        }
        if let Some(rest) = id.strip_prefix("theta-grid-") {
            return Some(MechanismSpec::ThetaGrid {
                theta: rest.parse().ok()?,
            });
        }
        if let Some(rest) = id.strip_prefix("mm-hist-") {
            return MatrixStrategyKind::parse(rest)
                .map(|strategy| MechanismSpec::MatrixHist { strategy });
        }
        if let Some(rest) = id.strip_prefix("mm-range-") {
            return MatrixStrategyKind::parse(rest)
                .map(|strategy| MechanismSpec::MatrixRange { strategy });
        }
        None
    }

    /// Whether this is an ε/2-DP comparison baseline (Section 6 runs
    /// baselines at half the Blowfish budget to make add/remove DP
    /// comparable with replace-style policies).
    pub fn is_baseline(&self) -> bool {
        matches!(
            self,
            MechanismSpec::Laplace
                | MechanismSpec::Privelet1d
                | MechanismSpec::PriveletNd
                | MechanismSpec::Dawa1d
                | MechanismSpec::Dawa2d
                | MechanismSpec::MatrixHist { .. }
                | MechanismSpec::MatrixRange { .. }
        )
    }

    /// Enumerates every known spec at a representative threshold —
    /// the registry's full catalogue, used by docs and tests.
    pub fn all(theta: usize) -> Vec<MechanismSpec> {
        let mut out = vec![
            MechanismSpec::Laplace,
            MechanismSpec::Privelet1d,
            MechanismSpec::PriveletNd,
            MechanismSpec::Dawa1d,
            MechanismSpec::Dawa2d,
            MechanismSpec::Grid,
            MechanismSpec::ThetaGrid { theta },
        ];
        for e in [
            TreeEstimator::Laplace,
            TreeEstimator::LaplaceConsistent,
            TreeEstimator::Dawa,
            TreeEstimator::DawaConsistent,
            TreeEstimator::Hierarchical,
            TreeEstimator::HierarchicalConsistent,
        ] {
            out.push(MechanismSpec::Line(e));
        }
        for e in [
            TreeEstimator::Laplace,
            TreeEstimator::Dawa,
            TreeEstimator::Hierarchical,
        ] {
            out.push(MechanismSpec::Tree(e));
        }
        for e in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            out.push(MechanismSpec::ThetaLine {
                theta,
                estimator: e,
            });
        }
        for s in [
            MatrixStrategyKind::Identity,
            MatrixStrategyKind::Hierarchical,
            MatrixStrategyKind::Wavelet,
        ] {
            out.push(MechanismSpec::MatrixHist { strategy: s });
            out.push(MechanismSpec::MatrixRange { strategy: s });
        }
        out
    }
}

fn tree_estimator_id(e: TreeEstimator) -> &'static str {
    match e {
        TreeEstimator::Laplace => "laplace",
        TreeEstimator::LaplaceConsistent => "laplace-consistent",
        TreeEstimator::Dawa => "dawa",
        TreeEstimator::DawaConsistent => "dawa-consistent",
        TreeEstimator::Hierarchical => "hierarchical",
        TreeEstimator::HierarchicalConsistent => "hierarchical-consistent",
    }
}

fn parse_tree_estimator(id: &str) -> Option<TreeEstimator> {
    Some(match id {
        "laplace" => TreeEstimator::Laplace,
        "laplace-consistent" => TreeEstimator::LaplaceConsistent,
        "dawa" => TreeEstimator::Dawa,
        "dawa-consistent" => TreeEstimator::DawaConsistent,
        "hierarchical" => TreeEstimator::Hierarchical,
        "hierarchical-consistent" => TreeEstimator::HierarchicalConsistent,
        _ => return None,
    })
}

fn theta_estimator_id(e: ThetaEstimator) -> &'static str {
    match e {
        ThetaEstimator::Laplace => "laplace",
        ThetaEstimator::GroupPrivelet => "group-privelet",
        ThetaEstimator::Dawa => "dawa",
    }
}

fn parse_theta_estimator(id: &str) -> Option<ThetaEstimator> {
    Some(match id {
        "laplace" => ThetaEstimator::Laplace,
        "group-privelet" => ThetaEstimator::GroupPrivelet,
        "dawa" => ThetaEstimator::Dawa,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_round_trip() {
        let all = MechanismSpec::all(4);
        let mut seen = std::collections::HashSet::new();
        for spec in &all {
            let id = spec.id();
            assert!(seen.insert(id.clone()), "duplicate id {id}");
            assert_eq!(MechanismSpec::parse(&id), Some(*spec), "round trip {id}");
            assert!(!spec.label().is_empty());
        }
        assert!(MechanismSpec::parse("no-such-mechanism").is_none());
        assert!(MechanismSpec::parse("theta-line-x-laplace").is_none());
        assert!(MechanismSpec::parse("theta-line-4-nope").is_none());
    }

    #[test]
    fn baseline_classification() {
        assert!(MechanismSpec::Laplace.is_baseline());
        assert!(MechanismSpec::Dawa2d.is_baseline());
        assert!(!MechanismSpec::Grid.is_baseline());
        assert!(!MechanismSpec::Line(TreeEstimator::Laplace).is_baseline());
        // The matrix mechanism is data-oblivious pure-ε DP: baseline.
        assert!(MechanismSpec::MatrixHist {
            strategy: MatrixStrategyKind::Hierarchical
        }
        .is_baseline());
    }

    #[test]
    fn matrix_hist_ids_round_trip() {
        for (kind, id) in [
            (MatrixStrategyKind::Identity, "mm-hist-identity"),
            (MatrixStrategyKind::Hierarchical, "mm-hist-hierarchical"),
            (MatrixStrategyKind::Wavelet, "mm-hist-wavelet"),
        ] {
            let spec = MechanismSpec::MatrixHist { strategy: kind };
            assert_eq!(spec.id(), id);
            assert_eq!(MechanismSpec::parse(id), Some(spec));
        }
        assert!(MechanismSpec::parse("mm-hist-nope").is_none());
    }

    #[test]
    fn matrix_range_ids_round_trip() {
        for (kind, id) in [
            (MatrixStrategyKind::Identity, "mm-range-identity"),
            (MatrixStrategyKind::Hierarchical, "mm-range-hierarchical"),
            (MatrixStrategyKind::Wavelet, "mm-range-wavelet"),
        ] {
            let spec = MechanismSpec::MatrixRange { strategy: kind };
            assert_eq!(spec.id(), id);
            assert_eq!(MechanismSpec::parse(id), Some(spec));
            assert!(spec.is_baseline());
        }
        assert!(MechanismSpec::parse("mm-range-nope").is_none());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(MechanismSpec::Laplace.label(), "Laplace");
        assert_eq!(MechanismSpec::Privelet1d.label(), "Privelet");
        assert_eq!(
            MechanismSpec::Line(TreeEstimator::DawaConsistent).label(),
            "Trans + Dawa + Cons"
        );
        assert_eq!(MechanismSpec::Grid.label(), "Transformed + Privelet");
        assert_eq!(
            MechanismSpec::ThetaLine {
                theta: 4,
                estimator: ThetaEstimator::Dawa
            }
            .label(),
            "Trans + Dawa"
        );
    }
}
