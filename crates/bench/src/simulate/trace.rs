//! Deterministic trace expansion: a [`Scenario`] becomes a concrete
//! tenant population plus a typed [`Request`] stream, as a pure function
//! of the scenario seed. Same seed ⇒ byte-identical trace (the seeded
//! round-trip tests pin this with `Debug`-formatting equality).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use blowfish_core::{sample_query_mix, Domain, Epsilon, PolicyGraph};
use blowfish_data::scenario_population;
use blowfish_engine::{MatrixStrategyKind, MechanismSpec, Request, Task, TenantConfig};
use blowfish_strategies::TreeEstimator;

use crate::simulate::scenario::{ArrivalPattern, PolicyFamily, Scenario, SpecChoice};
use crate::BenchError;

/// The handle every simulated fit stores its estimate under (one live
/// estimate per tenant; each admitted fit replaces it, so answers always
/// target the most recent release).
pub const SIM_HANDLE: &str = "h";

/// One simulated tenant: its service onboarding config plus the scoring
/// metadata the scorer's oracle needs.
#[derive(Clone, Debug)]
pub struct TraceTenant {
    /// What [`Service::add_tenant`](blowfish_engine::Service::add_tenant)
    /// receives.
    pub config: TenantConfig,
    /// The policy family the tenant was generated from.
    pub family: PolicyFamily,
    /// The mechanism every fit of this tenant names; `None` routes fits
    /// through the session planner.
    pub spec: Option<MechanismSpec>,
}

impl TraceTenant {
    /// The ε one admitted fit debits from this tenant's account:
    /// mechanisms report the ε they actually consume, so baselines debit
    /// ε/2 and Blowfish strategies (including every planner default) the
    /// full grant.
    pub fn charge_per_fit(&self) -> f64 {
        let eps = self.config.eps.value();
        match &self.spec {
            Some(spec) if spec.is_baseline() => eps / 2.0,
            _ => eps,
        }
    }
}

/// A fully expanded, replayable workload trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Name of the generating scenario.
    pub name: String,
    /// The seed the trace was expanded from.
    pub seed: u64,
    /// The tenant population, in onboarding order.
    pub tenants: Vec<TraceTenant>,
    /// The request stream, in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Number of fit requests in the stream.
    pub fn fit_count(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r, Request::Fit { .. }))
            .count()
    }
}

/// Builds the policy graph of one tenant.
fn build_graph(scenario: &Scenario, family: PolicyFamily) -> Result<PolicyGraph, BenchError> {
    Ok(match family {
        PolicyFamily::Line => PolicyGraph::line(scenario.domain_1d)?,
        PolicyFamily::ThetaLine { theta } => PolicyGraph::theta_line(scenario.domain_1d, theta)?,
        PolicyFamily::Grid => PolicyGraph::distance_threshold(Domain::square(scenario.grid_k), 1)?,
        PolicyFamily::ThetaGrid { theta } => {
            PolicyGraph::distance_threshold(Domain::square(scenario.grid_k), theta)?
        }
        PolicyFamily::Tree => PolicyGraph::star(scenario.domain_1d)?,
    })
}

/// The planner task matching a family's dimensionality.
fn task_for(family: PolicyFamily) -> Task {
    if family.is_2d() {
        Task::Range2d
    } else {
        Task::Range1d
    }
}

/// The explicit mechanism a tenant's fits name under a [`SpecChoice`].
fn spec_for(family: PolicyFamily, choice: SpecChoice) -> Option<MechanismSpec> {
    match choice {
        SpecChoice::Planner => None,
        // Closed-form utility: line tenants run Algorithm 1's
        // Transformed + Laplace (per-range variance is exactly
        // 2/ε² per noisy prefix endpoint); every other family runs the
        // ε/2-DP Laplace baseline (per-cell variance 2·(2/ε)²).
        SpecChoice::ClosedForm => Some(match family {
            PolicyFamily::Line => MechanismSpec::Line(TreeEstimator::Laplace),
            _ => MechanismSpec::Laplace,
        }),
        // The ε/2-DP matrix-mechanism baseline with the hierarchical
        // strategy: valid under every policy family, and planned through
        // the engine's one factored CSR path at every domain size.
        SpecChoice::SparseMatrix => Some(MechanismSpec::MatrixHist {
            strategy: MatrixStrategyKind::Hierarchical,
        }),
    }
}

/// Draws the next tenant index for each arrival pattern.
struct ArrivalState {
    pattern: ArrivalPattern,
    tenants: usize,
    /// Bursty: (current tenant, requests left in the burst).
    burst_state: (usize, usize),
    /// Hot-key: cumulative zipf weights.
    cumulative: Vec<f64>,
}

impl ArrivalState {
    fn new(scenario: &Scenario) -> ArrivalState {
        let cumulative = match scenario.arrival {
            ArrivalPattern::HotKey { skew } => {
                let mut acc = 0.0;
                (0..scenario.tenants)
                    .map(|i| {
                        acc += 1.0 / ((i + 1) as f64).powf(skew);
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        ArrivalState {
            pattern: scenario.arrival,
            tenants: scenario.tenants,
            burst_state: (0, 0),
            cumulative,
        }
    }

    fn next_tenant(&mut self, rng: &mut StdRng) -> usize {
        match self.pattern {
            ArrivalPattern::Uniform => rng.gen_range(0..self.tenants),
            ArrivalPattern::Bursty { burst } => {
                let (current, left) = self.burst_state;
                if left > 0 {
                    self.burst_state = (current, left - 1);
                    return current;
                }
                let next = rng.gen_range(0..self.tenants);
                self.burst_state = (next, burst - 1);
                next
            }
            ArrivalPattern::HotKey { .. } => {
                let total = *self.cumulative.last().expect("non-empty population");
                let u = rng.gen_range(0.0..total);
                self.cumulative
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(self.tenants - 1)
            }
        }
    }
}

/// Expands a scenario into a concrete trace, deterministically from its
/// seed: tenant populations, budget draws, the arrival-driven request
/// stream, per-fit noise seeds, and every sampled query batch all come
/// from one seeded RNG consumed in a fixed order.
pub fn generate(scenario: &Scenario) -> Result<Trace, BenchError> {
    scenario.validate()?;
    let mut rng = StdRng::seed_from_u64(scenario.seed);

    let mut tenants = Vec::with_capacity(scenario.tenants);
    for t in 0..scenario.tenants {
        let family = scenario.family(t);
        let graph = build_graph(scenario, family)?;
        let data_seed = rng.gen::<u64>();
        let data =
            scenario_population(graph.domain(), scenario.scale, scenario.shape(t), data_seed);
        let budget = scenario.budget.sample(t, &mut rng)?;
        tenants.push(TraceTenant {
            config: TenantConfig {
                id: format!("tenant-{t:02}"),
                graph,
                eps: Epsilon::new(scenario.eps)?,
                budget,
                data,
            },
            family,
            spec: spec_for(family, scenario.specs),
        });
    }

    let fit = |tenant: &TraceTenant, rng: &mut StdRng| Request::Fit {
        tenant: tenant.config.id.clone(),
        spec: tenant.spec,
        task: task_for(tenant.family),
        seed: rng.gen::<u64>(),
        handle: SIM_HANDLE.to_string(),
    };

    // Warm-up: one fit per tenant opens the trace, so answer requests
    // always target an existing handle (unless that first fit is
    // rejected by a sub-ε budget — the scorer's oracle models that too).
    let mut requests = Vec::with_capacity(scenario.requests);
    for tenant in &tenants {
        requests.push(fit(tenant, &mut rng));
    }

    let mut arrivals = ArrivalState::new(scenario);
    while requests.len() < scenario.requests {
        let t = arrivals.next_tenant(&mut rng);
        let tenant = &tenants[t];
        if rng.gen_bool(scenario.fit_fraction) {
            requests.push(fit(tenant, &mut rng));
        } else {
            let queries = sample_query_mix(
                tenant.config.graph.domain(),
                &scenario.mix,
                scenario.queries_per_answer,
                &mut rng,
            )?;
            requests.push(Request::Answer {
                tenant: tenant.config.id.clone(),
                handle: SIM_HANDLE.to_string(),
                queries,
            });
        }
    }

    Ok(Trace {
        name: scenario.name.clone(),
        seed: scenario.seed,
        tenants,
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let scenario = Scenario::quick_catalog().remove(0);
        let a = generate(&scenario).unwrap();
        let b = generate(&scenario).unwrap();
        // Byte-identical traces: the Debug rendering covers every field
        // of every tenant (including the full data vectors) and request.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let mut reseeded = scenario.clone();
        reseeded.seed ^= 1;
        let c = generate(&reseeded).unwrap();
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn traces_respect_the_scenario_shape() {
        for scenario in Scenario::quick_catalog() {
            let trace = generate(&scenario).unwrap();
            assert_eq!(trace.tenants.len(), scenario.tenants, "{}", scenario.name);
            assert_eq!(trace.requests.len(), scenario.requests, "{}", scenario.name);
            // The warm-up prefix is one fit per tenant.
            for (i, r) in trace.requests[..scenario.tenants].iter().enumerate() {
                match r {
                    Request::Fit { tenant, .. } => {
                        assert_eq!(tenant, &trace.tenants[i].config.id)
                    }
                    other => panic!("warm-up request {i} is {other:?}"),
                }
            }
            // Every request names a registered tenant.
            let ids: std::collections::HashSet<&str> =
                trace.tenants.iter().map(|t| t.config.id.as_str()).collect();
            for r in &trace.requests {
                let tenant = match r {
                    Request::Fit { tenant, .. } | Request::Answer { tenant, .. } => tenant,
                    other => panic!("unexpected request kind {other:?}"),
                };
                assert!(ids.contains(tenant.as_str()));
            }
        }
    }

    #[test]
    fn closed_form_specs_and_charges() {
        let scenario = Scenario::quick_catalog().remove(0); // smoke-mixed
        let trace = generate(&scenario).unwrap();
        // Line tenants run Transformed+Laplace at full ε, the θ-line and
        // tree tenants the ε/2 Laplace baseline.
        assert_eq!(
            trace.tenants[0].spec,
            Some(MechanismSpec::Line(TreeEstimator::Laplace))
        );
        assert_eq!(trace.tenants[2].spec, Some(MechanismSpec::Laplace));
        assert!((trace.tenants[0].charge_per_fit() - 0.5).abs() < 1e-15);
        assert!((trace.tenants[2].charge_per_fit() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn hotkey_arrivals_skew_toward_low_indices() {
        let mut scenario = Scenario::quick_catalog().remove(2); // grid-hotkey
        scenario.requests = 2000;
        let trace = generate(&scenario).unwrap();
        let mut per_tenant = vec![0usize; scenario.tenants];
        for r in &trace.requests[scenario.tenants..] {
            let tenant = match r {
                Request::Fit { tenant, .. } | Request::Answer { tenant, .. } => tenant,
                _ => unreachable!(),
            };
            let idx: usize = tenant.trim_start_matches("tenant-").parse().unwrap();
            per_tenant[idx] += 1;
        }
        assert!(
            per_tenant[0] > 2 * per_tenant[scenario.tenants - 1],
            "zipf skew missing: {per_tenant:?}"
        );
    }
}
