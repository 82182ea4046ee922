//! Seeded workload generation. The server only ever sees the request
//! lines produced here; the same `(workload, seed)` gives the same lines.

use crate::rng::{Rng, Zipf};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["mixed-small", "matrix-range"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MixedSmall,
    MatrixRange,
}

/// Fixed per-workload settings. Rates and limits are part of the
/// benchmark's definition and are recorded in `perfbench/NOTES.md`.
#[derive(Clone, Debug)]
pub struct Params {
    pub kind: Kind,
    pub name: &'static str,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub fixed_rate: f64,
    /// The p99 latency limit of the rate search, µs.
    pub limit_us: f64,
    /// Length of one rate-search trial, seconds.
    pub trial_secs: f64,
    /// First rate the search tries.
    pub search_start: f64,
}

impl Params {
    pub fn named(name: &str) -> Option<Params> {
        Some(match name {
            "mixed-small" => Params {
                kind: Kind::MixedSmall,
                name: "mixed-small",
                fixed_rate: 4000.0,
                limit_us: 50_000.0,
                trial_secs: 0.4,
                search_start: 40_000.0,
            },
            "matrix-range" => Params {
                kind: Kind::MatrixRange,
                name: "matrix-range",
                fixed_rate: 300.0,
                limit_us: 200_000.0,
                trial_secs: 0.4,
                search_start: 2000.0,
            },
            _ => return None,
        })
    }
}

/// One mechanism a tenant is fitted with.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Registry id sent as `mech=`, or `None` for the planner default.
    pub mech: Option<&'static str>,
    /// ε one fit of this spec is charged: the tenant's ε for Blowfish
    /// strategies, ε/2 for the DP baselines (the matrix mechanisms).
    pub charge: f64,
}

#[derive(Clone, Debug)]
pub struct Tenant {
    pub id: String,
    /// Policy token as written on the wire.
    pub policy: String,
    /// Domain shape: `[k]` or `[rows, cols]`.
    pub dims: Vec<usize>,
    pub eps: f64,
    pub budget: f64,
    /// Row-major histogram of integer counts.
    pub data: Vec<f64>,
    pub specs: Vec<Spec>,
    pub task: &'static str,
    /// Policy family, for the per-family hot-key draw.
    family: usize,
}

impl Tenant {
    fn onboard_line(&self) -> String {
        let data: Vec<String> = self.data.iter().map(|v| format!("{v}")).collect();
        format!(
            "tenant {} policy={} eps={} budget={} data={}",
            self.id,
            self.policy,
            self.eps,
            self.budget,
            data.join(",")
        )
    }

    fn fit_line(&self, spec: usize, handle: usize, seed: u64) -> String {
        let mut line = format!(
            "fit {} as={} seed={seed} task={}",
            self.id,
            handle_name(spec, handle),
            self.task
        );
        if let Some(mech) = self.specs[spec].mech {
            line.push_str(" mech=");
            line.push_str(mech);
        }
        line
    }
}

/// One request line, tagged with the tenant it is routed by.
#[derive(Clone, Debug)]
pub struct Req {
    pub tenant: usize,
    pub fit: bool,
    pub line: String,
}

/// Timed, open-loop requests.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub reqs: Vec<Req>,
    /// Due offsets at an offered rate of 1 request/s; divide by the rate.
    pub due: Vec<f64>,
}

/// matrix-range's domain sizes, two tenants each. They straddle the
/// engine's dense/factored threshold (512).
pub const MATRIX_KS: [usize; 4] = [256, 512, 1024, 4096];

/// Handles per `(tenant, spec)`: set-up fits every one, later fits
/// replace them, answers read any of them.
const HANDLES: usize = 4;

fn handle_name(spec: usize, handle: usize) -> String {
    format!("s{spec}h{handle}")
}

/// The generator for one `(workload, seed)`: its tenants, their set-up
/// and any number of timed phases.
pub struct Generator {
    pub params: Params,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
}

impl Generator {
    pub fn new(params: Params, seed: u64) -> Generator {
        let mut rng = Rng::stream(seed, params.name, 0);
        let shapes: Vec<(String, Vec<usize>, Vec<Spec>, &'static str)> = match params.kind {
            // Planner-default specs; Blowfish strategies charge ε = 1.
            Kind::MixedSmall => (0..32)
                .map(|i| {
                    let (policy, dims, task) = match i % 5 {
                        0 => ("line:128", vec![128], "range1d"),
                        1 => ("theta-line:256:4", vec![256], "range1d"),
                        2 => ("star:128", vec![128], "range1d"),
                        3 => ("grid:16", vec![16, 16], "range2d"),
                        _ => ("theta-grid:16:2", vec![16, 16], "range2d"),
                    };
                    let spec = Spec {
                        mech: None,
                        charge: 1.0,
                    };
                    (policy.to_string(), dims, vec![spec], task)
                })
                .collect(),
            // The matrix mechanisms are DP baselines, served at ε/2.
            Kind::MatrixRange => MATRIX_KS
                .iter()
                .flat_map(|&k| [k, k])
                .map(|k| {
                    let specs = ["mm-hist-hierarchical", "mm-range-hierarchical"]
                        .iter()
                        .map(|&mech| Spec {
                            mech: Some(mech),
                            charge: 0.5,
                        })
                        .collect();
                    (format!("theta-line:{k}:4"), vec![k], specs, "range1d")
                })
                .collect(),
        };
        let tenants = shapes
            .into_iter()
            .enumerate()
            .map(|(i, (policy, dims, specs, task))| {
                let cells: usize = dims.iter().product();
                Tenant {
                    id: format!("t{i}"),
                    policy,
                    data: histogram(&mut rng, cells),
                    dims,
                    eps: 1.0,
                    budget: 1e9,
                    specs,
                    task,
                    family: i % 5,
                }
            })
            .collect();
        Generator {
            params,
            seed,
            tenants,
        }
    }

    /// Set-up lines: every tenant's onboarding, then the first fit of
    /// every `(tenant, spec, handle)` (cold planning included).
    pub fn setup(&self) -> Vec<Req> {
        let mut rng = Rng::stream(self.seed, self.params.name, 1);
        let mut reqs: Vec<Req> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| Req {
                tenant: t,
                fit: false,
                line: tenant.onboard_line(),
            })
            .collect();
        for (t, tenant) in self.tenants.iter().enumerate() {
            for s in 0..tenant.specs.len() {
                for h in 0..HANDLES {
                    reqs.push(Req {
                        tenant: t,
                        fit: true,
                        line: tenant.fit_line(s, h, rng.next_u64()),
                    });
                }
            }
        }
        reqs
    }

    /// `n` timed requests of stream `index` (0 is the fixed-rate phase,
    /// `1 + i` rate-search trial `i`). The lines depend only on
    /// `(seed, index)`: a longer phase extends a shorter one.
    pub fn phase(&self, index: usize, n: usize) -> Phase {
        let kind = self.params.kind;
        let mut rng = Rng::stream(self.seed, self.params.name, 2 + index as u64);
        // Hot keys: a seeded permutation ranked by Zipf. In mixed-small the
        // ranking applies within each policy family, so every family keeps
        // a fifth of the traffic whatever the seed.
        let mut perm: Vec<usize> = (0..self.tenants.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.range(0, i));
        }
        let families: Vec<Vec<usize>> = (0..5)
            .map(|f| {
                perm.iter()
                    .copied()
                    .filter(|&t| self.tenants[t].family == f)
                    .collect()
            })
            .collect();
        let zipfs: Vec<Zipf> = families.iter().map(|f| Zipf::new(f.len(), 1.1)).collect();
        let fit_share = match kind {
            Kind::MixedSmall => 0.2,
            Kind::MatrixRange => 0.35,
        };
        // Matrix tenants alternate their two specs fit by fit.
        let mut next_spec = vec![0usize; self.tenants.len()];
        let mut reqs = Vec::with_capacity(n);
        // Poisson arrivals at unit rate.
        let mut clock = 0.0;
        let mut due = Vec::with_capacity(n);
        for _ in 0..n {
            clock += rng.exp();
            due.push(clock);
            let t = match kind {
                Kind::MixedSmall => {
                    let f = rng.range(0, families.len() - 1);
                    families[f][zipfs[f].sample(&mut rng)]
                }
                Kind::MatrixRange => rng.range(0, self.tenants.len() - 1),
            };
            let tenant = &self.tenants[t];
            let fit = rng.chance(fit_share);
            let line = if fit {
                let s = next_spec[t] % tenant.specs.len();
                next_spec[t] += 1;
                tenant.fit_line(s, rng.range(0, HANDLES - 1), rng.next_u64())
            } else {
                let s = rng.range(0, tenant.specs.len() - 1);
                let h = rng.range(0, HANDLES - 1);
                let mut line = format!("answer {} from={}", tenant.id, handle_name(s, h));
                let count = match kind {
                    Kind::MixedSmall => rng.range(8, 32),
                    Kind::MatrixRange => rng.range(500, 2000),
                };
                for _ in 0..count {
                    line.push(' ');
                    let dims: Vec<String> = tenant
                        .dims
                        .iter()
                        .map(|&k| {
                            let (lo, hi) = match kind {
                                Kind::MixedSmall => mixed_range(&mut rng, k),
                                Kind::MatrixRange => dyadic_range(&mut rng, k),
                            };
                            format!("{lo}..{hi}")
                        })
                        .collect();
                    line.push_str(&dims.join("x"));
                }
                line
            };
            reqs.push(Req {
                tenant: t,
                fit,
                line,
            });
        }
        Phase { reqs, due }
    }
}

/// Integer counts: a flat floor plus a few seeded bumps.
fn histogram(rng: &mut Rng, cells: usize) -> Vec<f64> {
    let bumps: Vec<(f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.unit() * cells as f64,
                1.0 + rng.unit() * cells as f64 / 8.0,
                20.0 + rng.unit() * 200.0,
            )
        })
        .collect();
    (0..cells)
        .map(|i| {
            let x = i as f64;
            let bump: f64 = bumps
                .iter()
                .map(|&(c, w, h)| h * (-((x - c) / w).powi(2)).exp())
                .sum();
            (bump + rng.range(0, 10) as f64).floor()
        })
        .collect()
}

/// Points, short ranges, prefixes and long ranges in equal shares.
fn mixed_range(rng: &mut Rng, k: usize) -> (usize, usize) {
    match rng.range(0, 3) {
        0 => {
            let i = rng.range(0, k - 1);
            (i, i)
        }
        1 => {
            let lo = rng.range(0, k - 1);
            (lo, (lo + rng.range(1, 8)).min(k - 1))
        }
        2 => (0, rng.range(0, k - 1)),
        _ => {
            let a = rng.range(0, k - 1);
            let b = rng.range(0, k - 1);
            (a.min(b), a.max(b))
        }
    }
}

/// A dyadic range `[j·2^l, (j+1)·2^l − 1]` of a power-of-two domain.
fn dyadic_range(rng: &mut Rng, k: usize) -> (usize, usize) {
    let levels = k.trailing_zeros() as usize;
    let width = 1usize << rng.range(0, levels);
    let j = rng.range(0, k / width - 1);
    (j * width, (j + 1) * width - 1)
}

/// The digest of a workload's deterministic inputs: its set-up lines and
/// its fixed-rate phase, due offsets included (64-bit FNV-1a).
pub fn digest(setup: &[Req], fixed: &Phase) -> String {
    let mut h = crate::loadgen::FNV_OFFSET;
    let mut add = |s: &str| {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(crate::loadgen::FNV_PRIME);
        }
    };
    for r in setup.iter().chain(&fixed.reqs) {
        add(&r.line);
    }
    for t in &fixed.due {
        add(&format!("{t:.9}"));
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(name: &str, seed: u64) -> String {
        let gen = Generator::new(Params::named(name).unwrap(), seed);
        digest(&gen.setup(), &gen.phase(0, 2000))
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        for &w in WORKLOADS {
            assert_eq!(inputs(w, 7), inputs(w, 7), "{w}");
            assert_ne!(inputs(w, 7), inputs(w, 8), "{w}");
        }
        assert_ne!(inputs("mixed-small", 7), inputs("matrix-range", 7));
    }

    #[test]
    fn longer_phases_extend_shorter_ones() {
        let gen = Generator::new(Params::named("mixed-small").unwrap(), 3);
        let (short, long) = (gen.phase(4, 100), gen.phase(4, 300));
        for (a, b) in short.reqs.iter().zip(&long.reqs) {
            assert_eq!(a.line, b.line);
        }
        assert_eq!(short.due[..], long.due[..100]);
    }

    #[test]
    fn every_answer_names_a_handle_the_set_up_fitted() {
        for &w in WORKLOADS {
            let gen = Generator::new(Params::named(w).unwrap(), 5);
            let setup: Vec<String> = gen.setup().iter().map(|r| r.line.clone()).collect();
            for r in gen.phase(0, 500).reqs.iter().filter(|r| !r.fit) {
                let mut words = r.line.split_whitespace();
                let (tenant, from) = (words.nth(1).unwrap(), words.next().unwrap());
                let handle = from.strip_prefix("from=").unwrap();
                let fitted = format!("fit {tenant} as={handle} ");
                assert!(setup.iter().any(|l| l.starts_with(&fitted)), "{}", r.line);
            }
        }
    }
}
