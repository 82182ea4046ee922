//! The reply checker. Because each tenant is pinned to one connection,
//! every TCP reply must be byte-identical to an in-process, serial
//! `Service::replay` of the same lines. On top of that, admissions must
//! match the `⌊budget/ε⌋` oracle, and the final `stats` spend must
//! reconcile bit for bit with the fit receipts.

use std::collections::HashMap;

use blowfish_privacy::core::RangeQuery;
use blowfish_privacy::engine::service::{self, Response, Service};
use blowfish_privacy::engine::wire::{self, serve_request, Codec, Request, WireError};
use blowfish_privacy::engine::EngineError;

use crate::loadgen::{line_hash, Outcome};
use crate::workload::{Req, Tenant};

/// The serial replay's outcome for one line.
#[derive(Clone, Debug)]
pub struct Served {
    /// The reply line the server must have sent.
    pub reply: String,
    pub kind: ServedKind,
}

#[derive(Clone, Debug)]
pub enum ServedKind {
    Admitted { charged: f64, spent: f64 },
    Rejected,
    Answers(Vec<f64>),
    Other,
}

/// Decodes a wire line into the engine request the server would serve,
/// or the reply the wire layer itself gives (onboarding, errors). The
/// conversion mirrors `wire::serve_request`, clones included, so that
/// its cost matches the server's.
pub fn to_engine(service: &Service, line: &str) -> Result<service::Request, String> {
    let reply = |r: Result<wire::Response, WireError>| match r {
        Ok(resp) => Codec::encode(&resp),
        Err(e) => Codec::encode_error(&e),
    };
    let request = match Codec::new().decode(line) {
        Ok(Some(request)) => request,
        Ok(None) => return Err(String::new()),
        Err(e) => return Err(Codec::encode_error(&e)),
    };
    match &request {
        Request::Fit {
            tenant,
            spec,
            task,
            seed,
            handle,
        } => Ok(service::Request::Fit {
            tenant: tenant.clone(),
            spec: *spec,
            task: *task,
            seed: *seed,
            handle: handle.clone(),
        }),
        Request::Answer {
            tenant,
            handle,
            ranges,
        } => {
            let domain = service
                .tenant_domain(tenant)
                .map_err(|e| reply(Err(e.into())))?;
            let queries = ranges
                .iter()
                .map(|r| r.clone().into_query(&domain))
                .collect::<Result<Vec<RangeQuery>, EngineError>>()
                .map_err(|e| reply(Err(e.into())))?;
            Ok(service::Request::Answer {
                tenant: tenant.clone(),
                handle: handle.clone(),
                queries,
            })
        }
        other => Err(reply(serve_request(service, other))),
    }
}

/// Renders an engine outcome as the server's reply line.
pub fn encode(result: &Result<Response, EngineError>) -> String {
    match result {
        Ok(r) => Codec::encode(&wire::Response::Engine(r.clone())),
        Err(e) => Codec::encode_error(&WireError::Engine(e.clone())),
    }
}

fn kind(result: &Result<Response, EngineError>) -> ServedKind {
    match result {
        Ok(Response::Fitted { charged, spent, .. }) => ServedKind::Admitted {
            charged: *charged,
            spent: *spent,
        },
        Ok(Response::Answers { values }) => ServedKind::Answers(values.clone()),
        Err(e) if e.is_budget_exhausted() => ServedKind::Rejected,
        _ => ServedKind::Other,
    }
}

/// Replays lines serially on one in-process service: runs of engine
/// requests go through `Service::replay`, wire-only lines (onboarding)
/// through the codec.
pub fn replay(service: &Service, lines: &[&str]) -> Vec<Served> {
    let mut out = Vec::with_capacity(lines.len());
    let mut batch: Vec<service::Request> = Vec::new();
    let flush = |batch: &mut Vec<service::Request>, out: &mut Vec<Served>| {
        for r in service.replay(batch) {
            out.push(Served {
                reply: encode(&r.response),
                kind: kind(&r.response),
            });
        }
        batch.clear();
    };
    for line in lines {
        match to_engine(service, line) {
            Ok(req) => batch.push(req),
            Err(reply) => {
                flush(&mut batch, &mut out);
                out.push(Served {
                    reply,
                    kind: ServedKind::Other,
                });
            }
        }
    }
    flush(&mut batch, &mut out);
    out
}

/// Tallies of one run's checks.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub admitted: u64,
    /// Fits rejected for budget exhaustion, as the oracle predicted.
    pub rejected: u64,
    /// Human-readable first failures, for the log.
    pub notes: Vec<String>,
    sq_err: f64,
    answered_queries: u64,
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// RMSE of the scored answers against the exact answers.
    pub fn rmse(&self) -> f64 {
        (self.sq_err / self.answered_queries.max(1) as f64).sqrt()
    }
}

/// Replays the lines one server received on an in-process service and
/// checks its replies, the admission oracle and, last, its ledger.
pub struct Checker<'a> {
    tenants: &'a [Tenant],
    index: HashMap<String, usize>,
    service: Service,
    /// Admitted fits so far, per tenant.
    admitted: Vec<u64>,
    /// Spend after the latest admitted fit, per tenant.
    last_spent: Vec<f64>,
    pub verdict: Verdict,
}

impl<'a> Checker<'a> {
    pub fn new(tenants: &'a [Tenant]) -> Checker<'a> {
        Checker {
            tenants,
            index: tenants
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id.clone(), i))
                .collect(),
            service: Service::new(),
            admitted: vec![0; tenants.len()],
            last_spent: vec![0.0; tenants.len()],
            verdict: Verdict::default(),
        }
    }

    /// Replays `reqs` in order and checks each reply the server sent
    /// (`outcomes[i]`) against it. With `score`, answers add to the RMSE
    /// sample. Returns the replay's reply hashes.
    pub fn check_all(&mut self, reqs: &[Req], outcomes: &[Outcome], score: bool) -> Vec<u64> {
        let mut hashes = Vec::with_capacity(reqs.len());
        // In chunks, so that the replies of a long trace never pile up.
        for (reqs, outcomes) in reqs.chunks(CHUNK).zip(outcomes.chunks(CHUNK)) {
            let lines: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
            for ((req, got), want) in reqs.iter().zip(outcomes).zip(replay(&self.service, &lines)) {
                self.check(req, got, &want, score);
                hashes.push(line_hash(&want.reply));
            }
        }
        hashes
    }

    /// Checks replies that must equal an earlier replay's (`want`): the
    /// same lines sent to another, identical server.
    pub fn compare(&mut self, reqs: &[Req], outcomes: &[Outcome], want: &[u64]) {
        for ((req, got), want) in reqs.iter().zip(outcomes).zip(want) {
            self.verdict.attempted += 1;
            if got.recv_ns == crate::loadgen::NONE || got.hash != *want {
                self.verdict
                    .fail(format!("reply to {} differs", short(&req.line)));
            }
        }
    }

    fn check(&mut self, req: &Req, got: &Outcome, want: &Served, score: bool) {
        self.verdict.attempted += 1;
        let line = short(&req.line);
        if got.recv_ns == crate::loadgen::NONE {
            return self.verdict.fail(format!("no reply to {line}"));
        }
        if got.hash != line_hash(&want.reply) {
            return self.verdict.fail(format!(
                "reply to {line} differs from the serial replay's {}",
                short(&want.reply)
            ));
        }
        let t = req.tenant;
        let tenant = &self.tenants[t];
        if req.fit {
            let charge = spec_charge(tenant, &req.line);
            let predicted = self.admitted[t] < (tenant.budget / charge).floor() as u64;
            match (&want.kind, predicted) {
                (ServedKind::Admitted { charged, spent }, true) if *charged == charge => {
                    self.admitted[t] += 1;
                    self.last_spent[t] = *spent;
                    self.verdict.admitted += 1;
                }
                (ServedKind::Rejected, false) => self.verdict.rejected += 1,
                (kind, _) => self.verdict.fail(format!(
                    "{line}: the oracle predicted {}, the service {kind:?}",
                    if predicted { "admission" } else { "rejection" }
                )),
            }
        } else if req.line.starts_with("tenant ") {
            if !want.reply.starts_with("ok tenant ") {
                self.verdict.fail(format!("{line}: {}", want.reply));
            }
        } else {
            match &want.kind {
                ServedKind::Answers(values) if score => {
                    let exact = exact_answers(tenant, &req.line);
                    for (v, e) in values.iter().zip(&exact) {
                        self.verdict.sq_err += (v - e) * (v - e);
                    }
                    self.verdict.answered_queries += exact.len() as u64;
                }
                ServedKind::Answers(_) => {}
                kind => self.verdict.fail(format!("{line}: served {kind:?}")),
            }
        }
    }

    /// Reconciles the server's final `stats` reply with the receipts:
    /// it must list every tenant, each with a spend equal, bit for bit,
    /// to the spend on its last admitted fit and a fit count equal to
    /// the admitted count.
    pub fn reconcile(&mut self, stats_line: &str) {
        self.verdict.attempted += 1;
        let mut seen = vec![false; self.tenants.len()];
        for row in stats_line.split(" | ").skip(1) {
            let id = row.split_whitespace().next().unwrap_or_default();
            let field = |key: &str| row.split_whitespace().find_map(|f| f.strip_prefix(key));
            let Some(&t) = self.index.get(id) else {
                self.verdict
                    .fail(format!("stats names an unknown tenant {id}"));
                continue;
            };
            seen[t] = true;
            let spent: Option<f64> = field("spent=").and_then(|v| v.parse().ok());
            let fits: Option<u64> = field("fits=").and_then(|v| v.parse().ok());
            if spent.map(f64::to_bits) != Some(self.last_spent[t].to_bits())
                || fits != Some(self.admitted[t])
            {
                self.verdict.fail(format!(
                    "ledger of {id}: stats spent={spent:?} fits={fits:?}, receipts spent={} fits={}",
                    self.last_spent[t], self.admitted[t]
                ));
            }
        }
        if let Some(t) = seen.iter().position(|s| !s) {
            let id = &self.tenants[t].id;
            self.verdict
                .fail(format!("stats does not list tenant {id}"));
        }
    }
}

/// Lines replayed at a time by [`Checker::check_all`].
const CHUNK: usize = 1024;

fn short(line: &str) -> &str {
    &line[..line.len().min(60)]
}

/// The ε a fit line is charged, by the spec it names.
fn spec_charge(tenant: &Tenant, line: &str) -> f64 {
    let mech = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("mech="));
    tenant
        .specs
        .iter()
        .find(|s| s.mech == mech)
        .map_or(f64::NAN, |s| s.charge)
}

/// Exact range sums of an `answer` line on the tenant's own data.
pub fn exact_answers(tenant: &Tenant, line: &str) -> Vec<f64> {
    let ranges = line
        .split_whitespace()
        .skip(2)
        .filter(|t| !t.contains('='))
        .map(|t| {
            t.split('x')
                .map(|d| {
                    let (a, b) = d.split_once("..").expect("generated ranges are lo..hi");
                    (
                        a.parse::<usize>().expect("bound"),
                        b.parse::<usize>().expect("bound"),
                    )
                })
                .collect::<Vec<_>>()
        });
    match tenant.dims.as_slice() {
        [k] => {
            let mut prefix = vec![0.0; k + 1];
            for i in 0..*k {
                prefix[i + 1] = prefix[i] + tenant.data[i];
            }
            ranges
                .map(|r| prefix[r[0].1 + 1] - prefix[r[0].0])
                .collect()
        }
        [rows, cols] => {
            let w = cols + 1;
            let mut sat = vec![0.0; (rows + 1) * w];
            for i in 0..*rows {
                for j in 0..*cols {
                    sat[(i + 1) * w + j + 1] =
                        tenant.data[i * cols + j] + sat[i * w + j + 1] + sat[(i + 1) * w + j]
                            - sat[i * w + j];
                }
            }
            ranges
                .map(|r| {
                    let ((r0, r1), (c0, c1)) = (r[0], r[1]);
                    sat[(r1 + 1) * w + c1 + 1] - sat[r0 * w + c1 + 1] - sat[(r1 + 1) * w + c0]
                        + sat[r0 * w + c0]
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Params};
    use blowfish_privacy::core::{DataVector, Domain};

    /// The outcomes a faithful server would send for `reqs`.
    fn served(reqs: &[Req]) -> Vec<Outcome> {
        let service = Service::new();
        let lines: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
        replay(&service, &lines)
            .iter()
            .map(|w| Outcome {
                due_ns: 0,
                sent_ns: 1,
                recv_ns: 2,
                hash: line_hash(&w.reply),
                reply_bytes: w.reply.len() as u64 + 1,
            })
            .collect()
    }

    fn workload() -> (Generator, Vec<Req>) {
        let gen = Generator::new(Params::named("mixed-small").unwrap(), 9);
        let mut reqs = gen.setup();
        reqs.extend(gen.phase(0, 300).reqs);
        (gen, reqs)
    }

    #[test]
    fn faithful_replies_pass_and_reconcile() {
        let (gen, reqs) = workload();
        let outcomes = served(&reqs);
        let mut checker = Checker::new(&gen.tenants);
        checker.check_all(&reqs, &outcomes, true);
        let stats = match checker
            .service
            .handle(&service::Request::Stats { tenant: None })
        {
            Ok(r) => Codec::encode(&wire::Response::Engine(r)),
            Err(e) => panic!("{e}"),
        };
        checker.reconcile(&stats);
        assert_eq!(checker.verdict.failed, 0, "{:?}", checker.verdict.notes);
        assert!(checker.verdict.admitted > 100);
        assert!(checker.verdict.rmse() > 0.0);
    }

    #[test]
    fn a_corrupted_reply_is_a_failure() {
        let (gen, reqs) = workload();
        let mut outcomes = served(&reqs);
        let i = reqs.iter().rposition(|r| !r.fit).unwrap();
        outcomes[i].hash ^= 1;
        outcomes[i - 1].recv_ns = crate::loadgen::NONE;
        let mut checker = Checker::new(&gen.tenants);
        checker.check_all(&reqs, &outcomes, false);
        assert_eq!(checker.verdict.failed, 2, "{:?}", checker.verdict.notes);
    }

    #[test]
    fn admissions_must_match_the_budget_oracle() {
        let (mut gen, reqs) = workload();
        // A budget of three fits: the fourth fit of tenant 0 must be refused.
        gen.tenants[0].budget = 3.0;
        let outcomes = served(&reqs);
        let mut checker = Checker::new(&gen.tenants);
        checker.check_all(&reqs, &outcomes, false);
        assert!(
            checker.verdict.failed > 0,
            "the server admitted past the oracle"
        );
        assert!(checker.verdict.notes[0].contains("oracle predicted rejection"));
    }

    #[test]
    fn a_ledger_that_disagrees_with_the_receipts_fails() {
        let (gen, reqs) = workload();
        let mut checker = Checker::new(&gen.tenants);
        checker.check_all(&reqs, &served(&reqs), false);
        checker.reconcile("ok stats builds=0 | t0 spent=1 remaining=0 fits=1 estimates=4");
        // t0's spend and count are wrong, and every other tenant is missing.
        assert_eq!(checker.verdict.failed, 2, "{:?}", checker.verdict.notes);
    }

    #[test]
    fn exact_answers_match_the_engine_range_cells() {
        let (gen, reqs) = workload();
        let service = gen_service(&gen);
        for r in reqs
            .iter()
            .filter(|r| r.line.starts_with("answer "))
            .take(40)
        {
            let tenant = &gen.tenants[r.tenant];
            let domain = match tenant.dims.as_slice() {
                [k] => Domain::one_dim(*k),
                [k, _] => Domain::square(*k),
                _ => unreachable!(),
            };
            let data = DataVector::new(domain.clone(), tenant.data.clone()).unwrap();
            let Ok(service::Request::Answer { queries, .. }) = to_engine(&service, &r.line) else {
                panic!("{}", r.line)
            };
            let want: Vec<f64> = queries
                .iter()
                .map(|q| q.cells(&domain).unwrap().iter().map(|&c| data.get(c)).sum())
                .collect();
            assert_eq!(exact_answers(tenant, &r.line), want, "{}", r.line);
        }
    }

    /// A service with the workload's tenants onboarded.
    fn gen_service(gen: &Generator) -> Service {
        let service = Service::new();
        let lines: Vec<String> = gen
            .setup()
            .into_iter()
            .filter(|r| !r.fit)
            .map(|r| r.line)
            .collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        replay(&service, &lines);
        service
    }
}
