//! The traced run: the fixed-rate phase's lines replayed in-process, one
//! layer at a time, with spans taken only here, around public calls into
//! each layer. No tracing runs inside the program.
//!
//! * **ingest** — `LineSession::ingest`, one request line per call, as a
//!   connection receives them at a moderate rate.
//! * **wire** — the same pipeline split at its seams: framing (the line
//!   split and reply queueing `LineSession` does), `Codec::decode` plus
//!   range validation, `Service::handle`, `Codec::encode`. Run with and
//!   without spans; the difference is the tracing overhead.
//! * **service** — `Service::handle` decomposed on shadow sessions built
//!   with `Session::with_cache(..).metered(..)`: `Session::mechanism` →
//!   `Ledger::charge` → `Mechanism::fit` → store, and store lookup →
//!   `Estimate::answer_many`.
//!
//! Every replay's replies must equal the TCP replies byte for byte (which
//! equal the serial `Service::replay`), so the decomposition is shown to
//! mirror the service. Probes that do not depend on the workload (cold
//! planning, per-spec fits, factorizations, durable charges) run on a
//! fixed catalog so every workload reports them.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use blowfish_privacy::core::{
    DataVector, Epsilon, FsyncPolicy, Ledger, LedgerDurability, PolicyGraph,
};
use blowfish_privacy::engine::plan::PlanCache;
use blowfish_privacy::engine::service::{self, Response, Service};
use blowfish_privacy::engine::wire::{self, Codec, Request};
use blowfish_privacy::engine::{
    EngineError, LineSession, MechanismSpec, NetModel, NetStats, Session, TenantConfig,
};
use blowfish_privacy::mechanisms::{
    hierarchical_strategy_sparse, GramSolver, SparseMatrixMechanism,
};
use blowfish_privacy::strategies::Estimate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{encode, to_engine};
use crate::loadgen::{line_hash, Outcome};
use crate::report::Report;
use crate::rng::Rng;
use crate::workload::{Phase, Req, MATRIX_KS};

/// framing + decode + handle + encode must come within this share of
/// the measured ingest time.
const INGEST_TOLERANCE: f64 = 0.10;
/// `Service::handle`'s decomposed children may exceed the handle time
/// by at most this share (they are timed in a separate replay) plus
/// [`SPAN_SLACK_US`].
const CHILDREN_TOLERANCE: f64 = 0.10;
/// Allowance for the extra clock reads of sub-microsecond children.
const SPAN_SLACK_US: f64 = 0.25;
/// The replays cover the requests due in this many first seconds of the
/// fixed-rate phase.
const TRACE_SECONDS: f64 = 5.0;

fn durable_ledger(dir: &Path) -> Result<Ledger, String> {
    Ledger::durable(dir, LedgerDurability::default())
        .map(|(ledger, _)| ledger)
        .map_err(|e| format!("durable ledger at {}: {e}", dir.display()))
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Span sums of one request type, µs.
#[derive(Default, Clone, Copy)]
struct Sums {
    n: f64,
    framing: f64,
    decode: f64,
    handle: f64,
    encode: f64,
    /// The decomposed children of `Service::handle`.
    children: f64,
}

impl Sums {
    fn mean(&self, v: f64) -> f64 {
        v / self.n.max(1.0)
    }
}

/// One in-process replay of the request lines. `serve` returns the
/// reply line's hash; `timed` requests add to the replay's spans.
trait Replay {
    fn serve(&mut self, line: &str, fit: bool, timed: bool) -> Result<u64, String>;
}

/// `LineSession::ingest`, one request line per call.
struct Ingest {
    svc: Service,
    stats: NetStats,
    session: LineSession,
    ingest_us: f64,
    bytes_in: f64,
    bytes_out: f64,
}

impl Replay for Ingest {
    fn serve(&mut self, line: &str, _fit: bool, timed: bool) -> Result<u64, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let t = Instant::now();
        self.session
            .ingest(&bytes, &self.svc, &self.stats, NetModel::Reactor);
        let took = us(t);
        let out = self.session.output();
        let hash = line_hash(&String::from_utf8_lossy(
            &out[..out.len().saturating_sub(1)],
        ));
        let len = out.len();
        self.session.consume(len);
        if timed {
            self.ingest_us += took;
            self.bytes_in += bytes.len() as f64;
            self.bytes_out += len as f64;
        }
        Ok(hash)
    }
}

/// The ingest pipeline split at its seams: framing as `LineSession`
/// does it, decode (with range validation), `Service::handle`, encode.
/// Without `traced`, only the whole request is timed.
struct Wire {
    svc: Service,
    stats: NetStats,
    traced: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    fit: Sums,
    answer: Sums,
    wall_us: f64,
}

impl Replay for Wire {
    /// Every value is dropped inside the span of the stage that made it,
    /// as it is inside `LineSession::ingest`.
    fn serve(&mut self, line: &str, fit: bool, timed: bool) -> Result<u64, String> {
        let traced = self.traced;
        let span = |t: Instant| if traced { us(t) } else { 0.0 };
        let whole = Instant::now();
        let t = Instant::now();
        self.rbuf.extend_from_slice(line.as_bytes());
        self.rbuf.push(b'\n');
        let pos = self
            .rbuf
            .iter()
            .position(|&b| b == b'\n')
            .expect("a whole line");
        let line_bytes: Vec<u8> = self.rbuf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line_bytes[..pos]);
        let line = text.trim_end_matches('\r');
        let _stats_net = line.trim() == "stats net";
        let framing_in = span(t);
        let t = Instant::now();
        let req = to_engine(&self.svc, line);
        let mut decode = span(t);
        let t = Instant::now();
        let result = match &req {
            Ok(req) => Ok(self.svc.handle(req)),
            Err(reply) => Err(reply.clone()),
        };
        let handle = span(t);
        let t = Instant::now();
        drop(req);
        decode += span(t);
        let t = Instant::now();
        let reply = match result {
            Ok(result) => encode(&result),
            Err(reply) => reply,
        };
        let encode_us = span(t);
        let hash = if traced { line_hash(&reply) } else { 0 };
        let t = Instant::now();
        self.stats
            .requests
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.wbuf.extend_from_slice(reply.as_bytes());
        self.wbuf.push(b'\n');
        drop(reply);
        let framing_out = span(t);
        let wall = us(whole);
        // The reply is checked outside the timed section.
        let hash = if traced {
            hash
        } else {
            line_hash(&String::from_utf8_lossy(&self.wbuf[..self.wbuf.len() - 1]))
        };
        self.wbuf.clear();
        if timed {
            let sums = if fit { &mut self.fit } else { &mut self.answer };
            sums.n += 1.0;
            sums.framing += framing_in + framing_out;
            sums.decode += decode;
            sums.handle += handle;
            sums.encode += encode_us;
            self.wall_us += wall;
        }
        Ok(hash)
    }
}

struct ShadowTenant {
    session: Session,
    data: DataVector,
    estimates: HashMap<String, Arc<Estimate>>,
}

/// `Service::handle` decomposed into its children on shadow sessions
/// (`Session::with_cache(..).metered(..)` over a shadow cache and
/// ledger). Onboarding and decoding run through the real wire and
/// service code on a side service.
struct Shadow {
    cache: Arc<PlanCache>,
    ledger: Arc<Ledger>,
    side: Service,
    tenants: HashMap<String, ShadowTenant>,
    fit: Sums,
    answer: Sums,
    mechanism_us: f64,
    answer_us: f64,
    queries: f64,
    admitted: f64,
    rejected: f64,
}

impl Shadow {
    fn onboard(&mut self, request: &Request) -> Result<String, String> {
        let Request::Tenant { config, .. } = request else {
            unreachable!("only tenant requests are onboarded");
        };
        let TenantConfig {
            id,
            graph,
            eps,
            budget,
            data,
        } = config.as_ref().clone();
        let session = Session::with_cache(&graph, eps, Arc::clone(&self.cache))
            .map_err(|e| e.to_string())?
            .metered(Arc::clone(&self.ledger), id.clone());
        self.ledger
            .open_or_attach(&id, budget)
            .map_err(|e| e.to_string())?;
        let reply = match wire::serve_request(&self.side, request) {
            Ok(r) => Codec::encode(&r),
            Err(e) => Codec::encode_error(&e),
        };
        self.tenants.insert(
            id,
            ShadowTenant {
                session,
                data,
                estimates: HashMap::new(),
            },
        );
        Ok(reply)
    }

    /// Mirrors `Service::handle` for a fit: `Session::plan`/`mechanism`,
    /// `Ledger::charge`, `Mechanism::fit`, store. Returns the response
    /// and the children's span sum.
    fn fit(
        &mut self,
        tenant: String,
        spec: Option<MechanismSpec>,
        task: blowfish_privacy::engine::Task,
        seed: u64,
        handle: String,
        timed: bool,
    ) -> (Result<Response, EngineError>, f64) {
        let t_ = self.tenants.get_mut(&tenant).expect("onboarded before use");
        let t = Instant::now();
        let mech = (|| -> Result<_, EngineError> {
            let spec = match spec {
                Some(spec) => spec,
                None => *t_.session.plan(task)?.spec(),
            };
            Ok((spec, t_.session.mechanism(&spec)?))
        })();
        let mech_us = us(t);
        if timed {
            self.mechanism_us += mech_us;
        }
        let (spec, mech) = match mech {
            Ok(m) => m,
            Err(e) => return (Err(e), mech_us),
        };
        let t = Instant::now();
        let charge = self.ledger.charge(&tenant, &spec.id(), mech.epsilon());
        let charge_us = us(t);
        let receipt = match charge {
            Ok(receipt) => receipt,
            Err(e) => {
                let e = EngineError::Core(e);
                if timed {
                    self.rejected += f64::from(e.is_budget_exhausted());
                }
                return (Err(e), mech_us + charge_us);
            }
        };
        if timed {
            self.admitted += 1.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        let fitted = mech.fit(&t_.data, &mut rng);
        let fit_us = us(t);
        let estimate = match fitted {
            Ok(estimate) => estimate,
            Err(e) => return (Err(e.into()), mech_us + charge_us + fit_us),
        };
        let t = Instant::now();
        t_.estimates.insert(handle.clone(), Arc::new(estimate));
        let store_us = us(t);
        let response = Response::Fitted {
            handle,
            charged: receipt.amount,
            spent: receipt.spent,
            remaining: receipt.remaining,
        };
        (Ok(response), mech_us + charge_us + fit_us + store_us)
    }

    /// Mirrors `Service::handle` for an answer: store lookup, then
    /// `Estimate::answer_many`.
    fn answer(
        &mut self,
        tenant: String,
        handle: String,
        queries: Vec<blowfish_privacy::core::RangeQuery>,
        timed: bool,
    ) -> (Result<Response, EngineError>, f64) {
        let t_ = self.tenants.get(&tenant).expect("onboarded before use");
        let t = Instant::now();
        let estimate = t_.estimates.get(&handle).cloned();
        let lookup_us = us(t);
        let Some(estimate) = estimate else {
            return (Err(EngineError::UnknownEstimate { handle }), lookup_us);
        };
        let t = Instant::now();
        let values = estimate.answer_many(&queries);
        let answer_us = us(t);
        if timed {
            self.answer_us += answer_us;
            self.queries += queries.len() as f64;
        }
        let result = values
            .map(|values| Response::Answers { values })
            .map_err(Into::into);
        (result, lookup_us + answer_us)
    }
}

impl Replay for Shadow {
    fn serve(&mut self, line: &str, fit: bool, timed: bool) -> Result<u64, String> {
        if let Ok(Some(request @ Request::Tenant { .. })) = Codec::new().decode(line) {
            return self.onboard(&request).map(|reply| line_hash(&reply));
        }
        let req = match to_engine(&self.side, line) {
            Ok(req) => req,
            Err(reply) => return Ok(line_hash(&reply)),
        };
        let (result, children) = match req {
            service::Request::Fit {
                tenant,
                spec,
                task,
                seed,
                handle,
            } => self.fit(tenant, spec, task, seed, handle, timed),
            service::Request::Answer {
                tenant,
                handle,
                queries,
            } => self.answer(tenant, handle, queries, timed),
            other => (self.side.handle(&other), 0.0),
        };
        if timed {
            let sums = if fit { &mut self.fit } else { &mut self.answer };
            sums.n += 1.0;
            sums.children += children;
        }
        Ok(line_hash(&encode(&result)))
    }
}

/// What the traced run replays: the set-up and fixed-rate lines, and
/// what the server sent back for the latter.
pub struct Inputs<'a> {
    pub setup: &'a [Req],
    pub fixed: &'a Phase,
    /// The offered rate the fixed-rate phase ran at.
    pub fixed_rate: f64,
    pub tcp: &'a [Outcome],
    /// The server's CPU per request in the fixed-rate phase.
    pub server_cpu_us_per_req: f64,
}

pub fn run(inputs: &Inputs, seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut ingest = Ingest {
        svc: Service::new(),
        stats: NetStats::default(),
        session: LineSession::new(),
        ingest_us: 0.0,
        bytes_in: 0.0,
        bytes_out: 0.0,
    };
    let banner = ingest.session.output().len();
    ingest.session.consume(banner);
    let wire = |traced: bool| Wire {
        svc: Service::new(),
        stats: NetStats::default(),
        traced,
        rbuf: Vec::new(),
        wbuf: Vec::new(),
        fit: Sums::default(),
        answer: Sums::default(),
        wall_us: 0.0,
    };
    let (mut traced, mut untraced) = (wire(true), wire(false));
    let mut shadow = Shadow {
        cache: Arc::new(PlanCache::new()),
        ledger: Arc::new(Ledger::new()),
        side: Service::new(),
        tenants: HashMap::new(),
        fit: Sums::default(),
        answer: Sums::default(),
        mechanism_us: 0.0,
        answer_us: 0.0,
        queries: 0.0,
        admitted: 0.0,
        rejected: 0.0,
    };

    // The replays step in lockstep, one request at a time, so a stall of
    // the machine lands on all of them alike.
    // Each wire replay runs right after a replay of the same code, so all
    // three meet equally warm caches.
    let names = [
        "wire (untraced)",
        "ingest",
        "wire (traced)",
        "decomposed service",
    ];
    let mut mismatched = [0usize; 4];
    for r in inputs.setup {
        let replays: [&mut dyn Replay; 4] = [&mut untraced, &mut ingest, &mut traced, &mut shadow];
        for replay in replays {
            replay.serve(&r.line, r.fit, false)?;
        }
    }
    let solver0 = ingest.svc.cache().solver_stats();
    let horizon = TRACE_SECONDS * inputs.fixed_rate;
    let count = inputs.fixed.due.partition_point(|&d| d < horizon);
    for (r, o) in inputs.fixed.reqs.iter().zip(inputs.tcp).take(count) {
        let replays: [&mut dyn Replay; 4] = [&mut untraced, &mut ingest, &mut traced, &mut shadow];
        for (k, replay) in replays.into_iter().enumerate() {
            if replay.serve(&r.line, r.fit, true)? != o.hash {
                mismatched[k] += 1;
            }
        }
    }
    for (name, m) in names.iter().zip(mismatched) {
        if m > 0 {
            report.fail(format!(
                "{name} replay: {m} replies differ from the TCP replies"
            ));
        }
    }
    let solver1 = ingest.svc.cache().solver_stats();
    let plan_stats = ingest.svc.cache().stats();
    let n = count as f64;
    let fits = inputs
        .fixed
        .reqs
        .iter()
        .take(count)
        .filter(|r| r.fit)
        .count() as f64;
    let ingest_per_req = ingest.ingest_us / n;

    let (wf, wa) = (traced.fit, traced.answer);
    let (sf, sa) = (shadow.fit, shadow.answer);
    let all = |f: fn(&Sums) -> f64| (f(&wf) + f(&wa)) / n;
    let framing = all(|s| s.framing);
    let decode = all(|s| s.decode);
    let handle = all(|s| s.handle);
    let encode_us = all(|s| s.encode);
    let parts = framing + decode + handle + encode_us;
    report.note(format!(
        "trace reconciliation over {count} requests: framing {framing:.3} + decode {decode:.3} + \
         handle {handle:.3} + encode {encode_us:.3} = {parts:.3} us/req, ingest {ingest_per_req:.3} \
         us/req (tolerance {:.0}%)",
        INGEST_TOLERANCE * 100.0
    ));
    if (parts - ingest_per_req).abs() > INGEST_TOLERANCE * ingest_per_req {
        report.fail("trace reconciliation failed: the stages do not sum to ingest".to_string());
    }
    for (what, w, s) in [("fit", &wf, &sf), ("answer", &wa, &sa)] {
        let (h, c) = (w.mean(w.handle), s.mean(s.children));
        report.note(format!(
            "trace reconciliation: {what} children {c:.3} us under Service::handle {h:.3} us \
             (tolerance {:.0}% + {SPAN_SLACK_US} us)",
            CHILDREN_TOLERANCE * 100.0
        ));
        if c > h * (1.0 + CHILDREN_TOLERANCE) + SPAN_SLACK_US {
            report.fail(format!(
                "trace reconciliation failed: {what} children exceed the handle time"
            ));
        }
    }

    report.metric("net.ingest_us_per_req", "us", Some(ingest_per_req));
    report.metric(
        "net.framing_self_us_per_req",
        "us",
        Some(ingest_per_req - decode - handle - encode_us),
    );
    report.metric(
        "net.kernel_us_per_req",
        "us",
        Some(inputs.server_cpu_us_per_req - ingest_per_req),
    );
    report.metric("net.bytes_in_per_req", "B", Some(ingest.bytes_in / n));
    report.metric("net.bytes_out_per_req", "B", Some(ingest.bytes_out / n));
    for (what, w) in [("fit", &wf), ("answer", &wa)] {
        report.metric(
            &format!("wire.decode_us.{what}"),
            "us",
            Some(w.mean(w.decode)),
        );
        report.metric(
            &format!("wire.encode_us.{what}"),
            "us",
            Some(w.mean(w.encode)),
        );
    }
    for (what, w, s) in [("fit", &wf, &sf), ("answer", &wa, &sa)] {
        report.metric(
            &format!("service.handle_us.{what}"),
            "us",
            Some(w.mean(w.handle)),
        );
        report.metric(
            &format!("service.self_us.{what}"),
            "us",
            Some(w.mean(w.handle) - s.mean(s.children)),
        );
    }
    report.metric(
        "session.mechanism_hit_us",
        "us",
        Some(shadow.mechanism_us / sf.n.max(1.0)),
    );
    report.metric(
        "plan.artifact_builds",
        "count",
        Some(plan_stats.total_builds() as f64),
    );
    report.metric(
        "plan.pinv_builds",
        "count",
        Some(plan_stats.pseudoinverse_builds() as f64),
    );
    report.metric(
        "plan.sparse_factorizations",
        "count",
        Some(plan_stats.sparse_factorizations() as f64),
    );
    report.metric(
        "plan.cg_fallbacks",
        "count",
        Some(plan_stats.cg_fallbacks() as f64),
    );
    let charges = (shadow.admitted + shadow.rejected).max(1.0);
    report.metric(
        "accounting.admit_ratio",
        "fraction",
        Some(shadow.admitted / charges),
    );
    report.metric(
        "estimate.answer_ns_per_query",
        "ns",
        Some(shadow.answer_us * 1e3 / shadow.queries.max(1.0)),
    );
    report.metric(
        "linalg.solves_per_fit",
        "count",
        Some((solver1.solves - solver0.solves) as f64 / fits.max(1.0)),
    );
    report.metric(
        "linalg.cg_iters_per_fit",
        "count",
        Some((solver1.cg_iterations - solver0.cg_iterations) as f64 / fits.max(1.0)),
    );
    report.metric(
        "trace.overhead_pct",
        "%",
        Some((traced.wall_us / untraced.wall_us - 1.0) * 100.0),
    );
    probes(seed, dir, report)
}

/// The catalog of specs every workload probes: `(metric key, policy,
/// spec id)`.
fn catalog() -> Vec<(String, String, &'static str)> {
    let mut v: Vec<(String, String, &'static str)> = [
        ("line:128", "line-laplace-consistent"),
        ("theta-line:256:4", "theta-line-4-laplace"),
        ("star:128", "tree-laplace"),
        ("grid:16", "grid"),
        ("theta-grid:16:2", "theta-grid-2"),
    ]
    .iter()
    .map(|&(p, s)| (s.to_string(), p.to_string(), s))
    .collect();
    for k in MATRIX_KS {
        for s in ["mm-hist-hierarchical", "mm-range-hierarchical"] {
            v.push((format!("{s}.k{k}"), format!("theta-line:{k}:4"), s));
        }
    }
    v
}

/// Workload-independent layer probes.
fn probes(seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::stream(seed, "probe", 0);
    for (key, policy, spec_id) in catalog() {
        let graph = policy_graph(&policy)?;
        let eps = Epsilon::new(1.0).expect("positive");
        let cache = Arc::new(PlanCache::new());
        let session = Session::with_cache(&graph, eps, cache).map_err(|e| e.to_string())?;
        let spec = MechanismSpec::parse(spec_id).expect("catalog ids parse");
        let t = Instant::now();
        let mech = session.mechanism(&spec).map_err(|e| e.to_string())?;
        report.metric(&format!("plan.cold_ms.{key}"), "ms", Some(us(t) / 1e3));
        let counts: Vec<f64> = (0..graph.domain().size())
            .map(|_| rng.range(0, 50) as f64)
            .collect();
        let data = DataVector::new(graph.domain().clone(), counts).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for i in 0..PROBE_FITS {
            let mut fit_rng = StdRng::seed_from_u64(i as u64);
            let t = Instant::now();
            std::hint::black_box(mech.fit(&data, &mut fit_rng).map_err(|e| e.to_string())?);
            times.push(us(t));
        }
        report.metric(
            &format!("mechanism.fit_us.{key}"),
            "us",
            Some(crate::stats::median(&times)),
        );
    }
    for k in MATRIX_KS {
        let cache = PlanCache::new();
        let strategy = hierarchical_strategy_sparse(k);
        let t = Instant::now();
        let solver = cache.gram_solver(&format!("gram/hierarchical/{k}"), || {
            GramSolver::plan(&strategy, SparseMatrixMechanism::DEFAULT_CG_OPTIONS)
        });
        report.metric(
            &format!("linalg.factorization_ms.{k}"),
            "ms",
            Some(us(t) / 1e3),
        );
        std::hint::black_box(solver);
    }
    // Durable charges, at the default per-charge fsync: admitted until
    // the budget runs out, then rejected.
    let ledger = durable_ledger(&dir.join("probe-ledger"))?;
    let eps = Epsilon::new(0.5).expect("positive");
    let budget = Epsilon::new(0.5 * PROBE_CHARGES as f64).expect("positive");
    ledger.open("probe", budget).map_err(|e| e.to_string())?;
    let (mut admit, mut reject) = (Vec::new(), Vec::new());
    let (mut wal_bytes, mut synced) = (0.0, 0.0);
    for _ in 0..2 * PROBE_CHARGES {
        let before = ledger.durability_stats();
        let t = Instant::now();
        let ok = ledger.charge("probe", "probe", eps).is_ok();
        let took = us(t);
        if ok { &mut admit } else { &mut reject }.push(took);
        if let (Some(a), Some(b)) = (before, ledger.durability_stats()) {
            if b.wal_bytes > a.wal_bytes {
                wal_bytes += (b.wal_bytes - a.wal_bytes) as f64;
                // Under the per-charge policy every WAL append is synced.
                synced += f64::from(b.policy == FsyncPolicy::PerCharge);
            }
        }
    }
    let admitted = admit.len().max(1) as f64;
    report.metric(
        "accounting.charge_us.admit",
        "us",
        Some(crate::stats::median(&admit)),
    );
    report.metric(
        "accounting.charge_us.reject",
        "us",
        Some(crate::stats::median(&reject)),
    );
    report.metric(
        "accounting.wal_bytes_per_charge",
        "B",
        Some(wal_bytes / admitted),
    );
    report.metric(
        "accounting.fsyncs_per_charge",
        "count",
        Some(synced / admitted),
    );
    Ok(())
}

const PROBE_FITS: usize = 15;
const PROBE_CHARGES: usize = 300;

/// The policy graph for a wire policy token, parsed by the wire codec.
fn policy_graph(policy: &str) -> Result<PolicyGraph, String> {
    let line = format!("tenant probe policy={policy} eps=1 budget=1 data=uniform:1");
    match Codec::new().decode(&line) {
        Ok(Some(Request::Tenant { config, .. })) => Ok(config.graph),
        _ => Err(format!("cannot parse policy {policy}")),
    }
}
