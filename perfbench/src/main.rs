//! `perfbench` — the repository's serving benchmark.
//!
//! One load-generator thread drives the real `blowfish-serve --tcp`
//! binary over loopback with seeded, open-loop `blowfish/1` traffic on at
//! most `nproc` connections. With `--trace 0` it reports the end-to-end
//! metrics of a fixed-rate phase; with `--trace 1` it runs that phase
//! again, searches for the highest rate that meets the workload's latency
//! limit, and replays the fixed-rate lines in-process, layer by layer,
//! for the per-layer metrics. Every reply is checked against a serial in-process replay.
//! The last line of stdout is the result:
//!
//! ```text
//! perfbench --workload mixed-small --seed 1 --seconds 25 --trace 0 \
//!     --server target/release/blowfish-serve
//! perfbench compare A.json B.json     # refuses results of different inputs
//! ```
//!
//! `run.sh` builds the server and this binary and passes `--server`.

mod check;
mod loadgen;
mod report;
mod rng;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Checker;
use loadgen::{Conn, Item, Outcome};
use report::Report;
use server::Server;
use stats::{median, percentile, windowed_percentile, RateSearch};
use workload::{Generator, Params, Phase, Req};

/// The traced run's rate searches take about this long in all, seconds.
const SEARCH_SECONDS: f64 = 12.0;
/// Latency percentiles are the median over at most this many windows
/// of the fixed-rate phase.
const WINDOWS: usize = 5;
/// Set-ups per untraced run, spread over its fixed-rate phase;
/// `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The rate search stops when its bracket is this fine (relative),
/// finer than any regression bound in `BENCHMARK.json`.
const SEARCH_RESOLUTION: f64 = 0.05;
/// Independent rate searches per run; `max_rate_rps` is their median.
const SEARCHES: usize = 3;
/// A trial's p99 needs ten samples beyond it.
const TRIAL_MIN_REQUESTS: usize = 1100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        server: PathBuf::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if Params::named(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    if !args.server.is_file() {
        return Err(format!("--server {} is not a file", args.server.display()));
    }
    Ok(args)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        std::process::exit(match report::compare(&files) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                2
            }
        });
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    match result {
        Ok(report) => report.emit(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Scratch space inside the checkout (durable-ledger probes).
const WORK_DIR: &str = "perfbench-work";

/// Connections to use: one per core, at most.
fn connection_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Routes every request to its tenant's connection and runs the phase at
/// `rate` (a zero rate sends everything at once: the closed-loop
/// set-up). Outcomes come back in request order.
fn run_phase(
    conns: &mut [Conn],
    reqs: &[Req],
    due: &[f64],
    rate: f64,
    stall_ns: u64,
) -> Result<Vec<Outcome>, String> {
    let n = conns.len();
    let mut per_conn: Vec<Vec<Item>> = vec![Vec::new(); n];
    let mut slot = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let due_ns = if rate > 0.0 {
            (due[i] / rate * 1e9) as u64
        } else {
            0
        };
        let c = r.tenant % n;
        slot.push((c, per_conn[c].len()));
        per_conn[c].push(Item {
            due_ns,
            line: r.line.as_bytes(),
        });
    }
    let outcomes = loadgen::run(conns, &per_conn, stall_ns)?;
    Ok(slot.into_iter().map(|(c, j)| outcomes[c][j]).collect())
}

/// A server with its tenants set up.
struct Ready {
    server: Server,
    conns: Vec<Conn>,
}

impl Ready {
    /// Closes the connections, then stops the server.
    fn stop(self) {
        let Ready { mut server, conns } = self;
        drop(conns);
        server.stop();
    }
}

/// Spawns a server and drives the set-up lines through it. Set-up time
/// runs from the spawn until every tenant is onboarded and every
/// `(tenant, spec, handle)` has its first fit.
fn set_up(args: &Args, setup: &[Req]) -> Result<(Ready, f64, Vec<Outcome>), String> {
    let start = Instant::now();
    let server = Server::spawn(&args.server)?;
    let mut conns = (0..connection_count())
        .map(|_| Conn::open(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = run_phase(&mut conns, setup, &[], 0.0, u64::MAX)?;
    Ok((
        Ready { server, conns },
        start.elapsed().as_secs_f64(),
        outcomes,
    ))
}

/// One rate-search trial's verdict: every request answered, the p99
/// within the limit, and no backlog left growing — when the last request
/// falls due, no more requests are in flight than one limit's worth at
/// the offered rate (Little's law).
fn trial_passes(outcomes: &[Outcome], rate: f64, limit_us: f64) -> bool {
    let lat: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_us).collect();
    let last_due = outcomes.iter().map(|o| o.due_ns).max().unwrap_or(0);
    let in_flight = outcomes.iter().filter(|o| o.recv_ns > last_due).count();
    let p99 = percentile(&lat, 0.99);
    let passed = lat.len() == outcomes.len()
        && p99.is_some_and(|p| p <= limit_us)
        && (in_flight as f64) <= rate * limit_us / 1e6 + 1.0;
    eprintln!(
        "perfbench: trial at {rate:.0} req/s: {} of {} answered, p99 {p99:?} us, \
         {in_flight} in flight at the end: {}",
        lat.len(),
        outcomes.len(),
        if passed { "pass" } else { "fail" }
    );
    passed
}

/// Every request a load phase sent, with what came back, for the checker.
#[derive(Default)]
struct Sent {
    reqs: Vec<Req>,
    outcomes: Vec<Outcome>,
}

impl Sent {
    fn push(&mut self, reqs: &[Req], outcomes: &[Outcome]) {
        for (r, o) in reqs.iter().zip(outcomes) {
            // Requests cut from a trial were never served.
            if o.sent_ns != loadgen::NONE {
                self.reqs.push(r.clone());
                self.outcomes.push(*o);
            }
        }
    }
}

/// What the load phases measured.
struct Load {
    setup_times: Vec<f64>,
    setup_outcomes: Vec<Vec<Outcome>>,
    fixed_out: Vec<Outcome>,
    server_cpu_us: f64,
    client_cpu_us: f64,
    peak_rss_mb: f64,
    /// Each rate search's result.
    found: Vec<f64>,
    /// The rate-search trials.
    sent: Sent,
    stats_line: String,
    net_line: String,
}

fn drive(args: &Args, gen: &Generator, setup: &[Req], fixed: &Phase) -> Result<Load, String> {
    let params = &gen.params;
    // The first set-up's server serves the fixed-rate phase. The untraced
    // run sets up again on fresh servers between slices of that phase:
    // the machine's speed drifts over seconds, so set-ups spread over the
    // run give a steadier median than set-ups back to back.
    let (ready, secs, outcomes) = set_up(args, setup)?;
    let Ready {
        mut server,
        mut conns,
    } = ready;
    let mut setup_times = vec![secs];
    let mut setup_outcomes = vec![outcomes];
    let slices = if args.trace { 1 } else { SETUP_REPS };
    let self_stat = format!("/proc/{}/stat", std::process::id());
    let (mut server_cpu_us, mut client_cpu_us) = (0.0, 0.0);
    let mut fixed_out = Vec::with_capacity(fixed.reqs.len());
    for k in 0..slices {
        if k > 0 {
            let (other, secs, outcomes) = set_up(args, setup)?;
            other.stop();
            setup_times.push(secs);
            setup_outcomes.push(outcomes);
        }
        let range = k * fixed.reqs.len() / slices..(k + 1) * fixed.reqs.len() / slices;
        let start = fixed.due.get(range.start).copied().unwrap_or(0.0);
        let due: Vec<f64> = fixed.due[range.clone()].iter().map(|d| d - start).collect();
        let (server0, client0) = (server.cpu_us(), server::proc_cpu_us(&self_stat));
        let reqs = &fixed.reqs[range];
        let out = run_phase(&mut conns, reqs, &due, params.fixed_rate, u64::MAX)?;
        fixed_out.extend(out);
        server_cpu_us += server.cpu_us() - server0;
        client_cpu_us += server::proc_cpu_us(&self_stat) - client0;
    }
    let peak_rss_mb = server.peak_rss_mb();

    // The traced run's rate search: independent searches, whose median
    // is reported.
    let stall_ns = (params.limit_us * 2e3) as u64;
    let mut found = Vec::new();
    let mut sent = Sent::default();
    let mut trials = 0;
    if args.trace {
        let budget = SEARCH_SECONDS / SEARCHES as f64;
        for _ in 0..SEARCHES {
            let mut search = RateSearch::new(params.search_start, SEARCH_RESOLUTION);
            let started = Instant::now();
            while let Some(rate) = search.next() {
                if started.elapsed().as_secs_f64() > budget && search.result().is_some() {
                    break;
                }
                let n = ((rate * params.trial_secs).ceil() as usize).max(TRIAL_MIN_REQUESTS);
                trials += 1;
                let phase = gen.phase(trials, n);
                let out = run_phase(&mut conns, &phase.reqs, &phase.due, rate, stall_ns)?;
                search.record(rate, trial_passes(&out, rate, params.limit_us));
                sent.push(&phase.reqs, &out);
            }
            found.extend(search.result());
        }
    }
    let stats_line = conns[0].call("stats")?;
    let net_line = conns[0].call("stats net")?;
    drop(conns);
    server.stop();
    Ok(Load {
        setup_times,
        setup_outcomes,
        fixed_out,
        server_cpu_us,
        client_cpu_us,
        peak_rss_mb,
        found,
        sent,
        stats_line,
        net_line,
    })
}

/// Checks every reply the servers sent against the serial replay, the
/// admission oracle and the final ledger. Each set-up ran on a server of
/// its own, and the same lines must get the same replies on each; the
/// first server went on to serve the rest.
fn check(gen: &Generator, setup: &[Req], fixed: &Phase, load: &Load) -> check::Verdict {
    let mut checker = Checker::new(&gen.tenants);
    let (first, others) = load
        .setup_outcomes
        .split_first()
        .expect("at least one set-up");
    let want = checker.check_all(setup, first, false);
    for outcomes in others {
        checker.compare(setup, outcomes, &want);
    }
    checker.check_all(&fixed.reqs, &load.fixed_out, true);
    checker.check_all(&load.sent.reqs, &load.sent.outcomes, false);
    checker.reconcile(&load.stats_line);
    checker.verdict
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let params = Params::named(&args.workload).expect("validated");
    let gen = Generator::new(params.clone(), args.seed);
    let setup = gen.setup();
    let fixed_n = (params.fixed_rate * args.seconds).round() as usize;
    let fixed = gen.phase(0, fixed_n.max(1));
    let mut report = Report::new(args, &params, &workload::digest(&setup, &fixed));

    let load = drive(args, &gen, &setup, &fixed)?;
    let verdict = check(&gen, &setup, &fixed, &load);

    let lat = |fit: bool| -> Vec<f64> {
        fixed
            .reqs
            .iter()
            .zip(&load.fixed_out)
            .filter(|(r, _)| r.fit == fit)
            .filter_map(|(_, o)| o.latency_us())
            .collect()
    };
    let (fit_lat, answer_lat) = (lat(true), lat(false));
    report.note(format!(
        "fixed-rate phase: {} fits and {} answers at {} req/s; rate searches found {:?} req/s",
        fit_lat.len(),
        answer_lat.len(),
        params.fixed_rate,
        load.found
    ));
    let n_fixed = fixed.reqs.len() as f64;
    let server_cpu_us_per_req = load.server_cpu_us / n_fixed;
    if args.trace {
        let late: Vec<f64> = load.fixed_out.iter().filter_map(Outcome::late_us).collect();
        let max_rate = (load.found.len() == SEARCHES).then(|| median(&load.found));
        report.metric("max_rate_rps", "1/s", max_rate);
        for (name, lat, p) in [
            ("fit_p50_us", &fit_lat, 0.5),
            ("answer_p50_us", &answer_lat, 0.5),
            ("fit_p99_us", &fit_lat, 0.99),
            ("answer_p99_us", &answer_lat, 0.99),
        ] {
            report.metric(name, "us", windowed_percentile(lat, p, WINDOWS));
        }
        report.metric("loadgen.fit_samples", "count", Some(fit_lat.len() as f64));
        report.metric(
            "loadgen.answer_samples",
            "count",
            Some(answer_lat.len() as f64),
        );
        report.metric("loadgen.send_late_p99_us", "us", percentile(&late, 0.99));
        report.metric(
            "loadgen.client_cpu_us_per_req",
            "us",
            Some(load.client_cpu_us / n_fixed),
        );
        let field = |line: &str, key: &str| -> Vec<f64> {
            line.split_whitespace()
                .filter_map(|f| f.strip_prefix(key))
                .filter_map(|v| v.parse().ok())
                .collect()
        };
        let net = |key| field(&load.net_line, key).first().copied();
        report.metric("net.spurious_wakeups", "count", net("spurious_wakeups="));
        report.metric(
            "net.partial_writes_resumed",
            "count",
            net("partial_writes_resumed="),
        );
        let held = field(&load.stats_line, "estimates=").iter().sum();
        report.metric("service.estimates_held", "count", Some(held));
        let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
        report.metric("failed_frac", "fraction", Some(failed_frac));
        let replay = trace::Inputs {
            setup: &setup,
            fixed: &fixed,
            fixed_rate: params.fixed_rate,
            tcp: &load.fixed_out,
            server_cpu_us_per_req,
        };
        trace::run(&replay, args.seed, dir, &mut report)?;
    } else {
        report.metric("server_cpu_us_per_req", "us", Some(server_cpu_us_per_req));
        report.metric("setup_s", "s", Some(median(&load.setup_times)));
        report.metric("peak_rss_mb", "MiB", Some(load.peak_rss_mb));
        report.metric("answer_rmse", "count", Some(verdict.rmse()));
    }
    report.check(&verdict);
    Ok(report)
}
