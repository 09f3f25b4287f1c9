//! The `served_mix` workload: an in-process `cold-serve` on loopback with
//! a fresh cache directory, driven over real TCP by two closed-loop
//! clients running a fixed script.
//!
//! Each client runs `rounds` rounds. One round is:
//! 1. a new standard job at n = 12 (a cold run, which writes the cache);
//! 2. a resubmission of it (a result-cache hit, which reads the cache);
//! 3. an `"mode":"evolve"` child of it (a warm start from the parent's
//!    cached result).
//!
//! Every `PARETO_EVERY` rounds (staggered between the clients) the round
//! also submits a `"mode":"pareto"` job at n = 10 and, while it runs, a
//! duplicate of it (in-flight dedup). A client waits for each job's
//! result, then a think time drawn from `[0, 10)` ms, before it submits
//! the next; completion is read from the job's SSE stream,
//! `GET /jobs/{id}/events`. The path counts (cold / hit / evolve / pareto
//! / dedup) are fixed by `--seconds`; a run whose counts differ from the
//! script counts as failed.

use crate::layers::{self, doc_topology, Layers};
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, ratio, timed, Outcome, SplitMix};
use cold::context::rng::derive_seed;
use cold::cost::{evaluate_total, Network};
use cold::ga::pareto::{dominates, hypervolume, non_dominated_sort};
use cold::{ChangeCosts, ColdConfig};
use cold_serve::http::client_request;
use cold_serve::{JobSpec, ResultCache, Server, ServerConfig, ServerHandle};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const N_STANDARD: usize = 12;
const N_PARETO: usize = 10;
const PARETO_EVERY: usize = 48;
/// Script rounds per client per requested second, sized so one pass of
/// the script takes about `--seconds` on a 2-core machine.
const ROUNDS_PER_SECOND: f64 = 6.0;
const CLIENTS: usize = 2;
/// Upper end of the uniform think time a client waits before each job.
/// It spreads submissions over the server acceptor's 10 ms poll cycle, so
/// latencies do not lock onto that cycle and jump by whole periods.
const THINK_MAX_US: u64 = 10_000;
const SETUP_REPS: usize = 5;
/// Standard jobs (each followed by a cache hit) in one warm-up.
const WARMUP_JOBS: u64 = 3;
/// Attempts per submission when the queue answers 503.
const SUBMIT_ATTEMPTS: usize = 6;
/// Evolve results per run re-synthesized directly and probed layer by
/// layer in the traced run.
const PROBED: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum JobPath {
    Cold,
    Hit,
    Evolve,
    Pareto,
    Dedup,
}

const PATHS: [(JobPath, &str); 5] = [
    (JobPath::Cold, "cold"),
    (JobPath::Hit, "hit"),
    (JobPath::Evolve, "evolve"),
    (JobPath::Pareto, "pareto"),
    (JobPath::Dedup, "dedup"),
];

fn standard_config() -> ColdConfig {
    ColdConfig::quick(N_STANDARD, 4e-4, 10.0)
}

/// The evolve children re-price bandwidth by +25% against their parent.
fn evolve_config() -> ColdConfig {
    ColdConfig::quick(N_STANDARD, 5e-4, 10.0)
}

fn change_costs() -> ChangeCosts {
    ChangeCosts::uniform(1.0)
}

fn has_pareto(client: usize, round: usize) -> bool {
    (round + client * PARETO_EVERY / 2).is_multiple_of(PARETO_EVERY)
}

fn rounds_for(seconds: f64) -> usize {
    ((seconds * ROUNDS_PER_SECOND).round() as usize).max(1)
}

/// Path counts the script must produce.
fn expected_counts(rounds: usize) -> HashMap<JobPath, usize> {
    let pareto: usize =
        (0..CLIENTS).map(|c| (0..rounds).filter(|&r| has_pareto(c, r)).count()).sum();
    let per = CLIENTS * rounds;
    HashMap::from([
        (JobPath::Cold, per),
        (JobPath::Hit, per),
        (JobPath::Evolve, per),
        (JobPath::Pareto, pareto),
        (JobPath::Dedup, pareto),
    ])
}

/// One answered job as the client saw it.
struct JobRecord {
    path: JobPath,
    /// Submit → result document, seconds.
    latency: f64,
    /// Network cost of a cold standard job's result, and its ratio to the
    /// cost of the context's minimum spanning tree.
    cost: Option<(f64, f64)>,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobRecord>,
    /// Σ over clients of (jobs answered / the client's own wall time).
    rate: f64,
    problems: Vec<String>,
    attempted: u64,
    retries: u64,
    /// Σ eval / breed / repair seconds of the generation records streamed
    /// for run jobs, and the number of such jobs.
    ga_phases: [f64; 3],
    ga_jobs: usize,
    /// (evolve spec body, parent result doc, child result doc) for the
    /// traced run's direct warm-start probes.
    evolve_samples: Vec<(String, String, String)>,
    /// Pareto result documents for the traced run's front probes.
    pareto_docs: Vec<String>,
    bodies: Vec<String>,
}

/// The answer to `POST /jobs`.
#[derive(Debug, PartialEq, Eq)]
enum Submitted {
    Accepted,
    Cached,
    Deduplicated,
}

struct Client<'a> {
    addr: String,
    tracer: Option<&'a Tracer>,
    think: SplitMix,
    log: ClientLog,
}

impl<'a> Client<'a> {
    fn new(addr: &str, tracer: Option<&'a Tracer>, seed: u64) -> Self {
        Client { addr: addr.to_string(), tracer, think: SplitMix(seed), log: ClientLog::default() }
    }

    /// Waits a think time drawn uniformly from `[0, THINK_MAX_US)` µs.
    fn pause(&mut self) {
        let us = self.think.next_u64() % THINK_MAX_US;
        std::thread::sleep(std::time::Duration::from_micros(us));
    }

    fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        match self.tracer {
            Some(t) => t.span(name, parent, op, |_| f()),
            None => f(),
        }
    }

    /// `POST /jobs`, retrying 503 answers with a short backoff.
    fn submit(
        &mut self,
        body: &str,
        name: &'static str,
        op: u64,
    ) -> Result<(String, Submitted), String> {
        for attempt in 0..SUBMIT_ATTEMPTS {
            let resp = self
                .span(name, None, op, || client_request(&self.addr, "POST", "/jobs", Some(body)))
                .map_err(|e| format!("submit: {e}"))?;
            if resp.status == 503 {
                self.log.retries += 1;
                std::thread::sleep(std::time::Duration::from_millis(20 << attempt));
                continue;
            }
            let doc: Value =
                serde_json::from_str(&resp.body).map_err(|e| format!("submit answer: {e}"))?;
            let id = doc["id"].as_str().ok_or("submit answer has no id")?.to_string();
            let kind = match resp.status {
                202 => Submitted::Accepted,
                200 if doc["cached"].as_bool() == Some(true) => Submitted::Cached,
                200 if doc["deduplicated"].as_bool() == Some(true) => Submitted::Deduplicated,
                s => return Err(format!("submit answered {s}: {}", resp.body)),
            };
            return Ok((id, kind));
        }
        Err("submission refused: queue full after retries".into())
    }

    /// Waits on the job's SSE stream until it ends, then fetches the
    /// result document.
    fn finish(&mut self, id: &str, op: u64) -> Result<String, String> {
        let events = self
            .span("serve.events", None, op, || {
                client_request(&self.addr, "GET", &format!("/jobs/{id}/events"), None)
            })
            .map_err(|e| format!("events: {e}"))?;
        let mut last_status = None;
        let mut phases = [0.0; 3];
        let mut generations = 0;
        for line in events.body.lines() {
            let Some(data) = line.strip_prefix("data: ") else { continue };
            let frame: Value = serde_json::from_str(data).map_err(|e| format!("SSE frame: {e}"))?;
            if frame["event"].as_str() == Some("generation") {
                generations += 1;
                for (slot, key) in
                    ["eval_seconds", "breed_seconds", "repair_seconds"].iter().enumerate()
                {
                    phases[slot] += frame[*key].as_f64().unwrap_or(0.0);
                }
            } else if let Some(s) = frame["status"].as_str() {
                last_status = Some(s.to_string());
            }
        }
        if last_status.as_deref() != Some("done") {
            return Err(format!("job {id} ended as {last_status:?}, not done"));
        }
        if generations > 0 {
            self.log.ga_jobs += 1;
            for (acc, p) in self.log.ga_phases.iter_mut().zip(phases) {
                *acc += p;
            }
        }
        self.fetch(id, op)
    }

    /// `GET /jobs/{id}/result`.
    fn fetch(&mut self, id: &str, op: u64) -> Result<String, String> {
        let resp = self
            .span("serve.fetch", None, op, || {
                client_request(&self.addr, "GET", &format!("/jobs/{id}/result"), None)
            })
            .map_err(|e| format!("result: {e}"))?;
        if resp.status != 200 {
            return Err(format!("result of {id} answered {}", resp.status));
        }
        Ok(resp.body)
    }

    /// Submits `body`, expects `want`, and returns (id, result doc).
    fn job(
        &mut self,
        body: &str,
        path: JobPath,
        want: Submitted,
        submit_span: &'static str,
        op: u64,
    ) -> Result<(String, String), String> {
        self.log.attempted += 1;
        self.log.bodies.push(body.to_string());
        self.pause();
        let start = Instant::now();
        let (id, got) = self.submit(body, submit_span, op)?;
        if got != want {
            return Err(format!("{path:?} job {id}: answered {got:?}, script expects {want:?}"));
        }
        // A cached answer is final: fetch the document without waiting.
        let doc =
            if got == Submitted::Cached { self.fetch(&id, op)? } else { self.finish(&id, op)? };
        self.log.jobs.push(JobRecord { path, latency: start.elapsed().as_secs_f64(), cost: None });
        Ok((id, doc))
    }

    fn round(&mut self, seed: u64, client: usize, round: usize) -> Result<(), String> {
        let s = derive_seed(seed, (client * 1_000_000 + round) as u64);
        let op = s;
        let config = serde_json::to_value(&standard_config());
        let body = serde_json::json!({ "config": config, "seed": s, "count": 1 }).to_string();

        let (id, doc) =
            self.job(&body, JobPath::Cold, Submitted::Accepted, "serve.submit_cold", op)?;
        let cost = check_standard(&doc, s)?;
        self.log.jobs.last_mut().expect("job recorded").cost = Some(cost);

        let (_, again) =
            self.job(&body, JobPath::Hit, Submitted::Cached, "serve.submit_hit", op)?;
        if again != doc {
            return Err(format!("cache hit for {id} is not byte-identical to its first answer"));
        }

        let child = serde_json::json!({
            "config": serde_json::to_value(&evolve_config()),
            "seed": s,
            "count": 1,
            "mode": "evolve",
            "parent": id,
            "change_costs": serde_json::to_value(&change_costs()),
        })
        .to_string();
        let (_, child_doc) =
            self.job(&child, JobPath::Evolve, Submitted::Accepted, "serve.submit_evolve", op)?;
        let child_value: Value = serde_json::from_str(&child_doc).map_err(|e| e.to_string())?;
        if child_value["warm"].as_bool() != Some(true) {
            return Err(format!("evolve child of cached parent {id} did not warm-start"));
        }
        if self.log.evolve_samples.len() < PROBED {
            self.log.evolve_samples.push((child, doc, child_doc));
        }

        if has_pareto(client, round) {
            self.pareto_pair(s, op)?;
        }
        Ok(())
    }

    /// A Pareto job and, while it runs, a duplicate submission of it.
    fn pareto_pair(&mut self, s: u64, op: u64) -> Result<(), String> {
        let config = serde_json::to_value(&ColdConfig::quick(N_PARETO, 4e-4, 10.0));
        let body = serde_json::json!({ "config": config, "seed": s, "count": 1, "mode": "pareto" })
            .to_string();
        self.log.attempted += 2;
        self.log.bodies.push(body.clone());
        self.pause();
        let start = Instant::now();
        let (id, got) = self.submit(&body, "serve.submit_pareto", op)?;
        let dup_start = Instant::now();
        let (dup_id, dup) = self.submit(&body, "serve.submit_dedup", op)?;
        if got != Submitted::Accepted || dup != Submitted::Deduplicated || dup_id != id {
            return Err(format!("pareto job {id}: answered {got:?} then {dup:?}"));
        }
        let doc = self.finish(&id, op)?;
        let end = Instant::now();
        check_front(&doc)?;
        if self.log.pareto_docs.len() < PROBED {
            self.log.pareto_docs.push(doc);
        }
        self.log.jobs.push(JobRecord {
            path: JobPath::Pareto,
            latency: (end - start).as_secs_f64(),
            cost: None,
        });
        self.log.jobs.push(JobRecord {
            path: JobPath::Dedup,
            latency: (end - dup_start).as_secs_f64(),
            cost: None,
        });
        Ok(())
    }
}

/// A standard job's network cost must equal a fresh evaluation on the
/// context of its first trial. Returns that cost and its ratio to the
/// context's minimum-spanning-tree cost.
fn check_standard(doc: &str, seed: u64) -> Result<(f64, f64), String> {
    let doc: Value = serde_json::from_str(doc).map_err(|e| e.to_string())?;
    let topo = &doc["topologies"][0];
    let m = doc_topology(topo).ok_or("standard result has no topology")?;
    let cfg = standard_config();
    let ctx = cfg.context.generate(derive_seed(derive_seed(seed, 0), 0xC0));
    let fresh = evaluate_total(&m, &ctx, &cfg.params).map_err(|e| e.to_string())?;
    let reported = topo["cost"]["total"].as_f64().ok_or("result has no cost")?;
    if fresh.to_bits() != reported.to_bits() {
        return Err(format!("served cost {reported} != fresh evaluate_total {fresh}"));
    }
    Ok((reported, reported / crate::batch::mst_cost(&ctx, &cfg.params)))
}

/// A served front: mutually non-dominated, at most 32 members, finite
/// non-decreasing hypervolume history.
fn check_front(doc: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(doc).map_err(|e| e.to_string())?;
    let objs = front_objectives(&doc).ok_or("pareto result has no front")?;
    if objs.is_empty() || objs.len() > crate::batch::ARCHIVE {
        return Err(format!("served front holds {} members", objs.len()));
    }
    for (i, a) in objs.iter().enumerate() {
        if objs[i + 1..].iter().any(|b| dominates(a, b) || dominates(b, a)) {
            return Err("served front members dominate each other".into());
        }
    }
    let history: Vec<f64> = doc["result"]["hypervolume_history"]
        .as_array()
        .ok_or("pareto result has no hypervolume history")?
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect();
    if history.is_empty()
        || history.iter().any(|v| !v.is_finite())
        || history.windows(2).any(|w| w[1] < w[0])
    {
        return Err("served hypervolume history is not finite and non-decreasing".into());
    }
    Ok(())
}

fn front_objectives(doc: &Value) -> Option<Vec<Vec<f64>>> {
    doc["result"]["front"]
        .as_array()?
        .iter()
        .map(|m| m["objectives"].as_array()?.iter().map(Value::as_f64).collect())
        .collect()
}

/// `GET /metrics`, parsed into `name → value` for plain samples.
fn scrape(addr: &str) -> HashMap<String, f64> {
    let body = client_request(addr, "GET", "/metrics", None).map(|r| r.body).unwrap_or_default();
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// A server on a fresh cache directory under `out_dir`.
struct Service {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Service {
    /// Starts a server, sends the first request, and runs the warm-up:
    /// `WARMUP_JOBS` standard jobs outside the script's seeds, each run to
    /// completion and then fetched again as a cache hit.
    fn start(out_dir: &Path, tag: &str, seed: u64) -> Result<Self, String> {
        let dir = out_dir.join(format!("serve-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig { cache_dir: dir.clone(), ..ServerConfig::default() };
        let handle = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let addr = handle.local_addr().to_string();
        let health = client_request(&addr, "GET", "/healthz", None).map_err(|e| e.to_string())?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        let mut client = Client::new(&addr, None, seed);
        for i in 0..WARMUP_JOBS {
            let warmup_seed = derive_seed(seed, u64::MAX - i);
            let body = serde_json::json!({
                "config": serde_json::to_value(&standard_config()),
                "seed": warmup_seed,
                "count": 1,
            })
            .to_string();
            let (_, doc) =
                client.job(&body, JobPath::Cold, Submitted::Accepted, "serve.submit_cold", i)?;
            check_standard(&doc, warmup_seed)?;
            client.job(&body, JobPath::Hit, Submitted::Cached, "serve.submit_hit", i)?;
        }
        Ok(Self { handle, addr, dir })
    }

    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: server start on a fresh cache, the first request and the
/// warm-up jobs, repeated `SETUP_REPS` times; returns the last server and
/// the median time.
fn timed_setup(out_dir: &Path, seed: u64) -> Result<(Service, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<Service> = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            s.stop();
        }
        let (service, secs) = timed(|| Service::start(out_dir, &format!("setup{rep}"), seed));
        times.push(secs);
        last = Some(service?);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Runs the script against `addr`; returns the merged client logs and the
/// script's wall time.
fn run_script(addr: &str, seed: u64, rounds: usize, tracer: Option<&Tracer>) -> (ClientLog, f64) {
    let (logs, wall) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::new(addr, tracer, derive_seed(seed, c as u64));
                        let start = Instant::now();
                        for r in 0..rounds {
                            if let Err(why) = client.round(seed, c, r) {
                                client.log.problems.push(format!("client {c} round {r}: {why}"));
                            }
                        }
                        client.log.rate =
                            ratio(client.log.jobs.len() as f64, start.elapsed().as_secs_f64());
                        client.log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let mut merged = ClientLog::default();
    for log in logs {
        merged.jobs.extend(log.jobs);
        merged.rate += log.rate;
        merged.problems.extend(log.problems);
        merged.attempted += log.attempted;
        merged.retries += log.retries;
        for (acc, p) in merged.ga_phases.iter_mut().zip(log.ga_phases) {
            *acc += p;
        }
        merged.ga_jobs += log.ga_jobs;
        merged.evolve_samples.extend(log.evolve_samples);
        merged.pareto_docs.extend(log.pareto_docs);
        merged.bodies.extend(log.bodies);
    }
    (merged, wall)
}

fn latencies(log: &ClientLog, paths: &[JobPath]) -> Vec<f64> {
    log.jobs.iter().filter(|j| paths.contains(&j.path)).map(|j| j.latency).collect()
}

/// Tallies the log into `outcome`: attempts, failed operations, and a
/// failure when the path counts differ from the script.
fn tally(outcome: &mut Outcome, log: &ClientLog, rounds: usize) -> HashMap<JobPath, usize> {
    outcome.attempted += log.attempted;
    // Each problem ends its round; a job that never answered is one too.
    let unanswered = log.attempted.saturating_sub(log.jobs.len() as u64);
    outcome.failed += unanswered.max(log.problems.len() as u64);
    outcome.problems.extend(log.problems.iter().cloned());
    let mut counts = HashMap::new();
    for j in &log.jobs {
        *counts.entry(j.path).or_insert(0) += 1;
    }
    let want = expected_counts(rounds);
    let line: Vec<String> = PATHS
        .iter()
        .map(|(p, name)| format!("{name}={}", counts.get(p).copied().unwrap_or(0)))
        .collect();
    println!("# path counts {} (script: {rounds} rounds x {CLIENTS} clients)", line.join(" "));
    if PATHS.iter().any(|(p, _)| counts.get(p).copied().unwrap_or(0) != want[p]) {
        outcome.fail(format!("path counts {} differ from the script", line.join(" ")));
    }
    counts
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>, out_dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let rounds = rounds_for(seconds);
    let result = match tracer {
        None => run_untraced(&mut outcome, seed, rounds, out_dir),
        Some(t) => run_traced(&mut outcome, seed, rounds, t, out_dir),
    };
    if let Err(why) = result {
        outcome.attempted = outcome.attempted.max(1);
        outcome.fail(why);
    }
    outcome
}

fn run_untraced(
    outcome: &mut Outcome,
    seed: u64,
    rounds: usize,
    out_dir: &Path,
) -> Result<(), String> {
    let (service, setup_s) = timed_setup(out_dir, seed)?;
    let (log, wall) = run_script(&service.addr, seed, rounds, None);
    service.stop();
    tally(outcome, &log, rounds);

    let run_lat = latencies(&log, &[JobPath::Cold, JobPath::Evolve, JobPath::Pareto]);
    let hit_lat = latencies(&log, &[JobPath::Hit]);
    let (costs, cost_ratios): (Vec<f64>, Vec<f64>) = log.jobs.iter().filter_map(|j| j.cost).unzip();
    let per_s = log.rate;
    println!("# jobs_per_s {per_s:.6} 1/s (answered {}, wall {wall:.3} s)", log.jobs.len());
    println!("# design_cost_mean {:.6} cost", mean(&costs));
    println!(
        "# job_s_p50 {:.6} s, job_s_p90 {:.6} s (samples {})",
        median(&run_lat),
        quantile(&run_lat, 0.9),
        run_lat.len()
    );
    println!(
        "# hit_s_p50 {:.6} s, hit_s_p90 {:.6} s (samples {})",
        median(&hit_lat),
        quantile(&hit_lat, 0.9),
        hit_lat.len()
    );
    println!("# failed_share {:.6} ratio", ratio(outcome.failed as f64, outcome.attempted as f64));
    outcome.push("setup_s", setup_s, "s");
    outcome.push("ops_per_s", per_s, "1/s");
    outcome.push("design_cost_ratio", mean(&cost_ratios), "ratio");
    outcome.push("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
    Ok(())
}

/// The traced run: the script once untraced (the overhead baseline), then
/// once with spans around every client call, then the layer probes.
fn run_traced(
    outcome: &mut Outcome,
    seed: u64,
    rounds: usize,
    tracer: &Tracer,
    out_dir: &Path,
) -> Result<(), String> {
    let baseline = Service::start(out_dir, "baseline", seed)?;
    let (base_log, base_wall) = run_script(&baseline.addr, seed, rounds, None);
    baseline.stop();
    tally(outcome, &base_log, rounds);

    let service = Service::start(out_dir, "traced", seed)?;
    let before = scrape(&service.addr);
    let (log, wall) = run_script(&service.addr, seed, rounds, Some(tracer));
    let after = scrape(&service.addr);
    let counts = tally(outcome, &log, rounds);
    for i in 0..20 {
        tracer
            .span("serve.healthz", None, i, |_| {
                client_request(&service.addr, "GET", "/healthz", None)
            })
            .map_err(|e| format!("healthz: {e}"))?;
    }
    service.stop();

    let mut layers = Layers::default();
    layers.set_span_median(tracer, "serve.healthz_s", "serve.healthz");
    layers.set_span_median(tracer, "serve.submit_cold_s", "serve.submit_cold");
    layers.set_span_median(tracer, "serve.submit_hit_s", "serve.submit_hit");
    layers.set_span_median(tracer, "serve.submit_dedup_s", "serve.submit_dedup");
    let hist = |name: &str| {
        ratio(
            delta(&before, &after, &format!("{name}_sum")),
            delta(&before, &after, &format!("{name}_count")),
        )
    };
    layers.set("serve.queue_wait_s", hist("cold_serve_job_queue_wait_seconds"));
    layers.set("serve.job_run_s", hist("cold_serve_job_seconds"));
    let run_lat = latencies(&log, &[JobPath::Cold, JobPath::Evolve, JobPath::Pareto]);
    let hit_lat = latencies(&log, &[JobPath::Hit]);
    layers.set(
        "serve.job_run_share",
        ratio(delta(&before, &after, "cold_serve_job_seconds_sum"), run_lat.iter().sum()),
    );
    let submissions = log.attempted as f64;
    layers.set(
        "serve.hit_ratio",
        ratio(delta(&before, &after, "cold_serve_cache_hits_result"), submissions),
    );
    layers.set(
        "serve.dedup_ratio",
        ratio(delta(&before, &after, "cold_serve_cache_hits_inflight"), submissions),
    );
    let evolved = counts.get(&JobPath::Evolve).copied().unwrap_or(0) as f64;
    layers
        .set("serve.warm_ratio", ratio(delta(&before, &after, "cold_serve_warm_starts"), evolved));
    layers.set("serve.rejections", delta(&before, &after, "cold_serve_queue_rejections"));
    layers.set("serve.retries", log.retries as f64);
    layers.set("serve.hit_s_p50", median(&hit_lat));
    layers.set("serve.hit_s_p90", quantile(&hit_lat, 0.9));
    layers.set("serve.job_s_p50", median(&run_lat));
    layers.set("serve.job_s_p90", quantile(&run_lat, 0.9));
    let jobs = log.ga_jobs.max(1) as f64;
    layers.set("ga.eval_s", log.ga_phases[0] / jobs);
    layers.set("ga.breed_s", log.ga_phases[1] / jobs);
    layers.set("ga.repair_s", log.ga_phases[2] / jobs);
    layers.set("obs.trace_overhead_share", ratio(wall - base_wall, base_wall));

    if let Err(why) = library_probes(tracer, &log, out_dir, &mut layers) {
        outcome.fail(why);
    }
    layers.into_outcome(outcome);
    Ok(())
}

/// Times the serve-layer library calls on the script's own bodies and
/// documents, re-runs a few served evolve jobs directly through
/// `try_synthesize_warm` (checking they match the served result), and
/// probes the graph and cost layers on those networks.
fn library_probes(
    tracer: &Tracer,
    log: &ClientLog,
    out_dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut specs = Vec::new();
    for (i, body) in log.bodies.iter().enumerate() {
        let spec = tracer
            .span("serve.spec_parse", None, i as u64, |_| JobSpec::from_json(body))
            .map_err(|e| format!("spec parse: {e}"))?;
        specs.push(spec);
    }
    for (i, spec) in specs.iter().enumerate() {
        tracer.span("serve.fingerprint", None, i as u64, |_| spec.id());
    }
    let dir = out_dir.join(format!("cache-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).map_err(|e| format!("cache open: {e}"))?;
    let mut rng = SplitMix(0xCAC4E);
    let mut fallbacks = 0;
    let mut probe = || -> Result<(), String> {
        for (i, (child_body, parent_doc, child_doc)) in log.evolve_samples.iter().enumerate() {
            let op = i as u64;
            let spec = JobSpec::from_json(child_body)?;
            let id = spec.id();
            tracer
                .span("serve.cache_store", None, op, |_| cache.store_result(&id, child_doc))
                .map_err(|e| format!("cache store: {e}"))?;
            let hit = tracer.span("serve.cache_lookup", None, op, |_| cache.lookup(&id));
            if hit.as_deref() != Some(child_doc.as_str()) {
                return Err("cache lookup did not return the stored document".into());
            }
            let parent: Value = serde_json::from_str(parent_doc).map_err(|e| e.to_string())?;
            let parent = doc_topology(&parent["topologies"][0]).ok_or("parent has no topology")?;
            let warm = tracer
                .span("core.warm_synth", None, op, |_| {
                    cold::try_synthesize_warm(
                        &spec.config,
                        &parent,
                        spec.change,
                        spec.seed,
                        None,
                        None,
                        None,
                    )
                })
                .map_err(|e| e.to_string())?;
            let served: Value = serde_json::from_str(child_doc).map_err(|e| e.to_string())?;
            let served_cost = served["cost"].as_f64().ok_or("evolve result has no cost")?;
            if warm.best_cost().to_bits() != served_cost.to_bits() {
                return Err(format!(
                    "direct warm start {} != served {served_cost}",
                    warm.best_cost()
                ));
            }
            let ctx = tracer.span("context.generate", None, op, |_| {
                spec.config.context.generate(derive_seed(spec.seed, 0xC0))
            });
            let network = tracer
                .span("core.network_build", None, op, |_| {
                    Network::build(warm.network.topology.clone(), &ctx, spec.config.params)
                })
                .map_err(|e| e.to_string())?;
            fallbacks +=
                layers::probe_network(tracer, op, &network, &ctx, spec.config.params, &mut rng)?;
        }
        Ok(())
    };
    let probed = probe();
    let _ = std::fs::remove_dir_all(&dir);
    probed?;
    let mut hvs = Vec::new();
    for (i, doc) in log.pareto_docs.iter().enumerate() {
        let doc: Value = serde_json::from_str(doc).map_err(|e| e.to_string())?;
        let objs = front_objectives(&doc).ok_or("pareto result has no front")?;
        let reference: Vec<f64> = doc["result"]["reference"]
            .as_array()
            .ok_or("pareto result has no reference point")?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        let fronts = tracer.span("ga.nds", None, i as u64, |_| non_dominated_sort(&objs));
        if fronts.len() != 1 {
            return Err(format!("served front splits into {} non-dominated fronts", fronts.len()));
        }
        let hv = tracer.span("ga.hypervolume", None, i as u64, |_| hypervolume(&objs, &reference));
        let served = doc["result"]["hypervolume"].as_f64().unwrap_or(f64::NAN);
        if (hv - served).abs() > 1e-9 * served.abs() {
            return Err(format!("recomputed hypervolume {hv} != served {served}"));
        }
        hvs.push(hv);
    }
    layers.set_span_median(tracer, "ga.nds_s", "ga.nds");
    layers.set_span_median(tracer, "ga.hypervolume_s", "ga.hypervolume");
    layers.set("ga.front_hv_mean", mean(&hvs));
    layers.set_span_median(tracer, "serve.spec_parse_s", "serve.spec_parse");
    layers.set_span_median(tracer, "serve.fingerprint_s", "serve.fingerprint");
    layers.set_span_median(tracer, "serve.cache_store_s", "serve.cache_store");
    layers.set_span_median(tracer, "serve.cache_lookup_s", "serve.cache_lookup");
    layers.set_span_median(tracer, "core.warm_synth_s", "core.warm_synth");
    layers.set_span_median(tracer, "context.generate_s", "context.generate");
    layers.set_span_median(tracer, "core.network_build_s", "core.network_build");
    layers::report_probes(tracer, layers, fallbacks);
    Ok(())
}
