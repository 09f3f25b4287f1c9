//! The telemetry event model and its JSONL schema.
//!
//! A run journal is a JSON-Lines file: one JSON object per line, each
//! with a string `"event"` discriminator. The schema (documented in
//! DESIGN.md §9) is deliberately flat — every field is a JSON number,
//! string or array — so any log tooling can consume it without knowing
//! this crate. The derived `serde` impls are the codec: [`Event`] is
//! internally tagged on `"event"` and each payload struct's fields are
//! the line's keys. The one hand-written piece is the `metrics` entry
//! list (see [`MetricsEvent`]). [`parse_journal`] is the shared validator
//! used by the round-trip tests, the `journal-check` binary and the CI
//! smoke test.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Per-generation observations handed to a [`GenerationObserver`].
///
/// All fields are *deltas or states of the generation just completed*:
/// counters count this generation's activity, not run totals. The record
/// is computed read-only from engine state after selection, so observing
/// a run cannot change its result (see DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// 1-based index of the completed generation (`"gen"` in journals).
    #[serde(rename = "gen")]
    pub generation: usize,
    /// Best (lowest) cost in the surviving population.
    pub best: f64,
    /// Mean cost of the surviving population.
    pub mean: f64,
    /// Worst (highest) cost in the surviving population.
    pub worst: f64,
    /// Distinct chromosomes / population size, in `(0, 1]` — 1.0 means
    /// every individual is unique, small values mean convergence.
    pub diversity: f64,
    /// Fitness-cache hits during this generation's evaluations.
    pub cache_hits: usize,
    /// Fitness-cache misses (actual objective runs) this generation.
    pub cache_misses: usize,
    /// Cache misses answered incrementally (delta evaluation) this
    /// generation. `delta_evals + full_evals == cache_misses`; stateless
    /// objectives report 0 here.
    pub delta_evals: usize,
    /// Cache misses answered by a full from-scratch evaluation this
    /// generation.
    pub full_evals: usize,
    /// Offspring produced by crossover this generation.
    pub crossover: usize,
    /// Offspring produced by mutation this generation.
    pub mutation: usize,
    /// Offspring that needed connectivity repair this generation.
    pub repairs: usize,
    /// Wall-clock seconds spent in objective evaluation this generation.
    pub eval_seconds: f64,
    /// Wall-clock seconds spent breeding offspring (parent selection,
    /// crossover, mutation) this generation.
    pub breed_seconds: f64,
    /// Wall-clock seconds spent in connectivity repair this generation.
    pub repair_seconds: f64,
    /// Hypervolume of the Pareto archive after this generation, measured
    /// against the run's fixed reference point. Monotone non-decreasing
    /// across a multi-objective run; scalar (single-objective) runs
    /// report `0.0`.
    pub hypervolume: f64,
}

/// Observer hook invoked by `cold-ga`'s engine once per executed
/// generation. Implementations must treat the record as read-only
/// telemetry; they get no access to the population or RNG, which is what
/// makes the determinism guarantee structural rather than behavioral.
pub trait GenerationObserver {
    /// Called after selection, once per generation, in order.
    fn on_generation(&mut self, record: &GenerationRecord);
}

/// Start-of-run marker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStart {
    /// Run identifier (the synthesis seed, as 16 lowercase hex digits).
    pub run: String,
    /// Number of PoPs.
    pub n: usize,
    /// Synthesis mode label (e.g. `"Initialized"`).
    pub mode: String,
    /// Configured generation cap `T`.
    pub generations: usize,
    /// Population size `M`.
    pub population: usize,
}

/// One generation of one run (a [`GenerationRecord`] tagged with its run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationEvent {
    /// Run identifier matching the enclosing [`RunStart::run`].
    pub run: String,
    /// The per-generation observations, inline in the journal line.
    #[serde(flatten)]
    pub record: GenerationRecord,
}

/// End-of-run summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEnd {
    /// Run identifier.
    pub run: String,
    /// Generations actually executed (≤ the configured cap).
    pub generations_run: usize,
    /// Final best cost.
    pub best_cost: f64,
    /// Objective evaluations requested across the run.
    pub evaluations: usize,
    /// Fraction of requests served by the fitness cache.
    pub cache_hit_rate: f64,
    /// Total wall-clock seconds inside objective evaluation.
    pub eval_seconds: f64,
    /// Fraction of offspring needing connectivity repair.
    pub repair_rate: f64,
}

/// A completed coarse phase (synthesize / ensemble / sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name, e.g. `"core.synthesize"`.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// A coarse phase *opened*. Emitted when a trace scope is pushed so the
/// span id is anchored in the journal before any of its children — which
/// is what keeps `parent_id` resolution valid even when a crash truncates
/// the journal before the closing [`SpanEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStartEvent {
    /// Span name, e.g. `"core.campaign"`.
    pub name: String,
}

/// A registry snapshot, usually emitted once at process exit.
///
/// Hand-written encoder: each entry is `{"name", "kind", …}`, with the
/// tuple variants of [`Metric`](crate::Metric) under a `"kind"` tag that
/// follows the name — a shape the derive cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsEvent {
    /// `(name, metric)` pairs sorted by name.
    pub metrics: Vec<(String, crate::Metric)>,
}

impl Serialize for MetricsEvent {
    fn to_json_value(&self) -> Value {
        use crate::Metric;
        let entry = |(name, m): &(String, Metric)| match *m {
            Metric::Counter(c) => json!({ "name": name, "kind": "counter", "count": c }),
            Metric::Gauge(g) => json!({ "name": name, "kind": "gauge", "value": g }),
            Metric::FloatGauge(g) => json!({ "name": name, "kind": "float_gauge", "value": g }),
            Metric::Histogram { count, sum, min, max, buckets } => json!({
                "name": name,
                "kind": "histogram",
                "count": count,
                "sum": sum,
                "min": min,
                "max": max,
                "buckets": buckets,
            }),
        };
        json!({ "metrics": self.metrics.iter().map(entry).collect::<Vec<_>>() })
    }
}

/// The decode side of one `metrics` entry (key order is free there).
#[derive(Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum MetricEntry {
    Counter {
        name: String,
        count: u64,
    },
    Gauge {
        name: String,
        value: i64,
    },
    FloatGauge {
        name: String,
        value: f64,
    },
    Histogram {
        name: String,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: [u64; crate::registry::BUCKETS],
    },
}

impl Deserialize for MetricsEvent {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        use crate::Metric;
        #[derive(Deserialize)]
        struct Entries {
            metrics: Vec<MetricEntry>,
        }
        let metrics = Entries::from_json_value(v)?
            .metrics
            .into_iter()
            .map(|e| match e {
                MetricEntry::Counter { name, count } => (name, Metric::Counter(count)),
                MetricEntry::Gauge { name, value } => (name, Metric::Gauge(value)),
                MetricEntry::FloatGauge { name, value } => (name, Metric::FloatGauge(value)),
                MetricEntry::Histogram { name, count, sum, min, max, buckets } => {
                    (name, Metric::Histogram { count, sum, min, max, buckets })
                }
            })
            .collect();
        Ok(Self { metrics })
    }
}

/// One ensemble/sweep trial failed (panicked or returned an error).
///
/// A resilient ensemble records the failure and keeps going; this event
/// is the durable audit trail of what went wrong and whether the retry
/// recovered it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialFailed {
    /// Zero-based index of the trial within its ensemble.
    pub trial: usize,
    /// 1-based attempt number that failed (1 = first try, 2 = the retry).
    pub attempt: usize,
    /// The derived seed the failing attempt ran with.
    pub seed: u64,
    /// Human-readable failure description (panic payload or typed error).
    pub error: String,
}

/// A campaign checkpoint was written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEvent {
    /// Path the snapshot was (atomically) written to.
    pub path: String,
    /// Trials already completed at snapshot time.
    pub completed: usize,
    /// Total trials in the campaign.
    pub total: usize,
}

/// A trial overran its wall-clock deadline and was abandoned by the
/// watchdog. Always accompanied by a `trial_failed` event for the same
/// `(trial, attempt)` — this event carries the guard-specific context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialDeadlineExceeded {
    /// Zero-based index of the trial within its ensemble/campaign.
    pub trial: usize,
    /// 1-based attempt number that timed out.
    pub attempt: usize,
    /// The derived seed the abandoned attempt ran with.
    pub seed: u64,
    /// The configured deadline, in seconds.
    pub seconds: f64,
}

/// A GA run was terminated by the stall detector: `stall_gens`
/// generations passed without strict best-fitness improvement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaStalled {
    /// Run identifier (the synthesis seed, as 16 lowercase hex digits).
    pub run: String,
    /// The generation the run stopped after.
    pub generation: usize,
    /// The configured stall window that was exhausted.
    pub stall_gens: usize,
    /// Best cost at the stall point.
    pub best: f64,
}

/// A `cold-fault` injection site fired. Chaos-run journals carry one of
/// these per injected fault, making the chaos schedule auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjected {
    /// The injection-site name (e.g. `"eval.nan"`).
    pub site: String,
    /// 1-based hit index at which the site fired.
    pub hit: u64,
}

/// A synthesis job entered the `cold-serve` queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSubmitted {
    /// Content-addressed job id (16 hex digits — the canonical config
    /// fingerprint, see `cold::job_fingerprint`).
    pub id: String,
    /// Number of PoPs in the requested config.
    pub n: usize,
    /// Trials (networks) the job will synthesize.
    pub count: usize,
    /// Master seed of the request.
    pub seed: u64,
}

/// A `cold-serve` worker picked a job up from the queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStarted {
    /// Content-addressed job id.
    pub id: String,
    /// Trials rebuilt from a campaign checkpoint instead of re-run — a
    /// restarted server resuming an interrupted job reports how much
    /// work the checkpoint saved here.
    pub resumed: usize,
}

/// A `cold-serve` job completed and its result entered the cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDone {
    /// Content-addressed job id.
    pub id: String,
    /// Trials synthesized (or rebuilt) for the result.
    pub trials: usize,
    /// Wall-clock seconds from worker pickup to cached result.
    pub seconds: f64,
}

/// A `cold-serve` job failed (synthesis error, worker panic, or a lost
/// trial after the salted retry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFailed {
    /// Content-addressed job id.
    pub id: String,
    /// Human-readable failure description.
    pub error: String,
}

/// A `cold-serve` submission was answered from the content-addressed
/// result cache (or coalesced onto an identical in-flight job).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHit {
    /// Content-addressed job id.
    pub id: String,
    /// `"result"` when served from the on-disk cache, `"inflight"` when
    /// coalesced onto a queued/running identical job.
    pub kind: String,
}

/// A remote worker registered with the distributed coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerJoined {
    /// The worker's self-reported name (unique per pool).
    pub worker: String,
}

/// A remote worker was evicted after missing its heartbeat window (or
/// said goodbye while still holding leases).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerLost {
    /// The evicted worker's name.
    pub worker: String,
    /// Trial leases the worker held at eviction time. Each is either
    /// re-leased (a later `trial_migrated`) or, after the bounded retry
    /// budget, recorded as a lost trial (`trial_failed`).
    pub leases: usize,
}

/// The coordinator granted a trial lease to a worker (or to itself, for
/// the zero-worker local fallback).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialLeased {
    /// Content-addressed job id the trial belongs to.
    pub id: String,
    /// Zero-based trial index within the job's campaign.
    pub trial: usize,
    /// Content-addressed lease id (16 hex digits over job, trial, seed
    /// and attempt).
    pub lease: String,
    /// Name of the worker granted the lease.
    pub worker: String,
    /// 1-based lease attempt for this trial's current seed phase.
    pub attempt: usize,
}

/// A lost lease's trial was re-assigned. `resumed_generation > 0` means
/// the new lease carries the trial's last mid-GA checkpoint and resumes
/// bit-identically from it; `0` means no checkpoint existed yet and the
/// trial restarts from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialMigrated {
    /// Content-addressed job id the trial belongs to.
    pub id: String,
    /// Zero-based trial index within the job's campaign.
    pub trial: usize,
    /// The *new* lease id the trial continues under (resolvable against
    /// a preceding `trial_leased` event).
    pub lease: String,
    /// Worker that held the lost lease.
    pub from_worker: String,
    /// Worker the trial was re-assigned to.
    pub to_worker: String,
    /// GA generation the migrated checkpoint resumes from (0 = restart).
    pub resumed_generation: usize,
}

/// One step of an evolution plan completed (base synthesis or a
/// warm-started re-optimization after a context perturbation). Emitted by
/// the core evolution driver; `run` ties the step to the plan's master
/// seed so a journal can be sliced per plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionStep {
    /// Plan identifier (the plan's master seed, as 16 lowercase hex).
    pub run: String,
    /// Zero-based step index (0 = the cold base synthesis).
    pub step: usize,
    /// Perturbation kind: `"base"`, `"add_pop"`, `"scale_traffic"` or
    /// `"cost_change"`.
    pub kind: String,
    /// PoP count after the perturbation.
    pub n: usize,
    /// Best objective value the step converged to (includes the change
    /// penalty on warm steps).
    pub best_cost: f64,
    /// GA generations the step actually ran.
    pub generations: usize,
}

/// A synthesis was warm-started from a parent design instead of cold
/// init. Emitted by `cold-serve` when a `"mode":"evolve"` job seeds its
/// population from the parent job's cached result; `parent` must resolve
/// against an id seen earlier in the journal (enforced by
/// `journal-check`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStart {
    /// Content-addressed id of the warm-started job (or run).
    pub id: String,
    /// Id/fingerprint of the parent whose design seeded the population.
    pub parent: String,
    /// Population members derived from the parent chromosome.
    pub seeds: usize,
}

/// Any line of a run journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum Event {
    /// `{"event":"run_start",...}`
    RunStart(RunStart),
    /// `{"event":"generation",...}`
    Generation(GenerationEvent),
    /// `{"event":"run_end",...}`
    RunEnd(RunEnd),
    /// `{"event":"span",...}`
    Span(SpanEvent),
    /// `{"event":"span_start",...}`
    SpanStart(SpanStartEvent),
    /// `{"event":"metrics",...}`
    Metrics(MetricsEvent),
    /// `{"event":"trial_failed",...}`
    TrialFailed(TrialFailed),
    /// `{"event":"checkpoint",...}`
    Checkpoint(CheckpointEvent),
    /// `{"event":"trial_deadline_exceeded",...}`
    TrialDeadlineExceeded(TrialDeadlineExceeded),
    /// `{"event":"ga_stalled",...}`
    GaStalled(GaStalled),
    /// `{"event":"fault_injected",...}`
    FaultInjected(FaultInjected),
    /// `{"event":"job_submitted",...}`
    JobSubmitted(JobSubmitted),
    /// `{"event":"job_started",...}`
    JobStarted(JobStarted),
    /// `{"event":"job_done",...}`
    JobDone(JobDone),
    /// `{"event":"job_failed",...}`
    JobFailed(JobFailed),
    /// `{"event":"cache_hit",...}`
    CacheHit(CacheHit),
    /// `{"event":"worker_joined",...}`
    WorkerJoined(WorkerJoined),
    /// `{"event":"worker_lost",...}`
    WorkerLost(WorkerLost),
    /// `{"event":"trial_leased",...}`
    TrialLeased(TrialLeased),
    /// `{"event":"trial_migrated",...}`
    TrialMigrated(TrialMigrated),
    /// `{"event":"evolution_step",...}`
    EvolutionStep(EvolutionStep),
    /// `{"event":"warm_start",...}`
    WarmStart(WarmStart),
}

/// Formats a run seed as the journal's 16-hex-digit run identifier.
pub fn run_id(seed: u64) -> String {
    format!("{seed:016x}")
}

impl Event {
    /// The `"event"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart(_) => "run_start",
            Event::Generation(_) => "generation",
            Event::RunEnd(_) => "run_end",
            Event::Span(_) => "span",
            Event::SpanStart(_) => "span_start",
            Event::Metrics(_) => "metrics",
            Event::TrialFailed(_) => "trial_failed",
            Event::Checkpoint(_) => "checkpoint",
            Event::TrialDeadlineExceeded(_) => "trial_deadline_exceeded",
            Event::GaStalled(_) => "ga_stalled",
            Event::FaultInjected(_) => "fault_injected",
            Event::JobSubmitted(_) => "job_submitted",
            Event::JobStarted(_) => "job_started",
            Event::JobDone(_) => "job_done",
            Event::JobFailed(_) => "job_failed",
            Event::CacheHit(_) => "cache_hit",
            Event::WorkerJoined(_) => "worker_joined",
            Event::WorkerLost(_) => "worker_lost",
            Event::TrialLeased(_) => "trial_leased",
            Event::TrialMigrated(_) => "trial_migrated",
            Event::EvolutionStep(_) => "evolution_step",
            Event::WarmStart(_) => "warm_start",
        }
    }

    /// Serializes the event as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("Value serialization is infallible")
    }
}

/// Parses and schema-validates a whole JSONL journal.
///
/// Blank lines are rejected (a truncated write must not validate), and
/// every line must parse as JSON *and* as a known event shape.
///
/// # Errors
/// `"line <k>: <why>"` for the first offending line.
pub fn parse_journal(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let event = Event::from_json_value(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event);
    }
    if events.is_empty() {
        return Err("journal is empty".into());
    }
    Ok(events)
}

/// Like [`parse_journal`], but additionally extracts (and validates the
/// shape of) the trace envelope — `trace_id` / `span_id` / `parent_id` —
/// each line carries. Causal invariants across lines are checked
/// separately by [`crate::trace::validate_trace`].
///
/// # Errors
/// `"line <k>: <why>"` for the first offending line.
pub fn parse_journal_traced(
    text: &str,
) -> Result<Vec<(Event, Option<crate::trace::TraceFields>)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let event = Event::from_json_value(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        let fields = crate::trace::TraceFields::from_value(&value)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push((event, fields));
    }
    if out.is_empty() {
        return Err("journal is empty".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart(RunStart {
                run: run_id(0xC01D),
                n: 8,
                mode: "Initialized".into(),
                generations: 40,
                population: 40,
            }),
            Event::Generation(GenerationEvent {
                run: run_id(0xC01D),
                record: GenerationRecord {
                    generation: 1,
                    best: 123.456,
                    mean: 150.0,
                    worst: 201.25,
                    diversity: 0.925,
                    cache_hits: 3,
                    cache_misses: 29,
                    delta_evals: 24,
                    full_evals: 5,
                    crossover: 20,
                    mutation: 12,
                    repairs: 1,
                    eval_seconds: 0.0123,
                    breed_seconds: 0.002,
                    repair_seconds: 0.0004,
                    hypervolume: 0.875,
                },
            }),
            Event::SpanStart(SpanStartEvent { name: "core.synthesize".into() }),
            Event::Span(SpanEvent { name: "core.synthesize".into(), seconds: 1.5 }),
            Event::RunEnd(RunEnd {
                run: run_id(0xC01D),
                generations_run: 40,
                best_cost: 101.5,
                evaluations: 1320,
                cache_hit_rate: 0.25,
                eval_seconds: 0.5,
                repair_rate: 0.03,
            }),
            Event::Metrics(MetricsEvent {
                metrics: vec![
                    (
                        "cost.evaluate_total".into(),
                        crate::Metric::Histogram {
                            count: 990,
                            sum: 0.4,
                            min: 0.0001,
                            max: 0.01,
                            buckets: {
                                let mut b = [0u64; crate::registry::BUCKETS];
                                b[2] = 980;
                                b[6] = 10;
                                b
                            },
                        },
                    ),
                    ("ga.hypervolume".into(), crate::Metric::FloatGauge(0.8125)),
                    ("obs.events".into(), crate::Metric::Counter(42)),
                    ("serve.queue_depth".into(), crate::Metric::Gauge(-3)),
                ],
            }),
            Event::TrialFailed(TrialFailed {
                trial: 3,
                attempt: 1,
                seed: u64::MAX, // full-width seeds must survive JSON
                error: "GA worker panicked: objective returned NaN".into(),
            }),
            Event::Checkpoint(CheckpointEvent {
                path: "runs/ensemble.ckpt.json".into(),
                completed: 4,
                total: 16,
            }),
            Event::TrialDeadlineExceeded(TrialDeadlineExceeded {
                trial: 7,
                attempt: 2,
                seed: u64::MAX,
                seconds: 30.0,
            }),
            Event::GaStalled(GaStalled {
                run: run_id(0xC01D),
                generation: 57,
                stall_gens: 25,
                best: 101.5,
            }),
            Event::FaultInjected(FaultInjected { site: "eval.nan".into(), hit: 12 }),
            Event::JobSubmitted(JobSubmitted {
                id: "00c0ffee00c0ffee".into(),
                n: 12,
                count: 4,
                seed: u64::MAX,
            }),
            Event::JobStarted(JobStarted { id: "00c0ffee00c0ffee".into(), resumed: 2 }),
            Event::JobDone(JobDone { id: "00c0ffee00c0ffee".into(), trials: 4, seconds: 1.75 }),
            Event::JobFailed(JobFailed {
                id: "00c0ffee00c0ffee".into(),
                error: "trial panicked: injected".into(),
            }),
            Event::CacheHit(CacheHit { id: "00c0ffee00c0ffee".into(), kind: "result".into() }),
            Event::WorkerJoined(WorkerJoined { worker: "worker-a".into() }),
            Event::WorkerLost(WorkerLost { worker: "worker-a".into(), leases: 1 }),
            Event::TrialLeased(TrialLeased {
                id: "00c0ffee00c0ffee".into(),
                trial: 2,
                lease: "1ea5e1ea5e1ea5e1".into(),
                worker: "worker-a".into(),
                attempt: 1,
            }),
            Event::TrialMigrated(TrialMigrated {
                id: "00c0ffee00c0ffee".into(),
                trial: 2,
                lease: "1ea5e1ea5e1ea5e2".into(),
                from_worker: "worker-a".into(),
                to_worker: "worker-b".into(),
                resumed_generation: 12,
            }),
            Event::EvolutionStep(EvolutionStep {
                run: run_id(0xC01D),
                step: 2,
                kind: "add_pop".into(),
                n: 14,
                best_cost: 987.5,
                generations: 18,
            }),
            Event::WarmStart(WarmStart {
                id: "00c0ffee00c0ffee".into(),
                parent: "00decade00decade".into(),
                seeds: 40,
            }),
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl_text() {
        for event in sample_events() {
            let line = event.to_json_line();
            let value: Value = serde_json::from_str(&line).expect("line parses as JSON");
            let back = Event::from_json_value(&value).expect("schema validates");
            assert_eq!(back, event, "round-trip changed the event");
        }
    }

    #[test]
    fn journal_round_trips_field_by_field() {
        let events = sample_events();
        let text: String =
            events.iter().map(|e| e.to_json_line() + "\n").collect::<Vec<_>>().join("");
        let back = parse_journal(&text).expect("journal validates");
        assert_eq!(back.len(), events.len());
        for (a, b) in back.iter().zip(&events) {
            assert_eq!(a, b);
        }
        // Field-by-field spot checks through the raw JSON, so a schema
        // rename cannot slip through the typed round-trip unnoticed.
        let first: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first["event"].as_str(), Some("run_start"));
        assert_eq!(first["run"].as_str(), Some("000000000000c01d"));
        assert_eq!(first["n"].as_u64(), Some(8));
        let second: Value = serde_json::from_str(text.lines().nth(1).unwrap()).unwrap();
        for key in [
            "run",
            "gen",
            "best",
            "mean",
            "worst",
            "diversity",
            "cache_hits",
            "cache_misses",
            "delta_evals",
            "full_evals",
            "crossover",
            "mutation",
            "repairs",
            "eval_seconds",
            "breed_seconds",
            "repair_seconds",
            "hypervolume",
        ] {
            assert!(!second[key].is_null(), "generation event missing `{key}`");
        }
    }

    #[test]
    fn traced_parsing_extracts_the_envelope() {
        let plain = Event::Span(SpanEvent { name: "s".into(), seconds: 0.0 }).to_json_line();
        let mut value = Event::SpanStart(SpanStartEvent { name: "s".into() }).to_json_value();
        let Value::Object(obj) = &mut value else { panic!("events serialize to objects") };
        obj.insert("trace_id".into(), Value::String("00000000000000aa".into()));
        obj.insert("span_id".into(), Value::String("00000000000000bb".into()));
        let stamped = serde_json::to_string(&value).unwrap();
        let parsed = parse_journal_traced(&format!("{stamped}\n{plain}\n")).expect("validates");
        assert_eq!(parsed.len(), 2);
        let envelope = parsed[0].1.as_ref().expect("first line stamped");
        assert_eq!(envelope.trace_id, "00000000000000aa");
        assert_eq!(envelope.span_id, "00000000000000bb");
        assert_eq!(envelope.parent_id, None);
        assert_eq!(parsed[1].1, None, "unstamped line parses with an empty envelope");
        // A malformed envelope fails the whole parse.
        let bad = stamped.replace("00000000000000aa", "WAT");
        assert!(parse_journal_traced(&format!("{bad}\n")).is_err());
    }

    #[test]
    fn malformed_journals_are_rejected() {
        assert!(parse_journal("").is_err(), "empty journal must not validate");
        assert!(parse_journal("{\"event\":\"generation\"}\n").is_err(), "missing fields");
        assert!(parse_journal("{\"event\":\"warp\"}\n").is_err(), "unknown kind");
        assert!(parse_journal("not json\n").is_err(), "non-JSON line");
        // A valid line followed by a truncated one still fails.
        let good = Event::Span(SpanEvent { name: "s".into(), seconds: 0.0 }).to_json_line();
        let truncated = &good[..good.len() - 4];
        assert!(parse_journal(&format!("{good}\n{truncated}\n")).is_err());
    }

    #[test]
    fn run_id_is_16_hex_digits() {
        assert_eq!(run_id(7), "0000000000000007");
        assert_eq!(run_id(u64::MAX), "ffffffffffffffff");
        assert_eq!(run_id(0).len(), 16);
    }
}
