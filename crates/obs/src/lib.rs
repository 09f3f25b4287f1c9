//! # `cold-obs` — structured run telemetry for the COLD workspace.
//!
//! Observability layer with zero external dependencies (the only dep is
//! the vendored `serde_json`): scoped timers and counters behind a
//! thread-safe global [`registry`], a [`GenerationObserver`] hook the GA
//! engine drives once per generation, and two sinks for the resulting
//! [`Event`] stream — a JSONL *run journal* and a human-readable
//! *progress* mode.
//!
//! ## Turning it on
//!
//! Telemetry is **off by default** and the disabled paths cost one
//! relaxed atomic load (the `obs_overhead` bench in `crates/bench` pins
//! the end-to-end objective-path overhead under 2%). Enable it either
//! through the environment:
//!
//! ```text
//! COLD_TRACE=journal:<path>   # append JSONL events to <path>
//! COLD_TRACE=progress         # human-readable lines on stderr
//! COLD_TRACE=off              # explicit default
//! ```
//!
//! or explicitly in code / CLI flag handlers:
//!
//! ```no_run
//! cold_obs::configure(cold_obs::TraceMode::Journal("run.jsonl".into())).unwrap();
//! ```
//!
//! An explicit [`configure`] always wins over the environment; the env
//! var is consulted lazily, once, on first use.
//!
//! ## Determinism
//!
//! Observers and sinks are strictly read-only consumers: the engine
//! hands them completed [`GenerationRecord`]s and never lets them touch
//! the population or the RNG stream, so synthesis results are
//! bit-identical with tracing on or off (asserted by the workspace's
//! `telemetry` integration tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod registry;
pub mod trace;

pub use event::{
    parse_journal, parse_journal_traced, run_id, CacheHit, CheckpointEvent, Event, EvolutionStep,
    FaultInjected, GaStalled, GenerationEvent, GenerationObserver, GenerationRecord, JobDone,
    JobFailed, JobStarted, JobSubmitted, MetricsEvent, RunEnd, RunStart, SpanEvent, SpanStartEvent,
    TrialDeadlineExceeded, TrialFailed, TrialLeased, TrialMigrated, WarmStart, WorkerJoined,
    WorkerLost,
};
pub use registry::{
    counter_add, gauge_add, gauge_set, gauge_set_f64, observe_seconds, reset, set_timers_enabled,
    snapshot, span, timer, timers_enabled, Metric, ScopedTimer, Span,
};

use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// Where telemetry events go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No sink; all instrumentation short-circuits (the default).
    #[default]
    Off,
    /// Human-readable one-line-per-event output on stderr.
    Progress,
    /// Append JSONL events to the given file.
    Journal(PathBuf),
}

impl TraceMode {
    /// Parses the `COLD_TRACE` grammar:
    /// `off` | `progress` | `journal:<path>` (case-sensitive, no spaces).
    ///
    /// # Errors
    /// Describes the expected grammar on any other input.
    pub fn parse(spec: &str) -> Result<TraceMode, String> {
        match spec {
            "off" | "" => Ok(TraceMode::Off),
            "progress" => Ok(TraceMode::Progress),
            _ => match spec.strip_prefix("journal:") {
                Some(path) if !path.is_empty() => Ok(TraceMode::Journal(PathBuf::from(path))),
                Some(_) => Err("COLD_TRACE=journal: needs a path after the colon".into()),
                None => Err(format!(
                    "unrecognized COLD_TRACE value `{spec}` \
                     (expected `off`, `progress`, or `journal:<path>`)"
                )),
            },
        }
    }
}

/// The installed sink. `writer` is `Some` only in journal mode.
struct SinkState {
    mode: TraceMode,
    writer: Option<BufWriter<std::fs::File>>,
}

/// Fast-path gate consulted by [`emit`] and [`is_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<SinkState>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();

/// Installs (or clears, with [`TraceMode::Off`]) the global trace sink
/// and flips the timer gate to match. Journal mode truncates/creates the
/// file so each configured run starts a fresh journal.
///
/// # Errors
/// Journal-file creation errors.
pub fn configure(mode: TraceMode) -> std::io::Result<()> {
    // Any explicit configuration suppresses later env initialization.
    ENV_INIT.call_once(|| {});
    install(mode)
}

/// Lazily applies `COLD_TRACE` the first time telemetry state is
/// queried, unless [`configure`] already ran. A malformed value is
/// reported once on stderr and treated as `off`.
fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var("COLD_TRACE") else { return };
        match TraceMode::parse(&spec) {
            Ok(TraceMode::Off) => {}
            Ok(mode) => {
                if let Err(e) = install(mode) {
                    eprintln!("[cold-obs] COLD_TRACE journal unusable: {e}");
                }
            }
            Err(e) => eprintln!("[cold-obs] {e}"),
        }
    });
}

/// Swaps the sink (flushing any previous journal) and flips the gates.
fn install(mode: TraceMode) -> std::io::Result<()> {
    let state = match &mode {
        TraceMode::Off => None,
        TraceMode::Progress => Some(SinkState { mode: mode.clone(), writer: None }),
        TraceMode::Journal(path) => {
            let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
            Some(SinkState { mode: mode.clone(), writer: Some(BufWriter::new(file)) })
        }
    };
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(SinkState { writer: Some(w), .. }) = sink.as_mut() {
        let _ = w.flush();
    }
    let enabled = state.is_some();
    *sink = state;
    ENABLED.store(enabled, Ordering::Relaxed);
    set_timers_enabled(enabled);
    Ok(())
}

/// True when a sink is installed (after lazy `COLD_TRACE` evaluation).
/// The hot-path cost is one relaxed atomic load.
#[inline]
pub fn is_enabled() -> bool {
    ensure_env_init();
    ENABLED.load(Ordering::Relaxed)
}

/// The journal file currently being written, if journal mode is active.
/// Plumbed into `SynthesisResult::journal_path` so results carry their
/// own provenance.
pub fn journal_path() -> Option<PathBuf> {
    if !is_enabled() {
        return None;
    }
    match &*SINK.lock().expect("trace sink poisoned") {
        Some(SinkState { mode: TraceMode::Journal(path), .. }) => Some(path.clone()),
        _ => None,
    }
}

/// Routes one event to the active sink; a no-op while disabled. Journal
/// lines are written and flushed under one lock, so events from parallel
/// ensemble trials interleave *between* lines, never within one. Journal
/// lines are stamped with this thread's current [`trace`] context.
pub fn emit(event: &Event) {
    if !is_enabled() {
        return;
    }
    emit_stamped(event, trace::current().as_ref());
}

/// Like [`emit`], but stamps an explicit trace context instead of this
/// thread's current scope — for events attributed to a span the caller
/// minted separately (e.g. per-generation leaf spans).
pub fn emit_with_ctx(event: &Event, ctx: Option<&trace::TraceCtx>) {
    if !is_enabled() {
        return;
    }
    emit_stamped(event, ctx);
}

fn emit_stamped(event: &Event, ctx: Option<&trace::TraceCtx>) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    let Some(state) = sink.as_mut() else { return };
    match &mut state.writer {
        Some(writer) => {
            let line = stamped_line(event, ctx);
            // A failed telemetry write must not kill the synthesis; drop
            // the line and keep going.
            let _ = writeln!(writer, "{line}");
            let _ = writer.flush();
        }
        None => eprintln!("{}", progress_line(event)),
    }
}

/// The JSONL form of an event with the trace envelope (if any) merged
/// into the top-level object.
fn stamped_line(event: &Event, ctx: Option<&trace::TraceCtx>) -> String {
    let Some(ctx) = ctx else { return event.to_json_line() };
    let mut value = serde::Serialize::to_json_value(event);
    if let serde_json::Value::Object(obj) = &mut value {
        obj.insert("trace_id".into(), serde_json::Value::String(ctx.trace_id.clone()));
        obj.insert("span_id".into(), serde_json::Value::String(ctx.span_id.clone()));
        if let Some(parent) = &ctx.parent_id {
            obj.insert("parent_id".into(), serde_json::Value::String(parent.clone()));
        }
    }
    serde_json::to_string(&value).expect("event serialization is infallible")
}

/// Renders the human-readable progress form of an event.
fn progress_line(event: &Event) -> String {
    match event {
        Event::RunStart(e) => format!(
            "[cold] run {} start: n={} mode={} T={} M={}",
            e.run, e.n, e.mode, e.generations, e.population
        ),
        Event::Generation(e) => {
            let r = &e.record;
            let evals = r.cache_hits + r.cache_misses;
            let hit = if evals == 0 { 0.0 } else { 100.0 * r.cache_hits as f64 / evals as f64 };
            format!(
                "[cold] run {} gen {:>4}: best {:.3} mean {:.3} worst {:.3} \
                 div {:.2} hit {:.0}% repairs {} eval {:.3}s",
                e.run,
                r.generation,
                r.best,
                r.mean,
                r.worst,
                r.diversity,
                hit,
                r.repairs,
                r.eval_seconds
            )
        }
        Event::RunEnd(e) => format!(
            "[cold] run {} done: {} generations, best {:.3}, {} evals \
             (hit rate {:.1}%), eval {:.3}s, repair rate {:.3}",
            e.run,
            e.generations_run,
            e.best_cost,
            e.evaluations,
            100.0 * e.cache_hit_rate,
            e.eval_seconds,
            e.repair_rate
        ),
        Event::Span(e) => format!("[cold] span {}: {:.3}s", e.name, e.seconds),
        Event::SpanStart(e) => format!("[cold] span {} start", e.name),
        Event::TrialFailed(e) => format!(
            "[cold] trial {} attempt {} FAILED (seed {:#x}): {}",
            e.trial, e.attempt, e.seed, e.error
        ),
        Event::Checkpoint(e) => {
            format!("[cold] checkpoint {}/{} trials -> {}", e.completed, e.total, e.path)
        }
        Event::TrialDeadlineExceeded(e) => format!(
            "[cold] trial {} attempt {} DEADLINE EXCEEDED ({}s, seed {:#x})",
            e.trial, e.attempt, e.seconds, e.seed
        ),
        Event::GaStalled(e) => format!(
            "[cold] run {} STALLED at gen {}: no improvement in {} generations (best {:.3})",
            e.run, e.generation, e.stall_gens, e.best
        ),
        Event::FaultInjected(e) => {
            format!("[cold] fault {} injected at hit {}", e.site, e.hit)
        }
        Event::JobSubmitted(e) => {
            format!("[cold] job {} submitted: n={} count={} seed {:#x}", e.id, e.n, e.count, e.seed)
        }
        Event::JobStarted(e) => {
            format!("[cold] job {} started ({} trial(s) resumed)", e.id, e.resumed)
        }
        Event::JobDone(e) => {
            format!("[cold] job {} done: {} trials in {:.3}s", e.id, e.trials, e.seconds)
        }
        Event::JobFailed(e) => format!("[cold] job {} FAILED: {}", e.id, e.error),
        Event::CacheHit(e) => format!("[cold] job {} cache hit ({})", e.id, e.kind),
        Event::WorkerJoined(e) => format!("[cold] dist worker {} joined", e.worker),
        Event::WorkerLost(e) => {
            format!("[cold] dist worker {} lost ({} lease(s) orphaned)", e.worker, e.leases)
        }
        Event::TrialLeased(e) => format!(
            "[cold] job {} trial {} leased to {} (lease {}, attempt {})",
            e.id, e.trial, e.worker, e.lease, e.attempt
        ),
        Event::TrialMigrated(e) => format!(
            "[cold] job {} trial {} migrated {} -> {} (resumes at generation {})",
            e.id, e.trial, e.from_worker, e.to_worker, e.resumed_generation
        ),
        Event::EvolutionStep(e) => format!(
            "[cold] evolution {} step {} ({}): n={} best {:.2} in {} generations",
            e.run, e.step, e.kind, e.n, e.best_cost, e.generations
        ),
        Event::WarmStart(e) => {
            format!("[cold] job {} warm-started from {} ({} seeds)", e.id, e.parent, e.seeds)
        }
        Event::Metrics(e) => {
            let mut out = String::from("[cold] metrics:");
            for (name, m) in &e.metrics {
                match *m {
                    Metric::Counter(c) => {
                        out.push_str(&format!("\n[cold]   {name}: {c}"));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("\n[cold]   {name}: {g} (gauge)"));
                    }
                    Metric::FloatGauge(g) => {
                        out.push_str(&format!("\n[cold]   {name}: {g} (gauge)"));
                    }
                    Metric::Histogram { count, sum, min, max, .. } => {
                        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
                        out.push_str(&format!(
                            "\n[cold]   {name}: n={count} total {sum:.4}s \
                             mean {mean:.6}s min {min:.6}s max {max:.6}s"
                        ));
                    }
                }
            }
            out
        }
    }
}

/// Emits the current registry contents as an [`Event::Metrics`] — call
/// once at the end of a CLI run so journals close with a metric summary.
pub fn emit_metrics_snapshot() {
    if !is_enabled() {
        return;
    }
    let metrics = snapshot();
    if !metrics.is_empty() {
        emit(&Event::Metrics(MetricsEvent { metrics }));
    }
}

/// A [`GenerationObserver`] that forwards each record to the active sink
/// as an [`Event::Generation`] tagged with this run's identifier.
#[derive(Debug)]
pub struct TraceObserver {
    run: String,
}

impl TraceObserver {
    /// Creates an observer for the run identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { run: run_id(seed) }
    }
}

impl GenerationObserver for TraceObserver {
    fn on_generation(&mut self, record: &GenerationRecord) {
        // Each generation gets its own leaf span under the enclosing
        // trial scope, so slow generations are addressable in traces.
        let ctx = trace::child_ctx();
        emit_with_ctx(
            &Event::Generation(GenerationEvent { run: self.run.clone(), record: record.clone() }),
            ctx.as_ref(),
        );
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that touch the global telemetry state (the timer
    /// gate, the registry, the sink). `cargo test` runs tests of one
    /// binary on parallel threads; without this, enable/reset races.
    pub fn telemetry_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::telemetry_lock;

    #[test]
    fn trace_mode_grammar() {
        assert_eq!(TraceMode::parse("off").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("progress").unwrap(), TraceMode::Progress);
        assert_eq!(
            TraceMode::parse("journal:/tmp/run.jsonl").unwrap(),
            TraceMode::Journal(PathBuf::from("/tmp/run.jsonl"))
        );
        assert!(TraceMode::parse("journal:").is_err());
        assert!(TraceMode::parse("Progress").is_err(), "grammar is case-sensitive");
        assert!(TraceMode::parse("jsonl:/x").is_err());
    }

    #[test]
    fn journal_sink_writes_validating_lines() {
        let _guard = telemetry_lock();
        let path = std::env::temp_dir().join(format!("cold-obs-test-{}.jsonl", std::process::id()));
        configure(TraceMode::Journal(path.clone())).expect("journal file");
        assert!(is_enabled());
        assert_eq!(journal_path(), Some(path.clone()));
        emit(&Event::Span(SpanEvent { name: "test.span".into(), seconds: 0.25 }));
        let mut obs = TraceObserver::new(0xBEEF);
        obs.on_generation(&GenerationRecord {
            generation: 1,
            best: 1.0,
            mean: 2.0,
            worst: 3.0,
            diversity: 1.0,
            cache_hits: 0,
            cache_misses: 5,
            delta_evals: 4,
            full_evals: 1,
            crossover: 2,
            mutation: 1,
            repairs: 0,
            eval_seconds: 0.0,
            breed_seconds: 0.0,
            repair_seconds: 0.0,
            hypervolume: 0.0,
        });
        configure(TraceMode::Off).unwrap();
        assert!(!is_enabled());
        assert_eq!(journal_path(), None);
        let text = std::fs::read_to_string(&path).expect("journal written");
        let events = parse_journal(&text).expect("journal validates");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "span");
        match &events[1] {
            Event::Generation(g) => {
                assert_eq!(g.run, run_id(0xBEEF));
                assert_eq!(g.record.cache_misses, 5);
            }
            other => panic!("expected generation event, got {other:?}"),
        }
        // Disabled again: emits go nowhere.
        emit(&Event::Span(SpanEvent { name: "ignored".into(), seconds: 0.0 }));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn configure_toggles_timer_gate() {
        let _guard = telemetry_lock();
        configure(TraceMode::Progress).unwrap();
        assert!(timers_enabled());
        configure(TraceMode::Off).unwrap();
        assert!(!timers_enabled());
    }

    #[test]
    fn progress_lines_are_human_readable() {
        let line = progress_line(&Event::RunStart(RunStart {
            run: run_id(1),
            n: 30,
            mode: "Initialized".into(),
            generations: 100,
            population: 100,
        }));
        assert!(line.contains("run 0000000000000001 start"));
        assert!(line.contains("n=30"));
        let line = progress_line(&Event::Metrics(MetricsEvent {
            metrics: vec![(
                "a.timer".into(),
                Metric::Histogram {
                    count: 2,
                    sum: 1.0,
                    min: 0.4,
                    max: 0.6,
                    buckets: [0; registry::BUCKETS],
                },
            )],
        }));
        assert!(line.contains("a.timer"));
        assert!(line.contains("n=2"));
    }
}
