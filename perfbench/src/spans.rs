//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and operation
//! id. They stay in memory while the run measures and are written out as
//! JSON lines when it ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start = self.t0.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span { name, start, end: start, parent, op });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.t0.elapsed().as_secs_f64();
        self.spans.lock().expect("span list lock")[id].end = end;
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.lock().expect("span list lock").iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}
