//! "Never panics" properties for every decoder that reads outside input:
//! journal lines, GA and campaign checkpoints, dist frames, job specs,
//! evolution plans and GraphML imports.
//!
//! The inputs are the golden documents of `tests/golden/` (and the
//! example plan) plus a GraphML export, truncated at an arbitrary byte or
//! with a few bytes overwritten; random bytes; and documents nested up to
//! 10⁵ levels deep. Each case feeds the bytes to every decoder; each must
//! return `Ok` or `Err` — a panic fails the case, and an abort (e.g. an
//! allocation sized by a corrupted node count, or a stack overflow) kills
//! the test binary.

use cold::ga::{GaCheckpoint, GaSettings};
use cold::{CampaignCheckpoint, ColdConfig, EvolutionPlan, TopologySchedule};
use cold_serve::dist::proto::read_frame;
use cold_serve::JobSpec;
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Node count of the GA checkpoint fixtures (the run size the decoder
/// is told to expect).
const GA_N: usize = 6;

/// Settings of the quick runs the GA checkpoint fixtures come from, with
/// and without the fitness cache (the run settings the decoder is told to
/// expect).
fn ga_runs() -> [GaSettings; 2] {
    let cached = GaSettings::quick(0);
    [cached, GaSettings { fitness_cache: false, ..cached }]
}

/// Every golden document, one frame per `frames.jsonl` line.
fn fixtures() -> Vec<Vec<u8>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read(root.join(rel)).expect("fixture readable");
    let mut out: Vec<Vec<u8>> = [
        "tests/golden/journal.jsonl",
        "tests/golden/ga_checkpoint.json",
        "tests/golden/ga_checkpoint_nocache.json",
        "tests/golden/campaign_checkpoint.json",
        "tests/golden/job_standard.json",
        "tests/golden/job_pareto.json",
        "tests/golden/job_evolve.json",
        "tests/golden/evolution_schedule.json",
        "examples/evolution_plan.json",
    ]
    .iter()
    .map(|rel| read(rel))
    .collect();
    let frames = read("tests/golden/frames.jsonl");
    out.extend(frames.split(|&b| b == b'\n').filter(|l| !l.is_empty()).map(<[u8]>::to_vec));
    out
}

/// A GraphML export of a small synthesized network: the import path's
/// realistic input.
fn graphml() -> &'static [u8] {
    static DOC: OnceLock<Vec<u8>> = OnceLock::new();
    DOC.get_or_init(|| {
        let r = ColdConfig::quick(6, 4e-4, 10.0).synthesize(1);
        cold::export::to_graphml(&r.network, &r.context).into_bytes()
    })
}

/// Two-node GraphML documents that parse but carry one unusable value: a
/// population of `-1`, `NaN` or `inf`, or a `NaN`/`inf` coordinate.
fn bad_graphml() -> Vec<Vec<u8>> {
    let doc = |x: &str, pop: &str| {
        format!(
            "<graphml><graph edgedefault=\"undirected\">\n\
             <node id=\"a\"><data key=\"x\">{x}</data><data key=\"y\">0</data>\
             <data key=\"pop\">{pop}</data></node>\n\
             <node id=\"b\"><data key=\"x\">1</data><data key=\"y\">1</data>\
             <data key=\"pop\">2</data></node>\n\
             <edge source=\"a\" target=\"b\"/>\n</graph></graphml>\n"
        )
        .into_bytes()
    };
    vec![doc("0", "-1"), doc("0", "NaN"), doc("0", "inf"), doc("NaN", "1"), doc("inf", "1")]
}

/// What the damage properties draw from: every fixture, the GraphML
/// export and the GraphML documents with unusable values.
fn inputs() -> Vec<Vec<u8>> {
    let mut out = fixtures();
    out.push(graphml().to_vec());
    out.extend(bad_graphml());
    out
}

/// `n` nested arrays or single-key objects, unclosed or closed.
fn nested(n: usize, object: bool, closed: bool) -> String {
    let (open, leaf, close) = if object { ("{\"a\":", "1", "}") } else { ("[", "", "]") };
    let tail = if closed { format!("{leaf}{}", close.repeat(n)) } else { String::new() };
    format!("{}{tail}", open.repeat(n))
}

/// Feeds `bytes` to every decoder; only a panic or an abort can fail.
fn decode_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = cold_obs::parse_journal(&text);
    let _ = cold_obs::parse_journal_traced(&text);
    for run in ga_runs() {
        let _ = GaCheckpoint::from_json(&text, GA_N, &run);
    }
    let _ = CampaignCheckpoint::from_json(&text);
    let _ = JobSpec::from_json(&text);
    let _ = EvolutionPlan::from_json(&text);
    let _ = TopologySchedule::from_json(&text);
    let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(bytes);
    let _ = read_frame(&mut framed.as_slice());
    if let Ok(graph) = cold::graphml_in::parse_graphml(&text) {
        let _ = graph.to_context();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn truncated_documents_never_panic(pick in 0usize..1000, cut in 0.0f64..1.0) {
        let docs = inputs();
        let doc = &docs[pick % docs.len()];
        decode_everywhere(&doc[..(cut * doc.len() as f64) as usize]);
    }

    #[test]
    fn mutated_documents_never_panic(
        pick in 0usize..1000,
        edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..5),
    ) {
        let docs = inputs();
        let mut doc = docs[pick % docs.len()].clone();
        for (at, byte) in edits {
            let i = (at * doc.len() as f64) as usize;
            doc[i] = byte;
        }
        decode_everywhere(&doc);
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        decode_everywhere(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deeply_nested_documents_never_panic(
        n in 1usize..=100_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        decode_everywhere(nested(n, object, closed).as_bytes());
    }
}

#[test]
fn hundred_thousand_levels_never_panic() {
    for (object, closed) in [(false, false), (false, true), (true, false), (true, true)] {
        decode_everywhere(nested(100_000, object, closed).as_bytes());
    }
}

#[test]
fn graphml_export_imports() {
    // The GraphML input reaches the import's success path undamaged.
    let text = String::from_utf8_lossy(graphml());
    let graph = cold::graphml_in::parse_graphml(&text).expect("export parses");
    assert!(graph.to_context().is_some(), "export carries coordinates");
}

#[test]
fn graphml_with_unusable_values_yields_no_context() {
    for doc in bad_graphml() {
        decode_everywhere(&doc);
        let text = String::from_utf8_lossy(&doc);
        let graph = cold::graphml_in::parse_graphml(&text).expect("well-formed document");
        assert_eq!(graph.topology.edge_count(), 1);
        assert!(graph.to_context().is_none(), "{text}");
    }
}

#[test]
fn every_fixture_decodes_somewhere() {
    // The properties above are only meaningful if the undamaged fixtures
    // reach the decoders' success paths.
    let docs = fixtures();
    assert_eq!(docs.len(), 9 + 17, "nine documents plus one frame per message");
    for doc in &docs {
        let text = String::from_utf8_lossy(doc);
        let mut framed = (doc.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(doc);
        let decoded = cold_obs::parse_journal(&text).is_ok()
            || ga_runs().iter().any(|run| GaCheckpoint::from_json(&text, GA_N, run).is_ok())
            || CampaignCheckpoint::from_json(&text).is_ok()
            || JobSpec::from_json(&text).is_ok()
            || EvolutionPlan::from_json(&text).is_ok()
            || TopologySchedule::from_json(&text).is_ok()
            || read_frame(&mut framed.as_slice()).is_ok();
        assert!(decoded, "fixture decodes nowhere: {}", &text[..text.len().min(80)]);
    }
}
