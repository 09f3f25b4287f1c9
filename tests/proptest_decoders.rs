//! "Never panics" properties for every JSON decoder that reads outside
//! input: journal lines, GA and campaign checkpoints, dist frames, job
//! specs and evolution plans.
//!
//! The inputs are the golden documents of `tests/golden/` (and the
//! example plan), truncated at an arbitrary byte or with a few bytes
//! overwritten. Each case feeds the damaged bytes to every decoder;
//! each must return `Ok` or `Err` — a panic fails the case, and an
//! abort (e.g. an allocation sized by a corrupted node count) kills the
//! test binary.

use cold::ga::GaCheckpoint;
use cold::{CampaignCheckpoint, EvolutionPlan, TopologySchedule};
use cold_serve::dist::proto::read_frame;
use cold_serve::JobSpec;
use proptest::prelude::*;
use std::path::Path;

/// Node count of the GA checkpoint fixtures (the run size the decoder
/// is told to expect).
const GA_N: usize = 6;

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

/// Feeds `bytes` to every decoder; only a panic or an abort can fail.
fn decode_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = cold_obs::parse_journal(&text);
    let _ = cold_obs::parse_journal_traced(&text);
    let _ = GaCheckpoint::from_json(&text, GA_N);
    let _ = CampaignCheckpoint::from_json(&text);
    let _ = JobSpec::from_json(&text);
    let _ = EvolutionPlan::from_json(&text);
    let _ = TopologySchedule::from_json(&text);
    let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(bytes);
    let _ = read_frame(&mut framed.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn truncated_documents_never_panic(pick in 0usize..1000, cut in 0.0f64..1.0) {
        let docs = fixtures();
        let doc = &docs[pick % docs.len()];
        decode_everywhere(&doc[..(cut * doc.len() as f64) as usize]);
    }

    #[test]
    fn mutated_documents_never_panic(
        pick in 0usize..1000,
        edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..5),
    ) {
        let docs = fixtures();
        let mut doc = docs[pick % docs.len()].clone();
        for (at, byte) in edits {
            let i = (at * doc.len() as f64) as usize;
            doc[i] = byte;
        }
        decode_everywhere(&doc);
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
            || GaCheckpoint::from_json(&text, GA_N).is_ok()
            || CampaignCheckpoint::from_json(&text).is_ok()
            || JobSpec::from_json(&text).is_ok()
            || EvolutionPlan::from_json(&text).is_ok()
            || TopologySchedule::from_json(&text).is_ok()
            || read_frame(&mut framed.as_slice()).is_ok();
        assert!(decoded, "fixture decodes nowhere: {}", &text[..text.len().min(80)]);
    }
}
