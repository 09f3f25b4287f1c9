//! Golden documents: byte-exact pins of every JSON document the system
//! persists or puts on the wire.
//!
//! Each fixture under `tests/golden/` was written by the codecs and is
//! decoded here, re-encoded and compared byte for byte with the file:
//!
//! - `journal.jsonl`: one journal line per event kind;
//! - `ga_checkpoint.json` (fitness cache on) and
//!   `ga_checkpoint_nocache.json` (`"cache": null`);
//! - `campaign_checkpoint.json`: a campaign snapshot with two records;
//! - `frames.jsonl`: every dist protocol message, one frame body a line;
//! - `job_{standard,pareto,evolve}.json`: the three job-spec documents,
//!   whose content-addressed ids are pinned too;
//! - `examples/evolution_plan.json` and `evolution_schedule.json`, the
//!   schedule that plan produces.
//!
//! A codec change that moves one key, renames one field or prints one
//! number differently fails here. The fixtures are never regenerated to
//! make a refactor pass.

use cold::ga::{GaCheckpoint, GaSettings};
use cold::{CampaignCheckpoint, EvolutionPlan, TopologySchedule};
use cold_obs::{parse_journal, Event};
use cold_serve::dist::proto::{read_frame, write_frame, Msg};
use cold_serve::JobSpec;
use std::collections::BTreeSet;
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Node count of every topology in the GA checkpoint fixtures.
const GA_N: usize = 6;

/// The GA checkpoint fixtures come from quick runs, with and without the
/// fitness cache.
fn decode_ga(text: &str, fitness_cache: bool) -> GaCheckpoint {
    let run = GaSettings { fitness_cache, ..GaSettings::quick(0) };
    GaCheckpoint::from_json(text, GA_N, &run).expect("GA checkpoint fixture decodes")
}

#[test]
fn journal_lines_round_trip_byte_for_byte() {
    let text = golden("journal.jsonl");
    let events = parse_journal(&text).expect("journal fixture validates");
    let kinds: BTreeSet<&str> = events.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), events.len(), "one line per event kind");
    assert_eq!(kinds.len(), 22, "every event kind is pinned");
    let back: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    assert_eq!(back, text);
}

#[test]
fn ga_checkpoints_round_trip_byte_for_byte() {
    for (name, cached) in [("ga_checkpoint.json", true), ("ga_checkpoint_nocache.json", false)] {
        let text = golden(name);
        let ckpt = decode_ga(&text, cached);
        assert_eq!(ckpt.cache.is_some(), cached, "{name}");
        assert!(ckpt.population.iter().all(|i| i.topology.n() == GA_N), "{name}");
        assert_eq!(ckpt.to_json(), text, "{name}");
    }
}

#[test]
fn campaign_checkpoint_round_trips_byte_for_byte() {
    let text = golden("campaign_checkpoint.json");
    let ckpt = CampaignCheckpoint::from_json(&text).expect("campaign fixture decodes");
    assert_eq!(ckpt.records.len(), 2);
    assert_eq!(ckpt.to_json(), text);
}

#[test]
fn every_frame_round_trips_byte_for_byte() {
    let text = golden("frames.jsonl");
    let mut kinds = BTreeSet::new();
    for line in text.lines() {
        let mut framed = (line.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(line.as_bytes());
        let msg = read_frame(&mut framed.as_slice()).expect("frame fixture decodes");
        let doc: serde_json::Value = serde_json::from_str(line).expect("frame body is JSON");
        kinds.insert(doc["type"].as_str().expect("tagged frame").to_string());
        let mut back = Vec::new();
        write_frame(&mut back, &msg).expect("frame encodes");
        assert_eq!(String::from_utf8_lossy(&back[4..]), line);
        assert_eq!(back, framed);
        if let Msg::Grant(grant) = &msg {
            if let Some(snapshot) = &grant.snapshot {
                assert_eq!(snapshot["kind"], "cold-ga-checkpoint");
            }
        }
    }
    assert_eq!(kinds.len(), 16, "every message variant is pinned");
}

#[test]
fn job_specs_round_trip_and_keep_their_ids() {
    for (name, id) in [
        ("job_standard.json", "932a4386865708bc"),
        ("job_pareto.json", "0c0f4252e57bbd15"),
        ("job_evolve.json", "602cf1b43dcf1d3c"),
    ] {
        let text = golden(name);
        let spec = JobSpec::from_json(&text).expect("job fixture decodes");
        assert_eq!(serde_json::to_string(&spec.to_value()).unwrap(), text, "{name}");
        assert_eq!(spec.id(), id, "{name}");
    }
}

#[test]
fn evolution_plan_and_schedule_round_trip_byte_for_byte() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/evolution_plan.json");
    let text = std::fs::read_to_string(path).expect("example plan");
    let plan = EvolutionPlan::from_json(&text).expect("example plan decodes");
    assert_eq!(plan.to_json(), text);

    let text = golden("evolution_schedule.json");
    let schedule = TopologySchedule::from_json(&text).expect("schedule fixture decodes");
    assert_eq!(schedule.steps.len(), plan.steps.len() + 1);
    assert_eq!(schedule.to_json(), text);
}
