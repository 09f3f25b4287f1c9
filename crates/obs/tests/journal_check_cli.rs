//! `journal-check` CLI coverage for the distributed-protocol event
//! kinds: causality rules (leases resolve, lost workers joined first,
//! orphaned leases recover later) must pass valid journals and fail
//! corrupted ones with a pointed message.

use cold_obs::{
    Event, EvolutionStep, JobSubmitted, TrialLeased, TrialMigrated, WarmStart, WorkerJoined,
    WorkerLost,
};
use std::path::PathBuf;
use std::process::Output;

fn write_journal(name: &str, events: &[Event]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("journal-check-cli-{}-{name}.jsonl", std::process::id()));
    let lines: Vec<String> = events.iter().map(Event::to_json_line).collect();
    std::fs::write(&path, lines.join("\n") + "\n").expect("write journal");
    path
}

fn check(path: &PathBuf, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_journal-check"))
        .args(args)
        .arg(path)
        .output()
        .expect("spawn journal-check")
}

fn joined(worker: &str) -> Event {
    Event::WorkerJoined(WorkerJoined { worker: worker.into() })
}

fn lost(worker: &str, leases: usize) -> Event {
    Event::WorkerLost(WorkerLost { worker: worker.into(), leases })
}

fn leased(trial: usize, lease: &str, worker: &str, attempt: usize) -> Event {
    Event::TrialLeased(TrialLeased {
        id: "aaaaaaaaaaaaaaaa".into(),
        trial,
        lease: lease.into(),
        worker: worker.into(),
        attempt,
    })
}

fn migrated(trial: usize, lease: &str, from: &str, to: &str, generation: usize) -> Event {
    Event::TrialMigrated(TrialMigrated {
        id: "aaaaaaaaaaaaaaaa".into(),
        trial,
        lease: lease.into(),
        from_worker: from.into(),
        to_worker: to.into(),
        resumed_generation: generation,
    })
}

#[test]
fn valid_distributed_sequence_passes() {
    let path = write_journal(
        "valid",
        &[
            joined("a"),
            joined("b"),
            leased(0, "0123456789abcdef", "a", 1),
            lost("a", 1),
            leased(0, "fedcba9876543210", "b", 2),
            migrated(0, "fedcba9876543210", "a", "b", 3),
        ],
    );
    let out = check(&path, &[]);
    assert!(
        out.status.success(),
        "valid journal rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    let _ = std::fs::remove_file(&path);
}

/// Regression: a worker that is evicted and re-registers may reacquire
/// its own trial — a self-migration is legal, not a journal defect.
#[test]
fn same_worker_remigration_is_legal() {
    let path = write_journal(
        "selfmigrate",
        &[
            joined("a"),
            leased(0, "0123456789abcdef", "a", 1),
            lost("a", 1),
            joined("a"),
            leased(0, "fedcba9876543210", "a", 2),
            migrated(0, "fedcba9876543210", "a", "a", 2),
        ],
    );
    let out = check(&path, &[]);
    assert!(
        out.status.success(),
        "self-migration rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lost_worker_that_never_joined_fails() {
    let path = write_journal("ghost", &[joined("a"), lost("phantom", 0)]);
    let out = check(&path, &[]);
    assert!(!out.status.success(), "ghost eviction must fail validation");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("never seen joining"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn migration_with_unknown_lease_fails() {
    let path = write_journal(
        "unknownlease",
        &[
            joined("a"),
            joined("b"),
            leased(0, "0123456789abcdef", "a", 1),
            migrated(0, "00000000deadbeef", "a", "b", 1),
        ],
    );
    let out = check(&path, &[]);
    assert!(!out.status.success(), "unresolvable lease must fail validation");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not resolve"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn orphaning_loss_without_recovery_fails() {
    let path = write_journal(
        "orphan",
        &[joined("a"), leased(0, "0123456789abcdef", "a", 1), lost("a", 1)],
    );
    let out = check(&path, &[]);
    assert!(!out.status.success(), "orphaned leases with no recovery must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("orphaned leases"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

fn submitted(id: &str) -> Event {
    Event::JobSubmitted(JobSubmitted { id: id.into(), n: 12, count: 1, seed: 7 })
}

fn warm(id: &str, parent: &str) -> Event {
    Event::WarmStart(WarmStart { id: id.into(), parent: parent.into(), seeds: 40 })
}

#[test]
fn warm_start_with_seen_parent_passes() {
    let path = write_journal(
        "warmok",
        &[
            submitted("aaaaaaaaaaaaaaaa"),
            submitted("bbbbbbbbbbbbbbbb"),
            warm("bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa"),
        ],
    );
    let out = check(&path, &[]);
    assert!(
        out.status.success(),
        "valid warm start rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 warm starts"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_start_with_unseen_parent_fails() {
    let path = write_journal(
        "warmghost",
        &[submitted("bbbbbbbbbbbbbbbb"), warm("bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa")],
    );
    let out = check(&path, &[]);
    assert!(!out.status.success(), "unseen warm-start parent must fail validation");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not appear earlier"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_start_chains_through_evolution_steps() {
    // An evolution_step introduces its run id, so a later warm_start may
    // chain from it; a second warm_start may chain from the first's id.
    let path = write_journal(
        "warmchain",
        &[
            Event::EvolutionStep(EvolutionStep {
                run: "cccccccccccccccc".into(),
                step: 0,
                kind: "base".into(),
                n: 12,
                best_cost: 100.0,
                generations: 40,
            }),
            warm("dddddddddddddddd", "cccccccccccccccc"),
            warm("eeeeeeeeeeeeeeee", "dddddddddddddddd"),
        ],
    );
    let out = check(&path, &[]);
    assert!(
        out.status.success(),
        "warm-start chain rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn evolution_step_with_unknown_kind_fails() {
    let path = write_journal(
        "badstep",
        &[Event::EvolutionStep(EvolutionStep {
            run: "cccccccccccccccc".into(),
            step: 1,
            kind: "teleport_pop".into(),
            n: 12,
            best_cost: 100.0,
            generations: 40,
        })],
    );
    let out = check(&path, &[]);
    assert!(!out.status.success(), "unknown perturbation kind must fail validation");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown perturbation kind"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_lease_goodbye_needs_no_recovery() {
    let path = write_journal("cleanbye", &[joined("a"), lost("a", 0)]);
    let out = check(&path, &[]);
    assert!(
        out.status.success(),
        "clean goodbye rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}
