//! Crash-recovery integration tests: a registry opened on a state dir
//! left behind by a "dead" daemon (journal + checkpoints fabricated to
//! look exactly like a SIGKILL at various instants) must re-queue
//! interrupted jobs, resume them from their checkpoints, and converge
//! on reports byte-identical to an uninterrupted run — without ever
//! panicking on what the crash left on disk.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltboot::campaign::RunPlan;
use voltboot_server::journal::{Journal, JournalEvent};
use voltboot_server::{JobState, Registry, RegistryConfig, SweepSpec};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voltboot_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn spec() -> SweepSpec {
    SweepSpec::parse(
        "platform=pi4 rate=0.2 reps=3 passes=3 threads=2 die_seed=35350880196615 \
         fault_seed=17182606954718"
            .split(' '),
    )
    .expect("smoke spec parses")
}

fn reference(spec: &SweepSpec) -> String {
    spec.campaign().run(spec.victim()).to_json()
}

/// Opens a registry on `dir`, runs its executor, and waits for job
/// `id` to reach a terminal state.
fn recover_and_wait(dir: &Path, id: u64) -> (Arc<Registry>, JobState) {
    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })
    .expect("journal replay must never fail on crash leftovers");
    let registry = Arc::new(registry);
    registry.spawn_executors(1);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = registry.snapshot(id).expect("recovered job must exist");
        if snap.state.is_terminal() {
            registry.shutdown();
            return (registry, snap.state);
        }
        assert!(Instant::now() < deadline, "recovered job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fabricates the journal a daemon would have written before dying
/// with job 1 in the given states.
fn write_journal(dir: &Path, events: &[JournalEvent]) {
    let (mut journal, existing, _) = Journal::open(dir).expect("open journal");
    assert!(existing.is_empty(), "test wants a fresh journal");
    for event in events {
        journal.append(event).expect("append");
    }
}

#[test]
fn interrupted_job_resumes_from_its_checkpoint_byte_identical() {
    let dir = state_dir("resume");
    let spec = spec();
    let reference = reference(&spec);

    // The dead daemon journaled submit + start, and its executor got
    // 2 of 4 reps into the checkpoint before the SIGKILL.
    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
        ],
    );
    let checkpoint = dir.join("job-1.checkpoint");
    let killed = RunPlan::new().threads(spec.threads).checkpoint(&checkpoint).stop_after(2);
    spec.campaign().execute(&killed, spec.victim()).expect("leave a partial checkpoint behind");

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    assert_eq!(
        registry.stats().jobs_recovered.get(),
        1,
        "the interrupted job must be counted as recovered"
    );
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference, "resumed report must byte-match an uninterrupted run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_job_with_no_checkpoint_reruns_from_scratch() {
    let dir = state_dir("fresh");
    let spec = spec();
    let reference = reference(&spec);

    // Died after journaling the submit but before the first
    // checkpoint write.
    write_journal(&dir, &[JournalEvent::Submitted { id: 1, spec: spec.canonical() }]);

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_job_checkpoint_is_discarded_not_resurrected() {
    let dir = state_dir("corrupt");
    let spec = spec();
    let reference = reference(&spec);

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
        ],
    );
    // The crash tore the checkpoint mid-write.
    std::fs::write(dir.join("job-1.checkpoint"), b"{\"voltboot_checkpoint\": 2, \"next")
        .expect("write torn checkpoint");

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    assert!(
        registry.stats().checkpoints_discarded.get() >= 1,
        "the torn checkpoint must be discarded, not trusted"
    );
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference, "a discarded checkpoint means a clean re-run, same bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn finished_jobs_keep_their_reports_across_restart() {
    let dir = state_dir("done");
    let spec = spec();
    let reference = reference(&spec);

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
            JournalEvent::Done { id: 1 },
        ],
    );
    std::fs::write(dir.join("job-1.report.json"), &reference).expect("persist report");

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    // No executor needed: the job is already terminal after replay.
    let snap = registry.snapshot(1).expect("job exists");
    assert_eq!(snap.state, JobState::Done);
    assert_eq!(snap.done, spec.reps, "progress counters must reflect the finished job");
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn done_job_with_a_lost_report_fails_typed_instead_of_lying() {
    let dir = state_dir("lost");
    let spec = spec();

    write_journal(
        &dir,
        &[JournalEvent::Submitted { id: 1, spec: spec.canonical() }, JournalEvent::Done { id: 1 }],
    );
    // No report file on disk: the journal says Done but the crash (or
    // an operator) ate the artifact.

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    let snap = registry.snapshot(1).expect("job exists");
    match &snap.state {
        JobState::Failed(detail) => {
            assert!(detail.contains("report"), "detail should name the lost report: {detail}");
        }
        other => panic!("a Done job without its report must fail typed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_failures_replay_as_failures() {
    let dir = state_dir("failed");
    let spec = spec();

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
            JournalEvent::Failed { id: 1, detail: "executor thread panicked".to_string() },
        ],
    );

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    let snap = registry.snapshot(1).expect("job exists");
    assert_eq!(snap.state, JobState::Failed("executor thread panicked".to_string()));
    // A new submit on the recovered registry must pick up where the
    // id sequence left off, not reuse id 1.
    let id = registry.submit(spec).expect("submit after recovery");
    assert_eq!(id, 2, "recovered next_id must not collide with journaled jobs");
    std::fs::remove_dir_all(&dir).ok();
}
