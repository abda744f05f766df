//! A shard worker only resumes a checkpoint of its own rep range.
//!
//! `voltboot-server shard --start A --end B --checkpoint P` resumes
//! from `P` when it exists. A checkpoint left at `P` by a worker for
//! another range must fail the shard with a mismatch; completing it
//! under the wrong header would hand the merge a shard that claims
//! `[A, B)` but holds some other range's reps.

use std::path::Path;
use std::process::{Command, Output};

const SPEC: [&str; 6] =
    ["platform=pi4", "rate=0.2", "reps=6", "passes=1", "threads=1", "die_seed=35350880196615"];

/// Runs one shard worker process over `[start, end)`, optionally with
/// the crash-once hook that stops it after `crash_after` reps.
fn shard(start: u64, end: u64, checkpoint: &Path, crash_after: Option<u64>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_voltboot-server"));
    cmd.arg("shard")
        .args(["--start", &start.to_string(), "--end", &end.to_string()])
        .arg("--checkpoint")
        .arg(checkpoint)
        .args(SPEC)
        .env_remove("VOLTBOOT_SHARD_CRASH_ALWAYS")
        .env_remove("VOLTBOOT_SHARD_HANG_ONCE");
    match crash_after {
        Some(k) => cmd.env("VOLTBOOT_SHARD_CRASH_ONCE", k.to_string()),
        None => cmd.env_remove("VOLTBOOT_SHARD_CRASH_ONCE"),
    };
    cmd.output().expect("spawn voltboot-server shard")
}

#[test]
fn shard_worker_refuses_a_checkpoint_of_another_range() {
    let path = std::env::temp_dir()
        .join(format!("voltboot_shard_range_{}.checkpoint", std::process::id()));
    std::fs::remove_file(&path).ok();

    // A [0, 3) worker crashes after one rep, leaving a partial checkpoint.
    let first = shard(0, 3, &path, Some(1));
    assert_eq!(first.status.code(), Some(42), "the crash hook exits 42: {first:?}");
    let partial = std::fs::read_to_string(&path).expect("partial [0, 3) checkpoint");

    // A [3, 6) worker pointed at that file must refuse it.
    let second = shard(3, 6, &path, None);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(!second.status.success(), "a [3, 6) shard completed a [0, 3) checkpoint: {second:?}");
    assert!(stderr.contains("does not match this campaign"), "expected a mismatch: {stderr}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("checkpoint still there"),
        partial,
        "the refused checkpoint must be left untouched"
    );
    std::fs::remove_file(&path).ok();
}
