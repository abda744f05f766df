//! The sweep daemon binary.
//!
//! ```text
//! voltboot-server serve [--listen ADDR] [--jobs N] [--state-dir DIR]
//!                       [--io-timeout-ms N] [--heartbeat-ms N] [--shard-attempts N]
//! voltboot-server shard --start A --end B --checkpoint PATH [k=v ...]
//! voltboot-server merge-shards [--out PATH] SHARD [SHARD ...]
//! voltboot-server smoke
//! voltboot-server crash-smoke
//! voltboot-server metrics-smoke
//! ```
//!
//! * `serve` binds the line-protocol socket (default
//!   `127.0.0.1:7715`) and runs jobs on `--jobs` executor threads.
//!   With `--state-dir` every job transition is journaled durably and
//!   a restarted daemon resumes interrupted jobs from their
//!   checkpoints.
//! * `shard` runs repetitions `[A, B)` of the spec'd campaign in this
//!   process, checkpointing to `PATH`; if `PATH` already holds a
//!   partial shard of `[A, B)` it resumes instead, and a checkpoint of
//!   any other range fails the shard. Separate shard processes over
//!   disjoint ranges recombine with `merge-shards`.
//! * `merge-shards` merges a complete set of shard checkpoints into
//!   one report, byte-identical to a single sequential run.
//! * `smoke` is the CI gate: it exercises the whole stack — daemon
//!   over loopback, two real shard OS processes, merge, corruption
//!   rejection — and byte-compares everything against sequential
//!   references.
//! * `crash-smoke` is the crash-recovery CI gate: it SIGKILLs a
//!   daemon mid-campaign, restarts it on the same state dir, and
//!   byte-compares the recovered report against an uninterrupted
//!   sequential run; then it runs a supervised `shards=2` job whose
//!   workers crash on their first attempt (via the `VOLTBOOT_SHARD_*`
//!   test hooks) and proves the retries converge to the same bytes.
//!   The restarted daemon's `METRICS` scrape must surface the journal
//!   recovery counters (`jobs_recovered`, replayed records).
//! * `metrics-smoke` is the observability CI gate: an in-process
//!   daemon served through the fault-injecting proxy runs an in-process
//!   job and a supervised sharded job, while `METRICS`/`HEALTH` are
//!   scraped mid-run and after completion. It asserts the exposition
//!   parses, covers every instrumented layer (server, registry,
//!   journal, supervisor, faultnet, sram caches, campaign reps),
//!   counters are monotone across scrapes, and a quarantined shard
//!   flips `HEALTH` to not-ready.
//!
//! # Fault-injection hooks (test/CI only)
//!
//! The `shard` subcommand honours three environment variables so the
//! supervisor's failure handling can be exercised with real worker
//! processes: `VOLTBOOT_SHARD_CRASH_ONCE=k` runs `k` repetitions,
//! leaves a valid partial checkpoint, and exits 42 — but only when no
//! checkpoint exists yet, so only a shard's *first* attempt crashes;
//! `VOLTBOOT_SHARD_HANG_ONCE=k` likewise runs `k` repetitions and
//! then wedges forever (exercising the heartbeat kill);
//! `VOLTBOOT_SHARD_CRASH_ALWAYS=1` exits 42 immediately on every
//! attempt (exercising quarantine).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use voltboot::campaign::{merge_shards, RetryPolicy, RunPlan, ShardRange};
use voltboot_server::{Client, ReconnectPolicy, Server, ServerOptions, SweepSpec};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} needs a value")).clone())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} needs a number, got {v:?}")))
}

/// The `k=v` spec tokens among `args` (everything containing `=` that
/// is not a `--flag value` pair).
fn spec_tokens(args: &[String]) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            skip = true;
            continue;
        }
        if arg.contains('=') {
            tokens.push(arg.clone());
        }
    }
    tokens
}

fn serve(args: &[String]) -> i32 {
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7715".to_string());
    let jobs = parsed_flag(args, "--jobs").unwrap_or(1usize).max(1);
    let state_dir = flag_value(args, "--state-dir").map(PathBuf::from);
    let mut options = ServerOptions { executors: jobs, state_dir, ..ServerOptions::default() };
    if let Some(ms) = parsed_flag::<u64>(args, "--io-timeout-ms") {
        options.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(ms) = parsed_flag::<u64>(args, "--heartbeat-ms") {
        options.supervise.heartbeat_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(attempts) = parsed_flag::<u32>(args, "--shard-attempts") {
        options.supervise.retry.max_attempts = attempts.max(1);
    }
    let durable = options.state_dir.clone();
    let server = match Server::bind_with(&listen, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return 1;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("voltboot-server listening on {addr} ({jobs} executor(s))"),
        Err(_) => println!("voltboot-server listening"),
    }
    if let Some(dir) = durable {
        println!("voltboot-server journaling to {}", dir.display());
    }
    server.serve();
    println!("voltboot-server shut down");
    0
}

/// A `VOLTBOOT_SHARD_*` hook value parsed as a rep count.
fn env_reps(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

fn shard(args: &[String]) -> i32 {
    let (Some(start), Some(end)) =
        (parsed_flag::<u64>(args, "--start"), parsed_flag::<u64>(args, "--end"))
    else {
        eprintln!("shard needs --start A --end B");
        return 2;
    };
    let Some(checkpoint) = flag_value(args, "--checkpoint").map(PathBuf::from) else {
        eprintln!("shard needs --checkpoint PATH");
        return 2;
    };
    let spec = match SweepSpec::parse(spec_tokens(args)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let campaign = spec.campaign();
    let range = ShardRange { start, end };

    // Test/CI fault hooks — see the module docs. Gated on the
    // checkpoint *not* existing so an injected failure fires only on a
    // shard's first attempt and the supervisor's retry can succeed.
    if std::env::var_os("VOLTBOOT_SHARD_CRASH_ALWAYS").is_some() {
        eprintln!("shard {range}: VOLTBOOT_SHARD_CRASH_ALWAYS, exiting 42");
        return 42;
    }
    let plan = RunPlan::new().threads(spec.threads).range(range);
    if !checkpoint.exists() {
        let crash = env_reps("VOLTBOOT_SHARD_CRASH_ONCE");
        if let Some(k) = crash.or_else(|| env_reps("VOLTBOOT_SHARD_HANG_ONCE")) {
            let partial = campaign
                .execute(&plan.checkpoint(&checkpoint).stop_after(k), spec.victim())
                .map(|_| ());
            if crash.is_some() {
                eprintln!("shard {range}: VOLTBOOT_SHARD_CRASH_ONCE={k} ({partial:?}), exiting 42");
                return 42;
            }
            eprintln!("shard {range}: VOLTBOOT_SHARD_HANG_ONCE={k} ({partial:?}), wedging");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    // The checkpoint's shard header must equal `range`: a file left by
    // another range fails with a mismatch instead of being completed.
    let plan = if checkpoint.exists() {
        plan.continue_from(&checkpoint)
    } else {
        plan.checkpoint(&checkpoint)
    };
    match campaign.execute(&plan, spec.victim()) {
        Ok(result) => {
            println!(
                "shard {range} done: {} records, checkpoint {}",
                result.records.len(),
                checkpoint.display()
            );
            0
        }
        Err(e) => {
            eprintln!("shard {range} failed: {e}");
            1
        }
    }
}

fn merge_cmd(args: &[String]) -> i32 {
    let out = flag_value(args, "--out").map(PathBuf::from);
    let shards: Vec<PathBuf> = {
        let mut shards = Vec::new();
        let mut skip = false;
        for arg in args {
            if skip {
                skip = false;
                continue;
            }
            if arg.starts_with("--") {
                skip = true;
                continue;
            }
            shards.push(PathBuf::from(arg));
        }
        shards
    };
    match merge_shards(&shards) {
        Ok(merged) => {
            let report = merged.to_json();
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &report) {
                        eprintln!("write {}: {e}", path.display());
                        return 1;
                    }
                    println!("merged {} shard(s) into {}", shards.len(), path.display());
                }
                None => print!("{report}"),
            }
            0
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            1
        }
    }
}

/// Fixed seeds for the smoke gates, matching the bench campaign smoke.
const SMOKE_SEEDS: (u64, u64) = (0x0020_22A5_B007, 0x000F_A017_C0DE);

fn smoke() -> i32 {
    match run_smoke() {
        Ok(()) => {
            println!("server smoke ok");
            0
        }
        Err(e) => {
            eprintln!("SERVER SMOKE FAIL: {e}");
            1
        }
    }
}

fn run_smoke() -> Result<(), String> {
    let spec_line = format!(
        "platform=pi4 rate=0.2 reps=6 passes=3 threads=2 die_seed={} fault_seed={}",
        SMOKE_SEEDS.0, SMOKE_SEEDS.1
    );
    let spec = SweepSpec::parse(spec_line.split(' ')).map_err(|e| e.to_string())?;

    // The sequential reference everything byte-compares against.
    let reference = spec.campaign().run(spec.victim()).to_json();

    // 1. In-process daemon on an ephemeral port.
    let server = Server::bind("127.0.0.1:0", 1).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?.to_string();
    let serve_thread = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let pong = client.ping().map_err(|e| e.to_string())?;
    if pong != "pong" {
        return Err(format!("PING answered {pong:?}"));
    }

    // 2. Submit the sweep, stream progress, fetch the report.
    let job = client.submit(&spec_line).map_err(|e| e.to_string())?;
    let mut progress_lines = 0u64;
    let mut last = (0, 0);
    client
        .watch(job, |done, total| {
            progress_lines += 1;
            last = (done, total);
        })
        .map_err(|e| e.to_string())?;
    if progress_lines == 0 || last != (spec.reps, spec.reps) {
        return Err(format!(
            "WATCH streamed {progress_lines} progress line(s), last {last:?}; \
             wanted at least one ending at ({0}, {0})",
            spec.reps
        ));
    }
    let report = client.report(job).map_err(|e| e.to_string())?;
    if report != reference {
        return Err(format!(
            "daemon report ({} bytes) differs from sequential reference ({} bytes)",
            report.len(),
            reference.len()
        ));
    }
    println!("smoke: daemon report byte-identical over loopback ({} bytes)", report.len());

    // 3. Two real shard OS processes over [0,3) and [3,6).
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let shard_path = |tag: &str| {
        std::env::temp_dir()
            .join(format!("voltboot_server_smoke_{tag}_{}.checkpoint", std::process::id()))
    };
    let lo = shard_path("lo");
    let hi = shard_path("hi");
    for (path, start, end) in [(&lo, 0u64, 3u64), (&hi, 3, 6)] {
        std::fs::remove_file(path).ok();
        let status = Command::new(&exe)
            .arg("shard")
            .args(["--start", &start.to_string(), "--end", &end.to_string()])
            .args(["--checkpoint", &path.display().to_string()])
            .args(spec_line.split(' '))
            .status()
            .map_err(|e| format!("spawn shard [{start},{end}): {e}"))?;
        if !status.success() {
            return Err(format!("shard process [{start},{end}) exited with {status}"));
        }
    }

    // 4. Merge through the daemon; byte-compare against the reference.
    let shard_args: Vec<String> = [&lo, &hi].iter().map(|p| p.display().to_string()).collect();
    let merged = client.merge(&shard_args).map_err(|e| e.to_string())?;
    if merged != reference {
        return Err(format!(
            "merged shard report ({} bytes) differs from sequential reference ({} bytes)",
            merged.len(),
            reference.len()
        ));
    }
    println!(
        "smoke: two shard processes merged byte-identical to sequential ({} bytes)",
        merged.len()
    );

    // 5. Corrupt one shard; MERGE must fail typed and the daemon must
    //    keep serving.
    let mut bytes = std::fs::read(&lo).map_err(|e| format!("read {}: {e}", lo.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&lo, &bytes).map_err(|e| format!("rewrite {}: {e}", lo.display()))?;
    match client.merge(&shard_args) {
        Ok(_) => return Err("MERGE accepted a corrupted shard checkpoint".to_string()),
        Err(e) => {
            if !e.to_string().contains("merge failed") {
                return Err(format!("corrupt shard produced the wrong error: {e}"));
            }
        }
    }
    let pong = client.ping().map_err(|e| format!("PING after failed merge: {e}"))?;
    if pong != "pong" {
        return Err(format!("daemon unhealthy after failed merge: {pong:?}"));
    }
    println!("smoke: corrupted shard rejected with a typed error, daemon still serving");

    // 6. Clean shutdown.
    client.shutdown().map_err(|e| e.to_string())?;
    serve_thread.join().map_err(|_| "serve thread panicked".to_string())?;
    std::fs::remove_file(&lo).ok();
    std::fs::remove_file(&hi).ok();
    Ok(())
}

fn crash_smoke() -> i32 {
    match run_crash_smoke() {
        Ok(()) => {
            println!("crash smoke ok");
            0
        }
        Err(e) => {
            eprintln!("CRASH SMOKE FAIL: {e}");
            1
        }
    }
}

/// A daemon child process plus the pipe its banner arrived on (kept
/// open so the daemon's later prints cannot die on a closed pipe).
struct DaemonProc {
    child: std::process::Child,
    #[allow(dead_code)]
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

/// Spawns `voltboot-server serve` on an ephemeral port with a state
/// dir and parses the bound address out of the banner line. Ephemeral
/// ports on both daemon lives sidestep the TIME_WAIT a SIGKILLed
/// daemon's sockets leave on a fixed port.
fn spawn_daemon(exe: &Path, state_dir: &Path, envs: &[(&str, &str)]) -> Result<DaemonProc, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--jobs", "1", "--state-dir"])
        .arg(state_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).map_err(|e| format!("read daemon banner: {e}"))?;
    let addr = banner
        .split_whitespace()
        .skip_while(|t| *t != "on")
        .nth(1)
        .ok_or_else(|| format!("no address in daemon banner {banner:?}"))?
        .to_string();
    Ok(DaemonProc { child, stdout, addr })
}

fn run_crash_smoke() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spec_line = format!(
        "platform=pi4 rate=0.2 reps=12 passes=3 threads=2 die_seed={} fault_seed={}",
        SMOKE_SEEDS.0, SMOKE_SEEDS.1
    );
    let spec = SweepSpec::parse(spec_line.split(' ')).map_err(|e| e.to_string())?;

    // The uninterrupted sequential reference both phases must match.
    let reference = spec.campaign().run(spec.victim()).to_json();

    // ---- Phase 1: SIGKILL the daemon mid-campaign, restart, resume.
    let state_dir =
        std::env::temp_dir().join(format!("voltboot_crash_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&state_dir).ok();

    let mut daemon = spawn_daemon(&exe, &state_dir, &[])?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("phase 1 connect: {e}"))?;
    let job = client.submit(&spec_line).map_err(|e| format!("phase 1 submit: {e}"))?;

    // Kill -9 the daemon as soon as the job has visibly started.
    let mut killed = false;
    let child = &mut daemon.child;
    let watched = client.watch(job, |done, _total| {
        if !killed && done >= 2 {
            let _ = child.kill();
            killed = true;
        }
    });
    match watched {
        Err(e) if e.is_transient() && killed => {}
        Ok(()) => {
            // The job outran the kill threshold; kill anyway — the
            // restart must then replay a *terminal* journal instead.
            let _ = daemon.child.kill();
        }
        Err(e) => return Err(format!("phase 1 watch died unexpectedly: {e}")),
    }
    daemon.child.wait().map_err(|e| format!("reap killed daemon: {e}"))?;
    println!("crash-smoke: daemon SIGKILLed mid-campaign (job {job})");

    // Restart on the same state dir: the journal replays, the job
    // re-queues, and the checkpoint resumes.
    let mut daemon2 = spawn_daemon(&exe, &state_dir, &[])?;
    let policy = ReconnectPolicy {
        retry: RetryPolicy { max_attempts: 8, initial_backoff_ns: 100_000_000 },
        backoff_cap: Duration::from_secs(2),
    };
    Client::watch_reconnecting(&daemon2.addr, job, policy, |_, _| {})
        .map_err(|e| format!("phase 1 watch after restart: {e}"))?;
    let report = Client::report_reconnecting(&daemon2.addr, job, policy)
        .map_err(|e| format!("phase 1 report after restart: {e}"))?;
    if report != reference {
        return Err(format!(
            "recovered report ({} bytes) differs from uninterrupted sequential reference \
             ({} bytes)",
            report.len(),
            reference.len()
        ));
    }
    println!(
        "crash-smoke: recovered job byte-identical to uninterrupted run ({} bytes)",
        report.len()
    );
    // The restart's journal replay must surface in the metrics plane:
    // the SIGKILLed job was re-queued, so `jobs_recovered` is at least
    // 1 and only ever grows across further scrapes of this life.
    let mut c2 = Client::connect(&daemon2.addr).map_err(|e| e.to_string())?;
    let exposition = c2.metrics().map_err(|e| format!("phase 1 METRICS: {e}"))?;
    let recovered = metric_sample(&exposition, "voltboot_journal_jobs_recovered_total ")
        .ok_or_else(|| "restarted daemon exposes no jobs_recovered counter".to_string())?;
    if recovered < 1.0 {
        return Err(format!("journal replay re-queued the job but jobs_recovered={recovered}"));
    }
    let replayed = metric_sample(&exposition, "voltboot_journal_replay_records_total ")
        .ok_or_else(|| "restarted daemon exposes no replay_records counter".to_string())?;
    let again = c2.metrics().map_err(|e| format!("phase 1 second METRICS: {e}"))?;
    let recovered2 = metric_sample(&again, "voltboot_journal_jobs_recovered_total ").unwrap_or(0.0);
    let replayed2 = metric_sample(&again, "voltboot_journal_replay_records_total ").unwrap_or(0.0);
    if recovered2 < recovered || replayed2 < replayed {
        return Err(format!(
            "recovery counters moved backwards across scrapes: \
             jobs_recovered {recovered} -> {recovered2}, replay_records {replayed} -> {replayed2}"
        ));
    }
    println!(
        "crash-smoke: restart scrape shows jobs_recovered={recovered}, \
         replay_records={replayed}, monotone across scrapes"
    );
    c2.shutdown().map_err(|e| format!("phase 1 shutdown: {e}"))?;
    daemon2.child.wait().map_err(|e| format!("reap daemon: {e}"))?;
    std::fs::remove_dir_all(&state_dir).ok();

    // ---- Phase 2: supervised shards whose first attempts crash.
    let state_dir2 =
        std::env::temp_dir().join(format!("voltboot_crash_smoke_p2_{}", std::process::id()));
    std::fs::remove_dir_all(&state_dir2).ok();
    let spec_line2 = format!("{spec_line} shards=2");

    let mut daemon3 = spawn_daemon(&exe, &state_dir2, &[("VOLTBOOT_SHARD_CRASH_ONCE", "2")])?;
    let mut client = Client::connect(&daemon3.addr).map_err(|e| format!("phase 2 connect: {e}"))?;
    let job2 = client.submit(&spec_line2).map_err(|e| format!("phase 2 submit: {e}"))?;
    client.watch(job2, |_, _| {}).map_err(|e| format!("phase 2 watch: {e}"))?;
    let report2 = client.report(job2).map_err(|e| format!("phase 2 report: {e}"))?;
    if report2 != reference {
        return Err(format!(
            "supervised report ({} bytes) differs from sequential reference ({} bytes)",
            report2.len(),
            reference.len()
        ));
    }
    let stats = client.stats().map_err(|e| format!("phase 2 stats: {e}"))?;
    let retries: u64 = stats
        .split_whitespace()
        .find_map(|t| t.strip_prefix("shard_retries="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if retries < 2 {
        return Err(format!(
            "expected both shards to be retried after their injected crashes; STATS said: {stats}"
        ));
    }
    println!(
        "crash-smoke: 2 crashed shard workers retried ({retries} retries), report \
         byte-identical ({} bytes)",
        report2.len()
    );
    client.shutdown_drain().map_err(|e| format!("phase 2 drain: {e}"))?;
    daemon3.child.wait().map_err(|e| format!("reap daemon: {e}"))?;
    std::fs::remove_dir_all(&state_dir2).ok();
    Ok(())
}

/// Extracts one sample value from a text exposition by exact line
/// prefix (`name ` or `name{labels} `).
fn metric_sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn metrics_smoke() -> i32 {
    match run_metrics_smoke() {
        Ok(()) => {
            println!("metrics smoke ok");
            0
        }
        Err(e) => {
            eprintln!("METRICS SMOKE FAIL: {e}");
            1
        }
    }
}

/// `HEALTH`-field lookup in a `key=value` body.
fn health_field(body: &str, key: &str) -> Option<u64> {
    body.split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
}

fn run_metrics_smoke() -> Result<(), String> {
    use voltboot_server::{ConnFault, FaultProfile, FaultProxy, SupervisorConfig};

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let state_dir =
        std::env::temp_dir().join(format!("voltboot_metrics_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&state_dir).ok();
    std::fs::create_dir_all(&state_dir).map_err(|e| format!("create state dir: {e}"))?;

    // In-process daemon: the supervisor, journal, faultnet, sram, and
    // campaign layers all run in THIS process, so one `METRICS` scrape
    // covers every instrumented layer at once.
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            executors: 2,
            state_dir: Some(state_dir.clone()),
            io_timeout: Some(Duration::from_secs(30)),
            supervise: SupervisorConfig {
                shard_exe: Some(exe),
                retry: RetryPolicy { max_attempts: 2, initial_backoff_ns: 10_000_000 },
                ..SupervisorConfig::default()
            },
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let upstream = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let serve_thread = std::thread::spawn(move || server.serve());
    let direct = upstream.to_string();

    // The fault proxy in front, with a seed that provably faults an
    // early connection, so the faultnet counters move.
    let profile_at = |seed: u64| FaultProfile {
        seed,
        cut: 0.35,
        stall: 0.15,
        stall_pause: Duration::from_millis(40),
        fault_window_bytes: 96,
    };
    let seed = (0u64..)
        .find(|&s| profile_at(s).decide(0) != ConnFault::None)
        .expect("some seed faults connection 0");
    let mut proxy = FaultProxy::start(upstream, profile_at(seed)).map_err(|e| e.to_string())?;
    let proxy_addr = proxy.addr().to_string();

    // Direct (un-proxied) probes, one fresh connection per call so a
    // probe can never hit the daemon's idle-connection timeout while
    // the jobs run.
    let scrape = || -> Result<String, String> {
        Client::connect(&direct).and_then(|mut c| c.metrics()).map_err(|e| e.to_string())
    };
    let probe_health = || -> Result<String, String> {
        Client::connect(&direct).and_then(|mut c| c.health()).map_err(|e| e.to_string())
    };

    // Healthy daemon answers ready before any work arrives.
    let health = probe_health().map_err(|e| format!("HEALTH: {e}"))?;
    if health_field(&health, "ready") != Some(1) {
        return Err(format!("fresh daemon not ready: {health}"));
    }

    // One in-process job (drives the campaign rep hook and the sram
    // caches in this process) and one supervised sharded job, both
    // submitted through the faulty proxy.
    let spec_line = format!(
        "platform=pi4 rate=0.2 reps=6 passes=3 threads=2 die_seed={} fault_seed={}",
        SMOKE_SEEDS.0, SMOKE_SEEDS.1
    );
    let sharded_line = format!("{spec_line} shards=2");
    let submit_retrying = |line: &str| -> Result<u64, String> {
        for _ in 0..60 {
            match Client::connect(&proxy_addr).and_then(|mut c| c.submit(line)) {
                Ok(id) => return Ok(id),
                Err(e) if e.is_transient() => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("permanent submit error: {e}")),
            }
        }
        Err("submit never survived the fault schedule".to_string())
    };
    let inproc_job = submit_retrying(&spec_line)?;
    let sharded_job = submit_retrying(&sharded_line)?;

    // Mid-run scrape (direct, so the scrape itself cannot be torn).
    let mid = scrape().map_err(|e| format!("mid-run METRICS: {e}"))?;
    let mid_appends = metric_sample(&mid, "voltboot_journal_appends_total ")
        .ok_or_else(|| "mid-run scrape is missing journal appends".to_string())?;
    probe_health().map_err(|e| format!("mid-run HEALTH: {e}"))?;

    // Drive both jobs to completion through the faulty network.
    let policy = ReconnectPolicy {
        retry: RetryPolicy { max_attempts: 40, initial_backoff_ns: 10_000_000 },
        backoff_cap: Duration::from_millis(100),
    };
    for id in [inproc_job, sharded_job] {
        Client::watch_reconnecting(&proxy_addr, id, policy, |_, _| {})
            .map_err(|e| format!("watch job {id} through the proxy: {e}"))?;
    }

    // Final scrape: every instrumented layer must expose at least one
    // family, the exposition must be well-formed, and counters must be
    // monotone relative to the mid-run scrape.
    let done = scrape().map_err(|e| format!("final METRICS: {e}"))?;
    let families: Vec<&str> = done
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let required = [
        ("server", "voltboot_server_verb_latency_ns"),
        ("server", "voltboot_server_connections_total"),
        ("registry", "voltboot_registry_jobs_submitted_total"),
        ("registry", "voltboot_registry_claim_latency_ns"),
        ("journal", "voltboot_journal_appends_total"),
        ("journal", "voltboot_journal_fsync_ns"),
        ("supervisor", "voltboot_supervisor_shard_next_rep"),
        ("supervisor", "voltboot_supervisor_heartbeat_age_ms"),
        ("faultnet", "voltboot_faultnet_connections_total"),
        ("sram", "voltboot_sram_plane_cache_entries"),
        ("sram", "voltboot_sram_delta_reps_total"),
        ("campaign", "voltboot_reps_total"),
        ("campaign", "voltboot_rep_duration_ns"),
    ];
    for (layer, family) in required {
        if !families.contains(&family) {
            return Err(format!("{layer} family {family} missing from the final scrape:\n{done}"));
        }
    }
    let layer_count =
        required.iter().map(|(layer, _)| layer).collect::<std::collections::BTreeSet<_>>().len();
    println!(
        "metrics-smoke: {} families across {layer_count} layers in the final scrape",
        families.len()
    );
    for line in done.lines() {
        let well_formed = line.starts_with("# HELP ")
            || line.starts_with("# TYPE ")
            || line.rsplit_once(' ').is_some_and(|(_, v)| v.parse::<f64>().is_ok());
        if !well_formed {
            return Err(format!("malformed exposition line: {line:?}"));
        }
    }
    let done_appends = metric_sample(&done, "voltboot_journal_appends_total ")
        .ok_or_else(|| "final scrape is missing journal appends".to_string())?;
    if done_appends < mid_appends {
        return Err(format!(
            "journal appends went backwards across scrapes: {mid_appends} -> {done_appends}"
        ));
    }
    if metric_sample(&done, "voltboot_faultnet_connections_total ").unwrap_or(0.0) < 1.0 {
        return Err("the fault proxy carried traffic but exported no connections".to_string());
    }
    let reps: f64 = done
        .lines()
        .filter(|l| l.starts_with("voltboot_reps_total{"))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    if reps < 6.0 {
        return Err(format!("the in-process job ran 6 reps but voltboot_reps_total sums {reps}"));
    }

    // Quarantine phase: hopeless workers must flip HEALTH to not-ready
    // while the daemon stays live and scrapeable.
    std::env::set_var("VOLTBOOT_SHARD_CRASH_ALWAYS", "1");
    let doomed = submit_retrying(&sharded_line)?;
    let quarantined = (0..2400).find(|_| {
        std::thread::sleep(Duration::from_millis(25));
        probe_health()
            .ok()
            .and_then(|h| health_field(&h, "quarantined_shards"))
            .is_some_and(|q| q >= 1)
    });
    std::env::remove_var("VOLTBOOT_SHARD_CRASH_ALWAYS");
    if quarantined.is_none() {
        return Err(format!("job {doomed}: hopeless workers never quarantined a shard"));
    }
    let health = probe_health().map_err(|e| format!("post-quarantine HEALTH: {e}"))?;
    if health_field(&health, "ready") != Some(0) || health_field(&health, "live") != Some(1) {
        return Err(format!("quarantine must flip ready and keep live: {health}"));
    }
    println!("metrics-smoke: quarantined shard flipped HEALTH to not-ready ({health})");

    // Wait out the doomed job so shutdown is clean, then stop. (The
    // watch ends in a permanent "job failed" error — that's the point.)
    let _ = Client::watch_reconnecting(&proxy_addr, doomed, policy, |_, _| {});
    proxy.stop();
    let mut ctl = Client::connect(&direct).map_err(|e| e.to_string())?;
    ctl.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    serve_thread.join().map_err(|_| "serve thread panicked".to_string())?;
    std::fs::remove_dir_all(&state_dir).ok();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("shard") => shard(&args[1..]),
        Some("merge-shards") => merge_cmd(&args[1..]),
        Some("smoke") => smoke(),
        Some("crash-smoke") => crash_smoke(),
        Some("metrics-smoke") => metrics_smoke(),
        _ => {
            eprintln!(
                "usage: voltboot-server <serve [--listen ADDR] [--jobs N] [--state-dir DIR] \
                 [--io-timeout-ms N] [--heartbeat-ms N] [--shard-attempts N] | \
                 shard --start A --end B --checkpoint PATH [k=v ...] | \
                 merge-shards [--out PATH] SHARD... | smoke | crash-smoke | metrics-smoke>"
            );
            2
        }
    };
    std::process::exit(code);
}
