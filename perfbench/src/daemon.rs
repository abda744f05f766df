//! `daemon-grid`: an in-process sweep daemon on loopback with a state
//! dir, driven by one client through a platform × fault-rate grid.

use std::thread::JoinHandle;
use std::time::Instant;

use voltboot::campaign::{CampaignResult, Checkpoint, RepRecord, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot::telemetry::{json::Value, parse, Recorder};
use voltboot_pdn::Probe;
use voltboot_server::{Client, Platform, Server, ServerOptions, SweepSpec};

use crate::check::{against_pins, Digest};
use crate::layers::{build_victim, clear_planes, ms_since, probe_all, AttackShape, Layers};
use crate::{closed_loop, timed_setup, Ctx, JobTime, Outcome, Phase, RATES};

/// Boards and the pad each is attacked through.
const BOARDS: [(Platform, &str); 3] =
    [(Platform::Pi4, "TP15"), (Platform::Pi3, "PP58"), (Platform::Imx53, "SH13")];

/// Reps per daemon job: one per worker thread on two threads, and few
/// enough dies that all three boards fit the plane cache together.
const REPS: u64 = 2;

/// Grid point `g` (of 9): board and fault rate.
fn grid(g: u64) -> ((Platform, &'static str), f64) {
    (BOARDS[(g / 3) as usize % 3], RATES[(g % 3) as usize])
}

/// The SUBMIT tokens of grid point `g`. As in the `campaign` bin's
/// sweep, the fault seed steps with the rate's index.
fn tokens(ctx: &Ctx, g: u64) -> String {
    let ((platform, pad), rate) = grid(g);
    format!(
        "platform={} probe={pad} rate={rate} reps={REPS} passes=3 threads={} die_seed={} fault_seed={}",
        platform.token(),
        ctx.threads,
        ctx.die_seed(),
        ctx.fault_seed().wrapping_add(g % 3)
    )
}

/// A running daemon and the thread serving it.
struct Daemon {
    client: Client,
    serve: JoinHandle<()>,
}

impl Daemon {
    fn start(ctx: &Ctx, pass: usize) -> Result<Daemon, String> {
        let state_dir = ctx.work.join(format!("state{pass}"));
        let options =
            ServerOptions { executors: 1, state_dir: Some(state_dir), ..ServerOptions::default() };
        let server = Server::bind_with("127.0.0.1:0", options).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let serve = std::thread::spawn(move || server.serve());
        let client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { client, serve })
    }

    fn stop(mut self) -> Result<(), String> {
        self.client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.serve.join().map_err(|_| "serve thread panicked".to_string())
    }

    /// SUBMIT → WATCH → REPORT → parse, timing each leg in ms.
    fn job(&mut self, tokens: &str) -> Result<(String, [f64; 3]), String> {
        let t = Instant::now();
        let id = self.client.submit(tokens).map_err(|e| format!("submit: {e}"))?;
        let submit = ms_since(t);
        let t = Instant::now();
        self.client.watch(id, |_, _| {}).map_err(|e| format!("watch job {id}: {e}"))?;
        let watch = ms_since(t);
        let t = Instant::now();
        let report = self.client.report(id).map_err(|e| format!("report job {id}: {e}"))?;
        parse::parse(&report).map_err(|e| format!("report job {id} does not parse: {e}"))?;
        Ok((report, [submit, watch, ms_since(t)]))
    }
}

/// Rebuilds the campaign result a report was rendered from.
fn result_of(report: &str, rate: f64) -> Result<CampaignResult, String> {
    let doc = parse::parse(report).map_err(|e| e.to_string())?;
    let u64_at =
        |v: Option<&Value>, what: &str| v.and_then(Value::as_u64).ok_or(format!("{what} missing"));
    let fault_seed = u64_at(doc.get("fault_seed"), "fault_seed")?;
    let reps = u64_at(doc.get("summary").and_then(|s| s.get("reps")), "summary.reps")?;
    let records = doc
        .get("records")
        .and_then(Value::as_array)
        .ok_or("records missing")?
        .iter()
        .map(|r| RepRecord::from_value(r).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let recorder = Recorder::from_value(doc.get("telemetry").ok_or("telemetry missing")?)
        .map_err(|e| e.to_string())?;
    Ok(CampaignResult {
        plan: FaultPlan::new(fault_seed, FaultRates::uniform(rate)),
        reps,
        records,
        recorder,
    })
}

/// The traced extras of one job, outside its latency: the layer probes
/// on the job's victims (warm, as in the daemon), the report re-render,
/// and a checkpoint holding the job's final state, saved and re-saved.
fn trace_job(ctx: &Ctx, layers: &Layers, g: u64, report: &str) -> Result<(), String> {
    let ((platform, pad), rate) = grid(g);
    let victims: Vec<_> =
        (0..REPS).map(|rep| build_victim(platform, ctx.die_seed(), rep, Some(layers))).collect();
    probe_all(
        layers,
        &victims,
        &AttackShape { pad, probe: Probe::bench_supply(0.0, 3.0), passes: 3 },
    )?;
    let result = result_of(report, rate)?;
    let t = Instant::now();
    let rendered = result.to_json();
    layers.record("telemetry.report_render_ms", ms_since(t));
    layers.record("telemetry.report_bytes", rendered.len() as f64);
    if rendered != report {
        return Err(
            "report re-rendered from its records differs from the daemon's bytes".to_string()
        );
    }
    let checkpoint = Checkpoint {
        fault_seed: result.plan.seed(),
        reps: result.reps,
        shard: ShardRange::whole(result.reps),
        next_rep: result.reps,
        records: result.records,
        recorder: result.recorder,
    };
    let path = ctx.work.join("final.checkpoint");
    checkpoint.save(&path).map_err(|e| e.to_string())?;
    let reloaded = Checkpoint::load(&path).map_err(|e| e.to_string())?;
    let t = Instant::now();
    reloaded.save(&path).map_err(|e| e.to_string())?;
    layers.record("core.checkpoint_save_ms", ms_since(t));
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    layers.record("core.checkpoint_bytes", bytes as f64);
    Ok(())
}

/// Checks a job's report against the first report of its grid point
/// and against the pins.
fn check_report(
    ctx: &Ctx,
    g: u64,
    report: &str,
    first: &mut [Option<String>; 9],
) -> Result<Digest, String> {
    let digest = Digest::of_report(report)?;
    let key = format!("g{g}");
    match &first[g as usize] {
        Some(seen) if seen != report => {
            return Err(format!("{key}: report differs from the first {key} report"));
        }
        Some(_) => {}
        None => {
            println!("pin {}", digest.pin_line("daemon-grid", ctx.seed, &key));
            first[g as usize] = Some(report.to_string());
        }
    }
    against_pins("daemon-grid", ctx.seed, &key, &digest)
        .map_err(|e| format!("daemon-grid {key}: {e}"))?;
    Ok(digest)
}

/// A closed loop of grid jobs, traced when `layers` is given.
fn closed_jobs(
    ctx: &Ctx,
    daemon: &mut Daemon,
    out: &mut Outcome,
    seconds: f64,
    first_job: u64,
    layers: Option<&Layers>,
    first: &mut [Option<String>; 9],
) -> Phase {
    closed_loop(seconds, first_job, 9, 9, |j| {
        let g = j % 9;
        let (report, legs) = out.tally.run(1, || daemon.job(&tokens(ctx, g)))?;
        match check_report(ctx, g, &report, first) {
            Ok(digest) => out.simulated.add(&digest),
            Err(e) => out.tally.fail_attempted(1, e),
        }
        let mut excluded_ms = 0.0;
        if let Some(l) = layers {
            let t = Instant::now();
            for (name, ms) in
                ["server.submit_ms", "server.watch_ms", "server.report_ms"].into_iter().zip(legs)
            {
                l.record(name, ms);
            }
            if let Err(e) = trace_job(ctx, l, g, &report) {
                out.tally.fail_attempted(1, e);
            }
            excluded_ms = ms_since(t);
        }
        Some(JobTime { reps: REPS, wall_ms: legs.iter().sum(), excluded_ms, ..JobTime::default() })
    })
}

/// One cold set-up pass: an empty plane cache, a fresh daemon and state
/// dir, every die of the grid built in-process (the daemon shares the
/// process's plane cache; Pi 4 builds are timed), and a warm-up job per
/// board.
fn setup_pass(ctx: &Ctx, setup: &Layers, pass: usize) -> Result<Daemon, String> {
    clear_planes();
    let mut daemon = Daemon::start(ctx, pass)?;
    for (platform, _) in BOARDS {
        let timed = (platform == Platform::Pi4).then_some(setup);
        for rep in 0..REPS {
            build_victim(platform, ctx.die_seed(), rep, timed);
        }
    }
    for board in 0..BOARDS.len() as u64 {
        let (report, _) = daemon.job(&tokens(ctx, board * 3))?;
        Digest::of_report(&report)?;
    }
    let cache = voltboot_sram::plane_cache_stats();
    println!(
        "set-up pass {pass}: plane cache {} arrays, {} cells, {} evictions so far",
        cache.entries, cache.cells, cache.plane_evictions
    );
    Ok(daemon)
}

/// `daemon-grid`: {pi4/TP15, pi3/PP58, imx53/SH13} × rate {0, 0.05, 0.2},
/// one shared die seed, one executor, jobs submitted one at a time.
pub fn daemon_grid(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup = Layers::default();
    let mut daemon = None;
    let setup_s = timed_setup(|k| {
        if let Some(old) = daemon.take() {
            Daemon::stop(old)?;
        }
        daemon = Some(setup_pass(ctx, &setup, k)?);
        Ok(())
    });
    let (setup_s, mut daemon) = match (setup_s, daemon) {
        (Ok(s), Some(d)) => (s, d),
        (result, daemon) => {
            let e = result.err().unwrap_or_else(|| "no daemon came up".to_string());
            out.tally.run(1, || Err::<(), _>(format!("set-up: {e}")));
            if let Some(d) = daemon {
                d.stop().ok();
            }
            return out;
        }
    };
    let mut first: [Option<String>; 9] = Default::default();
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let untraced = closed_jobs(ctx, &mut daemon, &mut out, seconds, 0, None, &mut first);

    // One grid point's daemon report must byte-match an in-process run
    // of the same spec.
    let g = ctx.seed % 9;
    if let Some(report) = &first[g as usize] {
        let spec = SweepSpec::parse(tokens(ctx, g).split(' ')).expect("grid tokens parse");
        let local = spec.campaign().run_parallel(spec.threads, spec.victim()).to_json();
        if &local != report {
            out.tally
                .fail_attempted(1, format!("g{g}: daemon report differs from the in-process run"));
        } else {
            println!("g{g}: daemon report byte-matches the in-process run");
        }
    }

    if !ctx.trace {
        out.end_to_end(&untraced, setup_s);
    } else {
        let layers = Layers::default();
        let traced = closed_jobs(
            ctx,
            &mut daemon,
            &mut out,
            seconds,
            untraced.next_job,
            Some(&layers),
            &mut first,
        );
        let wall: f64 = traced.latencies_ms().iter().sum();
        let share = crate::attribution(
            "job",
            wall,
            &[
                ("server.submit", layers.sum("server.submit_ms")),
                ("server.watch", layers.sum("server.watch_ms")),
                ("server.report (+ parse)", layers.sum("server.report_ms")),
            ],
        );
        println!("per-layer p50 (traced half; rep layers probed on each job's victims):");
        crate::layer_metrics(&mut out, &layers, &setup);
        crate::trace_metrics(&mut out, &untraced, &traced, share);
    }
    if let Err(e) = daemon.stop() {
        out.hygiene.push(e);
    }
    out
}
