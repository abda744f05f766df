//! The two in-process workloads: `canonical-pi4` (a fresh die every rep)
//! and `fixed-die-droop` (one die, a drooping rail, a checkpoint per rep).

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use voltboot::campaign::{Campaign, CampaignResult, Checkpoint, RetryPolicy};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot_pdn::Probe;
use voltboot_server::Platform;
use voltboot_sram::{delta, plane_cache_stats};

use crate::check::{against_pins, Digest};
use crate::layers::{build_victim, clear_planes, ms_since, probe_all, AttackShape, Layers};
use crate::{closed_loop, splitmix, timed_setup, Ctx, JobTime, Outcome, Phase, RATES};

/// Reps per canonical-pi4 job (one campaign at one fault rate): one per
/// worker thread.
const CANONICAL_REPS: u64 = 2;
/// Reps per fixed-die-droop job (one checkpointed campaign).
const FIXED_REPS: u64 = 24;
/// Fault rate of the fixed-die-droop campaign.
const FIXED_RATE: f64 = 0.2;
/// canonical-pi4 jobs whose digests are printed for pinning.
const CANONICAL_PINNED_JOBS: u64 = 6;
/// Victims probed per job in the traced phase, all at once: as many as
/// the campaign runs concurrently on two threads.
const PROBES_PER_JOB: usize = 2;

/// The campaign bin's sweep shape: TP15 bench supply, three voting
/// passes, retries with doubling virtual backoff.
fn campaign(shape: &AttackShape, fault_seed: u64, rate: f64, reps: u64) -> Campaign {
    Campaign::new(shape.attack(), FaultPlan::new(fault_seed, FaultRates::uniform(rate)), reps)
        .retry(RetryPolicy { max_attempts: 3, initial_backoff_ns: 50_000_000 })
}

/// How an in-process workload picks its dies.
enum Kind {
    /// A die never seen before for every rep; no checkpoint.
    FreshDies,
    /// One die for every rep, with a checkpoint after every rep to this
    /// file. Every job repeats the same campaign.
    FixedDie(std::path::PathBuf),
}

/// What varies between the two in-process workloads.
struct Spec {
    name: &'static str,
    shape: AttackShape,
    reps: u64,
    /// Job `j`'s `(die seed, fault seed, fault rate)`.
    job: Box<dyn Fn(u64) -> (u64, u64, f64) + Sync>,
    kind: Kind,
}

impl Spec {
    /// Jobs per round; a loop ends on a whole round, so every run holds
    /// the same mix of job kinds.
    fn round(&self) -> u64 {
        match self.kind {
            Kind::FreshDies => RATES.len() as u64,
            Kind::FixedDie(_) => 1,
        }
    }
}

/// Runs one job and checks its report. `layers` switches tracing on.
fn run_job(
    ctx: &Ctx,
    spec: &Spec,
    j: u64,
    layers: Option<&Layers>,
) -> Result<(CampaignResult, String, f64), String> {
    let (die_seed, fault_seed, rate) = (spec.job)(j);
    let campaign = campaign(&spec.shape, fault_seed, rate, spec.reps);
    if let Kind::FixedDie(path) = &spec.kind {
        std::fs::remove_file(path).ok();
    }
    let t = Instant::now();
    let result = match &spec.kind {
        Kind::FreshDies => campaign
            .run_parallel(ctx.threads, |rep| build_victim(Platform::Pi4, die_seed, rep, layers)),
        Kind::FixedDie(path) => {
            let victim = |_| build_victim(Platform::Pi4, die_seed, 0, layers);
            campaign
                .run_checkpointed_parallel(ctx.threads, path, victim)
                .map_err(|e| format!("checkpoint to {}: {e}", path.display()))?
        }
    };
    let wall_ms = ms_since(t);
    let t = Instant::now();
    let report = result.to_json();
    if let Some(layers) = layers {
        layers.record("telemetry.report_render_ms", ms_since(t));
        layers.record("telemetry.report_bytes", report.len() as f64);
    }
    Ok((result, report, wall_ms))
}

/// Checks one job's report: tallies and pins; on fixed-die-droop, that
/// it repeats the first job's bytes; on canonical-pi4, the physics every
/// rate-0 TP15 rep must show (the rail is held and the caches retained).
fn check_report(
    ctx: &Ctx,
    spec: &Spec,
    j: u64,
    report: &str,
    first_crc: &mut Option<u64>,
) -> Result<Digest, String> {
    let digest = Digest::of_report(report)?;
    let (key, print_pin) = match spec.kind {
        Kind::FreshDies => (format!("job{j}"), j < CANONICAL_PINNED_JOBS),
        Kind::FixedDie(_) => ("job".to_string(), first_crc.is_none()),
    };
    if print_pin {
        println!("pin {}", digest.pin_line(spec.name, ctx.seed, &key));
    }
    against_pins(spec.name, ctx.seed, &key, &digest)
        .map_err(|e| format!("{} {key}: {e}", spec.name))?;
    match spec.kind {
        Kind::FixedDie(_) => {
            if *first_crc.get_or_insert(digest.crc) != digest.crc {
                return Err(format!("{} job {j}: report differs from the first job's", spec.name));
            }
        }
        Kind::FreshDies => {
            let (_, _, rate) = (spec.job)(j);
            if rate == 0.0 && (digest.success != digest.reps || digest.unresolved != 0) {
                return Err(format!(
                    "{} job {j}: a fault-free TP15 rep did not retain: {digest:?}",
                    spec.name
                ));
            }
        }
    }
    Ok(digest)
}

/// A closed loop of jobs plus the campaign-side counts it produced.
struct Loop {
    phase: Phase,
    /// Attack attempts across all reps (retries included).
    attempts: u64,
    /// SRAM array resolves after an off event (`sram.power_cycles`).
    array_resolves: u64,
    /// Array resolves that took the sparse rep-delta path.
    delta_reps: u64,
    /// Die arrays whose planes were built cold (plane-cache insertions).
    planes_built: u64,
}

/// Plane-cache insertions since process start: arrays cached plus
/// arrays evicted.
fn planes_inserted() -> u64 {
    let cache = plane_cache_stats();
    cache.entries as u64 + cache.plane_evictions
}

/// A closed loop of jobs, traced when `layers` is given.
fn closed_jobs(
    ctx: &Ctx,
    spec: &Spec,
    out: &mut Outcome,
    seconds: f64,
    first: u64,
    layers: Option<&Layers>,
    first_crc: &mut Option<u64>,
) -> Loop {
    let (mut attempts, mut array_resolves) = (0u64, 0u64);
    let delta_before = delta::stats().delta_reps;
    let planes_before = planes_inserted();
    let phase = closed_loop(seconds, first, spec.round(), 1, |j| {
        let build_before = layers.map_or(0.0, |l| l.sum("victim.build_ms"));
        if let Some(l) = layers {
            l.keep_next(PROBES_PER_JOB);
        }
        let (result, report, wall_ms) =
            out.tally.run(spec.reps, || run_job(ctx, spec, j, layers))?;
        match check_report(ctx, spec, j, &report, first_crc) {
            Ok(digest) => out.simulated.add(&digest),
            Err(e) => out.tally.fail_attempted(spec.reps, e),
        }
        let job_attempts: u64 = result.records.iter().map(|r| u64::from(r.attempts)).sum();
        attempts += job_attempts;
        array_resolves += result.recorder.counter("sram.power_cycles");
        let mut excluded_ms = 0.0;
        if let Some(l) = layers {
            let t = Instant::now();
            if let Err(e) = probe_all(l, &l.take_kept(), &spec.shape) {
                out.hygiene.push(e);
            }
            if let Kind::FixedDie(path) = &spec.kind {
                if let Err(e) = resave_checkpoint(l, path, &ctx.work.join("resaved.checkpoint")) {
                    out.tally.fail_attempted(spec.reps, e);
                }
            }
            let build = l.sum("victim.build_ms") - build_before;
            let attack = l.median("core.attack_ms") * job_attempts as f64;
            let worker_ms = wall_ms * ctx.threads as f64;
            l.record("core.campaign_other_ms", (worker_ms - build - attack) / spec.reps as f64);
            excluded_ms = ms_since(t);
        }
        Some(JobTime { reps: spec.reps, wall_ms, excluded_ms, ..JobTime::default() })
    });
    let delta_reps = delta::stats().delta_reps - delta_before;
    let planes_built = planes_inserted() - planes_before;
    Loop { phase, attempts, array_resolves, delta_reps, planes_built }
}

/// `Checkpoint::save` of the job's final checkpoint, reloaded and re-saved.
fn resave_checkpoint(layers: &Layers, path: &Path, to: &Path) -> Result<(), String> {
    let checkpoint =
        Checkpoint::load(path).map_err(|e| format!("reload {}: {e}", path.display()))?;
    let t = Instant::now();
    checkpoint.save(to).map_err(|e| format!("re-save {}: {e}", to.display()))?;
    layers.record("core.checkpoint_save_ms", ms_since(t));
    let bytes = std::fs::metadata(to).map_err(|e| e.to_string())?.len();
    layers.record("core.checkpoint_bytes", bytes as f64);
    Ok(())
}

/// Attribution of the traced phase's worker time: the victim build is
/// timed directly, the attack and its steps are the probes' medians times
/// the attempts the campaigns made, and the campaign's own work
/// (scheduler, merge, recorder, checkpoint) is the rest.
fn attribute(ctx: &Ctx, layers: &Layers, traced: &Phase, attempts: u64) -> f64 {
    let wall: f64 = traced.jobs.iter().map(|j| j.wall_ms * ctx.threads as f64).sum();
    let a = attempts as f64;
    let per_attempt = |name: &str| layers.median(name) * a;
    let build = layers.sum("victim.build_ms");
    let plane = layers.sum("sram.plane_build_ms") + layers.sum("sram.power_on_warm_ms");
    let program = layers.sum("armlite.victim_program_ms");
    let attack = per_attempt("core.attack_ms");
    let cycle = per_attempt("soc.power_cycle_ms");
    let decay = per_attempt("soc.dram_decay_ms");
    let pdn = per_attempt("pdn.transient_ms");
    let boot = per_attempt("soc.boot_ms");
    let reads = per_attempt("soc.ramindex_read_ms");
    let vote = per_attempt("core.vote_crc_ms");
    println!(
        "rep wall: {:.1} ms per rep ({} reps, {attempts} attempts, {} threads)",
        wall / traced.reps() as f64,
        traced.reps(),
        ctx.threads
    );
    crate::attribution(
        "worker",
        wall,
        &[
            ("sram.power_on (cold + warm)", plane),
            ("armlite.victim_program", program),
            ("core.attack (self)", attack - cycle - boot - reads - vote),
            ("soc.power_cycle (self)", cycle - decay - pdn),
            ("soc.dram_decay", decay),
            ("pdn.transient", pdn),
            ("soc.boot", boot),
            ("soc.ramindex_read", reads),
            ("core.vote_crc", vote),
            ("core.campaign_other", wall - build - attack),
        ],
    )
}

/// Set-up, then the untraced closed loop (`--trace 0`) or an untraced
/// and a traced half (`--trace 1`). `hygiene` checks the untraced loop.
fn run(
    ctx: &Ctx,
    spec: &Spec,
    mut setup_pass: impl FnMut(&Layers, usize) -> Result<(), String>,
    hygiene: impl Fn(&mut Outcome, &Loop, &Layers),
) -> Outcome {
    let mut out = Outcome::default();
    let setup_layers = Layers::default();
    let setup_s = match timed_setup(|k| setup_pass(&setup_layers, k)) {
        Ok(s) => s,
        Err(e) => {
            out.tally.run(1, || Err::<(), _>(format!("set-up: {e}")));
            return out;
        }
    };
    let mut first_crc = None;
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let untraced = closed_jobs(ctx, spec, &mut out, seconds, 0, None, &mut first_crc);
    hygiene(&mut out, &untraced, &setup_layers);
    println!(
        "rep-delta: {} of {} array resolves took the sparse path",
        untraced.delta_reps, untraced.array_resolves
    );
    if !ctx.trace {
        out.end_to_end(&untraced.phase, setup_s);
        return out;
    }
    let layers = Layers::default();
    let first = untraced.phase.next_job;
    let traced = closed_jobs(ctx, spec, &mut out, seconds, first, Some(&layers), &mut first_crc);
    let share = attribute(ctx, &layers, &traced.phase, traced.attempts);
    // Delta counters are process-wide, so they come from the untraced
    // half, where no probe resolves arrays on the side.
    layers.record("sram.delta_reps", untraced.delta_reps as f64);
    layers.record(
        "sram.delta_share",
        untraced.delta_reps as f64 / untraced.array_resolves.max(1) as f64,
    );
    println!(
        "per-layer p50 (traced half; plane build from set-up where no timed rep builds a die):"
    );
    crate::layer_metrics(&mut out, &layers, &setup_layers);
    crate::trace_metrics(&mut out, &untraced.phase, &traced.phase, share);
    out
}

/// `canonical-pi4`: one in-process campaign per fault rate, two reps
/// each, every rep on a die never seen before in this process.
pub fn canonical_pi4(ctx: &Ctx) -> Outcome {
    let (die_seed, fault_seed) = (ctx.die_seed(), ctx.fault_seed());
    let spec = Spec {
        name: "canonical-pi4",
        shape: AttackShape { pad: "TP15", probe: Probe::bench_supply(0.0, 3.0), passes: 3 },
        reps: CANONICAL_REPS,
        job: Box::new(move |j| {
            let sweep = j % RATES.len() as u64;
            (
                splitmix(die_seed ^ splitmix(j + 1)),
                fault_seed.wrapping_add(sweep),
                RATES[sweep as usize],
            )
        }),
        kind: Kind::FreshDies,
    };
    let setup_die = |k: usize| splitmix(die_seed ^ 0x5E70_0000 ^ k as u64);
    let shape = spec.shape;
    run(
        ctx,
        &spec,
        // A warm-up rep on a die of its own: lazy statics, the rep arena
        // and the allocator settle before timing. Dies stay cold.
        |setup, k| {
            let before = planes_inserted();
            let result = campaign(&shape, fault_seed, 0.0, 1)
                .run(|rep| build_victim(Platform::Pi4, setup_die(k), rep, Some(setup)));
            setup.record("sram.arrays_per_die", (planes_inserted() - before) as f64);
            Digest::of_report(&result.to_json()).map(|_| ())
        },
        |out, run, setup| {
            // Every timed rep must pay a cold build: its die seed is new
            // to the process, and the plane cache took in one die per rep.
            let mut seen = HashSet::new();
            for k in 0..crate::SETUP_PASSES {
                seen.insert(setup_die(k));
            }
            for j in 0..run.phase.next_job {
                let (die, _, _) = (spec.job)(j);
                for rep in 0..CANONICAL_REPS {
                    if !seen.insert(die ^ rep.wrapping_mul(0x9E37_79B9)) {
                        out.hygiene.push(format!("job {j} rep {rep} reuses a die seed"));
                    }
                }
            }
            let per_die = setup.samples("sram.arrays_per_die");
            let want = run.phase.reps() * per_die.first().copied().unwrap_or(0.0) as u64;
            if per_die.iter().any(|&n| n != per_die[0]) || run.planes_built != want {
                out.hygiene.push(format!(
                    "{} die arrays built cold for {} reps, expected {want} ({per_die:?} per die)",
                    run.planes_built,
                    run.phase.reps()
                ));
            }
        },
    )
}

/// `fixed-die-droop`: one Pi 4 die built in set-up, a weak probe that
/// lets the rail droop, fault rate 0.2, a checkpoint after every rep.
pub fn fixed_die_droop(ctx: &Ctx) -> Outcome {
    let (die_seed, fault_seed) = (ctx.die_seed(), ctx.fault_seed());
    let spec = Spec {
        name: "fixed-die-droop",
        shape: AttackShape { pad: "TP15", probe: Probe::weak_source(0.0, 0.2), passes: 3 },
        reps: FIXED_REPS,
        job: Box::new(move |_| (die_seed, fault_seed, FIXED_RATE)),
        kind: Kind::FixedDie(ctx.work.join("fixed-die.checkpoint")),
    };
    let shape = spec.shape;
    let threads = ctx.threads;
    run(
        ctx,
        &spec,
        // Cold die build, then three warm reps so the rep-delta baseline
        // for the droop condition is settled before timing.
        |setup, _| {
            clear_planes();
            build_victim(Platform::Pi4, die_seed, 0, Some(setup));
            let result = campaign(&shape, fault_seed, FIXED_RATE, 3)
                .run_parallel(threads, |_| build_victim(Platform::Pi4, die_seed, 0, None));
            Digest::of_report(&result.to_json()).map(|_| ())
        },
        |out, run, _| {
            // The timed reps must take the sparse delta path; otherwise
            // this workload compared dense against dense.
            if run.delta_reps == 0 {
                out.hygiene.push("no timed rep took the rep-delta path".to_string());
            }
        },
    )
}
