//! End-to-end campaign benchmark for the Volt Boot simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <canonical-pi4|fixed-die-droop|daemon-grid> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets its workload up several times (reporting the median
//! set-up), then runs a closed loop of jobs for `--seconds`: the next job
//! starts only when the previous one has finished. Every job's report is
//! checked (status tallies, determinism across repeats, and the digests
//! pinned in `pins.txt` for known seeds). With `--trace 0` the last line
//! holds the end-to-end metrics; with `--trace 1` the run splits its time
//! between an untraced and a traced phase and reports per-layer metrics,
//! the attribution of rep wall time to layers, and the tracing overhead.
//! See `perfbench/README.md` for the workloads and the metric mapping.

mod check;
mod daemon;
mod inproc;
mod layers;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use layers::Layers;
use stats::Tally;

/// Seed used when `--seed` is absent; its digests are pinned.
const DEFAULT_SEED: u64 = 1;

/// Fault rates every sweep grids over (the `campaign` bin's sweep).
pub const RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Cold set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Scratch directory for checkpoints and daemon state, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// Die-variation seed derived from the workload seed.
    pub fn die_seed(&self) -> u64 {
        splitmix(self.seed ^ 0xD1E5_EED0)
    }

    /// Fault-plan seed derived from the workload seed.
    pub fn fault_seed(&self) -> u64 {
        splitmix(self.seed ^ 0xFA17_5EED)
    }
}

/// SplitMix64 finalizer: spreads a seed over all 64 bits.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One metric as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Broken workload invariants (cold/warm hygiene); any makes the run
    /// incorrect without failing an operation.
    pub hygiene: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Simulated statistics of every report that passed its checks.
    pub simulated: check::Totals,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, phase: &Phase, setup_s: f64) {
        let lat = phase.latencies_ms();
        println!(
            "reps_per_s          {:.4} 1/s (median of {} samples; {} reps in {:.2} s)",
            phase.reps_per_s(),
            phase.throughputs().len(),
            phase.reps(),
            phase.elapsed_s()
        );
        println!("job_latency_ms      {}", stats::summary(&lat, "ms"));
        println!(
            "job walls (ms):     {}",
            lat.iter().map(|ms| format!("{ms:.0}")).collect::<Vec<_>>().join(" ")
        );
        println!("setup_s             {setup_s:.4} s (median of {SETUP_PASSES} set-up passes)");
        if let Some(steal) = phase.steal_share {
            println!("host CPU steal      {:.2} % of CPU time during the loop", steal * 100.0);
        }
        println!(
            "failed_share        {:.4} share ({} of {} operations)",
            self.tally.failed_share(),
            self.tally.failed(),
            self.tally.attempted()
        );
        self.metric("reps_per_s", phase.reps_per_s(), "1/s");
        self.metric("job_latency_p50_ms", stats::median(&lat).unwrap_or(0.0), "ms");
        self.metric("setup_s", setup_s, "s");
    }
}

/// One finished job of a closed loop.
#[derive(Default)]
pub struct JobTime {
    pub reps: u64,
    /// Wall time the job itself took (the job latency).
    pub wall_ms: f64,
    /// Time spent after the job on traced-run probes, excluded from the
    /// phase's throughput.
    pub excluded_ms: f64,
    /// The job's share of the loop: from its start to the next job's
    /// start, less `excluded_ms`. Set by [`closed_loop`].
    pub slot_ms: f64,
}

/// A closed loop's jobs.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobTime>,
    /// Index of the job the next loop should start at.
    pub next_job: u64,
    /// Jobs per throughput sample.
    group: usize,
    /// Share of all CPU time the hypervisor gave to other guests during
    /// the loop (`steal` in /proc/stat), when the kernel reports it.
    pub steal_share: Option<f64>,
}

impl Phase {
    pub fn reps(&self) -> u64 {
        self.jobs.iter().map(|j| j.reps).sum()
    }

    pub fn elapsed_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.slot_ms).sum::<f64>() / 1e3
    }

    /// Throughput samples: reps per second of each group of consecutive
    /// jobs.
    pub fn throughputs(&self) -> Vec<f64> {
        self.jobs
            .chunks(self.group.max(1))
            .map(|g| {
                let ms: f64 = g.iter().map(|j| j.slot_ms).sum();
                g.iter().map(|j| j.reps).sum::<u64>() as f64 * 1e3 / ms.max(1e-9)
            })
            .collect()
    }

    /// Median throughput sample: reps per host second.
    pub fn reps_per_s(&self) -> f64 {
        stats::median(&self.throughputs()).unwrap_or(0.0)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall_ms).collect()
    }
}

/// Runs jobs `first, first + 1, ...` back to back until `seconds` have
/// passed, finishing the current round of `round` jobs so every phase
/// holds the same mix of job kinds; one throughput sample covers `group`
/// jobs. A job that fails returns `None` and yields no sample.
pub fn closed_loop(
    seconds: f64,
    first: u64,
    round: u64,
    group: usize,
    mut job: impl FnMut(u64) -> Option<JobTime>,
) -> Phase {
    let started = Instant::now();
    let cpu_before = cpu_ticks();
    let mut phase = Phase { group, ..Phase::default() };
    let mut j = first;
    loop {
        let t = Instant::now();
        if let Some(mut done) = job(j) {
            done.slot_ms = layers::ms_since(t) - done.excluded_ms;
            phase.jobs.push(done);
        }
        j += 1;
        if j.is_multiple_of(round) && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.next_job = j;
    phase.steal_share = cpu_before.zip(cpu_ticks()).and_then(|((s0, t0), (s1, t1))| {
        (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
    });
    phase
}

/// `(steal, total)` CPU ticks of all CPUs from /proc/stat.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Runs [`SETUP_PASSES`] cold set-up passes and returns the median pass
/// time in seconds, or the first error.
pub fn timed_setup(mut pass: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::new();
    for k in 0..SETUP_PASSES {
        let t = Instant::now();
        pass(k)?;
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "set-up passes: {}",
        times.iter().map(|t| format!("{t:.3} s")).collect::<Vec<_>>().join(", ")
    );
    Ok(stats::median(&times).expect("at least one set-up pass"))
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of a traced phase other than `trace.*`, in the
/// order `BENCHMARK.json` lists them.
const LAYERS: [(&str, &str); 23] = [
    ("sram.plane_build_ms", "ms"),
    ("sram.power_on_warm_ms", "ms"),
    ("sram.plane_cache_dies", "count"),
    ("sram.plane_cache_cells", "count"),
    ("sram.delta_reps", "count"),
    ("sram.delta_share", "share"),
    ("armlite.victim_program_ms", "ms"),
    ("core.attack_ms", "ms"),
    ("soc.power_cycle_ms", "ms"),
    ("soc.dram_decay_ms", "ms"),
    ("soc.dram_bits_decayed", "count"),
    ("pdn.transient_ms", "ms"),
    ("soc.boot_ms", "ms"),
    ("soc.ramindex_read_ms", "ms"),
    ("core.vote_crc_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("telemetry.report_render_ms", "ms"),
    ("telemetry.report_bytes", "bytes"),
    ("core.campaign_other_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.watch_ms", "ms"),
    ("server.report_ms", "ms"),
];

/// Adds the per-layer metrics of a traced phase: medians of per-rep or
/// per-job samples, and the plane cache's occupancy after the run.
/// Layers the workload never calls read 0. Where the traced phase has no
/// sample (the cold plane build outside canonical-pi4), set-up's serve.
pub fn layer_metrics(out: &mut Outcome, layers: &Layers, setup: &Layers) {
    let cache = voltboot_sram::plane_cache_stats();
    for (name, unit) in LAYERS {
        let (value, n) = match name {
            "sram.plane_cache_dies" => (cache.entries as f64, 1),
            "sram.plane_cache_cells" => (cache.cells as f64, 1),
            _ => {
                let mut xs = layers.samples(name);
                if xs.is_empty() {
                    xs = setup.samples(name);
                }
                (stats::median(&xs).unwrap_or(0.0), xs.len())
            }
        };
        println!("  {name:<28} {value:>14.3} {unit} (n={n})");
        out.metric(name, value, unit);
    }
}

/// Prints an attribution table of `wall` (summed over the traced phase)
/// and returns the attributed share. `rows` are self times; whatever
/// they leave of `wall` is the unattributed remainder.
pub fn attribution(what: &str, wall: f64, rows: &[(&str, f64)]) -> f64 {
    println!("attribution of {what} wall time ({wall:.1} ms summed):");
    let mut attributed = 0.0;
    for (name, ms) in rows {
        attributed += ms;
        println!("  {name:<28} {ms:>12.1} ms {:>7.2} %", 100.0 * ms / wall);
        if *ms < 0.0 {
            println!("    (negative: a probe estimate exceeds the time it is subtracted from)");
        }
    }
    let rest = wall - attributed;
    println!("  {:<28} {rest:>12.1} ms {:>7.2} %", "unattributed", 100.0 * rest / wall);
    let share = attributed / wall;
    println!(
        "attributed share {share:.4} (gate >= 0.90: {})",
        if share >= 0.9 { "ok" } else { "BELOW" }
    );
    share
}

/// Adds the traced run's own metrics: throughput with and without
/// tracing, and the attributed share.
pub fn trace_metrics(out: &mut Outcome, untraced: &Phase, traced: &Phase, attributed: f64) {
    let (u, t) = (untraced.reps_per_s(), traced.reps_per_s());
    let overhead = if u > 0.0 { 1.0 - t / u } else { 0.0 };
    println!(
        "tracing overhead: {u:.4} reps/s untraced vs {t:.4} traced ({:.2} %)",
        overhead * 100.0
    );
    out.metric("trace.untraced_reps_per_s", u, "1/s");
    out.metric("trace.reps_per_s", t, "1/s");
    out.metric("trace.overhead_share", overhead, "share");
    out.metric("trace.attributed_share", attributed, "share");
    if attributed < 0.9 {
        out.hygiene
            .push(format!("attribution covers only {:.1} % of rep wall time", attributed * 100.0));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <canonical-pi4|fixed-die-droop|daemon-grid> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Ctx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ctx =
        Ctx { seed: DEFAULT_SEED, seconds: 10.0, trace: false, threads, work: PathBuf::new() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let bad = || -> ! {
            eprintln!("bad value {value:?} for {flag}");
            usage()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                ctx.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
                    bad();
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), ctx)
}

fn main() {
    let (workload, mut ctx) = parse_args();
    let run: fn(&Ctx) -> Outcome = match workload.as_str() {
        "canonical-pi4" => inproc::canonical_pi4,
        "fixed-die-droop" => inproc::fixed_die_droop,
        "daemon-grid" => daemon::daemon_grid,
        _ => usage(),
    };
    ctx.work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("cannot create {}: {e}", ctx.work.display());
        std::process::exit(1);
    }
    println!(
        "perfbench {workload}: seed {} (die {:#x}, fault {:#x}), {} s, trace {}, {} threads",
        ctx.seed,
        ctx.die_seed(),
        ctx.fault_seed(),
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads
    );
    let mut out = run(&ctx);
    std::fs::remove_dir_all(&ctx.work).ok();
    // Only succeeds when no other run is using it.
    std::fs::remove_dir(".bench_work").ok();
    // Printed on every run, but gated only as a per-layer figure: how
    // much memory the allocator keeps across the repeated set-up passes
    // varies from run to run (see README).
    let rss = peak_rss_mib();
    println!("peak_rss_mib        {rss:.2} MiB");
    if ctx.trace {
        out.metric("proc.peak_rss_mib", rss, "MiB");
    }
    println!("simulated: {}", out.simulated);
    for p in out.tally.problems() {
        println!("FAILED: {p}");
    }
    for h in &out.hygiene {
        println!("HYGIENE: {h}");
    }
    if out.tally.attempted() == 0 {
        out.tally.run(1, || Err::<(), _>("no operation ran".to_string()));
    }
    let correct = out.tally.failed() == 0 && out.hygiene.is_empty();
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, finite(m.value), m.unit)
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.tally.attempted(),
        out.tally.failed()
    );
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(reps: u64) -> Option<JobTime> {
        Some(JobTime { reps, wall_ms: 1.0, ..JobTime::default() })
    }

    #[test]
    fn closed_loop_ends_on_a_whole_round() {
        let phase = closed_loop(0.0, 0, 3, 3, |_| job(2));
        assert_eq!((phase.jobs.len(), phase.next_job), (3, 3));
        assert_eq!(phase.throughputs().len(), 1);
        let phase = closed_loop(0.0, 6, 3, 1, |_| job(2));
        assert_eq!((phase.jobs.len(), phase.next_job), (3, 9));
        assert_eq!(phase.throughputs().len(), 3);
    }

    #[test]
    fn failed_jobs_yield_no_sample() {
        let phase = closed_loop(0.0, 0, 4, 1, |j| if j % 2 == 0 { job(1) } else { None });
        assert_eq!((phase.jobs.len(), phase.next_job), (2, 4));
        assert_eq!(phase.reps(), 2);
    }

    #[test]
    fn throughput_is_the_median_group_rate() {
        let slots = [100.0, 100.0, 300.0, 100.0, 1000.0, 1000.0];
        let phase = Phase {
            jobs: slots
                .iter()
                .map(|&slot_ms| JobTime { reps: 1, slot_ms, ..JobTime::default() })
                .collect(),
            next_job: 6,
            group: 2,
            steal_share: None,
        };
        // Groups: 2 reps in 200 ms, 400 ms and 2000 ms.
        assert_eq!(phase.throughputs(), vec![10.0, 5.0, 1.0]);
        assert_eq!(phase.reps_per_s(), 5.0);
        assert_eq!(phase.elapsed_s(), 2.6);
    }
}
