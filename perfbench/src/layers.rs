//! The traced run: timings of calls into each layer's public functions,
//! taken from this benchmark's own code.
//!
//! Victims are built by [`build_victim`], a timed mirror of
//! `spec::canonical_victim` (same seed stride, same steps), so a traced
//! campaign produces byte-identical reports to an untraced one — the
//! pinned digests prove it. The attack's layers cannot be timed inside a
//! campaign without changing the program, so [`probe_attack`] replays
//! the attack on clones of sampled victims after each job, outside the
//! job's wall time: once whole (`core.attack_ms`) and once step by step.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use voltboot::attack::{extract_caches, AttackContext, VoltBootAttack};
use voltboot::recover;
use voltboot::telemetry::Recorder;
use voltboot_armlite::program::builders;
use voltboot_pdn::{Probe, ReconnectOrder};
use voltboot_server::Platform;
use voltboot_soc::dram_remanence::{apply_decay, DramRemanenceModel};
use voltboot_soc::{devices, BootSource, CycleFaults, PowerCycleSpec, RamId, Soc};

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Die seeds whose planes this process has built since the plane cache
/// was last cleared: a build of one of them is a warm power-on. Every
/// workload keeps its dies within the cache's capacity, or (canonical-pi4)
/// never returns to an evicted die.
static BUILT_DIES: LazyLock<Mutex<HashSet<u64>>> = LazyLock::new(Mutex::default);

/// Clears the plane cache and forgets which dies were built.
pub fn clear_planes() {
    voltboot_sram::clear_plane_cache();
    BUILT_DIES.lock().expect("die set poisoned").clear();
}

/// Per-layer samples of one traced phase, plus the victims kept for
/// probing. Shared by the campaign's worker threads.
#[derive(Default)]
pub struct Layers {
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    kept: Mutex<Vec<Soc>>,
    keep_quota: AtomicUsize,
}

impl Layers {
    pub fn record(&self, name: &'static str, value: f64) {
        self.samples.lock().expect("sample lock poisoned").entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.lock().expect("sample lock poisoned").get(name).cloned().unwrap_or_default()
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Median of the samples of `name` (0 when there are none).
    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(&self.samples(name)).unwrap_or(0.0)
    }

    /// Lets the next `n` built victims be kept for probing.
    pub fn keep_next(&self, n: usize) {
        self.keep_quota.store(n, Ordering::SeqCst);
    }

    /// Takes the victims kept since the last call.
    pub fn take_kept(&self) -> Vec<Soc> {
        std::mem::take(&mut *self.kept.lock().expect("kept lock poisoned"))
    }

    fn maybe_keep(&self, soc: &Soc) {
        let claimed = self
            .keep_quota
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| q.checked_sub(1))
            .is_ok();
        if claimed {
            self.kept.lock().expect("kept lock poisoned").push(soc.clone());
        }
    }
}

/// Builds rep `rep`'s victim exactly as `spec::canonical_victim` does.
/// With `layers`, times the cold or warm power-on and the victim program,
/// and may keep a clone for [`probe_attack`].
pub fn build_victim(platform: Platform, die_seed: u64, rep: u64, layers: Option<&Layers>) -> Soc {
    let seed = die_seed ^ rep.wrapping_mul(0x9E37_79B9);
    let cold = BUILT_DIES.lock().expect("die set poisoned").insert(seed);
    let Some(layers) = layers else {
        return voltboot_server::spec::canonical_victim(platform, die_seed)(rep);
    };
    let started = Instant::now();
    let mut soc = match platform {
        Platform::Pi4 => devices::raspberry_pi_4(seed),
        Platform::Pi3 => devices::raspberry_pi_3(seed),
        Platform::Imx53 => devices::imx53_qsb(seed),
    };
    let t = Instant::now();
    soc.power_on_all();
    layers.record(if cold { "sram.plane_build_ms" } else { "sram.power_on_warm_ms" }, ms_since(t));
    soc.enable_caches(0);
    let t = Instant::now();
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    layers.record("armlite.victim_program_ms", ms_since(t));
    layers.record("victim.build_ms", ms_since(started));
    layers.maybe_keep(&soc);
    soc
}

/// The attack a workload runs: probe pad, probe, and voting passes.
#[derive(Clone, Copy)]
pub struct AttackShape {
    pub pad: &'static str,
    pub probe: Probe,
    pub passes: u32,
}

impl AttackShape {
    pub fn attack(&self) -> VoltBootAttack {
        VoltBootAttack::new(self.pad).probe(self.probe).passes(self.passes)
    }
}

/// Probes every victim in `victims` at once, one thread each, so the
/// probes contend for the machine as the campaign's workers do.
pub fn probe_all(layers: &Layers, victims: &[Soc], shape: &AttackShape) -> Result<(), String> {
    std::thread::scope(|s| {
        let probes: Vec<_> =
            victims.iter().map(|v| s.spawn(move || probe_attack(layers, v, shape))).collect();
        probes.into_iter().try_for_each(|p| p.join().map_err(|_| "probe panicked".to_string())?)
    })
}

/// Replays the attack on clones of `victim`: whole, then step by step
/// through the layers it calls, recording each step's time.
fn probe_attack(layers: &Layers, victim: &Soc, shape: &AttackShape) -> Result<(), String> {
    let off = Recorder::disabled();
    let mut whole = victim.clone();
    let t = Instant::now();
    shape
        .attack()
        .execute_in(&mut whole, &AttackContext::default())
        .map_err(|f| format!("probe attack failed: {}", f.error))?;
    layers.record("core.attack_ms", ms_since(t));

    // The attack's first steps: measure the pad, attach the probe.
    let cycle = PowerCycleSpec::quick();
    let mut soc = victim.clone();
    let mut probe = shape.probe;
    if probe.voltage == 0.0 {
        probe.voltage = soc.network().measure_pad(shape.pad).map_err(|e| e.to_string())?;
    }
    soc.attach_probe(shape.pad, probe).map_err(|e| e.to_string())?;
    let mut network = soc.network().clone();
    let mut dram = soc.dram().clone();

    let t = Instant::now();
    soc.power_cycle_with(cycle, CycleFaults::none(), &off).map_err(|e| e.to_string())?;
    layers.record("soc.power_cycle_ms", ms_since(t));

    // Two pieces of the power cycle, each on its own clone.
    let t = Instant::now();
    let decayed = apply_decay(
        &mut dram,
        &DramRemanenceModel::calibrated(),
        cycle.off_duration,
        cycle.temperature,
        0xD7A3,
        0,
    );
    layers.record("soc.dram_decay_ms", ms_since(t));
    layers.record("soc.dram_bits_decayed", decayed as f64);
    let t = Instant::now();
    network.disconnect_main_traced(&off).map_err(|e| e.to_string())?;
    network.reconnect_main_with(ReconnectOrder::PmicSequence, &off).map_err(|e| e.to_string())?;
    layers.record("pdn.transient_ms", ms_since(t));

    let source = if soc.boot_rom().boots_from_internal_rom {
        BootSource::InternalRom
    } else {
        BootSource::ExternalMedia {
            image: builders::ramindex_read(RamId::L1DData.code(), 0, 0).bytes(),
            entry: 0x8_0000,
            signed: false,
        }
    };
    let t = Instant::now();
    soc.boot_traced(source, &off).map_err(|e| e.to_string())?;
    layers.record("soc.boot_ms", ms_since(t));

    // Voted readout as the attack does it: two passes cross-checked by
    // CRC, a third only when they disagree, then a per-image vote.
    let t = Instant::now();
    let read = || extract_caches(&soc, &[0]).map_err(|e| e.to_string());
    let first = read()?;
    let second = read()?;
    let agree = first.iter().zip(&second).all(|(a, b)| a.crc64 == b.crc64);
    let third = if agree || shape.passes < 3 { None } else { Some(read()?) };
    layers.record("soc.ramindex_read_ms", ms_since(t));
    let mut third = third.map(Vec::into_iter);
    let t = Instant::now();
    for (a, b) in first.into_iter().zip(second) {
        let c = third.as_mut().and_then(Iterator::next);
        let mut slots = [Some(a.bits), Some(b.bits), c.map(|c| c.bits)];
        recover::vote_sealed_draining(&mut slots).map_err(|e| e.to_string())?;
    }
    layers.record("core.vote_crc_ms", ms_since(t));
    Ok(())
}
