//! Lazy per-stream die planes against the spec and an eagerly built die.
//!
//! A die's planes hold three streams: power-up (built at first power-on),
//! DRV and decay (each built on the first power cycle that consults it).
//! These tests drive random event sequences through every resolution
//! path and check two things:
//!
//! * **Output.** `Batched` images and retained counts are bit-identical
//!   to `Scalar` (the spec), to the dense path (`Batched` under a dense
//!   [`PlaneCache`]), and to the same sequence replayed on an *eager*
//!   die — one whose DRV and decay streams were forced before the
//!   sequence ran.
//! * **Laziness.** A sequence builds the DRV stream iff it holds a rail
//!   strictly between `drv_min` and `drv_max`, and the decay stream iff
//!   it leaves a rail unpowered with a stress the array cannot already
//!   decide; certainly-retained and certainly-lost sequences build
//!   neither. Measured through the per-stream build counters of a
//!   private [`PlaneCache`] per case, so concurrent cases never see each
//!   other's builds.

use proptest::prelude::*;
use std::time::Duration;
use voltboot_sram::cell::CellDistribution;
use voltboot_sram::{
    ArrayConfig, OffEvent, PackedBits, PlaneCache, PowerState, ResolutionMode, RetentionReport,
    SramArray, Temperature,
};

/// One resolution path.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    /// `ResolutionMode::Scalar`, the spec.
    Scalar,
    /// `Batched` under a dense cache: always the full-width dense scan.
    Dense,
    /// `Batched` under the current (delta) cache.
    Delta,
}

/// `Scalar` first: every other path is compared against it.
const PATHS: [Path; 3] = [Path::Scalar, Path::Dense, Path::Delta];

/// Powers `a` on along `path`; `dense` is the cache without the delta
/// path that `Dense` power-ons run under.
fn power_on(a: &mut SramArray, path: Path, dense: &PlaneCache) -> RetentionReport {
    match path {
        Path::Scalar => a.power_on_with(ResolutionMode::Scalar),
        Path::Dense => dense.enter(|| a.power_on()),
        Path::Delta => a.power_on(),
    }
    .unwrap()
}

/// One power cycle of a sequence.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Rail held at or above `drv_max`: certainly retained.
    HeldAbove(f64),
    /// Rail held, drooping strictly between `drv_min` and `drv_max`.
    HeldDroop(f64),
    /// Rail held, drooping below `drv_min`: every cell lost.
    HeldBelow(f64),
    /// Rail unpowered for this many milliseconds at -110 °C: a small
    /// stress, decided cell by cell.
    UnpoweredCold(u64),
    /// Rail unpowered for an hour at 60 °C: stress beyond every cell's
    /// budget, certainly lost.
    UnpoweredLong,
}

impl Step {
    /// Step `kind` (0..5, in declaration order) at position `x` in
    /// `[0, 1)` of its range.
    fn new(kind: usize, x: f64, dist: &CellDistribution) -> Self {
        let (lo, hi) = (dist.drv_min, dist.drv_max);
        match kind {
            0 => Step::HeldAbove(hi + 0.3 * x),
            1 => Step::HeldDroop(lo + (0.001 + 0.998 * x) * (hi - lo)),
            2 => Step::HeldBelow(lo * x - 1e-3),
            3 => Step::UnpoweredCold(1 + (x * 40.0) as u64),
            _ => Step::UnpoweredLong,
        }
    }

    /// Powers `a` off under this step and lets the off interval pass.
    fn power_off(self, a: &mut SramArray, dist: &CellDistribution) {
        let (event, dt, celsius) = match self {
            Step::HeldAbove(v) | Step::HeldDroop(v) | Step::HeldBelow(v) => {
                (OffEvent::held_with_droop(dist.drv_max + 0.2, v), 5, 25.0)
            }
            Step::UnpoweredCold(ms) => (OffEvent::unpowered(), ms, -110.0),
            Step::UnpoweredLong => (OffEvent::unpowered(), 3_600_000, 60.0),
        };
        a.power_off(event).unwrap();
        a.elapse(Duration::from_millis(dt), Temperature::from_celsius(celsius));
    }
}

/// Random well-formed distributions around the calibrated part.
fn distributions() -> impl Strategy<Value = CellDistribution> {
    (0.0f64..0.8, 0.0f64..0.12, 0.45f64..0.95, 0.05f64..1.2).prop_map(
        |(metastable, min, max, decay)| CellDistribution {
            metastable_fraction: metastable,
            drv_min: min,
            drv_max: max,
            decay_sigma: decay,
            ..CellDistribution::calibrated()
        },
    )
}

/// Array sizes: a few words, a ragged multi-tile size, an exact tile
/// multiple.
fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..300, 4097usize..12_500, Just(2 * 4096)]
}

/// What [`run`] observed: the `Batched` report and image after each
/// step, and whether any step had to consult the DRV stream (a hold
/// strictly between `drv_min` and `drv_max`) or the decay stream (an
/// unpowered stress above zero that the array's certainly-lost bound
/// does not already decide).
struct Run {
    outcomes: Vec<(RetentionReport, PackedBits)>,
    consults_drv: bool,
    consults_decay: bool,
}

/// Runs `steps` on one fresh die per path and asserts all paths agree
/// after every step. Every die's first power-on runs under the current
/// cache, so the batched dies share one plane set and one count of
/// stream builds.
fn run(seed: u64, config: &ArrayConfig, fill: u8, steps: &[Step], dense: &PlaneCache) -> Run {
    let dist = config.distribution;
    let mut consults_drv = false;
    let mut consults_decay = false;
    let mut arrays: Vec<SramArray> =
        PATHS.iter().map(|_| SramArray::new(config.clone(), seed)).collect();
    for (a, path) in arrays.iter_mut().zip(PATHS) {
        power_on(a, if path == Path::Scalar { path } else { Path::Delta }, dense);
    }
    let mut trace = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let mut outcomes = Vec::new();
        for (a, path) in arrays.iter_mut().zip(PATHS) {
            a.fill(fill.wrapping_add(i as u8)).unwrap();
            step.power_off(a, &dist);
            let PowerState::Off { event, stress } = a.power_state() else { unreachable!() };
            let certainly_lost = stress > (dist.decay_sigma * 9.0).exp();
            match event {
                OffEvent::Held { transient_min_voltage: v, .. } => {
                    consults_drv |= v > dist.drv_min && v < dist.drv_max;
                }
                OffEvent::Unpowered => consults_decay |= stress > 0.0 && !certainly_lost,
            }
            if matches!(step, Step::UnpoweredLong) {
                assert!(certainly_lost, "the long step must be certainly lost");
            }
            let report = power_on(a, path, dense);
            outcomes.push((report, a.snapshot().unwrap()));
        }
        for (path, outcome) in PATHS.iter().zip(&outcomes).skip(1) {
            assert_eq!(outcomes[0].0, outcome.0, "step {i} {step:?}: scalar vs {path:?} report");
            assert!(outcomes[0].1 == outcome.1, "step {i} {step:?}: scalar vs {path:?} image");
        }
        trace.push(outcomes.swap_remove(2));
    }
    Run { outcomes: trace, consults_drv, consults_decay }
}

/// Per-stream build counters `(drv, decay)` of `cache`.
fn stream_builds(cache: &PlaneCache) -> (u64, u64) {
    let s = cache.stats();
    (s.drv_streams_built, s.decay_streams_built)
}

/// Forces the DRV and decay streams of the die `(seed, config)`: one
/// drooping hold and one short unpowered interval on a scratch array
/// of the same die, which shares the current cache's planes.
fn force_streams(seed: u64, config: &ArrayConfig, dense: &PlaneCache) {
    let dist = config.distribution;
    let mut a = SramArray::new(config.clone(), seed);
    a.power_on().unwrap();
    for step in [Step::HeldDroop((dist.drv_min + dist.drv_max) / 2.0), Step::UnpoweredCold(1)] {
        step.power_off(&mut a, &dist);
        power_on(&mut a, Path::Dense, dense);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed sequences: `Batched` matches `Scalar` and the dense path
    /// on a lazy die, builds exactly the streams its steps consult, and
    /// matches the same sequence replayed once both streams exist.
    #[test]
    fn lazy_die_matches_scalar_and_eager_die(
        seed in any::<u64>(),
        bits in sizes(),
        dist in distributions(),
        fill in any::<u8>(),
        picks in proptest::collection::vec((0usize..5, 0.0f64..1.0), 1..6),
    ) {
        let (cache, dense) = (PlaneCache::new(), PlaneCache::dense());
        let mut config = ArrayConfig::with_bits("lazy-prop", bits);
        config.distribution = dist;
        let steps: Vec<Step> = picks.iter().map(|&(k, x)| Step::new(k, x, &dist)).collect();

        let before = stream_builds(&cache);
        let lazy = cache.enter(|| run(seed, &config, fill, &steps, &dense));
        let after = stream_builds(&cache);
        prop_assert_eq!(after.0 - before.0, u64::from(lazy.consults_drv), "DRV builds: {:?}", steps);
        prop_assert_eq!(after.1 - before.1, u64::from(lazy.consults_decay), "decay builds: {:?}", steps);

        cache.enter(|| force_streams(seed, &config, &dense));
        prop_assert_eq!(stream_builds(&cache), (before.0 + 1, before.1 + 1), "both streams forced");
        let eager = cache.enter(|| run(seed, &config, fill, &steps, &dense));
        prop_assert_eq!(stream_builds(&cache), (before.0 + 1, before.1 + 1), "eager die builds nothing");
        for (i, (l, e)) in lazy.outcomes.iter().zip(&eager.outcomes).enumerate() {
            prop_assert_eq!(&l.0, &e.0, "step {} {:?}: lazy vs eager report", i, steps[i]);
            prop_assert!(l.1 == e.1, "step {} {:?}: lazy vs eager image", i, steps[i]);
        }
    }

    /// Certainly-retained and certainly-lost sequences never build the
    /// DRV or decay stream.
    #[test]
    fn certain_sequences_build_no_bucket_stream(
        seed in any::<u64>(),
        bits in sizes(),
        dist in distributions(),
        fill in any::<u8>(),
        picks in proptest::collection::vec((prop_oneof![Just(0usize), Just(2), Just(4)], 0.0f64..1.0), 1..6),
    ) {
        let (cache, dense) = (PlaneCache::new(), PlaneCache::dense());
        let mut config = ArrayConfig::with_bits("certain-prop", bits);
        config.distribution = dist;
        let steps: Vec<Step> = picks.iter().map(|&(k, x)| Step::new(k, x, &dist)).collect();
        let before = stream_builds(&cache);
        cache.enter(|| run(seed, &config, fill, &steps, &dense));
        prop_assert_eq!(stream_builds(&cache), before, "bucket streams built for {:?}", steps);
    }
}
