//! DRAM remanence: the physics that makes *classic* cold boot work.
//!
//! The paper's background (§2–3) contrasts on-chip SRAM with the DRAM
//! that Halderman et al. attacked: DRAM stores bits as capacitor charge,
//! decays over seconds (not microseconds), decays *toward a known ground
//! state* (so errors are directional and correctable), and its decay
//! slows dramatically when cooled. This module models that physics so the
//! repository can demonstrate the original attack succeeding on DRAM
//! while failing on SRAM — the asymmetry that motivates fully on-chip
//! crypto, which Volt Boot then breaks.
//!
//! Model: each charged cell loses its charge after an exponential
//! lifetime with temperature-dependent median (Arrhenius). Cells are
//! split into *true* cells (discharge to 0) and *anti* cells (discharge
//! to 1) in row-pair blocks, as on real modules. A freshly refreshed
//! cell always survives at least one refresh interval.

use crate::dram::Dram;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use voltboot_sram::{par, LeakageModel, Temperature};

/// Calibration of the DRAM decay law.
///
/// Defaults follow the cold-boot literature: at operating temperature
/// (≈25–45 °C) a module keeps most bits for a second or two and loses
/// half within ~10 s; cooled to −50 °C, decay stretches to minutes with
/// <1 % loss over a 60 s transplant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramRemanenceModel {
    /// Median charged-cell lifetime at the reference temperature, in
    /// seconds.
    pub median_lifetime_s: f64,
    /// Reference temperature for the median lifetime.
    pub reference: Temperature,
    /// Activation energy of the leakage path, in eV.
    pub activation_energy_ev: f64,
    /// Size of the alternating true-cell / anti-cell blocks, in bytes.
    pub cell_block_bytes: usize,
}

impl DramRemanenceModel {
    /// Literature-calibrated defaults (see type docs).
    pub fn calibrated() -> Self {
        DramRemanenceModel {
            median_lifetime_s: 10.0,
            reference: Temperature::ROOM,
            activation_energy_ev: 0.55,
            cell_block_bytes: 4096,
        }
    }

    /// Median charged-cell lifetime at temperature `t`.
    pub fn median_lifetime(&self, t: Temperature) -> Duration {
        let model = LeakageModel {
            t_ref_seconds: self.median_lifetime_s,
            reference: self.reference,
            activation_energy_ev: self.activation_energy_ev,
        };
        model.median_retention(t)
    }

    /// Probability that one charged cell has decayed after `dt` at `t`.
    pub fn decay_probability(&self, dt: Duration, t: Temperature) -> f64 {
        // Exponential lifetimes with the median pinned: rate = ln2/median.
        let median = self.median_lifetime(t).as_secs_f64();
        1.0 - (-dt.as_secs_f64() * std::f64::consts::LN_2 / median).exp()
    }

    /// Whether byte `offset` lies in an anti-cell block (bits discharge
    /// toward 1 instead of 0). A zero block size makes every cell a true
    /// cell.
    pub fn is_anti_block(&self, offset: usize) -> bool {
        offset.checked_div(self.cell_block_bytes).is_some_and(|b| b % 2 == 1)
    }
}

impl Default for DramRemanenceModel {
    fn default() -> Self {
        DramRemanenceModel::calibrated()
    }
}

/// Applies an unpowered interval to a DRAM image in place, returning the
/// number of bits that decayed. Deterministic per `(seed, event)`.
///
/// The word-parallel form of [`apply_decay_scalar`], byte-identical to
/// it with the same flip count for every input: the image is walked as
/// little-endian `u64` words, words with no charged cell are skipped,
/// and each charged cell's draw is decided by an integer compare against
/// `⌈p · 2⁵³⌉` instead of an `f64` one. Word ranges are sharded over
/// [`par::join_all`] under the caller's parallelism budget; every cell
/// is a pure function of `(seed, event, index)`, so the result does not
/// depend on the thread count.
pub fn apply_decay(
    dram: &mut Dram,
    model: &DramRemanenceModel,
    dt: Duration,
    temperature: Temperature,
    seed: u64,
    event: u64,
) -> usize {
    let threshold = decay_threshold(model.decay_probability(dt, temperature));
    if threshold == 0 {
        return 0;
    }
    let cells = dram.cells_mut();
    let shards = par::effective_parallelism().min(cells.len() / (8 * PAR_MIN_WORDS)).max(1);
    decay_sharded(cells, model.cell_block_bytes, threshold, draw_key(seed, event), shards)
}

/// The per-bit specification of [`apply_decay`]: one hash and one `f64`
/// compare per charged cell, walking the image byte by byte. Kept as the
/// oracle the word kernel is tested against, and as the baseline
/// `bench_snapshot` prices it by; campaigns never call it.
pub fn apply_decay_scalar(
    dram: &mut Dram,
    model: &DramRemanenceModel,
    dt: Duration,
    temperature: Temperature,
    seed: u64,
    event: u64,
) -> usize {
    let p = model.decay_probability(dt, temperature);
    decay_cells_scalar(dram.cells_mut(), model, p, draw_key(seed, event))
}

/// The oracle's loop over raw cells: decays each charged cell whose
/// variate `u = (h >> 11) · 2⁻⁵³` falls below `p`.
fn decay_cells_scalar(cells: &mut [u8], model: &DramRemanenceModel, p: f64, key: u64) -> usize {
    if p <= 0.0 {
        return 0;
    }
    let mut flipped = 0usize;
    for (offset, cell) in cells.iter_mut().enumerate() {
        let anti = model.is_anti_block(offset);
        let byte = *cell;
        let mut out = byte;
        for bit in 0..8u8 {
            let charged = if anti { byte & (1 << bit) == 0 } else { byte & (1 << bit) != 0 };
            if !charged {
                continue;
            }
            // Deterministic per-cell draw.
            let h = mix(key, (offset * 8 + bit as usize) as u64);
            let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < p {
                if anti {
                    out |= 1 << bit;
                } else {
                    out &= !(1 << bit);
                }
                flipped += 1;
            }
        }
        *cell = out;
    }
    flipped
}

/// The fewest image words a shard gets: a scoped thread costs tens of
/// microseconds to spawn, 256 KiB of image about 2 ms to decay.
const PAR_MIN_WORDS: usize = 1 << 15;

/// The integer form of a cell's draw `u < p`. The oracle's variate is
/// `u = k · 2⁻⁵³` with `k = h >> 11 < 2⁵³`, which is exact; scaling by a
/// power of two is exact too, so `u < p` holds iff `k < p · 2⁵³`, and
/// since `k` is an integer, iff `k < ⌈p · 2⁵³⌉`. Probabilities at or
/// below zero, and NaN (which the oracle's compare never passes), map to
/// 0: nothing decays.
fn decay_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The seed every cell draw of one decay event hashes its index under.
#[inline]
fn draw_key(seed: u64, event: u64) -> u64 {
    seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Decays `cells` (a whole image) in `shards` contiguous word ranges,
/// run through [`par::join_all`]; the flip counts are summed.
fn decay_sharded(cells: &mut [u8], block: usize, threshold: u64, key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return decay_cells(cells, 0, block, threshold, key);
    }
    let shard_bytes = (cells.len().div_ceil(8).div_ceil(shards) * 8).max(8);
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = cells
        .chunks_mut(shard_bytes)
        .enumerate()
        .map(|(i, chunk)| {
            Box::new(move || decay_cells(chunk, i * shard_bytes, block, threshold, key)) as Box<_>
        })
        .collect();
    par::join_all(jobs).into_iter().sum()
}

/// Decays `cells`, which start at byte `first` of the image, returning
/// the number of flipped bits. Byte `first + 8i + j/8` is bit `j` of the
/// `i`-th little-endian word, so word bit `j` is cell `(first + 8i) · 8
/// + j` of the oracle's numbering.
fn decay_cells(cells: &mut [u8], first: usize, block: usize, threshold: u64, key: u64) -> usize {
    // `h >> 11 < T` iff `h < T · 2¹¹`; a threshold of 2⁵³ or more passes
    // every 53-bit variate, so every charged cell decays.
    let bound = threshold.checked_mul(1 << 11);
    let mut anti = AntiBlocks::at(first, block);
    let mut flipped = 0;
    for (i, bytes) in cells.chunks_mut(8).enumerate() {
        let base = first + 8 * i;
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        let w = u64::from_le_bytes(word);
        let valid = u64::MAX >> (64 - 8 * bytes.len());
        let charged = (w ^ anti.mask(base, bytes.len())) & valid;
        if charged == 0 {
            continue;
        }
        let decayed = match bound {
            Some(bound) => draw_decays(charged, base as u64 * 8, bound, key),
            None => charged,
        };
        if decayed != 0 {
            bytes.copy_from_slice(&(w ^ decayed).to_le_bytes()[..bytes.len()]);
            flipped += decayed.count_ones() as usize;
        }
    }
    flipped
}

/// Charged cells per word above which hashing all 64 cells beats
/// walking the charged ones (the break-even measured at about 42).
const DENSE_MIN_CHARGED: u32 = 40;

/// The bits of `charged` whose cell (word bit `j` is cell `cell0 + j`)
/// draws a hash below `bound`.
#[inline]
fn draw_decays(charged: u64, cell0: u64, bound: u64, key: u64) -> u64 {
    if charged.count_ones() > DENSE_MIN_CHARGED {
        // Every cell, as two independent straight-line chains (cells
        // 0..32 and 32..64, each shifted in from the top), masked to the
        // charged ones afterwards.
        let (mut lo, mut hi) = (0u64, 0u64);
        for j in (0..32).rev() {
            lo = lo << 1 | u64::from(mix(key, cell0 + j) < bound);
            hi = hi << 1 | u64::from(mix(key, cell0 + 32 + j) < bound);
        }
        return (lo | hi << 32) & charged;
    }
    let mut decayed = 0;
    let mut rest = charged;
    while rest != 0 {
        let j = rest.trailing_zeros();
        rest &= rest - 1;
        decayed |= u64::from(mix(key, cell0 + u64::from(j)) < bound) << j;
    }
    decayed
}

/// The true/anti block layout, walked forward one word at a time.
struct AntiBlocks {
    /// Whether the bytes before `next_edge` are anti cells.
    anti: bool,
    /// The next byte at which the layout switches between true and anti.
    next_edge: usize,
    block: usize,
}

impl AntiBlocks {
    /// The layout from byte `first` on; a zero `block` has no anti cells.
    fn at(first: usize, block: usize) -> Self {
        match first.checked_div(block) {
            Some(b) => {
                AntiBlocks { anti: b % 2 == 1, next_edge: (b + 1).saturating_mul(block), block }
            }
            None => AntiBlocks { anti: false, next_edge: usize::MAX, block },
        }
    }

    /// The anti mask (`0xFF` per anti byte) of the `n ≤ 8` bytes from
    /// `base` on; successive calls must not move backwards.
    #[inline]
    fn mask(&mut self, base: usize, n: usize) -> u64 {
        if base + n <= self.next_edge {
            return if self.anti { u64::MAX } else { 0 };
        }
        let mut mask = 0;
        for j in 0..n {
            while base + j >= self.next_edge {
                self.anti = !self.anti;
                self.next_edge = self.next_edge.saturating_add(self.block);
            }
            if self.anti {
                mask |= 0xFF << (8 * j);
            }
        }
        mask
    }
}

#[inline]
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lifetimes_scale_with_temperature() {
        let m = DramRemanenceModel::calibrated();
        let warm = m.median_lifetime(Temperature::ROOM);
        let cold = m.median_lifetime(Temperature::from_celsius(-50.0));
        assert!((warm.as_secs_f64() - 10.0).abs() < 1e-9);
        assert!(cold > Duration::from_secs(600), "cooled DRAM lasts minutes: {cold:?}");
    }

    #[test]
    fn decay_probability_limits() {
        let m = DramRemanenceModel::calibrated();
        assert!(m.decay_probability(Duration::ZERO, Temperature::ROOM) < 1e-12);
        let long = m.decay_probability(Duration::from_secs(3600), Temperature::ROOM);
        assert!(long > 0.999);
        // Half the cells at exactly one median lifetime.
        let half = m.decay_probability(Duration::from_secs(10), Temperature::ROOM);
        assert!((half - 0.5).abs() < 1e-9, "{half}");
    }

    #[test]
    fn true_cells_decay_to_zero_and_anti_cells_to_one() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(2 * m.cell_block_bytes);
        // 0xFF in a true block: should decay toward 0x00.
        dram.write(0, &[0xFF; 64]).unwrap();
        // 0x00 in an anti block: should decay toward 0xFF.
        dram.write(m.cell_block_bytes as u64, &[0x00; 64]).unwrap();
        apply_decay(&mut dram, &m, Duration::from_secs(3600), Temperature::ROOM, 1, 0);
        assert_eq!(dram.raw_cells(0, 64).unwrap(), &[0u8; 64][..]);
        assert_eq!(dram.raw_cells(m.cell_block_bytes as u64, 64).unwrap(), &[0xFFu8; 64][..]);
    }

    #[test]
    fn cooling_preserves_a_transplant() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(8192);
        dram.write(0, &[0xA5; 4096]).unwrap();
        let flipped = apply_decay(
            &mut dram,
            &m,
            Duration::from_secs(60),
            Temperature::from_celsius(-50.0),
            2,
            0,
        );
        // 0xA5 holds 4 charged cells per byte of the true block; the
        // zeroed anti block holds 4096 * 8 = 32 768 more. The bound is 2%
        // of the true block's 16 384 alone, a third of 2% of all 49 152.
        let total_charged = 4096 * 4;
        assert!(
            (flipped as f64) < 0.02 * total_charged as f64,
            "cooled 60 s transplant must lose <2%: {flipped} flips"
        );
    }

    #[test]
    fn warm_transplant_is_destroyed() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(4096);
        dram.write(0, &[0xFF; 4096]).unwrap();
        apply_decay(&mut dram, &m, Duration::from_secs(120), Temperature::from_celsius(45.0), 3, 0);
        let survivors =
            dram.raw_cells(0, 4096).unwrap().iter().map(|b| b.count_ones()).sum::<u32>();
        assert!(
            survivors < 400,
            "warm decay should erase nearly everything: {survivors} bits left"
        );
    }

    #[test]
    fn decay_is_deterministic_per_seed_and_event() {
        let m = DramRemanenceModel::calibrated();
        let run = |seed, event| {
            let mut d = Dram::new(1024);
            d.write(0, &[0x5A; 1024]).unwrap();
            apply_decay(&mut d, &m, Duration::from_secs(10), Temperature::ROOM, seed, event);
            d.raw_cells(0, 1024).unwrap().to_vec()
        };
        assert_eq!(run(7, 0), run(7, 0));
        assert_ne!(run(7, 0), run(7, 1));
        assert_ne!(run(7, 0), run(8, 0));
    }

    /// `u < p` as the oracle decides it.
    fn oracle_draw(h: u64, p: f64) -> bool {
        ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Kernel (at `shards`) and oracle decay copies of `image` at `p`;
    /// both images and both flip counts must agree.
    fn assert_kernel_matches_oracle(image: &[u8], block: usize, p: f64, key: u64, shards: usize) {
        let model =
            DramRemanenceModel { cell_block_bytes: block, ..DramRemanenceModel::calibrated() };
        let mut want = image.to_vec();
        let want_flips = decay_cells_scalar(&mut want, &model, p, key);
        let mut got = image.to_vec();
        let got_flips = decay_sharded(&mut got, block, decay_threshold(p), key, shards);
        assert_eq!(got_flips, want_flips, "flip count at p={p:e}, block={block}, shards={shards}");
        assert!(got == want, "image at p={p:e}, block={block}, shards={shards}");
    }

    fn pseudo_random_image(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64).map(|i| (mix(seed, i) >> 56) as u8).collect()
    }

    /// The integer threshold decides the oracle's compare exactly at its
    /// edges: NaN, a subnormal, an exact multiple of 2⁻⁵³, and 1.0.
    #[test]
    fn integer_threshold_is_exact_at_the_edges() {
        let m = 12_345u64;
        let exact = m as f64 / (1u64 << 53) as f64;
        let cases = [
            (f64::NAN, 0),
            (f64::MIN_POSITIVE / 4.0, 1),
            (5e-324, 1),
            (exact, m),
            (1.0, 1 << 53),
            (0.0, 0),
            (-0.5, 0),
        ];
        for (p, threshold) in cases {
            assert_eq!(decay_threshold(p), threshold, "threshold of p={p:e}");
            // The oracle's compare at the variates either side of T.
            for k in [0, 1, 2, m - 1, m, m + 1, (1 << 53) - 1] {
                let passes = k < threshold;
                for low in [0, 1, 0x7FF] {
                    assert_eq!(oracle_draw(k << 11 | low, p), passes, "p={p:e}, k={k}, low={low}");
                }
            }
            let image = pseudo_random_image(4099, 5);
            for shards in [1, 3] {
                assert_kernel_matches_oracle(&image, 12, p, 0xABCD, shards);
            }
        }
        // `p` placed exactly on a charged cell's variate and one ulp
        // either side, on the all-cells path (0xFF) and the charged-cells
        // one (0x11: cells 8i and 8i + 4). The cell's hash has its low 11
        // bits clear, so it sits exactly on the bound `T · 2¹¹` and the
        // kernel's `<` is tested where `<=` would differ.
        let key = 0xABCD;
        for (fill, stride, upper_half) in [(0xFFu8, 1, false), (0xFF, 1, true), (0x11, 4, false)] {
            let cell = (0..)
                .step_by(stride)
                .find(|&c| mix(key, c) & 0x7FF == 0 && (c % 64 >= 32) == upper_half)
                .unwrap();
            let image = vec![fill; cell as usize / 8 + 9];
            let on = (mix(key, cell) >> 11) as f64 / (1u64 << 53) as f64;
            for p in [on, f64::from_bits(on.to_bits() - 1), f64::from_bits(on.to_bits() + 1)] {
                assert_kernel_matches_oracle(&image, 1 << 20, p, key, 1);
            }
        }
        // At p = 1 every charged cell goes, through the no-hash path.
        let image = pseudo_random_image(100, 9);
        let charged: u32 = image.iter().map(|b| b.count_ones()).sum();
        let mut cells = image.clone();
        assert_eq!(decay_sharded(&mut cells, 4096, 1 << 53, 1, 1), charged as usize);
        assert!(cells.iter().all(|&b| b == 0));
    }

    /// The sharded path, driven through the public entry point at a
    /// budget above one, and with a forced odd shard count.
    #[test]
    fn sharded_kernel_matches_the_oracle() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(1 << 20);
        dram.write(0, &pseudo_random_image(1 << 18, 3)).unwrap();
        let mut want = dram.clone();
        let dt = Duration::from_secs(2);
        let want_flips = apply_decay_scalar(&mut want, &m, dt, Temperature::ROOM, 11, 4);
        let got_flips =
            par::with_budget(4, || apply_decay(&mut dram, &m, dt, Temperature::ROOM, 11, 4));
        assert_eq!(got_flips, want_flips);
        assert!(dram.raw_cells(0, dram.len()).unwrap() == want.raw_cells(0, want.len()).unwrap());
        let image = pseudo_random_image(300_001, 8);
        assert_kernel_matches_oracle(&image, 4097, 0.3, 77, 3);
    }

    /// For several dies and two temperatures, the decayed share of the
    /// charged cells is the law's probability within 5σ of a binomial,
    /// and every flip goes the way its block discharges.
    #[test]
    fn decay_is_binomial_and_directional() {
        let m = DramRemanenceModel::calibrated();
        let len = 16 * m.cell_block_bytes;
        let conditions = [
            (Duration::from_secs(5), Temperature::ROOM),
            (Duration::from_secs(2), Temperature::from_celsius(45.0)),
        ];
        for (dt, t) in conditions {
            let p = m.decay_probability(dt, t);
            for seed in 0..6u64 {
                let before = pseudo_random_image(len, seed);
                let mut dram = Dram::new(len);
                dram.write(0, &before).unwrap();
                let flipped = apply_decay(&mut dram, &m, dt, t, seed, 0);
                let after = dram.raw_cells(0, len).unwrap();
                let mut charged = 0u64;
                let mut changed = 0u64;
                for (offset, (&b, &a)) in before.iter().zip(after).enumerate() {
                    let anti = m.is_anti_block(offset);
                    let charged_bits = if anti { !b } else { b };
                    charged += u64::from(charged_bits.count_ones());
                    let moved = a ^ b;
                    changed += u64::from(moved.count_ones());
                    assert_eq!(moved & !charged_bits, 0, "an uncharged cell moved at {offset}");
                    if anti {
                        assert_eq!(moved & a, moved, "anti cells only go 0 -> 1 at {offset}");
                    } else {
                        assert_eq!(moved & b, moved, "true cells only go 1 -> 0 at {offset}");
                    }
                }
                assert_eq!(changed, flipped as u64);
                let n = charged as f64;
                let sigma = (n * p * (1.0 - p)).sqrt();
                let z = (flipped as f64 - n * p) / sigma;
                assert!(
                    z.abs() < 5.0,
                    "seed {seed}, p={p}: {flipped} of {charged} flipped, z={z:.2}"
                );
            }
        }
    }

    fn block_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(3),
            Just(12),
            Just(4097),
            Just(4096),
            1..64usize,
            64..5000usize
        ]
    }

    fn image_strategy() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![Just(0u8), Just(0xFF), any::<u8>()];
        prop_oneof![
            proptest::collection::vec(byte.clone(), 0..8usize),
            proptest::collection::vec(byte.clone(), 8..200usize),
            proptest::collection::vec(byte, 200..10_000usize),
            proptest::collection::vec(any::<u8>(), 0..3000usize),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word kernel equals the scalar oracle, bytes and flip count,
        /// for drawn images, block sizes, seeds, events, intervals,
        /// temperatures and shard counts.
        #[test]
        fn word_kernel_matches_scalar_oracle(
            image in image_strategy(),
            block in block_strategy(),
            seed in any::<u64>(),
            event in any::<u64>(),
            dt_ms in 0u64..200_000,
            celsius in -80.0f64..80.0,
            shards in 1usize..5,
        ) {
            let model = DramRemanenceModel { cell_block_bytes: block, ..DramRemanenceModel::calibrated() };
            let dt = Duration::from_millis(dt_ms);
            let t = Temperature::from_celsius(celsius);
            let mut want = Dram::new(image.len());
            want.write(0, &image).unwrap();
            let mut got = want.clone();
            let want_flips = apply_decay_scalar(&mut want, &model, dt, t, seed, event);
            let got_flips = apply_decay(&mut got, &model, dt, t, seed, event);
            prop_assert_eq!(got_flips, want_flips);
            prop_assert!(got.raw_cells(0, image.len()).unwrap() == want.raw_cells(0, image.len()).unwrap());
            let p = model.decay_probability(dt, t);
            assert_kernel_matches_oracle(&image, block, p, draw_key(seed, event), shards);
        }
    }
}
