//! Bit-sliced, plane-cached resolution engine for power cycles.
//!
//! [`SramArray::power_on`](crate::SramArray::power_on) has to decide, for
//! every cell, whether the off interval preserved its state, and sample a
//! power-up value for every cell that lost it. The scalar reference path
//! re-derives three RNG streams per cell per power cycle; every sweep in
//! the reproduction (temperature grids, countermeasure matrices, probe
//! ablations) runs hundreds of power cycles over the same die, so that
//! inner loop dominates end-to-end wall time.
//!
//! This module replaces it with three layers, each **bit-exact** with the
//! scalar path:
//!
//! 1. **Die planes** ([`DiePlanes`]) — per `(seed, distribution, size)`,
//!    three independently built per-cell streams, each transposed into
//!    bit-sliced, tile-major rows of [`TILE_WORDS`] words (4096 cells a
//!    tile, L1-resident while they resolve): the **power-up** stream
//!    (strong-1 and metastable masks plus the quantized bias plane),
//!    the **DRV** stream (12 bucket bit-planes) and the **decay** stream
//!    (14 bucket bit-planes plus its cut table). Only the power-up
//!    stream is built when a die is first powered; the other two are
//!    built on the first query that can consult them. On a Volt Boot
//!    rep almost every array is certainly retained (held at or above
//!    `drv_max`) or certainly lost (hold below `drv_min`, or stress
//!    beyond any cell's budget), and those population bounds decide the
//!    whole array without per-cell DRV or decay data — so a cold die
//!    pays for the one stream its power cycles actually read. The grid
//!    widths trade exact-fallback volume against memory traffic: each
//!    extra bit-plane row streams another ~0.13 bytes per cell per
//!    cycle, while each bit *removed* doubles the (cheap, exact)
//!    bucket-tie fallback rate — these widths keep ties in the low
//!    thousands per megabyte while the warm cycle stays bandwidth-lean.
//!    Planes are memoized on the array and in a bounded [`PlaneCache`], so
//!    repeated cycles of the same die (the common case) derive nothing.
//! 2. **Lane kernels** — resolution is pure mask algebra over the bucket
//!    planes: an MSB-first eq-prefix scan compares 64 cells per row
//!    operation (~2 ALU ops per row, 12 rows), and the const-generic
//!    [`resolve_chunk`] widens that to 256-bit effective lanes by
//!    processing four consecutive words per step. Only cells whose
//!    bucket *equals* the query bucket fall back to the exact scalar
//!    derivation, which keeps the result identical to the reference
//!    path: the bucket maps are weakly monotone, so an unequal bucket
//!    already decides the comparison, and the rare equal bucket is
//!    re-decided exactly.
//! 3. **Sharding** — arrays at or above [`PAR_MIN_BITS`] split their word
//!    range across scoped threads on tile-aligned boundaries. Every word
//!    is a pure function of `(seed, index, event)`, so the sharding is
//!    deterministic and the thread count ([`crate::par::thread_count`])
//!    never changes results.

use crate::array::OffEvent;
use crate::bits::PackedBits;
use crate::cell::{derive_decay_budget, derive_drv, derive_powerup, CellDistribution, PowerUpKind};
use crate::delta::{Baseline, BaselineKey, DeltaStats};
use crate::par;
use crate::rng::{event_word_at, unit_f64};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

/// Arrays with at least this many bits shard word-range resolution and
/// plane building across threads; smaller arrays stay single-threaded.
/// The bit-sliced kernels resolve a word in a few nanoseconds, so the
/// break-even point sits well above the old per-cell engine's — spawning
/// scoped threads for anything under half a megabyte costs more than it
/// saves.
pub const PAR_MIN_BITS: usize = 1 << 22;

/// Words per tile (4096 cells). Every stream stores its rows tile-major,
/// so the rows a resolution step reads for one tile — at most 28 across
/// the three streams, 14 KiB — fit in L1 together.
pub(crate) const TILE_WORDS: usize = 64;

/// Cells per tile.
const TILE_CELLS: usize = TILE_WORDS * 64;

/// Bits in the decay-budget bucket grid (one bit-plane row each).
///
/// Wider than the DRV grid on purpose: a decay bucket tie re-derives
/// `exp(sigma * z)` — a Box–Muller normal plus an `exp`, ~100 ns — and
/// every unpowered cycle pays the tie volume, so two extra rows of
/// streamed plane traffic buy a 4× cut in that fallback.
const DECAY_BITS: usize = 14;

/// Bits in the DRV bucket grid (one bit-plane row each). DRV rows are
/// only scanned by held-rail queries and their tie fallback is a single
/// normal draw, so the narrower grid wins back plane memory.
const DRV_BITS: usize = 12;

/// Rows per power-up tile: the strong-1 mask, then the metastable mask.
const POWERUP_ROWS: usize = 2;

/// Power-up tile row of the strong-1 mask.
const STRONG1_ROW: usize = 0;

/// Power-up tile row of the metastable mask.
const META_ROW: usize = 1;

/// Bound on `|z|` for every normal draw [`crate::rng::std_normal`] can
/// return: its first uniform is floored at `f64::MIN_POSITIVE`
/// (2^-1022), so `|z| <= sqrt(2 * 1022 * ln 2) ≈ 37.64`. A decay
/// budget `exp(sigma * z)` therefore never exceeds
/// `exp(|sigma| * Z_BOUND)`, and stress above that loses every cell —
/// an exact population bound, not a plausibility cut-off.
const Z_BOUND: f64 = 38.0;

/// Total cells a plane cache may hold before evicting the
/// oldest die (between ≈1.3 bytes of plane data per cell, power-up
/// stream only, and ≈4.5 bytes with all three streams, plus one 128 KiB
/// cut table per die whose decay stream is built).
const MAX_CACHED_CELLS: usize = 48 << 20;

/// Most dies a plane cache retains at once. The cell cap alone
/// does not bound a fleet sweep over millions of *small* virtual dies —
/// a 4 Kib die occupies one tile, so 10⁶ of them would grow the cache
/// by gigabytes of tiles plus, once their decay streams are built, a
/// 128 KiB cut table each. The entry cap keeps the steady-state
/// footprint proportional to the working set.
pub const MAX_CACHED_DIES: usize = 1024;

/// Rep-delta baselines retained per die entry (FIFO). One baseline per
/// sweep *condition*; campaigns rarely interleave more than a couple of
/// conditions per die at a time.
const MAX_BASELINES_PER_DIE: usize = 4;

/// Conditions remembered per die while waiting for a second resolve.
/// A baseline is only materialized for a `(die, condition)` pair seen
/// at least twice — one-shot conditions (every brown-out fault depth is
/// a fresh condition) must not pay a build or churn the baseline slots.
const SEEN_CONDITIONS: usize = 8;

/// Total bytes of built rep-delta baselines across every cached die.
/// Hot-word records cost 32 bytes per word with any lost cell, so a
/// high-loss condition on a large die can outweigh its own planes; the
/// byte cap sheds the oldest baselines first under that pressure.
const MAX_BASELINE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// Quantizers
// ---------------------------------------------------------------------
//
// Each quantizer is a weakly monotone map from the exact f64 quantity to
// a small bucket: `x <= y` implies `bucket(x) <= bucket(y)`. Strict
// bucket inequality therefore decides the underlying comparison; bucket
// equality is re-decided by deriving the exact value. This is what makes
// the cached planes bit-exact with the scalar path.

/// Buckets a probability in `[0, 1]` (power-up bias and its uniform
/// sample) onto a 2^8 grid.
///
/// Multiplying a finite f64 by a power of two is exact, so this is the
/// true floor of `p * 256` — which makes the bucket of a uniform sample
/// `u = unit_f64(w)` recoverable straight from the random word's top
/// byte (`w >> 56`) with no float arithmetic at all; the hot power-up
/// sampler relies on that identity (tested below). Eight bits keeps the
/// per-cell bias plane at one byte — the plane is read at sparse,
/// data-dependent offsets, so its cache traffic is what the grid width
/// actually buys — while ties (≈1/256 of draws) re-derive exactly.
#[inline]
fn prob_bucket(p: f64) -> u8 {
    ((p * 256.0) as u64).min(255) as u8
}

/// Number of cut points in a [`DecayCuts`] table (one fewer than the
/// number of buckets, so every bucket index fits in [`DECAY_BITS`] bits).
const DECAY_CUTS: usize = (1 << DECAY_BITS) - 1;

/// Half-width of the standard-normal grid the cuts are placed on. The
/// decay budget is `exp(sigma * z)` with `z` standard normal, so cuts at
/// `exp(sigma * z_i)` for `z_i` linear over `[-8, 8]` spread the budget
/// distribution's entire plausible mass across the 2^14 buckets; the
/// astronomically rare `|z| > 8` tail lands in the end buckets and is
/// re-decided exactly like any other bucket tie.
const DECAY_Z_SPAN: f64 = 8.0;

/// Sorted cut table bucketing positive decay budgets (and the query's
/// accumulated stress) onto a 2^14 grid.
///
/// `bucket(x)` is the number of cuts `<= x` — a [`partition_point`] over
/// a sorted table, which is weakly monotone *by construction*, with no
/// assumption about floating-point rounding in the cut values
/// themselves: if `bucket(x) < bucket(y)` then the cut at index
/// `bucket(x)` satisfies `x < cut <= y`, so `x < y`. A degenerate
/// distribution (e.g. `decay_sigma == 0` collapsing every cut to 1.0)
/// only collapses buckets, which routes more cells through the exact
/// fallback — slower, never wrong.
///
/// [`partition_point`]: slice::partition_point
struct DecayCuts {
    cuts: Vec<f64>,
}

impl DecayCuts {
    fn new(decay_sigma: f64) -> Self {
        let mut cuts = Vec::with_capacity(DECAY_CUTS);
        let mut hi = f64::NEG_INFINITY;
        for i in 0..DECAY_CUTS {
            let z = -DECAY_Z_SPAN + 2.0 * DECAY_Z_SPAN * (i as f64) / ((DECAY_CUTS - 1) as f64);
            // The running max forces the table sorted even if `exp`
            // rounding were non-monotone somewhere.
            hi = hi.max((decay_sigma * z).exp());
            cuts.push(hi);
        }
        DecayCuts { cuts }
    }

    #[inline]
    fn bucket(&self, x: f64) -> u16 {
        self.cuts.partition_point(|c| *c <= x) as u16
    }
}

/// Linear bucket grid over the clamped DRV range.
#[derive(Clone, Copy)]
struct DrvGrid {
    min: f64,
    scale: f64,
}

impl DrvGrid {
    const MAX: f64 = ((1 << DRV_BITS) - 1) as f64;

    fn new(dist: &CellDistribution) -> Self {
        DrvGrid { min: dist.drv_min, scale: Self::MAX / (dist.drv_max - dist.drv_min) }
    }

    #[inline]
    fn bucket(self, v: f64) -> u16 {
        let t = (v - self.min) * self.scale;
        if t <= 0.0 {
            0
        } else if t >= Self::MAX {
            (1 << DRV_BITS) - 1
        } else {
            t as u16
        }
    }
}

// ---------------------------------------------------------------------
// Die planes
// ---------------------------------------------------------------------

/// One stream's bit-sliced rows, tile-major: tile `t`'s row `r`
/// occupies `words[(t * ROWS + r) * TILE_WORDS ..][.. TILE_WORDS]`, and
/// bit `b` of word `j` in a row describes cell `(t * TILE_WORDS + j) *
/// 64 + b`. Bucket streams hold their bucket's bits MSB first (row `r`
/// is bit `BITS - 1 - r`, matching the compare scan order).
struct TileRows<const ROWS: usize> {
    words: Vec<u64>,
}

impl<const ROWS: usize> TileRows<ROWS> {
    /// All `ROWS` rows of tile `t`.
    #[inline]
    fn tile(&self, t: usize) -> &[u64] {
        &self.words[t * ROWS * TILE_WORDS..][..ROWS * TILE_WORDS]
    }
}

/// The power-up stream: what every lost cell powers up to.
struct PowerUpStream {
    rows: TileRows<POWERUP_ROWS>,
    /// Quantized power-up bias of each cell, padded to whole tiles. A
    /// flat byte plane rather than bit-planes: it is only read for the
    /// lost metastable cells, whose per-event sampling is per-cell.
    bias_q: Vec<u8>,
}

/// The decay stream: decay-budget bucket rows plus the cut table that
/// buckets both the budgets and a query's stress.
struct DecayStream {
    rows: TileRows<DECAY_BITS>,
    cuts: DecayCuts,
}

/// Precomputed, bit-sliced per-cell parameter streams for one die.
///
/// The power-up stream is derived when the planes are built (every
/// power-on that loses a cell reads it); the DRV and decay streams are
/// derived on the first query that consults them, exactly once even
/// under concurrent first requests. Word and cell coordinates are
/// always **absolute** array positions, never tile-local — the
/// rep-delta hot-word records in [`crate::delta`] index the same
/// space, which is what lets their counter-mode RNG offsets land on the
/// exact words the dense path samples.
pub(crate) struct DiePlanes {
    seed: u64,
    bits: usize,
    dist: CellDistribution,
    powerup: PowerUpStream,
    drv: OnceLock<TileRows<DRV_BITS>>,
    decay: OnceLock<DecayStream>,
    /// Stream-build counters of the cache that built this die.
    builds: Arc<StreamBuilds>,
}

impl std::fmt::Debug for DiePlanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiePlanes").field("bits", &self.bits).finish()
    }
}

/// Per-stream build counters of one [`PlaneCache`].
#[derive(Default)]
pub(crate) struct StreamBuilds {
    powerup: AtomicU64,
    drv: AtomicU64,
    decay: AtomicU64,
}

impl DiePlanes {
    /// Derives the planes for one die: the power-up stream now, the
    /// other two on first use. Every stream built bumps `builds`.
    fn build(seed: u64, bits: usize, dist: &CellDistribution, builds: Arc<StreamBuilds>) -> Self {
        builds.powerup.fetch_add(1, Ordering::Relaxed);
        DiePlanes {
            seed,
            bits,
            dist: *dist,
            powerup: build_powerup(seed, bits, dist),
            drv: OnceLock::new(),
            decay: OnceLock::new(),
            builds,
        }
    }

    /// Number of cells the planes describe.
    pub(crate) fn bits(&self) -> usize {
        self.bits
    }

    /// The die seed the planes were derived from.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The plane-cache key of this die.
    pub(crate) fn key(&self) -> PlaneKey {
        plane_key(self.seed, self.bits, &self.dist)
    }

    /// The DRV stream, built on first use. Concurrent first requests
    /// block on one build.
    fn drv(&self) -> &TileRows<DRV_BITS> {
        self.drv.get_or_init(|| {
            let (seed, dist, grid) = (self.seed, &self.dist, DrvGrid::new(&self.dist));
            let rows = build_buckets(self.bits, |cell| grid.bucket(derive_drv(seed, cell, dist)));
            self.builds.drv.fetch_add(1, Ordering::Relaxed);
            rows
        })
    }

    /// The decay stream, built on first use like [`DiePlanes::drv`].
    fn decay(&self) -> &DecayStream {
        self.decay.get_or_init(|| {
            let (seed, dist, cuts) = (self.seed, &self.dist, DecayCuts::new(self.dist.decay_sigma));
            let rows =
                build_buckets(self.bits, |cell| cuts.bucket(derive_decay_budget(seed, cell, dist)));
            self.builds.decay.fetch_add(1, Ordering::Relaxed);
            DecayStream { rows, cuts }
        })
    }

    /// The strong-1 and metastable masks of absolute word `word`.
    #[inline(always)]
    fn powerup_masks(&self, word: usize) -> (u64, u64) {
        let tile = self.powerup.rows.tile(word / TILE_WORDS);
        let j = word % TILE_WORDS;
        (tile[STRONG1_ROW * TILE_WORDS + j], tile[META_ROW * TILE_WORDS + j])
    }
}

/// Tiles covering `bits` cells.
fn n_tiles(bits: usize) -> usize {
    bits.div_ceil(TILE_CELLS)
}

/// Valid cells in absolute word `word` of a `bits`-cell array.
fn cells_in_word(bits: usize, word: usize) -> usize {
    bits.saturating_sub(word * 64).min(64)
}

/// Runs `fill(first_tile, rows, bias)` over runs of whole tiles of one
/// stream — `rows` holds `rows_per_tile` rows a tile, and `bias` is
/// either empty or one byte per cell — sharding arrays of at least
/// [`PAR_MIN_BITS`] cells across threads on tile boundaries.
fn shard_tiles<F>(bits: usize, rows: &mut [u64], rows_per_tile: usize, bias: &mut [u8], fill: F)
where
    F: Fn(usize, &mut [u64], &mut [u8]) + Sync,
{
    let tiles = n_tiles(bits);
    let threads = par::effective_parallelism();
    if bits < PAR_MIN_BITS || threads <= 1 || tiles <= 1 {
        return fill(0, rows, bias);
    }
    let per_shard = tiles.div_ceil(threads);
    let bias_per_shard = if bias.is_empty() { 0 } else { per_shard * TILE_CELLS };
    std::thread::scope(|s| {
        let mut bias = bias;
        for (i, rc) in rows.chunks_mut(per_shard * rows_per_tile * TILE_WORDS).enumerate() {
            let rest = std::mem::take(&mut bias);
            let (bc, rest) = rest.split_at_mut(bias_per_shard.min(rest.len()));
            bias = rest;
            let fill = &fill;
            s.spawn(move || fill(i * per_shard, rc, bc));
        }
    });
}

/// Derives the power-up stream: one [`derive_powerup`] per cell.
fn build_powerup(seed: u64, bits: usize, dist: &CellDistribution) -> PowerUpStream {
    let mut words = vec![0u64; n_tiles(bits) * POWERUP_ROWS * TILE_WORDS];
    let mut bias_q = vec![0u8; n_tiles(bits) * TILE_CELLS];
    shard_tiles(bits, &mut words, POWERUP_ROWS, &mut bias_q, |tile0, rows, bias_q| {
        for (ti, tile) in rows.chunks_mut(POWERUP_ROWS * TILE_WORDS).enumerate() {
            for j in 0..TILE_WORDS {
                let word = (tile0 + ti) * TILE_WORDS + j;
                let mut strong1 = 0u64;
                let mut metastable = 0u64;
                for b in 0..cells_in_word(bits, word) {
                    let (kind, bias) = derive_powerup(seed, word * 64 + b, dist);
                    match kind {
                        PowerUpKind::Strong0 => {}
                        PowerUpKind::Strong1 => strong1 |= 1 << b,
                        PowerUpKind::Metastable => metastable |= 1 << b,
                    }
                    bias_q[ti * TILE_CELLS + j * 64 + b] = prob_bucket(bias);
                }
                tile[STRONG1_ROW * TILE_WORDS + j] = strong1;
                tile[META_ROW * TILE_WORDS + j] = metastable;
            }
        }
    });
    PowerUpStream { rows: TileRows { words }, bias_q }
}

/// Derives a bucket stream: `bucket(cell)` for every cell, transposed
/// MSB first into `BITS` bit-plane rows. Padding cells stay bucket 0.
fn build_buckets<const BITS: usize>(
    bits: usize,
    bucket: impl Fn(usize) -> u16 + Sync,
) -> TileRows<BITS> {
    let mut words = vec![0u64; n_tiles(bits) * BITS * TILE_WORDS];
    shard_tiles(bits, &mut words, BITS, &mut [], |tile0, rows, _| {
        for (ti, tile) in rows.chunks_mut(BITS * TILE_WORDS).enumerate() {
            for j in 0..TILE_WORDS {
                let word = (tile0 + ti) * TILE_WORDS + j;
                let mut q = [0u16; 64];
                for (b, q) in q[..cells_in_word(bits, word)].iter_mut().enumerate() {
                    *q = bucket(word * 64 + b);
                }
                for r in 0..BITS {
                    let shift = BITS - 1 - r;
                    tile[r * TILE_WORDS + j] = q
                        .iter()
                        .enumerate()
                        .fold(0, |row, (b, &v)| row | (u64::from((v >> shift) & 1) << b));
                }
            }
        }
    });
    TileRows { words }
}

// ---------------------------------------------------------------------
// Plane cache
// ---------------------------------------------------------------------

pub(crate) type PlaneKey = (u64, usize, [u64; 6]);

/// A cache slot: inserted under the lock *before* building, so exactly
/// one thread ever derives a given die — concurrent requesters block on
/// the same [`OnceLock`] instead of racing duplicate builds.
type PlaneSlot = Arc<OnceLock<Arc<DiePlanes>>>;

/// A rep-delta baseline slot, same insert-then-build discipline as
/// [`PlaneSlot`]: exactly one thread scans the die per condition.
pub(crate) type BaselineSlot = Arc<OnceLock<Arc<Baseline>>>;

pub(crate) fn plane_key(seed: u64, bits: usize, dist: &CellDistribution) -> PlaneKey {
    (
        seed,
        bits,
        [
            dist.metastable_fraction.to_bits(),
            dist.drv_mean.to_bits(),
            dist.drv_sigma.to_bits(),
            dist.drv_min.to_bits(),
            dist.drv_max.to_bits(),
            dist.decay_sigma.to_bits(),
        ],
    )
}

/// Plane cells a key will occupy once built, padded to whole tiles —
/// derivable from the key alone, so eviction accounting never has to
/// wait for (or lock around) a slot that is still building.
fn key_cells(key: &PlaneKey) -> usize {
    key.1.div_ceil(TILE_CELLS) * TILE_CELLS
}

/// One cached die: its plane slot plus the rep-delta bookkeeping that
/// lives *next to* the planes. Evicting the die drops its baselines
/// with it — a baseline is useless without a live entry to find it
/// through.
struct CacheEntry {
    key: PlaneKey,
    slot: PlaneSlot,
    /// Conditions resolved exactly once so far (promotion ring; see
    /// [`SEEN_CONDITIONS`]).
    seen: VecDeque<BaselineKey>,
    /// Materialized (or building) baselines, oldest first.
    baselines: VecDeque<(BaselineKey, BaselineSlot)>,
}

/// A cache's entries and the counters updated under its lock.
#[derive(Default)]
struct PlaneCacheState {
    entries: VecDeque<CacheEntry>,
    /// Bytes held by *built* baselines (a building slot counts once its
    /// builder reports in through [`PlaneCache::note_baseline_built`]).
    baseline_bytes: usize,
    /// Dies evicted by the entry/cell caps.
    plane_evictions: u64,
    /// Baselines evicted (by die eviction, the per-die FIFO, or the
    /// byte cap). Only *built* baselines count — an abandoned building
    /// slot never held memory worth accounting.
    baseline_evictions: u64,
    /// Baselines scanned and materialized.
    baselines_built: u64,
}

impl PlaneCacheState {
    /// Forgets built baseline `b`: uncharges its bytes, counts it evicted.
    fn evict_baseline(&mut self, b: &Baseline) {
        self.baseline_bytes = self.baseline_bytes.saturating_sub(b.bytes());
        self.baseline_evictions += 1;
    }
}

/// An owned plane cache: memoized die planes, the rep-delta baselines
/// next to them, and their counters. Clones share the cache. Resolves
/// use the cache [`PlaneCache::enter`] installed on their thread, else
/// the process default that [`clear_plane_cache`],
/// [`plane_cache_stats`] and [`crate::delta::stats`] act on.
#[derive(Clone, Default)]
pub struct PlaneCache(pub(crate) Arc<CacheInner>);

#[derive(Default)]
pub(crate) struct CacheInner {
    /// Set for a [`PlaneCache::dense`] cache: no rep-delta path.
    pub(crate) dense: bool,
    state: Mutex<PlaneCacheState>,
    /// Bumped by [`PlaneCache::clear`], which retires every baseline
    /// lease ([`crate::delta`]) at its holder's next rep boundary.
    pub(crate) generation: AtomicU64,
    /// Reps resolved through the sparse delta path.
    pub(crate) delta_reps: AtomicU64,
    streams: Arc<StreamBuilds>,
}

/// The process-default cache, with the rep-delta path.
pub(crate) static DEFAULT_CACHE: LazyLock<PlaneCache> = LazyLock::new(PlaneCache::new);

impl PlaneCache {
    /// An empty cache with the rep-delta path.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache without the rep-delta path: every `Batched`
    /// resolve under it takes the dense scan, with identical output.
    pub fn dense() -> Self {
        PlaneCache(Arc::new(CacheInner { dense: true, ..CacheInner::default() }))
    }

    /// The cache resolves on this thread use: the innermost
    /// [`PlaneCache::enter`] scope's, else the process default.
    pub fn current() -> Self {
        par::CONTEXT.with_borrow(|c| c.cache.clone()).unwrap_or_else(|| DEFAULT_CACHE.clone())
    }

    /// Runs `f` with `self` as this thread's current cache, restoring
    /// the previous one afterwards — panic included.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        par::scoped(|c| c.cache = Some(self.clone()), f)
    }

    /// Locks the entry list, recovering from poisoning: every critical
    /// section leaves the state usable (at worst a baseline byte charge
    /// is stale), so a panic elsewhere must not take the cache down.
    fn lock(&self) -> MutexGuard<'_, PlaneCacheState> {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the memoized planes for one die, building them on first
    /// use, plus whether this call was served an existing build
    /// (`true`) or had to derive the planes itself (`false`) — the
    /// campaign telemetry layer reports this as plane-cache hit/miss
    /// counters.
    ///
    /// The cache is keyed by `(seed, size, distribution)` and bounded by
    /// total cells; the oldest die is evicted first. The slot for a key
    /// is inserted under the lock but *built* outside it, so a long
    /// derivation never serializes unrelated dies — and because the
    /// slot is a [`OnceLock`], concurrent requests for the *same* die
    /// block on one build instead of each deriving a private copy.
    pub(crate) fn planes_for(
        &self,
        seed: u64,
        bits: usize,
        dist: &CellDistribution,
    ) -> (Arc<DiePlanes>, bool) {
        let key = plane_key(seed, bits, dist);
        let slot: PlaneSlot = {
            let mut cache = self.lock();
            if let Some(e) = cache.entries.iter().find(|e| e.key == key) {
                e.slot.clone()
            } else {
                let s: PlaneSlot = Arc::new(OnceLock::new());
                cache.entries.push_back(CacheEntry {
                    key,
                    slot: s.clone(),
                    seen: VecDeque::new(),
                    baselines: VecDeque::new(),
                });
                let mut total: usize = cache.entries.iter().map(|e| key_cells(&e.key)).sum();
                while (total > MAX_CACHED_CELLS || cache.entries.len() > MAX_CACHED_DIES)
                    && cache.entries.len() > 1
                {
                    if let Some(evicted) = cache.entries.pop_front() {
                        total -= key_cells(&evicted.key);
                        cache.plane_evictions += 1;
                        for b in evicted.baselines.iter().filter_map(|(_, s)| s.get()) {
                            cache.evict_baseline(b);
                        }
                    }
                }
                s
            }
        };
        let mut built_here = false;
        let planes = slot
            .get_or_init(|| {
                built_here = true;
                Arc::new(DiePlanes::build(seed, bits, dist, self.0.streams.clone()))
            })
            .clone();
        (planes, !built_here)
    }

    /// Drops every memoized plane and rep-delta baseline.
    ///
    /// Safe to race with in-flight resolutions: plane sets and baselines
    /// are handed out as `Arc`s (a rep holds a lease for as long as it
    /// needs the data), so clearing the cache only forgets them — it
    /// never frees memory under a running kernel. Deliberate clears are
    /// not counted as evictions. The cache generation is bumped so
    /// thread-local baseline leases re-validate on their next rep.
    pub fn clear(&self) {
        let mut cache = self.lock();
        cache.entries.clear();
        cache.baseline_bytes = 0;
        self.0.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up — or, on the *second* sight of a `(die, condition)`
    /// pair, installs — the rep-delta baseline slot for `bkey`, applying
    /// the promotion policy:
    ///
    /// * first resolve of a condition: note it in the die's bounded
    ///   `seen` ring and return `None` (the rep takes the full resolve);
    /// * second resolve: promote it to a baseline slot (built outside
    ///   the lock by exactly one thread, like the planes themselves);
    /// * later resolves: hand back the existing slot.
    ///
    /// Returns `None` when the die itself is not cached (evicted under
    /// pressure, or its planes were served by another cache) — the
    /// delta path simply falls back to a full resolve.
    pub(crate) fn baseline_slot(&self, key: &PlaneKey, bkey: &BaselineKey) -> Option<BaselineSlot> {
        let mut cache = self.lock();
        let mut displaced: Option<(BaselineKey, BaselineSlot)> = None;
        let slot = {
            let entry = cache.entries.iter_mut().find(|e| e.key == *key)?;
            if let Some((_, s)) = entry.baselines.iter().find(|(k, _)| k == bkey) {
                Some(s.clone())
            } else if let Some(pos) = entry.seen.iter().position(|k| k == bkey) {
                entry.seen.remove(pos);
                let s: BaselineSlot = Arc::new(OnceLock::new());
                entry.baselines.push_back((*bkey, s.clone()));
                if entry.baselines.len() > MAX_BASELINES_PER_DIE {
                    displaced = entry.baselines.pop_front();
                }
                Some(s)
            } else {
                // Concurrent first resolves may race this push; a
                // duplicate key in the ring is harmless (position()
                // finds the first).
                entry.seen.push_back(*bkey);
                while entry.seen.len() > SEEN_CONDITIONS {
                    entry.seen.pop_front();
                }
                None
            }
        };
        if let Some(b) = displaced.as_ref().and_then(|(_, old)| old.get()) {
            cache.evict_baseline(b);
        }
        slot
    }

    /// Called by the builder after it finishes a baseline: counts the
    /// build, charges the bytes to the cache and sheds the oldest
    /// *other* baselines while the byte cap is exceeded. If the slot was
    /// evicted while building, nothing is charged — the builder's own
    /// `Arc` lease is then the only reference and the memory dies with
    /// the rep.
    pub(crate) fn note_baseline_built(&self, key: &PlaneKey, bkey: &BaselineKey, bytes: usize) {
        let mut cache = self.lock();
        cache.baselines_built += 1;
        let holds = |e: &CacheEntry| e.key == *key && e.baselines.iter().any(|(k, _)| k == bkey);
        if !cache.entries.iter().any(holds) {
            return; // evicted while building
        }
        cache.baseline_bytes += bytes;
        while cache.baseline_bytes > MAX_BASELINE_BYTES {
            let charged = cache.baseline_bytes;
            let mut freed = 0usize;
            let mut evicted = 0u64;
            for e in cache.entries.iter_mut() {
                while let Some((k, s)) = e.baselines.front() {
                    if e.key == *key && k == bkey {
                        break; // never shed the baseline just installed
                    }
                    match s.get() {
                        // A building slot holds no accounted memory yet
                        // and popping it would orphan its builder's
                        // accounting; leave this die's FIFO alone until
                        // it settles.
                        None => break,
                        Some(b) => {
                            freed += b.bytes();
                            evicted += 1;
                            e.baselines.pop_front();
                        }
                    }
                }
                if charged.saturating_sub(freed) <= MAX_BASELINE_BYTES {
                    break;
                }
            }
            cache.baseline_evictions += evicted;
            cache.baseline_bytes = cache.baseline_bytes.saturating_sub(freed);
            if freed == 0 {
                break; // nothing evictable left (all building or protected)
            }
        }
    }

    /// Snapshot of this cache's delta-path usage counters.
    pub fn delta_stats(&self) -> DeltaStats {
        let baselines_built = self.lock().baselines_built;
        DeltaStats { delta_reps: self.0.delta_reps.load(Ordering::Relaxed), baselines_built }
    }

    /// Snapshot of this cache's [`PlaneCacheStats`].
    pub fn stats(&self) -> PlaneCacheStats {
        let cache = self.lock();
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let built =
            || cache.entries.iter().flat_map(|e| e.baselines.iter().filter_map(|(_, s)| s.get()));
        PlaneCacheStats {
            entries: cache.entries.len(),
            cells: cache.entries.iter().map(|e| key_cells(&e.key)).sum(),
            baselines: built().count(),
            baseline_bytes: cache.baseline_bytes,
            baseline_hot_words: built().map(|b| b.hot_words()).sum(),
            plane_evictions: cache.plane_evictions,
            baseline_evictions: cache.baseline_evictions,
            powerup_streams_built: load(&self.0.streams.powerup),
            drv_streams_built: load(&self.0.streams.drv),
            decay_streams_built: load(&self.0.streams.decay),
        }
    }
}

/// Clears the process-default [`PlaneCache`] (used by benchmarks to
/// measure the cold, plane-building first cycle separately from warm
/// cycles). See [`PlaneCache::clear`].
pub fn clear_plane_cache() {
    DEFAULT_CACHE.clear();
}

/// Point-in-time occupancy and lifetime counters of one plane cache.
///
/// Deliberately **not** recorded into campaign telemetry: whether a
/// given rep finds a cached baseline (or triggers an eviction) depends
/// on cross-thread scheduling, so folding these counters into the
/// deterministic telemetry recorder stream would break the
/// byte-identical-reports guarantee. Benches and the campaign report's
/// `# nondeterministic` trailer are the surfaces for them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneCacheStats {
    /// Dies currently cached.
    pub entries: usize,
    /// Plane cells currently cached (padded to whole tiles).
    pub cells: usize,
    /// Built rep-delta baselines currently cached.
    pub baselines: usize,
    /// Bytes held by built rep-delta baselines.
    pub baseline_bytes: usize,
    /// Hot words (words with any lost cell) across cached baselines —
    /// the per-rep work the delta path actually does.
    pub baseline_hot_words: usize,
    /// Dies evicted by the entry/cell caps since the cache was created.
    pub plane_evictions: u64,
    /// Baselines evicted (die eviction, per-die FIFO, or byte cap)
    /// since the cache was created.
    pub baseline_evictions: u64,
    /// Power-up streams the cache has built (one per die build).
    pub powerup_streams_built: u64,
    /// DRV streams built on the cache's dies (first held query between
    /// `drv_min` and `drv_max` on a die).
    pub drv_streams_built: u64,
    /// Decay streams built on the cache's dies (first query with
    /// positive stress on a die that is not certainly lost).
    pub decay_streams_built: u64,
}

/// Snapshot of the process-default cache's [`PlaneCacheStats`] — see its
/// docs for why this is an out-of-band API rather than telemetry counters.
pub fn plane_cache_stats() -> PlaneCacheStats {
    DEFAULT_CACHE.stats()
}

// ---------------------------------------------------------------------
// Queries and kernels
// ---------------------------------------------------------------------

/// Whether the batched kernels can represent this query exactly. The
/// kernels assume a sane bucket grid and finite, non-NaN comparisons;
/// anything else (a degenerate custom distribution, a NaN hold voltage)
/// routes to the scalar path, which defines the semantics.
pub(crate) fn can_batch(dist: &CellDistribution, event: OffEvent, stress: f64) -> bool {
    let grid_ok = dist.drv_min.is_finite()
        && dist.drv_max.is_finite()
        && dist.drv_max > dist.drv_min
        && dist.drv_mean.is_finite()
        && dist.drv_sigma.is_finite()
        && dist.decay_sigma.is_finite()
        && dist.metastable_fraction.is_finite();
    let event_ok = match event {
        OffEvent::Unpowered => true,
        OffEvent::Held { voltage, transient_min_voltage } => {
            voltage.is_finite() && transient_min_voltage.is_finite()
        }
    };
    grid_ok && event_ok && !stress.is_nan()
}

/// One power-cycle resolution query, bucketized against the streams it
/// consults — and only those. Construction decides from population
/// bounds which streams a query needs, and builds a needed stream on
/// its first use; a certainly-lost or certainly-retained query reads
/// neither bucket stream.
struct Query<'a> {
    planes: &'a DiePlanes,
    /// Hoisted cell-independent half of the per-event RNG word
    /// ([`crate::rng::event_base`]) — the power-up sampler finishes it
    /// with one `event_word_at` per lost metastable cell.
    ev_base: u64,
    /// No cell retains: the hold dips below `drv_min`, or the stress
    /// exceeds every possible decay budget (see [`Z_BOUND`]).
    all_lost: bool,
    /// The decay compare; `None` when `stress <= 0` (every cell is
    /// within its budget) or the query is `all_lost`.
    decay: Option<DecayQuery<'a>>,
    /// The DRV compare; `None` for an unpowered rail (no DRV check), a
    /// hold at or above `drv_max` (every cell passes), or `all_lost`.
    drv: Option<DrvQuery<'a>>,
}

struct DecayQuery<'a> {
    rows: &'a TileRows<DECAY_BITS>,
    stress: f64,
    stress_q: u16,
}

struct DrvQuery<'a> {
    rows: &'a TileRows<DRV_BITS>,
    /// The held threshold `min(steady, transient)`.
    vmin: f64,
    vmin_q: u16,
}

impl<'a> Query<'a> {
    fn new(planes: &'a DiePlanes, event: OffEvent, stress: f64, event_id: u64) -> Self {
        let dist = &planes.dist;
        let vmin = match event {
            OffEvent::Unpowered => None,
            OffEvent::Held { voltage, transient_min_voltage } => {
                Some(voltage.min(transient_min_voltage))
            }
        };
        let all_lost = vmin.is_some_and(|v| v < dist.drv_min)
            || stress > (dist.decay_sigma.abs() * Z_BOUND).exp();
        let drv = vmin.filter(|&v| !all_lost && v < dist.drv_max).map(|vmin| DrvQuery {
            rows: planes.drv(),
            vmin,
            vmin_q: DrvGrid::new(dist).bucket(vmin),
        });
        let decay = (!all_lost && stress > 0.0).then(|| {
            let d = planes.decay();
            DecayQuery { rows: &d.rows, stress, stress_q: d.cuts.bucket(stress) }
        });
        Query {
            planes,
            ev_base: crate::rng::event_base(planes.seed, event_id),
            all_lost,
            decay,
            drv,
        }
    }
}

/// Compares `BITS` bit-plane rows against the query bucket `t` for `N`
/// consecutive words starting at in-tile word `j`: returns
/// `(gt, eq)` masks where bit `b` of `gt[i]` means the cell's bucket is
/// strictly greater than `t` and `eq[i]` means exactly equal.
///
/// MSB-first eq-prefix scan: walking rows from the bucket MSB down, `eq`
/// tracks cells whose bucket agrees with `t` on every bit seen so far;
/// a 1 where `t` has 0 moves an eq-prefix cell into `gt`, a 0 where `t`
/// has 1 drops it (it is below `t`, decided). Two ALU ops per row per
/// lane — well under one op per cell for the full compare.
#[inline(always)]
fn cmp_grid<const N: usize, const BITS: usize>(
    rows: &[u64],
    j: usize,
    t: u16,
) -> ([u64; N], [u64; N]) {
    let mut gt = [0u64; N];
    let mut eq = [!0u64; N];
    for r in 0..BITS {
        let p: &[u64; N] =
            rows[r * TILE_WORDS + j..r * TILE_WORDS + j + N].try_into().expect("lane width");
        if (t >> (BITS - 1 - r)) & 1 == 1 {
            for i in 0..N {
                eq[i] &= p[i];
            }
        } else {
            for i in 0..N {
                gt[i] |= eq[i] & p[i];
                eq[i] &= !p[i];
            }
        }
    }
    (gt, eq)
}

/// Computes the retention keep-masks for `N` consecutive words: bit `b`
/// of `keep[i]` is set iff cell `(word0 + i) * 64 + b` survives the
/// query's off interval. Returns `(keep, valid)`. The caller guarantees
/// all `N` words lie within one tile (`word0 % TILE_WORDS + N <=
/// TILE_WORDS`).
///
/// The keep-mask is a pure function of `(planes, query)` — independent
/// of the stored data *and* of the power-on event id — which is what
/// lets the rep-delta path ([`crate::delta`]) precompute it once per
/// `(die, condition)` and reuse it for every rep of a sweep.
#[inline(always)]
fn keep_chunk<const N: usize>(word0: usize, q: &Query<'_>) -> ([u64; N], [u64; N]) {
    let (planes, t, j) = (q.planes, word0 / TILE_WORDS, word0 % TILE_WORDS);
    let valid: [u64; N] = std::array::from_fn(|i| valid_mask(planes.bits, word0 + i));
    if q.all_lost {
        return ([0; N], valid);
    }

    // Decay check: stress <= budget. Strict bucket inequality decides;
    // boundary cells (bucket == stress bucket) re-derive exactly. The
    // `eq` mask must shed padding cells (their all-zero planes collide
    // with bucket-0 queries) before the fallback loop.
    let mut keep = valid;
    if let Some(d) = &q.decay {
        let (gt, eq) = cmp_grid::<N, DECAY_BITS>(d.rows.tile(t), j, d.stress_q);
        for i in 0..N {
            let mut ok = gt[i];
            let mut boundary = eq[i] & valid[i];
            while boundary != 0 {
                let b = boundary.trailing_zeros() as usize;
                let budget = derive_decay_budget(planes.seed, (word0 + i) * 64 + b, &planes.dist);
                if d.stress <= budget {
                    ok |= 1 << b;
                } else {
                    ok &= !(1u64 << b);
                }
                boundary &= boundary - 1;
            }
            keep[i] = ok & valid[i];
        }
    }

    // DRV check: min(hold voltage, transient minimum) >= drv, i.e. the
    // cell's bucket below the query's retains, above loses, equal
    // re-derives. Only cells that passed the decay check fall back.
    if let Some(h) = &q.drv {
        let (gt, eq) = cmp_grid::<N, DRV_BITS>(h.rows.tile(t), j, h.vmin_q);
        for i in 0..N {
            let mut drv_ok = valid[i] & !gt[i] & !eq[i];
            let mut boundary = eq[i] & keep[i];
            while boundary != 0 {
                let b = boundary.trailing_zeros() as usize;
                if h.vmin >= derive_drv(planes.seed, (word0 + i) * 64 + b, &planes.dist) {
                    drv_ok |= 1 << b;
                }
                boundary &= boundary - 1;
            }
            keep[i] &= drv_ok;
        }
    }
    (keep, valid)
}

/// Resolves `N` consecutive words: decides retention for their cells by
/// mask algebra over the tile's bit-planes ([`keep_chunk`]), samples
/// power-up values for the lost ones, and returns the retained count.
/// Same one-tile precondition as [`keep_chunk`].
///
/// `N = 4` is the wide path (a 256-bit effective lane per row
/// operation, unrolled over four `u64`s — portable, no intrinsics);
/// `N = 1` is the remainder path at array edges and, through the
/// test-only `tests::resolve_word`, the oracle the wide path is tested
/// against.
#[inline]
fn resolve_chunk<const N: usize>(data: &mut [u64; N], word0: usize, q: &Query<'_>) -> u32 {
    let (keep, valid) = keep_chunk::<N>(word0, q);
    let tile = q.planes.powerup.rows.tile(word0 / TILE_WORDS);
    let j = word0 % TILE_WORDS;
    let mut retained = 0u32;
    for i in 0..N {
        retained += keep[i].count_ones();
        let lost = valid[i] & !keep[i];
        if lost != 0 {
            let strong1 = tile[STRONG1_ROW * TILE_WORDS + j + i];
            let metastable = tile[META_ROW * TILE_WORDS + j + i];
            let value = powerup_word(lost, word0 + i, strong1, metastable, q.planes, q.ev_base);
            data[i] = (data[i] & !lost) | value;
        }
    }
    retained
}

/// Samples power-up values for the cells of `mask` within absolute word
/// `word`, given the word's strong-1 and metastable masks: strong-1
/// cells read 1, strong-0 cells read 0, metastable cells are re-sampled
/// per power-on event. The per-event RNG draw is inherently per-cell;
/// everything around it is mask algebra.
#[inline]
fn powerup_word(
    mask: u64,
    word: usize,
    strong1: u64,
    metastable: u64,
    planes: &DiePlanes,
    ev_base: u64,
) -> u64 {
    (strong1 & mask) | sample_meta_word(metastable & mask, word, planes, ev_base)
}

/// Samples fresh per-event values for the metastable cells of `meta`
/// within absolute word `word` — the inner loop of [`powerup_word`],
/// shared verbatim with the rep-delta apply kernel so the sparse path's
/// draws are identical to the dense path's *by construction*: both
/// finish the same hoisted `ev_base` with one
/// [`event_word_at`] keyed on the absolute cell index.
///
/// The per-cell draw is integer-only on the common path: the uniform
/// sample's probability bucket is the random word's top byte (see
/// [`prob_bucket`] for why that identity is exact), so the f64
/// conversion and the exact bias derivation run only on the ~1/256
/// bucket ties. `ev_base` is the hoisted [`crate::rng::event_base`] of
/// the power-on event.
#[inline(always)]
pub(crate) fn sample_meta_word(meta: u64, word: usize, planes: &DiePlanes, ev_base: u64) -> u64 {
    let mut value = 0u64;
    let mut meta = meta;
    while meta != 0 {
        let b = meta.trailing_zeros() as usize;
        let cell = word * 64 + b;
        let w = event_word_at(ev_base, cell);
        let uq = (w >> 56) as u8;
        let bq = planes.powerup.bias_q[cell];
        // The sample outcome is a coin flip — set the bit branchlessly
        // so it never costs a misprediction. Only the tie test branches,
        // and it is taken ~1/256 of the time.
        let one = if uq != bq {
            uq < bq
        } else {
            unit_f64(w) < derive_powerup(planes.seed, cell, &planes.dist).1
        };
        value |= u64::from(one) << b;
        meta &= meta - 1;
    }
    value
}

/// Resolves a full power cycle against the planes with the 4-word
/// (256-bit) lane kernel, writing power-up samples for lost cells
/// directly into `data`'s words. Returns the number of retained cells.
pub(crate) fn resolve(
    data: &mut PackedBits,
    planes: &DiePlanes,
    event: OffEvent,
    stress: f64,
    event_id: u64,
) -> usize {
    let q = Query::new(planes, event, stress, event_id);
    run_words(data, planes.bits(), |words, word_base| {
        let mut retained = 0usize;
        let mut k = 0usize;
        while k < words.len() {
            let word = word_base + k;
            let tile_left = TILE_WORDS - word % TILE_WORDS;
            if words.len() - k >= 4 && tile_left >= 4 {
                let chunk: &mut [u64; 4] = (&mut words[k..k + 4]).try_into().expect("4-word chunk");
                retained += resolve_chunk::<4>(chunk, word, &q) as usize;
                k += 4;
            } else {
                let chunk: &mut [u64; 1] = (&mut words[k..k + 1]).try_into().expect("1-word chunk");
                retained += resolve_chunk::<1>(chunk, word, &q) as usize;
                k += 1;
            }
        }
        retained
    })
}

/// Appends word `word` to the hot list if any valid cell was lost, and
/// accumulates the retained count. One record is [`crate::delta`]'s
/// `HOT_STRIDE` words: absolute word index; keep mask with padding bits
/// forced on (the full path's `data & !lost` preserves padding, so the
/// delta's `data & keep` must too); strong-1 values of the lost cells;
/// metastable mask of the lost cells.
fn note_hot_word(
    hot: &mut Vec<u64>,
    retained: &mut usize,
    planes: &DiePlanes,
    word: usize,
    keep: u64,
    valid: u64,
) {
    *retained += keep.count_ones() as usize;
    let lost = valid & !keep;
    if lost != 0 {
        let (strong1, metastable) = planes.powerup_masks(word);
        hot.extend_from_slice(&[word as u64, keep | !valid, strong1 & lost, metastable & lost]);
    }
}

/// Derives the rep-delta baseline for one `(die, condition)` pair: one
/// keep-mask scan over every word (sharded across threads like a full
/// resolve), recording the **hot words** — words with at least one lost
/// cell — and the total retained count, which is a pure function of the
/// condition and is therefore never re-counted per rep.
pub(crate) fn build_baseline(planes: &Arc<DiePlanes>, event: OffEvent, stress: f64) -> Baseline {
    // The event id only feeds `ev_base`, which the keep scan never
    // reads; 0 is as good as any.
    let q = Query::new(planes, event, stress, 0);
    let bits = planes.bits();
    let words = bits.div_ceil(64);
    let scan = |w0: usize, w1: usize| -> (Vec<u64>, usize) {
        let mut hot = Vec::new();
        let mut retained = 0usize;
        let mut k = w0;
        while k < w1 {
            let tile_left = TILE_WORDS - k % TILE_WORDS;
            if w1 - k >= 4 && tile_left >= 4 {
                let (keep, valid) = keep_chunk::<4>(k, &q);
                for i in 0..4 {
                    note_hot_word(&mut hot, &mut retained, planes, k + i, keep[i], valid[i]);
                }
                k += 4;
            } else {
                let (keep, valid) = keep_chunk::<1>(k, &q);
                note_hot_word(&mut hot, &mut retained, planes, k, keep[0], valid[0]);
                k += 1;
            }
        }
        (hot, retained)
    };
    let threads = par::effective_parallelism();
    let (hot, retained) = if bits < PAR_MIN_BITS || threads <= 1 || words <= 1 {
        scan(0, words)
    } else {
        let chunk = words.div_ceil(threads).next_multiple_of(TILE_WORDS);
        let shards: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
            (0..words.div_ceil(chunk))
                .map(|i| {
                    let scan = &scan;
                    s.spawn(move || scan(i * chunk, ((i + 1) * chunk).min(words)))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("baseline worker panicked"))
                .collect()
        });
        let mut hot = Vec::with_capacity(shards.iter().map(|(h, _)| h.len()).sum());
        let mut retained = 0usize;
        // Shards are collected in word order, so the flat hot list stays
        // sorted by absolute word index.
        for (h, r) in shards {
            hot.extend_from_slice(&h);
            retained += r;
        }
        (hot, retained)
    };
    Baseline::new(planes.clone(), hot, retained)
}

/// Samples a fresh power-up state for every cell (the first power-on and
/// the certainly-lost fast path) — the power-up stream alone. Bit-exact
/// with per-cell
/// [`CellParams::sample_powerup_only`](crate::CellParams::sample_powerup_only).
pub(crate) fn sample_all(data: &mut PackedBits, planes: &DiePlanes, event_id: u64) {
    let ev_base = crate::rng::event_base(planes.seed, event_id);
    run_words(data, planes.bits(), |words, word_base| {
        for (k, w) in words.iter_mut().enumerate() {
            let word = word_base + k;
            let (strong1, metastable) = planes.powerup_masks(word);
            let valid = valid_mask(planes.bits(), word);
            *w = powerup_word(valid, word, strong1, metastable, planes, ev_base);
        }
        0usize
    });
}

#[inline]
fn valid_mask(bits: usize, word: usize) -> u64 {
    let tail = bits % 64;
    if tail != 0 && word == bits / 64 {
        (1u64 << tail) - 1
    } else {
        u64::MAX
    }
}

/// The number of workers the batched engine actually uses to resolve an
/// array of `bits` cells from the calling thread: 1 below the
/// [`PAR_MIN_BITS`] sharding threshold or under an exhausted
/// [`par::with_budget`] budget, otherwise the tile-aligned shard count
/// `run_words` splits the word vector into (which can fall short of the
/// pool size for short arrays). Bench snapshots report this instead of
/// the raw pool size so the recorded thread count matches what ran.
pub fn resolution_workers(bits: usize) -> usize {
    let words = bits.div_ceil(64);
    let threads = par::effective_parallelism();
    if bits < PAR_MIN_BITS || threads <= 1 || words <= 1 {
        return 1;
    }
    let chunk = words.div_ceil(threads).next_multiple_of(TILE_WORDS);
    words.div_ceil(chunk)
}

/// Runs `kernel` over the array's words, sharding across scoped threads
/// on tile-aligned boundaries when the array is large enough, and sums
/// the per-shard results.
fn run_words<F>(data: &mut PackedBits, bits: usize, kernel: F) -> usize
where
    F: Fn(&mut [u64], usize) -> usize + Sync,
{
    let words = data.words_mut();
    let threads = par::effective_parallelism();
    if bits < PAR_MIN_BITS || threads <= 1 || words.len() <= 1 {
        return kernel(words, 0);
    }
    let chunk = words.len().div_ceil(threads).next_multiple_of(TILE_WORDS);
    std::thread::scope(|s| {
        let kernel = &kernel;
        words
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, ws)| s.spawn(move || kernel(ws, i * chunk)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("resolution worker panicked"))
            .sum()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`resolve`] through the single-word kernel on every word — the
    /// lane-width oracle the full-width kernel is tested against.
    pub(crate) fn resolve_word(
        data: &mut PackedBits,
        planes: &DiePlanes,
        event: OffEvent,
        stress: f64,
        event_id: u64,
    ) -> usize {
        let q = Query::new(planes, event, stress, event_id);
        run_words(data, planes.bits(), |words, word_base| {
            let chunks = words.iter_mut().enumerate();
            chunks
                .map(|(k, w)| {
                    resolve_chunk::<1>(std::array::from_mut(w), word_base + k, &q) as usize
                })
                .sum()
        })
    }

    #[test]
    fn prob_bucket_orders_consistently() {
        for i in 0..10_000u64 {
            let u = crate::rng::unit_f64(crate::rng::mix64(i));
            let v = crate::rng::unit_f64(crate::rng::mix64(i ^ 0x1234));
            let (bu, bv) = (prob_bucket(u), prob_bucket(v));
            if bu < bv {
                assert!(u < v);
            } else if bu > bv {
                assert!(u > v);
            }
        }
        assert_eq!(prob_bucket(1.0), 255);
        assert_eq!(prob_bucket(0.0), 0);
    }

    #[test]
    fn uniform_bucket_is_the_words_top_byte() {
        // The hot sampler reads `w >> 56` where the quantizer contract
        // says `prob_bucket(unit_f64(w))`; the two must agree exactly
        // for every word (the f64 products involved are all exact
        // power-of-two scalings).
        for i in 0..200_000u64 {
            let w = crate::rng::mix64(i);
            assert_eq!((w >> 56) as u8, prob_bucket(crate::rng::unit_f64(w)));
        }
        for w in [0u64, 1, u64::MAX, u64::MAX << 11, 0xFF00_0000_0000_0000] {
            assert_eq!((w >> 56) as u8, prob_bucket(crate::rng::unit_f64(w)));
        }
    }

    #[test]
    fn decay_cuts_are_sorted_and_weakly_monotone() {
        let cuts = DecayCuts::new(CellDistribution::calibrated().decay_sigma);
        assert!(cuts.cuts.windows(2).all(|w| w[0] <= w[1]), "cut table must be sorted");
        // Weak monotonicity and strict-inequality exactness over a
        // pseudo-random sample of budget-like values.
        let mut prev_x = 0.0f64;
        let mut prev_b = cuts.bucket(prev_x);
        for i in 0..50_000u64 {
            let x =
                (0.5 * crate::rng::std_normal(crate::rng::mix64(i), crate::rng::mix64(!i))).exp();
            let b = cuts.bucket(x);
            if x >= prev_x {
                assert!(b >= prev_b || x == prev_x, "bucket must be weakly monotone");
            }
            if b > prev_b {
                assert!(x > prev_x, "strict bucket inequality must decide the comparison");
            } else if b < prev_b {
                assert!(x < prev_x);
            }
            prev_x = x;
            prev_b = b;
        }
    }

    #[test]
    fn decay_cuts_survive_degenerate_sigma() {
        // sigma == 0 collapses every cut to 1.0: bucketing stays sorted
        // and weakly monotone (everything ties, everything falls back).
        let cuts = DecayCuts::new(0.0);
        assert!(cuts.cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cuts.bucket(0.5), 0);
        assert_eq!(cuts.bucket(1.0), DECAY_CUTS as u16);
        assert_eq!(cuts.bucket(2.0), DECAY_CUTS as u16);
    }

    #[test]
    fn drv_grid_is_weakly_monotone() {
        let dist = CellDistribution::calibrated();
        let g = DrvGrid::new(&dist);
        let mut prev = g.bucket(0.0);
        let mut v = 0.0;
        while v < 0.7 {
            let b = g.bucket(v);
            assert!(b >= prev);
            prev = b;
            v += 1.37e-4;
        }
    }

    #[test]
    fn cmp_grid_matches_scalar_comparison() {
        // Build one tile's worth of synthetic bucket planes and check
        // the mask-algebra compare against a per-cell reference, at both
        // lane widths and both grid widths in use.
        fn check<const BITS: usize>() {
            let top = (1u16 << BITS) - 1;
            let mut rows = vec![0u64; BITS * TILE_WORDS];
            let mut bucket_of = vec![0u16; TILE_CELLS];
            for (cell, bucket) in bucket_of.iter_mut().enumerate() {
                // A mix of clustered and spread values, deterministic.
                let x = crate::rng::mix64(cell as u64 ^ 0xfeed);
                *bucket = if cell % 3 == 0 { 700 } else { (x as u16) & top };
                let (j, b) = (cell / 64, cell % 64);
                for r in 0..BITS {
                    rows[r * TILE_WORDS + j] |= u64::from((*bucket >> (BITS - 1 - r)) & 1) << b;
                }
            }
            for t in [0u16, 1, 699, 700, 701, top / 2, top - 1, top] {
                for j in [0usize, 4, 60] {
                    let (gt4, eq4) = cmp_grid::<4, BITS>(&rows, j, t);
                    for i in 0..4 {
                        let (gt1, eq1) = cmp_grid::<1, BITS>(&rows, j + i, t);
                        assert_eq!(gt1[0], gt4[i], "lane widths must agree (gt)");
                        assert_eq!(eq1[0], eq4[i], "lane widths must agree (eq)");
                        for b in 0..64 {
                            let c = bucket_of[(j + i) * 64 + b];
                            assert_eq!((gt4[i] >> b) & 1 == 1, c > t, "gt bit, bucket {c} vs {t}");
                            assert_eq!((eq4[i] >> b) & 1 == 1, c == t, "eq bit, bucket {c} vs {t}");
                        }
                    }
                }
            }
        }
        check::<DECAY_BITS>();
        check::<DRV_BITS>();
    }

    #[test]
    fn plane_cache_memoizes_and_evicts() {
        let cache = PlaneCache::new();
        let dist = CellDistribution::calibrated();
        let (a, a_hit) = cache.planes_for(1, 4096, &dist);
        let (b, b_hit) = cache.planes_for(1, 4096, &dist);
        assert!(Arc::ptr_eq(&a, &b), "same die must be served from cache");
        assert!(!a_hit, "first fetch builds");
        assert!(b_hit, "second fetch hits");
        let (c, c_hit) = cache.planes_for(2, 4096, &dist);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!c_hit);
        cache.clear();
    }

    #[test]
    fn concurrent_planes_for_builds_exactly_once() {
        // The 4-thread hammer: every thread asks for the same die at
        // once; the slot design must hand every caller the same Arc and
        // record exactly one build (no duplicate derivation, no torn
        // insert-last-wins rebuild).
        let dist = CellDistribution::calibrated();
        let seed = 0xA11C_E55E;
        let cache = PlaneCache::new();
        let results: Vec<(Arc<DiePlanes>, bool)> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| cache.planes_for(seed, 100_000, &dist)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hammer thread panicked"))
                .collect()
        });
        let builds = results.iter().filter(|(_, cached)| !cached).count();
        assert_eq!(builds, 1, "exactly one thread derives the die");
        for (p, _) in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].0, p), "all callers share one plane set");
        }
        cache.clear();
    }

    #[test]
    fn planes_for_survives_concurrent_clears() {
        // Hammer the cache from 4 threads while racing clears: every
        // returned plane set must still describe the requested die.
        let dist = CellDistribution::calibrated();
        let cache = PlaneCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (dist, cache) = (&dist, &cache);
                s.spawn(move || {
                    for i in 0..20u64 {
                        let bits = 1024 + 64 * ((t + i) % 3) as usize;
                        let (p, _) = cache.planes_for(0xC1EA_0000 + (t + i) % 2, bits, dist);
                        assert_eq!(p.bits(), bits, "planes must match the requested die");
                        if i % 5 == 0 {
                            cache.clear();
                        }
                    }
                });
            }
        });
        cache.clear();
    }

    /// Two private caches on one thread share no dies, no leases and
    /// no counters, and clearing one leaves the other's planes and
    /// baselines serving.
    #[test]
    fn private_caches_share_nothing() {
        use crate::{ArrayConfig, SramArray};
        let (a, b) = (PlaneCache::new(), PlaneCache::new());
        let config = ArrayConfig::with_bits("isolated", 65 * 64 + 17);
        let event = OffEvent::held_with_droop(0.8, 0.31);
        let reps = |cache: &PlaneCache, n: usize| {
            cache.enter(|| {
                let mut s = SramArray::new(config.clone(), 0x150_1A7E);
                s.power_on().unwrap();
                for _ in 0..n {
                    s.fill(0x5A).unwrap();
                    s.power_off(event).unwrap();
                    s.power_on().unwrap();
                }
                s.snapshot().unwrap()
            })
        };
        let image = reps(&a, 4);
        let (sa, da) = (a.stats(), a.delta_stats());
        assert_eq!((sa.entries, sa.baselines, sa.powerup_streams_built), (1, 1, 1));
        assert_eq!((da.baselines_built, da.delta_reps), (1, 3));
        assert_eq!(b.stats(), PlaneCacheStats::default(), "b saw none of a's dies");
        assert_eq!(b.delta_stats(), crate::delta::DeltaStats::default());
        // b builds its own die and baseline; a's thread-local lease for
        // the same (die, condition) must not serve b's reps.
        assert_eq!(reps(&b, 4), image);
        assert_eq!((b.stats().powerup_streams_built, b.delta_stats().baselines_built), (1, 1));
        assert_eq!(b.delta_stats().delta_reps, 3, "b's reps ride b's own baseline");
        assert_eq!((a.stats(), a.delta_stats()), (sa, da), "b's reps leave a's counters alone");
        b.clear();
        assert_eq!(b.stats().entries, 0);
        assert_eq!(reps(&a, 4), image);
        assert_eq!(a.stats().powerup_streams_built, 1, "a's die survived b's clear");
        assert_eq!(a.delta_stats().baselines_built, 1, "a's baseline survived b's clear");
        assert_eq!(a.delta_stats().delta_reps, 7, "and kept serving");
    }

    /// The eager oracle: every stream derived up front in one pass that
    /// derives all three quantities per cell and scatters them bit by
    /// bit into the rows — the pre-split build, unsharded. Independent
    /// of `build_powerup`/`build_buckets`/`shard_tiles`, so stream
    /// contents and resolve outputs can be held against it.
    fn eager_planes(seed: u64, bits: usize, dist: &CellDistribution) -> DiePlanes {
        let tiles = n_tiles(bits);
        let mut powerup = vec![0u64; tiles * POWERUP_ROWS * TILE_WORDS];
        let mut bias_q = vec![0u8; tiles * TILE_CELLS];
        let mut drv = vec![0u64; tiles * DRV_BITS * TILE_WORDS];
        let mut decay = vec![0u64; tiles * DECAY_BITS * TILE_WORDS];
        let (grid, cuts) = (DrvGrid::new(dist), DecayCuts::new(dist.decay_sigma));
        for (cell, bias_q) in bias_q[..bits].iter_mut().enumerate() {
            let (t, j, b) = (cell / TILE_CELLS, cell / 64 % TILE_WORDS, cell % 64);
            let (kind, bias) = derive_powerup(seed, cell, dist);
            let row = match kind {
                PowerUpKind::Strong0 => None,
                PowerUpKind::Strong1 => Some(STRONG1_ROW),
                PowerUpKind::Metastable => Some(META_ROW),
            };
            if let Some(r) = row {
                powerup[(t * POWERUP_ROWS + r) * TILE_WORDS + j] |= 1 << b;
            }
            *bias_q = prob_bucket(bias);
            let vq = grid.bucket(derive_drv(seed, cell, dist));
            for r in 0..DRV_BITS {
                drv[(t * DRV_BITS + r) * TILE_WORDS + j] |=
                    u64::from((vq >> (DRV_BITS - 1 - r)) & 1) << b;
            }
            let dq = cuts.bucket(derive_decay_budget(seed, cell, dist));
            for r in 0..DECAY_BITS {
                decay[(t * DECAY_BITS + r) * TILE_WORDS + j] |=
                    u64::from((dq >> (DECAY_BITS - 1 - r)) & 1) << b;
            }
        }
        DiePlanes {
            seed,
            bits,
            dist: *dist,
            powerup: PowerUpStream { rows: TileRows { words: powerup }, bias_q },
            drv: OnceLock::from(TileRows { words: drv }),
            decay: OnceLock::from(DecayStream { rows: TileRows { words: decay }, cuts }),
            builds: Arc::default(),
        }
    }

    /// Whether the DRV and decay streams of `planes` have been built.
    fn built(planes: &DiePlanes) -> (bool, bool) {
        (planes.drv.get().is_some(), planes.decay.get().is_some())
    }

    fn assert_streams_match_eager(seed: u64, bits: usize, dist: &CellDistribution) {
        let lazy = DiePlanes::build(seed, bits, dist, Arc::default());
        let eager = eager_planes(seed, bits, dist);
        assert_eq!(built(&lazy), (false, false), "a fresh die derives only its power-up stream");
        assert!(lazy.powerup.rows.words == eager.powerup.rows.words, "{bits}: power-up rows");
        assert!(lazy.powerup.bias_q == eager.powerup.bias_q, "{bits}: bias plane");
        assert!(lazy.drv().words == eager.drv().words, "{bits}: DRV rows");
        assert!(lazy.decay().rows.words == eager.decay().rows.words, "{bits}: decay rows");
        assert!(lazy.decay().cuts.cuts == eager.decay().cuts.cuts, "{bits}: cut table");
    }

    #[test]
    fn lazy_streams_match_the_eager_oracle() {
        let dist = CellDistribution::calibrated();
        for bits in [0usize, 1, 63, 64, 65, 4095, 4096, 4097, 3 * TILE_CELLS + 130] {
            assert_streams_match_eager(0x1A2E ^ bits as u64, bits, &dist);
        }
        // Large enough to shard the build across threads (uneven last
        // shard, ragged last word).
        par::with_budget(3, || assert_streams_match_eager(0x5AAD, PAR_MIN_BITS + 4097 + 65, &dist));
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Held at or above `drv_max`: every cell passes the DRV check.
        HeldAbove(f64),
        /// Held with a droop strictly between `drv_min` and `drv_max`.
        HeldDroop(f64),
        /// Held below `drv_min`: every cell is lost.
        HeldBelow(f64),
        /// Unpowered with the given (positive) stress.
        Unpowered(f64),
        /// Unpowered with stress beyond every possible budget.
        UnpoweredHuge,
    }

    impl Step {
        /// Step `kind` (0..5, in declaration order) at position `x` in
        /// `[0, 1)` of its voltage or stress range.
        fn new(kind: usize, x: f64, dist: &CellDistribution) -> Self {
            let (lo, hi) = (dist.drv_min, dist.drv_max);
            match kind {
                0 => Step::HeldAbove(hi + 0.3 * x),
                1 => Step::HeldDroop(lo + (0.001 + 0.998 * x) * (hi - lo)),
                2 => Step::HeldBelow(lo * x - 1e-3),
                3 => Step::Unpowered(0.01 + 3.0 * x),
                _ => Step::UnpoweredHuge,
            }
        }

        fn query(self, dist: &CellDistribution) -> (OffEvent, f64) {
            match self {
                Step::HeldAbove(v) | Step::HeldDroop(v) | Step::HeldBelow(v) => {
                    (OffEvent::held_with_droop(dist.drv_max + 0.2, v), 0.0)
                }
                Step::Unpowered(stress) => (OffEvent::Unpowered, stress),
                Step::UnpoweredHuge => (OffEvent::Unpowered, f64::INFINITY),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Lazy planes resolve every query bit-identically to the eager
        /// oracle, at both lane widths and through the baseline scan,
        /// and build a bucket stream only when a query consults it.
        #[test]
        fn lazy_planes_resolve_like_eager(
            seed in proptest::prelude::any::<u64>(),
            bits in 1usize..(3 * TILE_CELLS + 200),
            metastable in 0.0f64..0.8,
            decay_sigma in 0.05f64..1.2,
            fill in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec((0usize..5, 0.0f64..1.0), 1..6),
        ) {
            let dist = CellDistribution {
                metastable_fraction: metastable,
                decay_sigma,
                ..CellDistribution::calibrated()
            };
            let lazy = Arc::new(DiePlanes::build(seed, bits, &dist, Arc::default()));
            let eager = Arc::new(eager_planes(seed, bits, &dist));
            let mut start = PackedBits::zeros(bits);
            for (w, word) in start.words_mut().iter_mut().enumerate() {
                *word = crate::rng::mix64(fill ^ w as u64) & valid_mask(bits, w);
            }
            let (mut need_drv, mut need_decay) = (false, false);
            for (event_id, (kind, x)) in picks.into_iter().enumerate() {
                let step = Step::new(kind, x, &dist);
                need_drv |= matches!(step, Step::HeldDroop(_));
                need_decay |= matches!(step, Step::Unpowered(_));
                let (event, stress) = step.query(&dist);
                let mut want = start.clone();
                let r_want = resolve(&mut want, &eager, event, stress, event_id as u64);
                for wide in [true, false] {
                    let mut got = start.clone();
                    let kernel = if wide { resolve } else { resolve_word };
                    let r_got = kernel(&mut got, &lazy, event, stress, event_id as u64);
                    proptest::prop_assert_eq!(r_got, r_want, "{:?} wide={}", step, wide);
                    proptest::prop_assert!(got == want, "{:?} wide={}: images differ", step, wide);
                }
                let b_lazy = build_baseline(&lazy, event, stress);
                let b_eager = build_baseline(&eager, event, stress);
                proptest::prop_assert_eq!(b_lazy.hot_words(), b_eager.hot_words());
                proptest::prop_assert_eq!(built(&lazy), (need_drv, need_decay), "after {:?}", step);
            }
        }
    }

    #[test]
    fn first_stream_requests_build_exactly_once() {
        // A private instance with its own build counters: four threads
        // ask for each lazy stream at once and it is derived once.
        let dist = CellDistribution::calibrated();
        let builds = Arc::<StreamBuilds>::default();
        let planes = DiePlanes::build(0xB0B, 100_000, &dist, builds.clone());
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    planes.drv();
                    barrier.wait();
                    planes.decay();
                });
            }
        });
        assert_eq!(builds.drv.load(Ordering::Relaxed), 1, "exactly one DRV build");
        assert_eq!(builds.decay.load(Ordering::Relaxed), 1, "exactly one decay build");
    }

    #[test]
    fn poisoned_cache_lock_is_recovered() {
        let cache = PlaneCache::new();
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = cache.lock();
            panic!("poison the plane cache lock");
        });
        assert!(poisoned.is_err());
        assert!(cache.0.state.is_poisoned());
        let dist = CellDistribution::calibrated();
        let (planes, _) = cache.planes_for(0x9015, 4096, &dist);
        assert_eq!(planes.bits(), 4096);
        let _ = cache.stats();
        cache.clear();
    }

    #[test]
    fn resolution_workers_is_one_below_threshold() {
        // Tiny and mid-sized arrays never fan out, at any budget.
        for bits in [64usize, 4096, 1 << 20, 1 << 21, PAR_MIN_BITS - 1] {
            assert_eq!(resolution_workers(bits), 1, "{bits} bits must stay single-threaded");
        }
        par::with_budget(1, || {
            assert_eq!(resolution_workers(PAR_MIN_BITS * 4), 1, "budget 1 never fans out");
        });
    }
}
