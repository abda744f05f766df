//! Rep-delta campaign equivalence: a sweep that rides the sparse
//! resolution path (`voltboot_sram::delta`) must produce reports,
//! checkpoints, and resumed reports **byte-identical** to the dense
//! path — sequentially, at t ∈ {1, 2, 4}, across kill/resume, and
//! across shard merges — with fault injection enabled throughout.
//!
//! The victim pins one die seed across reps (the million-rep sweep
//! shape): rep 1 resolves dense and notes the condition, rep 2 settles
//! the baseline, later reps apply it. Brown-out faulted reps resolve
//! under perturbed conditions (fresh keys) and fall back to the dense
//! path — byte-identical either way is exactly the claim under test.
//!
//! Every test runs on its own plane caches — dense references under a
//! [`PlaneCache::dense`], delta runs under a private [`PlaneCache::new`]
//! — so the tests share no dies, baselines or counters.

use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{merge_shards, Campaign, RetryPolicy, RunPlan, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, Soc};
use voltboot_sram::{delta, plane_cache_stats, PlaneCache};

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

fn make(fault_seed: u64, reps: u64) -> Campaign {
    Campaign::new(
        VoltBootAttack::new("TP15").passes(3),
        FaultPlan::new(fault_seed, FaultRates::uniform(0.25)),
        reps,
    )
    .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("voltboot_test_delta_{tag}_{}.checkpoint", std::process::id()))
}

/// One physical die across all reps — the sweep shape the delta path
/// exists for.
fn victim(_rep: u64) -> Soc {
    prepared_pi4(0xD1E_C0DE)
}

#[test]
fn delta_campaigns_byte_match_full_campaigns_at_every_thread_count() {
    let campaign = make(77, 6);
    let want = PlaneCache::dense().enter(|| campaign.run(victim).to_json());

    let cache = PlaneCache::new();
    cache.enter(|| {
        let seq = campaign.run(victim).to_json();
        assert_eq!(seq, want, "sequential delta report");
        let reps_used = cache.delta_stats().delta_reps;
        assert!(reps_used > 0, "the fixed-die sweep must actually ride the delta path");

        for threads in [1usize, 2, 4] {
            let got = campaign.run_parallel(threads, victim).to_json();
            assert_eq!(got, want, "{threads}-thread delta report");
        }
    });
}

#[test]
fn delta_checkpoints_resumes_and_shards_byte_match_full_campaigns() {
    let campaign = make(77, 6);

    // ---- Dense references. ----
    let p_off = temp("off");
    let (want, want_cp) = PlaneCache::dense().enter(|| {
        let want = campaign.run(victim).to_json();
        campaign.execute(&RunPlan::new().checkpoint(&p_off).stop_after(3), victim).unwrap();
        let want_cp = std::fs::read_to_string(&p_off).unwrap();
        let resumed_off =
            campaign.execute(&RunPlan::new().continue_from(&p_off), victim).unwrap().to_json();
        assert_eq!(resumed_off, want, "dense kill/resume must reproduce the dense report");
        (want, want_cp)
    });

    // ---- Delta on: every execution shape must byte-match. ----
    let (p_on, lo, hi) = (temp("on"), temp("lo"), temp("hi"));
    PlaneCache::new().enter(|| {
        // Kill at rep 3, byte-compare the checkpoint itself, then resume
        // under a different thread count.
        campaign.execute(&RunPlan::new().checkpoint(&p_on).stop_after(3), victim).unwrap();
        let got_cp = std::fs::read_to_string(&p_on).unwrap();
        assert_eq!(got_cp, want_cp, "delta-path checkpoint must byte-match the dense checkpoint");
        let resume = RunPlan::new().threads(2).continue_from(&p_on);
        let resumed_on = campaign.execute(&resume, victim).unwrap().to_json();
        assert_eq!(resumed_on, want, "delta kill/resume across thread counts");

        // Shard halves (separate checkpoints, as separate processes
        // would write them) merged back — still byte-identical to dense
        // sequential.
        let shard = |start, end| RunPlan::new().threads(2).range(ShardRange { start, end });
        campaign.execute(&shard(0, 3).checkpoint(&lo), victim).unwrap();
        campaign.execute(&shard(3, 6).checkpoint(&hi), victim).unwrap();
        let merged = merge_shards(&[&lo, &hi]).unwrap();
        assert_eq!(merged.to_json(), want, "delta shard merge must byte-match dense sequential");
    });

    for p in [p_off, p_on, lo, hi] {
        std::fs::remove_file(p).ok();
    }
}

/// A parallel campaign entered on a private cache keeps all of its
/// plane builds and delta reps there: its workers and their per-array
/// fan-out never fall back to the process-default cache.
#[test]
fn parallel_campaign_stays_on_the_entered_cache() {
    let campaign = make(77, 6);
    let default_before = (plane_cache_stats(), delta::stats());
    let cache = PlaneCache::new();
    cache.enter(|| campaign.run_parallel(2, victim));
    let stats = cache.stats();
    assert!(stats.entries > 0, "the campaign's dies live in the private cache");
    assert_eq!(stats.powerup_streams_built, stats.entries as u64, "every die built once, there");
    assert!(cache.delta_stats().delta_reps > 0, "its delta reps are counted there");
    assert_eq!(
        (plane_cache_stats(), delta::stats()),
        default_before,
        "the default cache saw nothing"
    );
}
