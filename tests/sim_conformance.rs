//! Differential conformance suite for the bit-parallel simulation core.
//!
//! The contract (docs/simulation.md): the bit-plane engine is
//! **bit-identical** to the event-driven oracle — not statistically close,
//! but equal in every `f64` of every per-class charge table, under both
//! delay models, for every module family, and for both the sequential and
//! the sharded characterization drivers at any thread count. Everything
//! here compares with full structural equality; there are no tolerances.
//!
//! Layout:
//!  * cycle-level differential checks ([`assert_backends_agree`]) over
//!    random stimulus, including ragged tails and masked-lane edge cases;
//!  * characterization-level differential proptests: random family ×
//!    width × pattern budget × seed, sequential and sharded;
//!  * the full 14-family matrix across threads {1, 2, 4, 8} (the MAC
//!    exercises the register fallback path);
//!  * golden per-class charge-table fixtures
//!    (`tests/fixtures/charge_tables_*.json`) replayed under *both*
//!    backends, and byte-for-byte via the CLI in the CI sim-conformance
//!    job.

use hdpm_suite::core::test_support::{build_module, quick_config, ALL_FAMILIES, PROPERTY_FAMILIES};
use hdpm_suite::core::{
    characterize_with_backend, Characterization, CharacterizationConfig, ShardingConfig,
    SimBackend, StimulusKind,
};
use hdpm_suite::netlist::ModuleKind;
use hdpm_suite::sim::{assert_backends_agree, random_patterns, BitPattern, DelayModel, Simulator};
use proptest::prelude::*;

// --- Cycle-level conformance: raw engine output, both delay models. ---

#[test]
fn cycle_results_agree_for_every_combinational_family() {
    for kind in ALL_FAMILIES {
        let netlist = build_module(kind, 4);
        if netlist.netlist().register_count() > 0 {
            continue; // registered netlists are oracle-only
        }
        for delay in [DelayModel::Unit, DelayModel::Zero] {
            let patterns = random_patterns(netlist.netlist().input_bit_count(), 300, 7);
            assert_backends_agree(&netlist, &patterns, delay);
        }
    }
}

#[test]
fn ragged_tail_budgets_agree() {
    // Pattern counts straddling the 64-lane block size: tails occupy only
    // the low lanes and the spare lanes must charge nothing.
    let netlist = build_module(ModuleKind::CsaMultiplier, 4);
    let m = netlist.netlist().input_bit_count();
    for n in [1usize, 2, 3, 63, 64, 65, 66, 127, 128, 129, 193] {
        let patterns = random_patterns(m, n, n as u64);
        assert_backends_agree(&netlist, &patterns, DelayModel::Unit);
    }
}

#[test]
fn single_transition_runs_agree() {
    // The smallest charged run: one initializing pattern, one transition
    // — a single active lane in a single block.
    let netlist = build_module(ModuleKind::ClaAdder, 6);
    let m = netlist.netlist().input_bit_count();
    for seed in 0..16u64 {
        let patterns = random_patterns(m, 2, seed);
        assert_backends_agree(&netlist, &patterns, DelayModel::Unit);
    }
}

#[test]
fn zero_activity_nets_charge_nothing_in_both_backends() {
    // Hold the low input bit constant: its cone's nets that depend only
    // on it never toggle, and both engines must agree that they did not
    // — per-net toggle counts are compared exactly.
    let netlist = build_module(ModuleKind::RippleAdder, 4);
    let m = netlist.netlist().input_bit_count();
    let patterns: Vec<BitPattern> = random_patterns(m, 200, 11)
        .into_iter()
        .map(|p| BitPattern::new(p.bits() & !1, m))
        .collect();
    let results = assert_backends_agree(&netlist, &patterns, DelayModel::Unit);
    assert_eq!(results.len(), 199);

    // The input net for bit 0 never toggled in the oracle either.
    let mut oracle = Simulator::new(&netlist);
    for &p in &patterns {
        oracle.apply(p);
    }
    let toggles = oracle.toggle_counts();
    let zero_nets = toggles.iter().filter(|&&t| t == 0).count();
    assert!(
        zero_nets > 0,
        "expected at least one quiet net with bit 0 held constant"
    );
}

#[test]
fn identical_consecutive_patterns_charge_exactly_zero() {
    let netlist = build_module(ModuleKind::BarrelShifter, 4);
    let m = netlist.netlist().input_bit_count();
    let one = random_patterns(m, 1, 3)[0];
    let patterns = vec![one; 130]; // two full blocks plus a tail
    let results = assert_backends_agree(&netlist, &patterns, DelayModel::Unit);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.charge, 0.0, "transition {i}");
        assert_eq!(r.toggles, 0, "transition {i}");
    }
}

// --- Characterization-level differential proptests. ---

fn any_family() -> impl Strategy<Value = ModuleKind> {
    (0..PROPERTY_FAMILIES.len()).prop_map(|i| PROPERTY_FAMILIES[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn charge_tables_are_bit_identical_sequentially(
        kind in any_family(),
        width in 2usize..=6,
        budget in 2usize..=400,
        seed in any::<u64>(),
    ) {
        let netlist = build_module(kind, width);
        let config = CharacterizationConfig {
            max_patterns: budget,
            seed,
            ..quick_config(budget)
        };
        let event = characterize_with_backend(&netlist, &config, &ShardingConfig::SEQUENTIAL, SimBackend::Event);
        let bitplane = characterize_with_backend(&netlist, &config, &ShardingConfig::SEQUENTIAL, SimBackend::Bitplane);
        // Tiny budgets can be structured errors — but then both backends
        // must fail identically too.
        match (event, bitplane) {
            (Ok(e), Ok(b)) => prop_assert_eq!(e, b),
            (Err(e), Err(b)) => prop_assert_eq!(e.to_string(), b.to_string()),
            (e, b) => prop_assert!(false, "backends disagree on success: {e:?} vs {b:?}"),
        }
    }

    #[test]
    fn charge_tables_are_bit_identical_when_sharded(
        kind in any_family(),
        budget in 64usize..=600,
        seed in any::<u64>(),
        shards in 1usize..=6,
    ) {
        let netlist = build_module(kind, 4);
        let config = CharacterizationConfig {
            max_patterns: budget,
            seed,
            ..quick_config(budget)
        };
        let sharding = ShardingConfig { shards, threads: 2 };
        let event =
            characterize_with_backend(&netlist, &config, &sharding, SimBackend::Event)
                .unwrap();
        let bitplane =
            characterize_with_backend(&netlist, &config, &sharding, SimBackend::Bitplane)
                .unwrap();
        prop_assert_eq!(event, bitplane);
    }

    #[test]
    fn stimulus_kinds_never_split_the_backends(
        seed in any::<u64>(),
    ) {
        let netlist = build_module(ModuleKind::Subtractor, 4);
        for stimulus in [
            StimulusKind::UniformRandom,
            StimulusKind::SignalProbSweep,
            StimulusKind::UniformHd,
        ] {
            let config = CharacterizationConfig {
                max_patterns: 500,
                seed,
                stimulus,
                ..quick_config(500)
            };
            let event = characterize_with_backend(&netlist, &config, &ShardingConfig::SEQUENTIAL, SimBackend::Event).unwrap();
            let bitplane =
                characterize_with_backend(&netlist, &config, &ShardingConfig::SEQUENTIAL, SimBackend::Bitplane).unwrap();
            prop_assert_eq!(event, bitplane, "{:?}", stimulus);
        }
    }
}

// --- The 14-family × {1, 2, 4, 8}-thread differential matrix. ---

#[test]
fn every_family_agrees_across_backends_and_thread_counts() {
    for kind in ALL_FAMILIES {
        let netlist = build_module(kind, 4);
        let config = quick_config(640);
        let sequential_event = characterize_with_backend(
            &netlist,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Event,
        )
        .unwrap();
        let sequential_bitplane = characterize_with_backend(
            &netlist,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Bitplane,
        )
        .unwrap();
        assert_eq!(
            sequential_event, sequential_bitplane,
            "{kind} diverges sequentially"
        );
        for threads in [1usize, 2, 4, 8] {
            let sharding = ShardingConfig { shards: 4, threads };
            let event =
                characterize_with_backend(&netlist, &config, &sharding, SimBackend::Event).unwrap();
            let bitplane =
                characterize_with_backend(&netlist, &config, &sharding, SimBackend::Bitplane)
                    .unwrap();
            assert_eq!(event, bitplane, "{kind} diverges at {threads} threads");
        }
    }
}

#[test]
fn convergence_stops_are_backend_invariant() {
    // Early convergence can stop the bit-plane driver mid-block; the
    // discarded lanes must not leak into the result. Checkpoints at 100
    // patterns are deliberately lane-unaligned.
    let netlist = build_module(ModuleKind::Incrementer, 6);
    let config = CharacterizationConfig {
        max_patterns: 20_000,
        check_interval: 100,
        convergence_tol: 0.05,
        ..CharacterizationConfig::default()
    };
    let event = characterize_with_backend(
        &netlist,
        &config,
        &ShardingConfig::SEQUENTIAL,
        SimBackend::Event,
    )
    .unwrap();
    let bitplane = characterize_with_backend(
        &netlist,
        &config,
        &ShardingConfig::SEQUENTIAL,
        SimBackend::Bitplane,
    )
    .unwrap();
    assert_eq!(event.converged_after, bitplane.converged_after);
    assert!(
        event.converged_after.is_some(),
        "test needs an early stop to be meaningful; history: {:?}",
        event.history
    );
    assert_eq!(event, bitplane);
}

// --- Golden per-class charge-table fixtures. ---

/// Reproduce a fixture generated by
/// `hdpm characterize --shards 0 --patterns <n> --sim-backend <b> --out …`
/// under *both* backends and compare with full structural equality.
fn assert_matches_charge_table(kind: ModuleKind, width: usize, patterns: usize, fixture: &str) {
    let golden: Characterization =
        serde_json::from_str(fixture).expect("fixture parses as a Characterization");
    let netlist = build_module(kind, width);
    let config = CharacterizationConfig {
        max_patterns: patterns,
        ..CharacterizationConfig::default()
    };
    for backend in [SimBackend::Event, SimBackend::Bitplane] {
        let fresh =
            characterize_with_backend(&netlist, &config, &ShardingConfig::SEQUENTIAL, backend)
                .unwrap();
        assert_eq!(
            golden, fresh,
            "{kind} width {width}: {backend} backend drifted from the pinned charge tables"
        );
    }
}

#[test]
fn cla_adder_8_matches_golden_charge_tables() {
    assert_matches_charge_table(
        ModuleKind::ClaAdder,
        8,
        2000,
        include_str!("fixtures/charge_tables_cla_adder_8.json"),
    );
}

#[test]
fn booth_wallace_6_matches_golden_charge_tables() {
    assert_matches_charge_table(
        ModuleKind::BoothWallaceMultiplier,
        6,
        1500,
        include_str!("fixtures/charge_tables_booth_wallace_6.json"),
    );
}

#[test]
fn mac_4_matches_golden_charge_tables() {
    // The MAC has registers: both requested backends take the
    // event-driven fallback and must still pin the same tables.
    assert_matches_charge_table(
        ModuleKind::Mac,
        4,
        1200,
        include_str!("fixtures/charge_tables_mac_4.json"),
    );
}

#[test]
fn backend_parses_and_resolves() {
    assert_eq!("event".parse::<SimBackend>().unwrap(), SimBackend::Event);
    assert_eq!(
        "bit-plane".parse::<SimBackend>().unwrap(),
        SimBackend::Bitplane
    );
    assert_eq!(
        SimBackend::resolve(Some(SimBackend::Event)),
        SimBackend::Event
    );
}
