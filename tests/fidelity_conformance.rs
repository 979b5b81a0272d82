//! Fidelity-ladder conformance: for every module family the tier-A
//! (analytic) and tier-B (regressed-from-siblings) answers must track the
//! tier-C characterized oracle within the documented error bounds, and
//! the background upgrade path must flip a repeated request's `fidelity`
//! label to `full` without spending a second characterization.
//!
//! The documented bounds (see `docs/engine.md` § "The fidelity ladder"):
//!
//! * **tier A** — a structural closed-form estimate, calibrated per
//!   family; within a *factor of two* of the oracle charge.
//! * **tier B** — §5 regression over characterized sibling widths;
//!   within *20 %* of the oracle charge when interpolating a width
//!   between characterized siblings. Exception: `GfMultiplier`, whose
//!   cost depends on the irreducible reduction polynomial and is
//!   irregular in the width — the eq. 6–10 complexity features cannot
//!   interpolate it, so its tier-B answer is only held to the same
//!   factor-of-two bound as tier A.
//!
//! The cold-start test below is the PR's acceptance criterion: a never-
//! characterized spec answers in under a millisecond with a non-full
//! fidelity label, then upgrades to full in the background.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdpm_core::prelude::*;
use hdpm_core::{
    analytic_model, CacheSource, Fidelity, ShardingConfig, TraceCtx, ANALYTIC_CONFIDENCE,
};
use hdpm_datamodel::HdDistribution;
use hdpm_netlist::{ModuleKind, ModuleSpec};

/// Same configuration the tier-A κ table was calibrated against
/// (1500 patterns, 4 shards), so the analytic bound is meaningful.
fn quick_engine() -> Arc<PowerEngine> {
    Arc::new(PowerEngine::new(EngineOptions {
        config: CharacterizationConfig {
            max_patterns: 1500,
            ..CharacterizationConfig::default()
        },
        sharding: Some(ShardingConfig {
            shards: 4,
            threads: 1,
        }),
        disk_root: None,
        capacity: 64,
    }))
}

/// Uniform 0.5-activity input distribution sized for `spec`.
fn flat_dist(spec: ModuleSpec) -> HdDistribution {
    let m = spec.kind.input_bits(spec.width);
    HdDistribution::from_bit_activities(&vec![0.5; m])
}

/// Block until `n` background upgrades have completed.
fn await_upgrades(engine: &PowerEngine, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.stats().upgrades_done < n {
        assert!(
            Instant::now() < deadline,
            "background upgrade never completed: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Every family serves an instant tier-A answer on a stone-cold engine:
/// positive charge, labeled `analytic`, carrying the documented prior
/// confidence.
#[test]
fn every_family_answers_instantly_at_tier_a() {
    for kind in ModuleKind::ALL {
        let engine = quick_engine();
        let spec = ModuleSpec::new(kind, 6usize);
        let estimate = engine
            .estimate_at(
                spec,
                &flat_dist(spec),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(estimate.fidelity, Fidelity::Analytic, "{kind:?}");
        assert_eq!(estimate.source, CacheSource::Analytic, "{kind:?}");
        assert_eq!(estimate.confidence, ANALYTIC_CONFIDENCE, "{kind:?}");
        assert!(
            estimate.charge_per_cycle > 0.0,
            "{kind:?}: non-positive analytic charge"
        );
    }
}

/// The conformance sweep proper: characterize widths 4, 8 and 10 of each
/// family as siblings (three prototypes — enough for the three-feature
/// multiplier families), then compare the tier-A and tier-B answers for
/// the uncharacterized width 6 against its characterized oracle.
#[test]
fn tier_a_and_b_track_the_oracle_within_documented_bounds() {
    for kind in ModuleKind::ALL {
        let engine = quick_engine();
        for width in [4usize, 8, 10] {
            engine
                .model(ModuleSpec::new(kind, width))
                .unwrap_or_else(|e| panic!("{kind:?}: seed sibling: {e}"));
        }

        let spec = ModuleSpec::new(kind, 6usize);
        let dist = flat_dist(spec);

        // Tier B must be served *before* the oracle characterizes width 6,
        // or the memory tier would answer at full fidelity.
        let tier_b = engine
            .estimate_at(spec, &dist, Fidelity::Regressed, &mut TraceCtx::disabled())
            .unwrap_or_else(|e| panic!("{kind:?}: tier B: {e}"));
        assert_eq!(tier_b.fidelity, Fidelity::Regressed, "{kind:?}");
        assert_eq!(tier_b.source, CacheSource::Regressed, "{kind:?}");
        assert!(
            tier_b.confidence > 0.0 && tier_b.confidence <= 1.0,
            "{kind:?}: tier-B confidence {} out of range",
            tier_b.confidence
        );

        let tier_a = analytic_model(spec)
            .and_then(|m| m.estimate_distribution(&dist))
            .unwrap_or_else(|e| panic!("{kind:?}: tier A: {e}"));

        let oracle = engine
            .estimate(spec, &dist)
            .unwrap_or_else(|e| panic!("{kind:?}: oracle: {e}"));
        assert_eq!(oracle.fidelity, Fidelity::Full, "{kind:?}");
        assert!(oracle.charge_per_cycle > 0.0, "{kind:?}");

        let a_ratio = tier_a / oracle.charge_per_cycle;
        assert!(
            (0.5..=2.0).contains(&a_ratio),
            "{kind:?}: tier-A charge {tier_a:.3} is {a_ratio:.2}x the oracle {:.3}",
            oracle.charge_per_cycle
        );

        let b_error =
            (tier_b.charge_per_cycle - oracle.charge_per_cycle).abs() / oracle.charge_per_cycle;
        // GF(2^m) multiplier complexity is irregular in m (it tracks the
        // reduction polynomial, not the width), so the §5 features cannot
        // interpolate it — held to the tier-A bound instead.
        let b_bound = if kind == ModuleKind::GfMultiplier {
            1.0
        } else {
            0.20
        };
        assert!(
            b_error <= b_bound,
            "{kind:?}: tier-B charge {:.3} is {:.1}% off the oracle {:.3}",
            tier_b.charge_per_cycle,
            b_error * 100.0,
            oracle.charge_per_cycle
        );
    }
}

/// A low-fidelity serve enqueues a background upgrade; once it lands, the
/// same request is answered at full fidelity from the cache — the label
/// flips without a second characterization.
#[test]
fn background_upgrade_flips_the_label_without_a_second_characterization() {
    let engine = quick_engine();
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 12usize);
    let dist = flat_dist(spec);

    let first = engine
        .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
        .unwrap();
    assert_eq!(first.fidelity, Fidelity::Analytic);

    await_upgrades(&engine, 1);
    let second = engine
        .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
        .unwrap();
    assert_eq!(second.fidelity, Fidelity::Full);
    assert_eq!(second.source, CacheSource::Memory);
    assert_eq!(second.confidence, 1.0);
    assert_eq!(
        engine.stats().characterizations,
        1,
        "upgrade must not re-characterize: {:?}",
        engine.stats()
    );
}

/// Acceptance criterion: a cold `estimate` for a never-characterized spec
/// replies in under a millisecond with a non-full fidelity label. The
/// distribution is built outside the timed region; the minimum over a few
/// fresh engines filters scheduler noise.
#[test]
fn cold_estimate_answers_under_a_millisecond() {
    let mut best = Duration::MAX;
    for width in [16usize, 18, 20] {
        let engine = quick_engine();
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, width);
        let dist = flat_dist(spec);
        let start = Instant::now();
        let estimate = engine
            .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
            .unwrap();
        let elapsed = start.elapsed();
        assert_ne!(estimate.fidelity, Fidelity::Full, "width {width}");
        assert!(estimate.charge_per_cycle > 0.0, "width {width}");
        best = best.min(elapsed);
    }
    assert!(
        best < Duration::from_millis(1),
        "cold tier-A estimate took {best:?} (acceptance bar: < 1 ms)"
    );
}
