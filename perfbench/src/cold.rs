//! One cold-ladder pass: a fresh server on an empty model store walks
//! the seeded ladder (instant tier answer, then full fidelity), restarts
//! on the same store and answers every rung from disk, then checks that
//! v1 and v2 agree with the reference on the warm set.

use std::path::Path;
use std::time::{Duration, Instant};

use hdpm_core::Fidelity;
use hdpm_server::client::{Proto, StatsAnswer};
use hdpm_server::Server;

use crate::harness::{connect, start_server, Answer, Ledger};
use crate::inputs::Plan;
use crate::reference::Reference;

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Per rung: request sent → tier-A/B reply.
    pub first_us: Vec<f64>,
    /// Per rung: first request sent → full-fidelity reply.
    pub full_ms: Vec<f64>,
    /// Per rung, after the restart: request sent → reply from disk.
    pub restart_us: Vec<f64>,
    /// Engine counters after the ladder, and after the restart phase.
    pub cold_stats: StatsAnswer,
    pub restart_stats: StatsAnswer,
    pub ledger: Ledger,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run one pass on a fresh store at `store`. Returns the restarted,
/// fully warm server alongside the measurements.
pub fn pass(plan: &Plan, reference: &Reference, store: &Path) -> Result<(Pass, Server), String> {
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("clear {}: {e}", store.display()))?;
    }
    std::fs::create_dir_all(store).map_err(|e| format!("create {}: {e}", store.display()))?;
    let mut pass = Pass::default();
    let ledger = &mut pass.ledger;
    let rungs = plan.ladder.len() as u64;

    let server = start_server(store)?;
    let mut client = connect(server.local_addr(), Proto::V2)?;
    let expected_answers = reference.ladder.iter().zip(&reference.ladder_tier);
    for (rung, (expected, tier)) in plan.ladder.iter().zip(expected_answers) {
        let started = Instant::now();
        let Ok(first) = ledger.estimate(&mut client, &rung.key.request(Some(Fidelity::Analytic)))
        else {
            continue;
        };
        pass.first_us.push(micros(started.elapsed()));
        let Ok(full) = ledger.estimate(&mut client, &rung.key.request(Some(Fidelity::Full))) else {
            continue;
        };
        pass.full_ms.push(started.elapsed().as_secs_f64() * 1e3);
        // Tier A is the same closed form in-process and served; a tier-B
        // fit may sum its siblings in another order.
        let tolerance = match rung.first_tier {
            Fidelity::Regressed => 1e-9 * tier.abs(),
            _ => 0.0,
        };
        ledger.gate(
            first.fidelity == rung.first_tier && (first.charge_per_cycle - tier).abs() <= tolerance,
            || {
                format!(
                    "{}: first answer {} at {} (source {}), expected {tier} at {}",
                    rung.key.spec,
                    first.charge_per_cycle,
                    first.fidelity,
                    first.source,
                    rung.first_tier
                )
            },
        );
        ledger.gate(
            full.fidelity == Fidelity::Full && Answer::of(&full).same_bits(expected),
            || {
                format!(
                    "{}: full answer {full:?} != reference {expected:?}",
                    rung.key.spec
                )
            },
        );
    }
    // Upgrades finish just after the full answers they coalesced with.
    let patience = Instant::now() + Duration::from_secs(30);
    while server.engine().pending_upgrades() > 0 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    if let Ok(stats) = ledger.stats(&mut client) {
        pass.cold_stats = stats;
    }
    let cold = pass.cold_stats;
    let tier_b = plan
        .ladder
        .iter()
        .filter(|r| r.first_tier == Fidelity::Regressed)
        .count() as u64;
    ledger.gate(
        cold.characterizations == rungs
            && cold.upgrades_done == rungs
            && cold.regressed_served == tier_b
            && cold.analytic_served == rungs - tier_b,
        || format!("cold pass counters off for {rungs} rungs ({tier_b} tier B): {cold:?}"),
    );
    drop(client);
    server.shutdown();

    let server = start_server(store)?;
    let mut client = connect(server.local_addr(), Proto::V2)?;
    for (rung, expected) in plan.ladder.iter().zip(&reference.ladder) {
        let started = Instant::now();
        let Ok(answer) = ledger.estimate(&mut client, &rung.key.request(Some(Fidelity::Full)))
        else {
            continue;
        };
        pass.restart_us.push(micros(started.elapsed()));
        ledger.gate(
            answer.fidelity == Fidelity::Full
                && answer.source == "disk"
                && Answer::of(&answer).same_bits(expected),
            || {
                format!(
                    "{}: restart answer {answer:?} != reference {expected:?}",
                    rung.key.spec
                )
            },
        );
    }
    if let Ok(stats) = ledger.stats(&mut client) {
        pass.restart_stats = stats;
    }
    let restart = pass.restart_stats;
    ledger.gate(
        restart.disk_hits == rungs && restart.characterizations == 0,
        || format!("restart counters off for {rungs} rungs: {restart:?}"),
    );
    drop(client);

    // Both protocols must agree with the reference on the warm set.
    let mut v1 = connect(server.local_addr(), Proto::V1)?;
    let mut v2 = connect(server.local_addr(), Proto::V2)?;
    for (key, expected) in plan.warm.iter().zip(&reference.warm) {
        let request = key.request(None);
        let answers = [
            ledger.estimate(&mut v1, &request),
            ledger.estimate(&mut v2, &request),
        ];
        ledger.gate(
            answers.iter().all(|a| {
                a.as_ref().is_ok_and(|a| {
                    a.fidelity == Fidelity::Full && Answer::of(a).same_bits(expected)
                })
            }),
            || {
                format!(
                    "{}: v1/v2 answers {answers:?} != reference {expected:?}",
                    key.spec
                )
            },
        );
    }
    Ok((pass, server))
}
