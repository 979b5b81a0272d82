//! The in-process reference every served answer is checked against, and
//! the accuracy figures: tier A/B against full fidelity, and full
//! fidelity against gate-level simulation (the paper's ε).

use hdpm_core::{analytic_model, Fidelity, ParameterizableModel, PowerEngine, Prototype};
use hdpm_datamodel::{region_model, HdDistribution, WordModel};
use hdpm_sim::{patterns_from_words, BitplaneSimulator, DelayModel};
use hdpm_streams::ALL_DATA_TYPES;

use crate::harness::{engine_options, Answer};
use crate::inputs::{Key, Plan, CYCLES};
use crate::stats::median;

/// Stream seeds per (spec, data type) cell of the accuracy grid; the
/// first is the rung's own.
const GRID_SEEDS: u64 = 16;

/// The server's input-distribution fit, rebuilt from public parts:
/// generate the operand streams, fit per-operand region models,
/// convolve.
pub fn input_distribution(key: &Key) -> HdDistribution {
    let (m1, _) = key.spec.width.operand_widths();
    let streams =
        key.data
            .generate_operands(key.spec.kind.operand_count(), m1, CYCLES as usize, key.seed);
    let dists: Vec<HdDistribution> = streams
        .iter()
        .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, m1))))
        .collect();
    HdDistribution::convolve_all(&dists)
}

/// Mean simulated charge per cycle of the key's operand streams, on the
/// bit-parallel gate-level simulator.
pub fn simulated_charge(key: &Key) -> Result<f64, String> {
    let (m1, _) = key.spec.width.operand_widths();
    let netlist = key
        .spec
        .build()
        .and_then(|n| n.validate())
        .map_err(|e| format!("{}: {e}", key.spec))?;
    let streams =
        key.data
            .generate_operands(key.spec.kind.operand_count(), m1, CYCLES as usize, key.seed);
    let patterns = patterns_from_words(netlist.netlist(), &streams);
    let mut sim = BitplaneSimulator::new(&netlist, DelayModel::Unit);
    let cycles = sim.apply_block(&patterns);
    if cycles.is_empty() {
        return Err(format!("{}: no transitions simulated", key.spec));
    }
    Ok(cycles.iter().map(|c| c.charge).sum::<f64>() / cycles.len() as f64)
}

/// Expected answers for every key a run sends, and the accuracy figures.
pub struct Reference {
    /// Full-fidelity answer per ladder rung, in plan order.
    pub ladder: Vec<Answer>,
    /// The tier-A or tier-B charge each rung's first answer must carry.
    pub ladder_tier: Vec<f64>,
    /// Full-fidelity answer per warm key, in plan order.
    pub warm: Vec<Answer>,
    /// Medians, in percent, over every ladder spec × every data type ×
    /// [`GRID_SEEDS`] stream seeds: |tier answer − full| / full for the
    /// rung's first-answer tier, and |full − simulated| / simulated.
    pub tier_a_err_pct: f64,
    pub tier_b_err_pct: f64,
    pub est_err_pct: f64,
}

fn relative_pct(value: f64, truth: f64) -> f64 {
    100.0 * (value - truth).abs() / truth.abs()
}

impl Reference {
    /// Characterize every ladder spec in-process with the servers'
    /// configuration and evaluate the full data-type grid.
    pub fn build(plan: &Plan) -> Result<Reference, String> {
        let engine = PowerEngine::new(engine_options(None));
        let full = |key: &Key, dist: &HdDistribution| -> Result<Answer, String> {
            let estimate = engine
                .estimate(key.spec, dist)
                .map_err(|e| format!("reference {}: {e}", key.spec))?;
            Ok(Answer {
                charge_per_cycle: estimate.charge_per_cycle,
                via_average: estimate.via_average,
                average_hd: estimate.average_hd,
            })
        };
        let mut reference = Reference {
            ladder: Vec::new(),
            ladder_tier: Vec::new(),
            warm: Vec::new(),
            tier_a_err_pct: 0.0,
            tier_b_err_pct: 0.0,
            est_err_pct: 0.0,
        };
        let (mut tier_a, mut tier_b, mut est) = (Vec::new(), Vec::new(), Vec::new());
        let mut siblings: Vec<Prototype> = Vec::new();
        for rung in &plan.ladder {
            let spec = rung.key.spec;
            // The tier the server answers from before this spec lands:
            // the closed-form model, or a fit over the siblings already
            // characterized.
            let tier_model = match rung.first_tier {
                Fidelity::Regressed => {
                    let family: Vec<Prototype> = siblings
                        .iter()
                        .filter(|p| p.spec.kind == spec.kind)
                        .cloned()
                        .collect();
                    ParameterizableModel::fit(&family)
                        .map_err(|e| format!("{spec}: sibling fit: {e}"))?
                        .predict_model(spec.width)
                }
                _ => analytic_model(spec).map_err(|e| format!("{spec}: analytic model: {e}"))?,
            };
            let grid = ALL_DATA_TYPES.iter().flat_map(|&data| {
                (0..GRID_SEEDS).map(move |s| Key {
                    data,
                    seed: rung.key.seed + s * 0x9E37_79B9,
                    ..rung.key
                })
            });
            for key in grid {
                let dist = input_distribution(&key);
                let answer = full(&key, &dist)?;
                let tier = tier_model
                    .estimate_distribution(&dist)
                    .map_err(|e| format!("{spec}: tier estimate: {e}"))?;
                let errors = if rung.first_tier == Fidelity::Regressed {
                    &mut tier_b
                } else {
                    &mut tier_a
                };
                errors.push(relative_pct(tier, answer.charge_per_cycle));
                est.push(relative_pct(
                    answer.charge_per_cycle,
                    simulated_charge(&key)?,
                ));
                if key == rung.key {
                    reference.ladder.push(answer);
                    reference.ladder_tier.push(tier);
                }
            }
            let characterization = engine.model(spec).map_err(|e| format!("{spec}: {e}"))?;
            siblings.push(Prototype {
                spec,
                model: characterization.model.clone(),
            });
        }
        for key in &plan.warm {
            reference.warm.push(full(key, &input_distribution(key))?);
        }
        let med = |values: &[f64], name: &str| median(values).ok_or(format!("no {name} samples"));
        reference.tier_a_err_pct = med(&tier_a, "tier A")?;
        reference.tier_b_err_pct = med(&tier_b, "tier B")?;
        reference.est_err_pct = med(&est, "accuracy")?;
        Ok(reference)
    }
}
