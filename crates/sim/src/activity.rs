//! Probabilistic activity propagation — an analytic, zero-delay power
//! baseline.
//!
//! Instead of simulating patterns, per-input **signal** and **transition**
//! probabilities are propagated through the gate graph assuming spatial
//! independence of gate inputs (the classical probabilistic power
//! estimation approach; the gate-level counterpart of the word-level
//! propagation in refs \[9,10\] of the paper). Each net's temporal behaviour
//! is summarized by the joint distribution of its value in two consecutive
//! cycles; a gate's output pair distribution follows exactly from its
//! truth table and the product of its input pair distributions.
//!
//! The estimate is *zero-delay* (no glitch power) and degrades in the
//! presence of reconvergent fanout or correlated inputs — exactly the
//! trade-off the experiments contrast with the Hd macro-model.

use hdpm_netlist::{NetDriver, ValidatedNetlist};
use serde::{Deserialize, Serialize};

/// Joint distribution of a net's value in two consecutive cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PairProb {
    /// P(prev = 0, next = 0)
    p00: f64,
    /// P(prev = 0, next = 1)
    p01: f64,
    /// P(prev = 1, next = 0)
    p10: f64,
    /// P(prev = 1, next = 1)
    p11: f64,
}

impl PairProb {
    /// Build from a stationary signal probability `p` and transition
    /// probability `t`, clamping to a feasible joint distribution
    /// (`t/2 ≤ min(p, 1−p)` must hold for a stationary process).
    fn from_signal_transition(p: f64, t: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        let half_t = (t.clamp(0.0, 1.0) / 2.0).min(p).min(1.0 - p);
        PairProb {
            p00: (1.0 - p - half_t).max(0.0),
            p01: half_t,
            p10: half_t,
            p11: (p - half_t).max(0.0),
        }
    }

    fn constant(value: bool) -> Self {
        if value {
            PairProb {
                p00: 0.0,
                p01: 0.0,
                p10: 0.0,
                p11: 1.0,
            }
        } else {
            PairProb {
                p00: 1.0,
                p01: 0.0,
                p10: 0.0,
                p11: 0.0,
            }
        }
    }

    fn signal_prob(self) -> f64 {
        self.p10 + self.p11
    }

    fn transition_prob(self) -> f64 {
        self.p01 + self.p10
    }

    /// Probability of the `(prev, next)` outcome.
    fn prob(self, prev: bool, next: bool) -> f64 {
        match (prev, next) {
            (false, false) => self.p00,
            (false, true) => self.p01,
            (true, false) => self.p10,
            (true, true) => self.p11,
        }
    }
}

/// Result of an activity propagation over a module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityEstimate {
    /// Per-net signal probabilities, indexed by net index.
    pub signal_probs: Vec<f64>,
    /// Per-net transition probabilities, indexed by net index.
    pub transition_probs: Vec<f64>,
    /// Estimated average charge per cycle: `Σ_net t_net · E_net` with the
    /// same per-toggle energies the event-driven simulator charges.
    pub charge_per_cycle: f64,
}

/// Propagate per-input signal/transition probabilities through the module
/// and estimate its average power analytically.
///
/// `input_signal[i]` and `input_transition[i]` describe bit `i` of the
/// module input vector (the same bit order the simulator and the Hd model
/// use).
///
/// # Panics
///
/// Panics if the probability slices do not match the module input width,
/// or contain values outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use hdpm_netlist::modules;
/// use hdpm_sim::propagate_activity;
///
/// # fn main() -> Result<(), hdpm_netlist::NetlistError> {
/// let adder = modules::ripple_adder(4)?.validate()?;
/// // Uniform random inputs: p = 0.5, t = 0.5 on every bit.
/// let est = propagate_activity(&adder, &[0.5; 8], &[0.5; 8]);
/// assert!(est.charge_per_cycle > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn propagate_activity(
    netlist: &ValidatedNetlist,
    input_signal: &[f64],
    input_transition: &[f64],
) -> ActivityEstimate {
    assert!(
        !netlist.netlist().is_sequential(),
        "activity propagation supports combinational modules only"
    );
    let input_nets = netlist.netlist().input_vector();
    assert_eq!(
        input_signal.len(),
        input_nets.len(),
        "need one signal probability per input bit"
    );
    assert_eq!(
        input_transition.len(),
        input_nets.len(),
        "need one transition probability per input bit"
    );
    for (&p, &t) in input_signal.iter().zip(input_transition) {
        assert!((0.0..=1.0).contains(&p), "signal probability {p} invalid");
        assert!(
            (0.0..=1.0).contains(&t),
            "transition probability {t} invalid"
        );
    }

    let nets = netlist.netlist().net_count();
    let mut pairs = vec![PairProb::constant(false); nets];

    #[allow(clippy::needless_range_loop)] // indexing dense per-net/HD tables
    for idx in 0..nets {
        let net = netlist.netlist().net_id(idx);
        if let NetDriver::Constant(v) = netlist.netlist().driver(net) {
            pairs[idx] = PairProb::constant(v);
        }
    }
    for ((&net, &p), &t) in input_nets.iter().zip(input_signal).zip(input_transition) {
        pairs[net.index()] = PairProb::from_signal_transition(p, t);
    }

    // Evaluate gates in topological order: the output pair distribution is
    // the truth table applied to the product of the input pair
    // distributions (spatial independence assumption).
    for &gid in netlist.topo_order() {
        let gate = netlist.netlist().gate(gid);
        let kind = gate.kind();
        let arity = kind.arity();
        let mut out = PairProb {
            p00: 0.0,
            p01: 0.0,
            p10: 0.0,
            p11: 0.0,
        };
        // Enumerate joint (prev, next) assignments of all input pins.
        let combos = 1u32 << (2 * arity);
        for combo in 0..combos {
            let mut probability = 1.0;
            let mut prev_in = [false; 4];
            let mut next_in = [false; 4];
            for (pin, &input) in gate.inputs().iter().enumerate() {
                let prev = (combo >> (2 * pin)) & 1 == 1;
                let next = (combo >> (2 * pin + 1)) & 1 == 1;
                probability *= pairs[input.index()].prob(prev, next);
                if probability == 0.0 {
                    break;
                }
                prev_in[pin] = prev;
                next_in[pin] = next;
            }
            if probability == 0.0 {
                continue;
            }
            let out_prev = kind.eval(&prev_in[..arity]);
            let out_next = kind.eval(&next_in[..arity]);
            match (out_prev, out_next) {
                (false, false) => out.p00 += probability,
                (false, true) => out.p01 += probability,
                (true, false) => out.p10 += probability,
                (true, true) => out.p11 += probability,
            }
        }
        pairs[gate.output().index()] = out;
    }

    // Energy accounting mirrors the event-driven simulator exactly.
    let mut charge = 0.0;
    let mut signal_probs = Vec::with_capacity(nets);
    let mut transition_probs = Vec::with_capacity(nets);
    #[allow(clippy::needless_range_loop)] // indexing dense per-net/HD tables
    for idx in 0..nets {
        let net = netlist.netlist().net_id(idx);
        let internal = match netlist.netlist().driver(net) {
            NetDriver::Gate(g) => netlist.netlist().gate(g).kind().internal_cap(),
            _ => 0.0,
        };
        let energy = netlist.net_load(net) + internal;
        signal_probs.push(pairs[idx].signal_prob());
        transition_probs.push(pairs[idx].transition_prob());
        charge += pairs[idx].transition_prob() * energy;
    }

    ActivityEstimate {
        signal_probs,
        transition_probs,
        charge_per_cycle: charge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{random_patterns, run_patterns};
    use crate::DelayModel;
    use hdpm_netlist::{modules, CellKind, Netlist};

    #[test]
    fn inverter_preserves_transition_probability() {
        let mut nl = Netlist::new("inv");
        let a = nl.add_input_port("a", 1)[0];
        let y = nl.add_gate(CellKind::Inv, &[a]);
        nl.add_output_port("y", &[y]);
        let v = nl.validate().unwrap();
        let est = propagate_activity(&v, &[0.3], &[0.4]);
        let y_idx = y.index();
        assert!((est.transition_probs[y_idx] - 0.4).abs() < 1e-12);
        assert!((est.signal_probs[y_idx] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn and_gate_of_independent_inputs() {
        let mut nl = Netlist::new("and");
        let a = nl.add_input_port("a", 1)[0];
        let b = nl.add_input_port("b", 1)[0];
        let y = nl.add_gate(CellKind::And2, &[a, b]);
        nl.add_output_port("y", &[y]);
        let v = nl.validate().unwrap();
        let est = propagate_activity(&v, &[0.5, 0.5], &[0.5, 0.5]);
        // P(out = 1) = 0.25 for independent fair inputs.
        assert!((est.signal_probs[y.index()] - 0.25).abs() < 1e-12);
        // t_out = 2 * P(next=1) * P(prev=0 | independence) = 2*0.25*0.75.
        assert!((est.transition_probs[y.index()] - 0.375).abs() < 1e-12);
    }

    #[test]
    fn matches_zero_delay_simulation_on_random_streams() {
        // For uniform random stimuli the independence assumption is exact
        // at the inputs and close throughout an adder.
        let adder = modules::ripple_adder(6).unwrap().validate().unwrap();
        let est = propagate_activity(&adder, &[0.5; 12], &[0.5; 12]);
        let patterns = random_patterns(12, 20_000, 7);
        let trace = run_patterns(&adder, &patterns, DelayModel::Zero);
        let simulated = trace.average_charge();
        let ratio = est.charge_per_cycle / simulated;
        assert!(
            (0.9..1.1).contains(&ratio),
            "analytic {} vs simulated {simulated} (ratio {ratio})",
            est.charge_per_cycle
        );
    }

    #[test]
    fn quiet_inputs_draw_no_power() {
        let mul = modules::csa_multiplier(4, 4).unwrap().validate().unwrap();
        let est = propagate_activity(&mul, &[0.5; 8], &[0.0; 8]);
        assert_eq!(est.charge_per_cycle, 0.0);
    }

    #[test]
    #[should_panic(expected = "one signal probability per input bit")]
    fn wrong_width_panics() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        propagate_activity(&adder, &[0.5; 4], &[0.5; 4]);
    }

    #[test]
    fn infeasible_pairs_are_clamped() {
        // t = 1.0 with p = 0.1 is impossible; the builder clamps.
        let mut nl = Netlist::new("buf");
        let a = nl.add_input_port("a", 1)[0];
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.add_output_port("y", &[y]);
        let v = nl.validate().unwrap();
        let est = propagate_activity(&v, &[0.1], &[1.0]);
        assert!(est.transition_probs[y.index()] <= 0.2 + 1e-12);
    }
}
