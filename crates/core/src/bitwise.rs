//! Bitwise regression power model — a literature baseline to contrast with
//! the Hd model.
//!
//! Overview papers on macro-modeling (ref \[1\] of the paper) describe
//! input-sensitive models of the form `Q[j] ≈ w₀ + Σ_i w_i·δ_i[j]`, where
//! `δ_i` flags a toggle of input bit `i` and the weights come from a
//! least-squares fit. Unlike the Hd model it distinguishes *which* bit
//! switched (an LSB toggle of a multiplier is cheaper than an MSB toggle),
//! but it has `m + 1` parameters just like the basic Hd model, making the
//! comparison fair.

use hdpm_sim::Trace;
use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::linalg::least_squares;

/// A per-bit toggle-weight power model fitted by ordinary least squares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitwiseModel {
    module: String,
    input_bits: usize,
    /// `weights[i]` is the charge attributed to a toggle of input bit `i`.
    weights: Vec<f64>,
    /// Intercept `w₀`.
    intercept: f64,
}

impl BitwiseModel {
    /// Fit the model from a characterization trace.
    ///
    /// Each transition contributes one observation: the indicator vector
    /// of toggled input bits (plus a constant regressor) against the
    /// reference charge. The first trace sample has no predecessor inside
    /// the trace and is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Regression`] if the trace has too few
    /// transitions to determine the weights, or the toggle columns are
    /// collinear (e.g. a bit that never switches alone).
    pub fn fit_from_trace(trace: &Trace) -> Result<Self, ModelError> {
        let m = trace.input_width;
        let mut rows = Vec::with_capacity(trace.samples.len().saturating_sub(1));
        let mut y = Vec::with_capacity(rows.capacity());
        for pair in trace.samples.windows(2) {
            let toggles = pair[0].pattern.bits() ^ pair[1].pattern.bits();
            let mut row = Vec::with_capacity(m + 1);
            for i in 0..m {
                row.push(f64::from((toggles >> i) & 1 == 1));
            }
            row.push(1.0);
            rows.push(row);
            y.push(pair[1].charge);
        }
        let beta = least_squares(&rows, &y)?;
        let (weights, intercept) = beta.split_at(m);
        Ok(BitwiseModel {
            module: trace.module.clone(),
            input_bits: m,
            weights: weights.to_vec(),
            intercept: intercept[0],
        })
    }

    /// Module the model was fitted on.
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Number of input bits `m`.
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// Fitted per-bit toggle weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Estimate the charge of a transition given its toggled-bit mask.
    /// Estimates are clamped at zero (a fitted intercept can otherwise
    /// drive no-toggle transitions slightly negative).
    pub fn estimate_toggles(&self, toggles: u64) -> f64 {
        if toggles == 0 {
            return 0.0;
        }
        let mut q = self.intercept;
        for (i, &w) in self.weights.iter().enumerate() {
            if (toggles >> i) & 1 == 1 {
                q += w;
            }
        }
        q.max(0.0)
    }

    /// Per-cycle estimates over a reference trace (the bitwise analogue of
    /// [`crate::predict_trace`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if the trace width differs.
    pub fn predict_trace(&self, trace: &Trace) -> Result<Vec<f64>, ModelError> {
        if trace.input_width != self.input_bits {
            return Err(ModelError::WidthMismatch {
                model_width: self.input_bits,
                query_width: trace.input_width,
            });
        }
        let mut estimates = Vec::with_capacity(trace.samples.len());
        // The first sample's predecessor pattern is unknown inside the
        // trace; approximate it with its own Hd-0 estimate of 0 unless it
        // toggled, in which case use the trace's own sample Hd through the
        // mean weight.
        let mean_weight = self.weights.iter().sum::<f64>() / self.weights.len().max(1) as f64;
        for (k, pair) in trace.samples.iter().enumerate() {
            if k == 0 {
                let q = if pair.hd == 0 {
                    0.0
                } else {
                    (self.intercept + mean_weight * pair.hd as f64).max(0.0)
                };
                estimates.push(q);
            } else {
                let toggles = trace.samples[k - 1].pattern.bits() ^ pair.pattern.bits();
                estimates.push(self.estimate_toggles(toggles));
            }
        }
        Ok(estimates)
    }

    /// Evaluate against a reference trace with the §4.2 metrics.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if the trace width differs.
    pub fn evaluate(&self, trace: &Trace) -> Result<crate::AccuracyReport, ModelError> {
        let estimates = self.predict_trace(trace)?;
        let references: Vec<f64> = trace.samples.iter().map(|s| s.charge).collect();
        Ok(crate::accuracy(&estimates, &references))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_netlist::modules;
    use hdpm_sim::{random_patterns, run_patterns, DelayModel};

    fn characterization_trace() -> (hdpm_netlist::ValidatedNetlist, Trace) {
        let nl = modules::csa_multiplier(4, 4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 6000, 3);
        let trace = run_patterns(&nl, &patterns, DelayModel::Unit);
        (nl, trace)
    }

    #[test]
    fn fits_and_weights_are_plausible() {
        let (_nl, trace) = characterization_trace();
        let model = BitwiseModel::fit_from_trace(&trace).unwrap();
        assert_eq!(model.input_bits(), 8);
        assert_eq!(model.weights().len(), 8);
        // Every toggle weight should be positive for a multiplier: more
        // switching can only add charge.
        for (i, &w) in model.weights().iter().enumerate() {
            assert!(w > 0.0, "weight {i} = {w}");
        }
    }

    #[test]
    fn msb_toggles_cost_more_than_lsb_toggles() {
        // Bit 7 (the multiplier's b-operand MSB... bit index 7 is the a
        // operand MSB) gates more partial products than bit 0.
        let (_nl, trace) = characterization_trace();
        let model = BitwiseModel::fit_from_trace(&trace).unwrap();
        // Compare the cheapest and most expensive weight: the spread is
        // exactly what the Hd model cannot express.
        let min = model.weights().iter().cloned().fold(f64::MAX, f64::min);
        let max = model.weights().iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max > 1.3 * min,
            "expected a visible weight spread, got {min}..{max}"
        );
    }

    #[test]
    fn self_evaluation_has_no_bias() {
        let (_nl, trace) = characterization_trace();
        let model = BitwiseModel::fit_from_trace(&trace).unwrap();
        let report = model.evaluate(&trace).unwrap();
        // Least squares is unbiased on its own training data.
        assert!(
            report.average_error_pct.abs() < 2.0,
            "average error {:.2}%",
            report.average_error_pct
        );
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let (_nl, trace) = characterization_trace();
        let model = BitwiseModel::fit_from_trace(&trace).unwrap();
        let other = modules::ripple_adder(3).unwrap().validate().unwrap();
        let patterns = random_patterns(6, 50, 1);
        let small = run_patterns(&other, &patterns, DelayModel::Unit);
        assert!(model.predict_trace(&small).is_err());
    }

    #[test]
    fn too_short_trace_fails_regression() {
        let nl = modules::ripple_adder(4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 4, 1);
        let trace = run_patterns(&nl, &patterns, DelayModel::Unit);
        assert!(matches!(
            BitwiseModel::fit_from_trace(&trace),
            Err(ModelError::Regression(_))
        ));
    }
}
