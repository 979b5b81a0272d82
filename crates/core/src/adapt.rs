//! On-line LMS coefficient adaptation.
//!
//! §4.2 of the paper proposes "coefficient adaptation techniques \[4\]"
//! (Bogliolo, Benini, De Micheli: *Adaptive Least Mean Square Behavioral
//! Power Modeling*) for input statistics that differ strongly from the
//! characterization stream. This module implements that extension: each
//! observed `(Hd, reference charge)` pair nudges the corresponding
//! coefficient toward the observation with a configurable learning rate.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::model::HdModel;

/// An [`HdModel`] whose coefficients adapt on-line to observed reference
/// charges (LMS rule: `p ← p + µ·(Q − p)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveHdModel {
    coeffs: Vec<f64>,
    input_bits: usize,
    learning_rate: f64,
    observations: u64,
}

impl AdaptiveHdModel {
    /// Wrap a characterized model with the given LMS learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not in `(0, 1]`.
    pub fn new(model: &HdModel, learning_rate: f64) -> Self {
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate {learning_rate} outside (0, 1]"
        );
        AdaptiveHdModel {
            coeffs: model.coefficients().to_vec(),
            input_bits: model.input_bits(),
            learning_rate,
            observations: 0,
        }
    }

    /// Model width `m`.
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// Number of observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Current coefficient `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > m`.
    pub fn coefficient(&self, i: usize) -> f64 {
        assert!(i <= self.input_bits, "Hd {i} exceeds model width");
        self.coeffs[i]
    }

    /// Estimate the cycle charge for Hamming distance `hd` with the
    /// current (adapted) coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `hd > m`.
    pub fn estimate(&self, hd: usize) -> Result<f64, ModelError> {
        if hd > self.input_bits {
            return Err(ModelError::WidthMismatch {
                model_width: self.input_bits,
                query_width: hd,
            });
        }
        Ok(self.coeffs[hd])
    }

    /// Absorb one observed transition: estimate, then nudge the coefficient
    /// toward the observed reference charge. Returns the *pre-update*
    /// estimate (what a deployed estimator would have reported).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `hd > m`.
    pub fn observe(&mut self, hd: usize, reference_charge: f64) -> Result<f64, ModelError> {
        let estimate = self.estimate(hd)?;
        if hd > 0 {
            self.coeffs[hd] += self.learning_rate * (reference_charge - estimate);
            self.observations += 1;
        }
        Ok(estimate)
    }

    /// Freeze the adapted coefficients into a plain [`HdModel`].
    pub fn into_model(self, module: impl Into<String>) -> HdModel {
        let m = self.input_bits;
        HdModel::from_parts(
            module,
            m,
            self.coeffs,
            vec![0.0; m + 1],
            std::iter::once(0)
                .chain(std::iter::repeat_n(1, m))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrong_model(m: usize) -> HdModel {
        // Deliberately mis-scaled: 1 per class instead of the "true" 10·i.
        HdModel::from_parts(
            "wrong",
            m,
            vec![1.0; m + 1],
            vec![0.0; m + 1],
            vec![1; m + 1],
        )
    }

    #[test]
    fn adaptation_converges_to_observed_level() {
        let mut adaptive = AdaptiveHdModel::new(&wrong_model(4), 0.1);
        for _ in 0..200 {
            adaptive.observe(2, 20.0).unwrap();
        }
        assert!((adaptive.coefficient(2) - 20.0).abs() < 0.1);
        // Unobserved classes stay put.
        assert_eq!(adaptive.coefficient(3), 1.0);
        assert_eq!(adaptive.observations(), 200);
    }

    #[test]
    fn observe_returns_pre_update_estimate() {
        let mut adaptive = AdaptiveHdModel::new(&wrong_model(4), 0.5);
        let first = adaptive.observe(1, 11.0).unwrap();
        assert_eq!(first, 1.0);
        let second = adaptive.observe(1, 11.0).unwrap();
        assert!(second > first);
    }

    #[test]
    fn hd_zero_is_never_adapted() {
        let mut adaptive = AdaptiveHdModel::new(&wrong_model(4), 0.5);
        adaptive.observe(0, 99.0).unwrap();
        assert_eq!(adaptive.coefficient(0), 0.0);
        assert_eq!(adaptive.observations(), 0);
    }

    #[test]
    fn freezing_produces_usable_model() {
        let mut adaptive = AdaptiveHdModel::new(&wrong_model(4), 0.2);
        for _ in 0..100 {
            adaptive.observe(3, 30.0).unwrap();
        }
        let frozen = adaptive.into_model("adapted");
        assert!((frozen.coefficient(3) - 30.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_rejected() {
        AdaptiveHdModel::new(&wrong_model(4), 0.0);
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut adaptive = AdaptiveHdModel::new(&wrong_model(4), 0.1);
        assert!(adaptive.observe(5, 1.0).is_err());
    }
}
