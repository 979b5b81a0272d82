//! Estimators and the §4.2 error metrics.
//!
//! Three estimation modes, in decreasing order of information:
//!
//! 1. **trace-based** — the exact per-cycle Hamming distances are known
//!    (e.g. from a bit-accurate functional simulation);
//! 2. **distribution-based** — only the analytic Hd distribution of §6.3 is
//!    known;
//! 3. **average-based** — only the average Hd of eq. 11 is known, applied
//!    through coefficient interpolation (§6.2).

use hdpm_sim::Trace;
use serde::{Deserialize, Serialize};

use crate::adapt::AdaptiveHdModel;
use crate::error::ModelError;
use crate::model::{EnhancedHdModel, HdModel};
use crate::shard::{parallel_map_ordered, resolve_threads};

/// A per-cycle power estimator over transition features.
///
/// Unifies the basic Hd model (eq. 2), the enhanced model (eq. 3) and the
/// LMS-adaptive model behind one prediction interface, so trace evaluation
/// is written once: [`predict_trace`], [`evaluate`] and [`evaluate_batch`]
/// are generic over any `Estimator` instead of coming in per-model
/// variants.
pub trait Estimator {
    /// Input width `m` the estimator was characterized at.
    fn input_bits(&self) -> usize;

    /// Short model-kind tag for telemetry and reports
    /// (`"basic"`, `"enhanced"`, `"adaptive"`).
    fn kind(&self) -> &'static str;

    /// Estimate the cycle charge of one transition with `hd` flipped
    /// input bits out of which `stable_zeros` inputs stayed zero.
    /// Estimators that ignore the stable-zero count (the basic and
    /// adaptive models) simply drop it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `hd` exceeds the model
    /// width.
    fn estimate_transition(&self, hd: usize, stable_zeros: usize) -> Result<f64, ModelError>;
}

impl Estimator for HdModel {
    fn input_bits(&self) -> usize {
        HdModel::input_bits(self)
    }

    fn kind(&self) -> &'static str {
        "basic"
    }

    fn estimate_transition(&self, hd: usize, _stable_zeros: usize) -> Result<f64, ModelError> {
        self.estimate(hd)
    }
}

impl Estimator for EnhancedHdModel {
    fn input_bits(&self) -> usize {
        EnhancedHdModel::input_bits(self)
    }

    fn kind(&self) -> &'static str {
        "enhanced"
    }

    fn estimate_transition(&self, hd: usize, stable_zeros: usize) -> Result<f64, ModelError> {
        self.estimate(hd, stable_zeros)
    }
}

impl Estimator for AdaptiveHdModel {
    fn input_bits(&self) -> usize {
        AdaptiveHdModel::input_bits(self)
    }

    fn kind(&self) -> &'static str {
        "adaptive"
    }

    fn estimate_transition(&self, hd: usize, _stable_zeros: usize) -> Result<f64, ModelError> {
        self.estimate(hd)
    }
}

/// The §4.2 accuracy metrics of a model against a reference trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Average absolute cycle error `ε_a` in percent.
    pub cycle_error_pct: f64,
    /// Signed average (total-charge) error `ε` in percent.
    pub average_error_pct: f64,
    /// Number of cycles compared.
    pub cycles: usize,
}

/// Compare per-cycle estimates against per-cycle reference charges.
///
/// `ε_a` averages `|est − ref| / ref` over cycles with non-zero reference
/// (the paper's eq. in §4.2 divides by the PowerMill charge, which is only
/// defined for switching cycles); `ε` compares the totals.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(estimates: &[f64], references: &[f64]) -> AccuracyReport {
    assert_eq!(
        estimates.len(),
        references.len(),
        "estimate/reference length mismatch"
    );
    let mut cycle_sum = 0.0;
    let mut cycle_n = 0usize;
    let mut est_total = 0.0;
    let mut ref_total = 0.0;
    for (&e, &r) in estimates.iter().zip(references) {
        est_total += e;
        ref_total += r;
        if r > 0.0 {
            cycle_sum += ((e - r) / r).abs();
            cycle_n += 1;
        }
    }
    AccuracyReport {
        cycle_error_pct: if cycle_n > 0 {
            100.0 * cycle_sum / cycle_n as f64
        } else {
            0.0
        },
        average_error_pct: if ref_total > 0.0 {
            100.0 * (est_total - ref_total) / ref_total
        } else {
            0.0
        },
        cycles: estimates.len(),
    }
}

/// Per-cycle estimates of any [`Estimator`] over a reference trace's
/// transitions (trace-based estimation).
///
/// # Errors
///
/// Returns [`ModelError::WidthMismatch`] if the trace width differs from
/// the model width.
pub fn predict_trace<E: Estimator + ?Sized>(
    model: &E,
    trace: &Trace,
) -> Result<Vec<f64>, ModelError> {
    if trace.input_width != model.input_bits() {
        return Err(ModelError::WidthMismatch {
            model_width: model.input_bits(),
            query_width: trace.input_width,
        });
    }
    trace
        .samples
        .iter()
        .map(|s| model.estimate_transition(s.hd, s.stable_zeros))
        .collect()
}

/// Evaluate any [`Estimator`] against a reference trace (trace-based
/// mode).
///
/// # Errors
///
/// Returns [`ModelError::WidthMismatch`] on width disagreement.
pub fn evaluate<E: Estimator + ?Sized>(
    model: &E,
    trace: &Trace,
) -> Result<AccuracyReport, ModelError> {
    let predictions = predict_trace(model, trace)?;
    let references: Vec<f64> = trace.samples.iter().map(|s| s.charge).collect();
    let report = accuracy(&predictions, &references);
    report_accuracy_telemetry(model.kind(), &trace.module, &report);
    Ok(report)
}

/// Push one evaluated stream's accuracy into telemetry: an event with the
/// per-stream error metrics, plus the `estimate.cycles` counter.
fn report_accuracy_telemetry(model_kind: &str, module: &str, report: &AccuracyReport) {
    if !hdpm_telemetry::enabled() {
        return;
    }
    hdpm_telemetry::counter_add("estimate.cycles", report.cycles as u64);
    hdpm_telemetry::counter_add("estimate.streams", 1);
    hdpm_telemetry::event(
        hdpm_telemetry::Level::Debug,
        "estimate.accuracy",
        &[
            ("model", model_kind.into()),
            ("module", module.into()),
            ("cycles", report.cycles.into()),
            ("cycle_error_pct", report.cycle_error_pct.into()),
            ("average_error_pct", report.average_error_pct.into()),
        ],
    );
}

/// Evaluate any [`Estimator`] against many reference traces on up to
/// `threads` worker threads (0 = all available cores). Reports come back
/// in input order and are identical to calling [`evaluate`] per trace —
/// each trace's metrics depend only on that trace, so the schedule cannot
/// influence the numbers.
///
/// # Errors
///
/// Returns the first per-trace error in input order.
pub fn evaluate_batch<E: Estimator + Sync + ?Sized>(
    model: &E,
    traces: &[Trace],
    threads: usize,
) -> Result<Vec<AccuracyReport>, ModelError> {
    parallel_map_ordered(traces, resolve_threads(threads), |_, trace| {
        evaluate(model, trace)
    })
    .into_iter()
    .collect()
}

/// Average-power estimate from an Hd distribution (the §6.3 estimator):
/// expected charge per cycle. See [`HdModel::estimate_distribution`].
///
/// Average-power estimate from only the average Hd (the §6.2 estimator):
/// coefficient interpolation at `hd_avg`. See
/// [`HdModel::estimate_interpolated`]. The gap between the two is the
/// Fig. 6 experiment.
///
/// # Errors
///
/// Returns [`ModelError::WidthMismatch`] if the distribution width differs
/// from the model width.
pub fn distribution_vs_average(
    model: &HdModel,
    dist: &hdpm_datamodel::HdDistribution,
) -> Result<DistributionVsAverage, ModelError> {
    let via_distribution = model.estimate_distribution(dist)?;
    let via_average = model.estimate_interpolated(dist.mean());
    Ok(DistributionVsAverage {
        via_distribution,
        via_average,
        average_hd: dist.mean(),
    })
}

/// The two §6 average-power estimates side by side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionVsAverage {
    /// Expected charge under the full Hd distribution.
    pub via_distribution: f64,
    /// Charge interpolated at the average Hd only.
    pub via_average: f64,
    /// The average Hd used by the second estimate.
    pub average_hd: f64,
}

impl DistributionVsAverage {
    /// Relative error (percent) of the average-only estimate against the
    /// distribution estimate — the "additional error of about 30%" the
    /// paper reports in Fig. 6 for non-linear coefficient curves.
    pub fn average_penalty_pct(&self) -> f64 {
        if self.via_distribution == 0.0 {
            0.0
        } else {
            100.0 * (self.via_average - self.via_distribution).abs() / self.via_distribution
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_datamodel::HdDistribution;
    use hdpm_sim::{BitPattern, CycleSample};

    fn linear_model(m: usize) -> HdModel {
        let coeffs: Vec<f64> = (0..=m).map(|i| 10.0 * i as f64).collect();
        HdModel::from_parts("lin", m, coeffs, vec![0.0; m + 1], vec![1; m + 1])
    }

    fn quadratic_model(m: usize) -> HdModel {
        let coeffs: Vec<f64> = (0..=m).map(|i| (i * i) as f64).collect();
        HdModel::from_parts("quad", m, coeffs, vec![0.0; m + 1], vec![1; m + 1])
    }

    fn trace_of(hds: &[usize], charges: &[f64], width: usize) -> Trace {
        Trace {
            module: "test".into(),
            input_width: width,
            samples: hds
                .iter()
                .zip(charges)
                .map(|(&hd, &charge)| CycleSample {
                    pattern: BitPattern::zero(width),
                    hd,
                    stable_zeros: width - hd,
                    charge,
                    toggles: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn perfect_model_scores_zero_error() {
        let model = linear_model(4);
        let trace = trace_of(&[1, 2, 3], &[10.0, 20.0, 30.0], 4);
        let report = evaluate(&model, &trace).unwrap();
        assert_eq!(report.cycle_error_pct, 0.0);
        assert_eq!(report.average_error_pct, 0.0);
        assert_eq!(report.cycles, 3);
    }

    #[test]
    fn biased_model_shows_in_average_error() {
        let model = linear_model(4);
        // Reference is half the model prediction everywhere.
        let trace = trace_of(&[1, 2], &[5.0, 10.0], 4);
        let report = evaluate(&model, &trace).unwrap();
        assert!((report.average_error_pct - 100.0).abs() < 1e-9);
        assert!((report.cycle_error_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unbiased_scatter_cancels_in_average_but_not_cycle_error() {
        let model = linear_model(4);
        let trace = trace_of(&[2, 2], &[10.0, 30.0], 4);
        let report = evaluate(&model, &trace).unwrap();
        assert!(report.average_error_pct.abs() < 1e-9);
        assert!(report.cycle_error_pct > 50.0);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let model = linear_model(4);
        let trace = trace_of(&[1], &[10.0], 8);
        assert!(matches!(
            evaluate(&model, &trace),
            Err(ModelError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn distribution_beats_average_for_nonlinear_coeffs() {
        // Quadratic coefficients + bimodal distribution: Jensen's gap.
        let model = quadratic_model(8);
        let dist = HdDistribution::from_histogram(&[0, 50, 0, 0, 0, 0, 0, 50, 0]);
        let cmp = distribution_vs_average(&model, &dist).unwrap();
        // E[i²] = (1 + 49)/2 = 25; (E[i])² = 16.
        assert!((cmp.via_distribution - 25.0).abs() < 1e-9);
        assert!((cmp.via_average - 16.0).abs() < 1e-9);
        assert!(cmp.average_penalty_pct() > 30.0);
    }

    #[test]
    fn distribution_equals_average_for_linear_coeffs() {
        let model = linear_model(8);
        let dist = HdDistribution::from_histogram(&[0, 10, 20, 40, 20, 10, 0, 0, 0]);
        let cmp = distribution_vs_average(&model, &dist).unwrap();
        assert!((cmp.via_distribution - cmp.via_average).abs() < 1e-9);
    }

    #[test]
    fn batch_evaluation_matches_serial_in_order() {
        let model = linear_model(4);
        let traces: Vec<Trace> = (1..=4)
            .map(|hd| trace_of(&[hd, hd], &[9.0 * hd as f64, 11.0 * hd as f64], 4))
            .collect();
        for threads in [1, 2, 8, 0] {
            let batch = evaluate_batch(&model, &traces, threads).unwrap();
            assert_eq!(batch.len(), traces.len());
            for (trace, report) in traces.iter().zip(&batch) {
                assert_eq!(*report, evaluate(&model, trace).unwrap());
            }
        }
    }

    #[test]
    fn batch_evaluation_surfaces_first_error() {
        let model = linear_model(4);
        let traces = vec![trace_of(&[1], &[10.0], 4), trace_of(&[1], &[10.0], 8)];
        assert!(matches!(
            evaluate_batch(&model, &traces, 2),
            Err(ModelError::WidthMismatch { .. })
        ));
    }

    fn enhanced_of(basic: &HdModel) -> crate::model::EnhancedHdModel {
        let m = basic.input_bits();
        let clustering = crate::model::ZeroClustering::Full;
        let mut coeffs = Vec::new();
        let mut devs = Vec::new();
        let mut counts = Vec::new();
        for i in 1..=m {
            let g = clustering.groups(m, i);
            // p_{i,z} = 10·i + z, every subgroup populated.
            coeffs.push((0..g).map(|z| 10.0 * i as f64 + z as f64).collect());
            devs.push(vec![0.0; g]);
            counts.push(vec![9; g]);
        }
        crate::model::EnhancedHdModel::from_parts(basic.clone(), clustering, coeffs, devs, counts)
    }

    #[test]
    fn estimator_trait_unifies_model_kinds() {
        let model = linear_model(4);
        let enhanced = enhanced_of(&model);
        let adaptive = AdaptiveHdModel::new(&model, 0.5);
        assert_eq!(Estimator::kind(&model), "basic");
        assert_eq!(Estimator::kind(&enhanced), "enhanced");
        assert_eq!(Estimator::kind(&adaptive), "adaptive");
        assert_eq!(Estimator::input_bits(&enhanced), 4);

        let trace = trace_of(&[1, 2], &[10.0, 20.0], 4);
        // One generic entry point serves all three model kinds.
        let basic = evaluate(&model, &trace).unwrap();
        assert_eq!(basic, evaluate(&adaptive, &trace).unwrap());
        let via_enhanced = evaluate(&enhanced, &trace).unwrap();
        // The enhanced table uses the stable-zero feature, so its
        // predictions (and metrics) legitimately differ.
        let expected: Vec<f64> = trace
            .samples
            .iter()
            .map(|s| enhanced.estimate(s.hd, s.stable_zeros).unwrap())
            .collect();
        assert_eq!(predict_trace(&enhanced, &trace).unwrap(), expected);
        assert_eq!(
            evaluate_batch(&enhanced, std::slice::from_ref(&trace), 1).unwrap()[0],
            via_enhanced
        );
    }

    #[test]
    fn zero_reference_cycles_are_skipped() {
        let model = linear_model(4);
        let trace = trace_of(&[0, 2], &[0.0, 20.0], 4);
        let report = evaluate(&model, &trace).unwrap();
        assert_eq!(report.cycle_error_pct, 0.0);
        assert_eq!(report.cycles, 2);
    }
}
