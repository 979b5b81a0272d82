//! Hamming-distance distributions (the paper's second contribution, §6.3).
//!
//! The Hd distribution of a data word splits by bit region: the
//! uncorrelated region contributes a binomial `B(n_rand, ½)` (eq. 12), the
//! sign region a two-point distribution at `0` and `n_sign` (the sign
//! either holds or flips every sign bit), and the full-word distribution is
//! their independent combination, written in the paper as the unified
//! formula eq. 18 with region indicators δ.

use hdpm_streams::DataType;
use serde::{Deserialize, Serialize};

use crate::dbt::{region_model, RegionModel, WordModel};

/// The analytic input distribution of a module fed synthetic data: one
/// `cycles`-word stream of `data` per operand
/// ([`DataType::generate_operands`]), a two-region model fitted to each
/// (eq. 11–18), and the per-operand distributions convolved. This is the
/// distribution a served estimate and `hdpm estimate` evaluate a model
/// on, so both read the same bits for the same request.
///
/// # Panics
///
/// Panics if `operands == 0` or `width` is not in `2..=32`.
///
/// # Examples
///
/// ```
/// use hdpm_datamodel::operand_distribution;
/// use hdpm_streams::DataType;
///
/// let dist = operand_distribution(DataType::Speech, 2, 8, 2000, 7);
/// assert_eq!(dist.width(), 16);
/// ```
pub fn operand_distribution(
    data: DataType,
    operands: usize,
    width: usize,
    cycles: usize,
    seed: u64,
) -> HdDistribution {
    let dists: Vec<HdDistribution> = data
        .generate_operands(operands, width, cycles, seed)
        .iter()
        .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, width))))
        .collect();
    HdDistribution::convolve_all(&dists)
}

/// A discrete probability distribution over Hamming distances `0..=width`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HdDistribution {
    probs: Vec<f64>,
}

impl HdDistribution {
    /// Construct from raw probabilities over `0..=width`.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty, contains negative or non-finite entries,
    /// or does not sum to 1 within `1e-6`.
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "distribution needs at least Hd = 0");
        let mut total = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            assert!(
                p.is_finite() && p >= 0.0,
                "probability of Hd = {i} is invalid: {p}"
            );
            total += p;
        }
        assert!(
            (total - 1.0).abs() < 1e-6,
            "distribution sums to {total}, expected 1"
        );
        HdDistribution { probs }
    }

    /// The deterministic distribution `P(Hd = 0) = 1` for a `width`-bit
    /// word.
    pub fn zero(width: usize) -> Self {
        let mut probs = vec![0.0; width + 1];
        probs[0] = 1.0;
        HdDistribution { probs }
    }

    /// The §6.3 distribution of a single word stream described by a
    /// [`RegionModel`] (eq. 12–18).
    ///
    /// # Examples
    ///
    /// ```
    /// use hdpm_datamodel::{region_model, HdDistribution, WordModel};
    ///
    /// let model = WordModel::new(0.0, 1000.0, 0.95, 16);
    /// let dist = HdDistribution::from_regions(&region_model(&model));
    /// assert_eq!(dist.width(), 16);
    /// assert!((dist.total() - 1.0).abs() < 1e-9);
    /// ```
    pub fn from_regions(regions: &RegionModel) -> Self {
        let m = regions.width();
        let n_rand = regions.n_rand;
        let n_sign = regions.n_sign;
        let t_sign = regions.t_sign.clamp(0.0, 1.0);

        // Eq. 12: binomial over the random bits.
        let p_rand = binomial_half(n_rand);
        // Two-point sign distribution: Hd_sign = 0 with 1 - t_sign,
        // n_sign with t_sign (all sign bits flip together).
        let mut probs = vec![0.0; m + 1];
        for i in 0..=m {
            // δ_!SS term: no sign switch, random part contributes i.
            if i <= n_rand {
                probs[i] += p_rand[i] * (1.0 - t_sign);
            }
            // δ_SS term: sign switch, random part contributes i - n_sign.
            if i >= n_sign && i - n_sign <= n_rand {
                probs[i] += p_rand[i - n_sign] * t_sign;
            }
        }
        // n_sign == 0 makes the two δ branches coincide; the construction
        // above would then double-count, so renormalize defensively.
        if n_sign == 0 {
            for (i, p) in probs.iter_mut().enumerate() {
                *p = if i <= n_rand { p_rand[i] } else { 0.0 };
            }
        }
        HdDistribution::new(probs)
    }

    /// The Hd distribution of a word whose bits toggle *independently*
    /// with the given per-bit activities — a Poisson-binomial. This is the
    /// natural baseline against eq. 18: it uses the same per-bit activity
    /// information but ignores the sign-block correlation, so it misses
    /// the sign-switch hump of real DSP streams (compare both against the
    /// extracted distribution in the Fig. 9 experiment).
    ///
    /// # Panics
    ///
    /// Panics if `activities` is empty or contains values outside
    /// `[0, 1]`.
    pub fn from_bit_activities(activities: &[f64]) -> Self {
        assert!(!activities.is_empty(), "need at least one bit activity");
        let mut probs = vec![1.0f64];
        for (i, &t) in activities.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&t),
                "activity of bit {i} is invalid: {t}"
            );
            let mut next = vec![0.0; probs.len() + 1];
            for (k, &p) in probs.iter().enumerate() {
                next[k] += p * (1.0 - t);
                next[k + 1] += p * t;
            }
            probs = next;
        }
        HdDistribution::new(probs)
    }

    /// An empirical distribution from a histogram of Hd counts
    /// (`hist[i]` = number of transitions at distance `i`).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or all-zero.
    pub fn from_histogram(hist: &[u64]) -> Self {
        assert!(!hist.is_empty(), "histogram must not be empty");
        let total: u64 = hist.iter().sum();
        assert!(total > 0, "histogram must contain at least one transition");
        HdDistribution::new(hist.iter().map(|&c| c as f64 / total as f64).collect())
    }

    /// Word width `m` (distribution support is `0..=m`).
    pub fn width(&self) -> usize {
        self.probs.len() - 1
    }

    /// Probability of `Hd = i` (0 outside the support).
    pub fn prob(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// The full probability vector over `0..=width`.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Sum of all probabilities (1 up to rounding).
    pub fn total(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Mean Hamming distance.
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| i as f64 * p)
            .sum()
    }

    /// Variance of the Hamming distance.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let d = i as f64 - mean;
                d * d * p
            })
            .sum()
    }

    /// Combine with the distribution of an independent second input stream:
    /// the module-level Hd is the sum of the per-operand Hds, so the
    /// distributions convolve (the paper's multi-input extension, end of
    /// §6.3).
    pub fn convolve(&self, other: &HdDistribution) -> HdDistribution {
        let width = self.width() + other.width();
        let mut probs = vec![0.0; width + 1];
        for (i, &a) in self.probs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.probs.iter().enumerate() {
                probs[i + j] += a * b;
            }
        }
        HdDistribution::new(probs)
    }

    /// Convolve the distributions of several independent operand streams.
    ///
    /// # Panics
    ///
    /// Panics if `dists` is empty.
    pub fn convolve_all(dists: &[HdDistribution]) -> HdDistribution {
        assert!(!dists.is_empty(), "need at least one distribution");
        let mut acc = dists[0].clone();
        for d in &dists[1..] {
            acc = acc.convolve(d);
        }
        acc
    }

    /// Total-variation distance to another distribution of the same width —
    /// the figure-of-merit for the Fig. 9 extracted-vs-estimated comparison.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn total_variation(&self, other: &HdDistribution) -> f64 {
        assert_eq!(
            self.width(),
            other.width(),
            "distribution widths must match"
        );
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f64>()
    }
}

/// The binomial distribution `B(n, ½)` as a probability vector over
/// `0..=n`. `n == 0` yields the deterministic `[1.0]`.
fn binomial_half(n: usize) -> Vec<f64> {
    let mut probs = vec![0.0; n + 1];
    // C(n, k) computed iteratively in f64; exact for the widths in play.
    let scale = 0.5f64.powi(n as i32);
    let mut coeff = 1.0f64;
    for (k, p) in probs.iter_mut().enumerate() {
        *p = coeff * scale;
        coeff = coeff * (n - k) as f64 / (k + 1) as f64;
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbt::{region_model, WordModel};
    use proptest::prelude::*;

    #[test]
    fn binomial_half_is_symmetric_and_normalized() {
        for n in [0, 1, 5, 16, 32] {
            let p = binomial_half(n);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n = {n}");
            for k in 0..=n {
                assert!((p[k] - p[n - k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pure_random_word_is_binomial() {
        let regions = RegionModel {
            n_rand: 8,
            n_sign: 0,
            t_rand: 0.5,
            t_sign: 0.0,
            p_sign: 0.5,
        };
        let dist = HdDistribution::from_regions(&regions);
        let expected = binomial_half(8);
        for (i, &e) in expected.iter().enumerate() {
            assert!((dist.prob(i) - e).abs() < 1e-12);
        }
        assert!((dist.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sign_switch_creates_second_mode() {
        let regions = RegionModel {
            n_rand: 10,
            n_sign: 6,
            t_rand: 0.5,
            t_sign: 0.2,
            p_sign: 0.5,
        };
        let dist = HdDistribution::from_regions(&regions);
        assert_eq!(dist.width(), 16);
        assert!((dist.total() - 1.0).abs() < 1e-9);
        // Mean matches eq. 11: 0.5*10 + 0.2*6 = 6.2.
        assert!((dist.mean() - 6.2).abs() < 1e-9);
        // Region III (i > n_rand) only reachable through a sign switch.
        assert!(dist.prob(16) > 0.0);
        assert!(dist.prob(16) < dist.prob(5));
    }

    #[test]
    fn mean_always_matches_region_model() {
        for (mu, sigma, rho) in [(0.0, 1000.0, 0.9), (200.0, 50.0, 0.5), (0.0, 3000.0, 0.0)] {
            let model = WordModel::new(mu, sigma, rho, 16);
            let regions = region_model(&model);
            let dist = HdDistribution::from_regions(&regions);
            assert!(
                (dist.mean() - regions.average_hd()).abs() < 1e-9,
                "mu={mu} sigma={sigma} rho={rho}"
            );
        }
    }

    #[test]
    fn convolution_adds_means_and_widths() {
        let a = HdDistribution::from_regions(&RegionModel {
            n_rand: 6,
            n_sign: 2,
            t_rand: 0.5,
            t_sign: 0.1,
            p_sign: 0.5,
        });
        let b = HdDistribution::from_regions(&RegionModel {
            n_rand: 4,
            n_sign: 4,
            t_rand: 0.5,
            t_sign: 0.3,
            p_sign: 0.5,
        });
        let c = a.convolve(&b);
        assert_eq!(c.width(), 16);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9);
        assert!((c.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_round_trip() {
        let hist = vec![10, 20, 40, 20, 10];
        let dist = HdDistribution::from_histogram(&hist);
        assert_eq!(dist.width(), 4);
        assert!((dist.prob(2) - 0.4).abs() < 1e-12);
        assert!((dist.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_variation_is_zero_on_self() {
        let d = HdDistribution::from_histogram(&[1, 2, 3]);
        assert_eq!(d.total_variation(&d), 0.0);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn new_rejects_unnormalized() {
        HdDistribution::new(vec![0.5, 0.2]);
    }

    proptest! {
        #[test]
        fn from_regions_is_always_a_distribution(
            n_rand in 0usize..20,
            n_sign in 0usize..20,
            t_sign in 0.0f64..=1.0,
        ) {
            prop_assume!(n_rand + n_sign >= 1);
            let regions = RegionModel {
                n_rand,
                n_sign,
                t_rand: 0.5,
                t_sign,
                p_sign: 0.5,
            };
            let dist = HdDistribution::from_regions(&regions);
            prop_assert!((dist.total() - 1.0).abs() < 1e-9);
            prop_assert!((dist.mean() - regions.average_hd()).abs() < 1e-9);
        }

        #[test]
        fn convolution_is_commutative(
            ha in prop::collection::vec(1u64..100, 2..8),
            hb in prop::collection::vec(1u64..100, 2..8),
        ) {
            let a = HdDistribution::from_histogram(&ha);
            let b = HdDistribution::from_histogram(&hb);
            let ab = a.convolve(&b);
            let ba = b.convolve(&a);
            for i in 0..=ab.width() {
                prop_assert!((ab.prob(i) - ba.prob(i)).abs() < 1e-12);
            }
        }
    }
}
