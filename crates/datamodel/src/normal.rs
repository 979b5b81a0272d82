//! Gaussian numerics implemented from scratch: error function, normal CDF,
//! and the sign-change probability of a lag-1 pair of a Gaussian AR(1)
//! process (the quantity behind the sign-region transition activity
//! `t_sign` of §6.1/§6.3). The latter is the exact closed form
//! `4·T(|µ|/σ, √((1−ρ)/(1+ρ)))` in Owen's T function, evaluated by fixed
//! Gauss–Legendre quadrature to within the ≈1.5e-7 error of [`erf`].

/// Error function via the Abramowitz & Stegun 7.1.26 rational approximation
/// (maximum absolute error ≈ 1.5e-7, ample for activity estimates).
///
/// # Examples
///
/// ```
/// let e = hdpm_datamodel::erf(1.0);
/// assert!((e - 0.8427007).abs() < 1e-5);
/// ```
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal density.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt()
}

/// Probability that two consecutive samples of a stationary Gaussian AR(1)
/// process with mean `mu`, standard deviation `sigma` and lag-1 correlation
/// `rho` have different signs.
///
/// The pair is bivariate normal, so the probability has the exact closed
/// form `P = 4·T(|µ|/σ, √((1−ρ)/(1+ρ)))`, where `T` is Owen's T function.
/// For `mu == 0` this reduces to the classical orthant result
/// `arccos(ρ)/π`, which is returned directly. At `rho == -1` the stream
/// alternates about its mean and `P` takes its limit `2Φ(−|µ|/σ)`.
/// Degenerate `sigma == 0` and `rho == 1` streams never change sign.
///
/// `T` is evaluated by fixed Gauss–Legendre quadrature, which is exact to
/// rounding for `rho ≥ 0`; for `rho < 0` the result carries the ≈1.5e-7
/// absolute error of [`erf`].
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]` or `sigma < 0`.
///
/// # Examples
///
/// ```
/// use hdpm_datamodel::sign_change_probability;
///
/// // Uncorrelated zero-mean: signs are independent coin flips.
/// let p = sign_change_probability(0.0, 1.0, 0.0);
/// assert!((p - 0.5).abs() < 1e-9);
///
/// // Strong correlation: sign rarely flips.
/// let p = sign_change_probability(0.0, 1.0, 0.95);
/// assert!(p < 0.12);
/// ```
pub fn sign_change_probability(mu: f64, sigma: f64, rho: f64) -> f64 {
    assert!((-1.0..=1.0).contains(&rho), "rho {rho} outside [-1, 1]");
    assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
    if sigma == 0.0 {
        return 0.0;
    }
    if rho >= 1.0 {
        return 0.0;
    }
    if mu == 0.0 {
        return rho.acos() / std::f64::consts::PI;
    }
    let h = (mu / sigma).abs();
    if rho <= -1.0 {
        return 2.0 * normal_cdf(-h);
    }
    let a = ((1.0 - rho) / (1.0 + rho)).sqrt();
    (4.0 * owens_t(h, a)).clamp(0.0, 1.0)
}

/// Owen's T function `T(h, a) = (1/2π)·∫₀^a exp(−h²(1+x²)/2)/(1+x²) dx`
/// for `h ≥ 0` and `a ≥ 0`.
///
/// For `a ≤ 1` the integral is taken directly; its integrand is smooth and
/// bounded on `[0, 1]`. For `a > 1` the reflection
/// `T(h, a) = ½Φ(h) + ½Φ(ah) − Φ(h)Φ(ah) − T(ah, 1/a)` maps it back into
/// that range.
fn owens_t(h: f64, a: f64) -> f64 {
    if a <= 1.0 {
        return owens_t_quadrature(h, a);
    }
    let ah = a * h;
    // ½Φ(h) + ½Φ(ah) − Φ(h)Φ(ah), written with upper tails so it does
    // not cancel for large h.
    let edge = 0.5 * (normal_cdf(h) * normal_cdf(-ah) + normal_cdf(ah) * normal_cdf(-h));
    edge - owens_t_quadrature(ah, 1.0 / a)
}

/// Positive nodes of the 10-point Gauss–Legendre rule on `[-1, 1]`.
const GL_NODES: [f64; 5] = [
    0.148_874_338_981_631_2,
    0.433_395_394_129_247_2,
    0.679_409_568_299_024_4,
    0.865_063_366_688_984_5,
    0.973_906_528_517_171_7,
];

/// Weights matching [`GL_NODES`].
const GL_WEIGHTS: [f64; 5] = [
    0.295_524_224_714_752_9,
    0.269_266_719_309_996_3,
    0.219_086_362_515_982,
    0.149_451_349_150_580_6,
    0.066_671_344_308_688_1,
];

/// Equal panels the Owen's T integral over `[0, a]` is split into.
const T_PANELS: usize = 8;

/// Owen's T integral for `0 ≤ a ≤ 1`: 8 panels of 10-point Gauss–Legendre,
/// exact to rounding (≈1e-16) for every `h ≥ 0`.
fn owens_t_quadrature(h: f64, a: f64) -> f64 {
    let k = -0.5 * h * h;
    let f = |x: f64| {
        let s = 1.0 + x * x;
        (k * s).exp() / s
    };
    let half = 0.5 * a / T_PANELS as f64;
    let mut acc = 0.0;
    for p in 0..T_PANELS {
        let mid = half * (2 * p + 1) as f64;
        for (x, w) in GL_NODES.iter().zip(GL_WEIGHTS) {
            acc += w * (f(mid - half * x) + f(mid + half * x));
        }
    }
    acc * half / std::f64::consts::TAU
}

/// Probability that a single sample of `N(mu, sigma²)` is negative (the
/// stationary sign-bit signal probability).
pub fn negative_probability(mu: f64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return if mu < 0.0 { 1.0 } else { 0.0 };
    }
    normal_cdf((0.0 - mu) / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID_MU: [f64; 7] = [-3000.0, -40.0, -1.0, 0.3, 3.0, 50.0, 3000.0];
    const GRID_SIGMA: [f64; 4] = [1.0, 10.0, 300.0, 5000.0];
    const GRID_RHO: [f64; 8] = [-0.9, -0.5, 0.0, 0.3, 0.6, 0.9, 0.95, 0.995];

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_3).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_8).abs() < 1e-5);
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(-1.0) < normal_cdf(1.0));
        assert!((normal_cdf(1.0) + normal_cdf(-1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn orthant_formula_matches_integration() {
        // The Owen's T path (mu != 0) should agree with the orthant form as
        // mu -> 0, on both sides of the a = 1 reflection (rho = 0).
        for rho in GRID_RHO {
            let closed = sign_change_probability(0.0, 1.0, rho);
            for mu in [1e-9, -1e-6] {
                let numeric = sign_change_probability(mu, 1.0, rho);
                assert!(
                    (closed - numeric).abs() < 1e-6,
                    "rho {rho}, mu {mu}: closed {closed} vs numeric {numeric}"
                );
            }
        }
    }

    /// Brute-force sign-change probability: `∫ φ(z)·q(z) dz`, where `q(z)`
    /// is the probability that the next sample lands on the other side of
    /// zero given the current one is `µ + σz`. `q` jumps at `z = −µ/σ`, so
    /// each side is integrated on its own with composite 10-point
    /// Gauss–Legendre, which leaves only the error of `normal_cdf`.
    fn reference(mu: f64, sigma: f64, rho: f64) -> f64 {
        let cond_sd = (1.0 - rho * rho).sqrt();
        let q = |z: f64| {
            let next = (mu / sigma + rho * z) / cond_sd;
            if mu + sigma * z >= 0.0 {
                normal_cdf(-next)
            } else {
                normal_cdf(next)
            }
        };
        let side = |lo: f64, hi: f64| {
            let panels = 400;
            let half = 0.5 * (hi - lo) / panels as f64;
            let mut acc = 0.0;
            for p in 0..panels {
                let mid = lo + half * (2 * p + 1) as f64;
                for (x, w) in GL_NODES.iter().zip(GL_WEIGHTS) {
                    for z in [mid - half * x, mid + half * x] {
                        acc += w * normal_pdf(z) * q(z);
                    }
                }
            }
            acc * half
        };
        let (lo, hi) = (-9.0, 9.0);
        let split = (-mu / sigma).clamp(lo, hi);
        side(lo, split) + side(split, hi)
    }

    #[test]
    fn closed_form_matches_split_reference_on_the_grid() {
        let mut worst = (0.0f64, (0.0, 0.0, 0.0));
        for mu in GRID_MU {
            for sigma in GRID_SIGMA {
                for rho in GRID_RHO {
                    let err =
                        (sign_change_probability(mu, sigma, rho) - reference(mu, sigma, rho)).abs();
                    if err > worst.0 {
                        worst = (err, (mu, sigma, rho));
                    }
                }
            }
        }
        assert!(
            worst.0 <= 2e-6,
            "worst error {} at (mu, sigma, rho) = {:?}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn sign_activity_is_symmetric_in_the_mean() {
        for mu in GRID_MU {
            for sigma in GRID_SIGMA {
                for rho in GRID_RHO {
                    assert_eq!(
                        sign_change_probability(mu, sigma, rho),
                        sign_change_probability(-mu, sigma, rho),
                        "mu {mu}, sigma {sigma}, rho {rho}"
                    );
                }
            }
        }
    }

    #[test]
    fn sign_activity_falls_as_the_mean_leaves_zero() {
        for rho in GRID_RHO {
            let mut prev = sign_change_probability(0.0, 1.0, rho);
            for k in 1..=120 {
                let p = sign_change_probability(0.05 * k as f64, 1.0, rho);
                assert!(
                    p <= prev + 1e-12,
                    "rho {rho}, mu/sigma {}: {p} > {prev}",
                    0.05 * k as f64
                );
                prev = p;
            }
        }
    }

    #[test]
    fn anticorrelated_limit_is_finite_and_continuous() {
        // A width-2 counter alternates 0, 1, 0, 1, …: mu 0.5, rho exactly -1.
        for (mu, sigma) in [(0.5, 0.5), (1.0, 3.0), (-40.0, 10.0), (1e-3, 1.0)] {
            let p = sign_change_probability(mu, sigma, -1.0);
            assert!(p.is_finite(), "mu {mu}, sigma {sigma}: {p}");
            assert_eq!(p, 2.0 * normal_cdf(-mu.abs() / sigma));
            let near = sign_change_probability(mu, sigma, -1.0 + 1e-9);
            assert!(
                (p - near).abs() < 1e-6,
                "mu {mu}, sigma {sigma}: {p} vs {near}"
            );
        }
    }

    #[test]
    fn mean_offset_reduces_sign_activity() {
        let centered = sign_change_probability(0.0, 1.0, 0.5);
        let offset = sign_change_probability(2.0, 1.0, 0.5);
        assert!(offset < centered / 2.0);
    }

    #[test]
    fn monte_carlo_cross_check() {
        // Empirical sign-change rate of an AR(1) stream matches the formula.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mu, sigma, rho) = (0.6, 1.3, 0.8);
        let mut rng = StdRng::seed_from_u64(10);
        let gauss = move |rng: &mut StdRng| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut x = mu + sigma * gauss(&mut rng);
        let mut changes = 0u64;
        let n = 400_000;
        for _ in 0..n {
            let next = mu + rho * (x - mu) + sigma * (1.0f64 - rho * rho).sqrt() * gauss(&mut rng);
            if (x >= 0.0) != (next >= 0.0) {
                changes += 1;
            }
            x = next;
        }
        let empirical = changes as f64 / n as f64;
        let predicted = sign_change_probability(mu, sigma, rho);
        assert!(
            (empirical - predicted).abs() < 0.01,
            "empirical {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn degenerate_sigma_never_changes_sign() {
        assert_eq!(sign_change_probability(1.0, 0.0, 0.5), 0.0);
        assert_eq!(negative_probability(1.0, 0.0), 0.0);
        assert_eq!(negative_probability(-1.0, 0.0), 1.0);
    }
}
