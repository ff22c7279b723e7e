//! Standard-normal primitives implemented from scratch (no external math
//! crates are permitted in this workspace).
//!
//! The discretized-Gaussian alert-count model needs Φ, the standard normal
//! CDF, and its inverse for quantile queries. We implement `erf` with the
//! Abramowitz & Stegun 7.1.26 rational approximation (|ε| ≤ 1.5e-7, ample
//! for probability mass bucketing) and Φ⁻¹ with the Acklam-style rational
//! approximation refined by one Halley step.

/// Error function approximation (Abramowitz & Stegun 7.1.26).
///
/// Maximum absolute error ≈ 1.5e-7 over the real line.
pub fn erf(x: f64) -> f64 {
    // erf is odd; work on |x| and restore the sign at the end.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    let y = 1.0 - poly * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// CDF of a N(mean, std²) Gaussian.
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    assert!(std > 0.0, "normal_cdf requires std > 0, got {std}");
    std_normal_cdf((x - mean) / std)
}

/// Inverse standard normal CDF (quantile function) Φ⁻¹(p).
///
/// Rational approximation (Acklam) with one Halley refinement step; relative
/// error below 1e-9 for p ∈ (1e-300, 1 − 1e-16).
///
/// # Panics
/// Panics if `p` is outside `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "std_normal_quantile requires p in (0,1), got {p}"
    );

    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-accuracy CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Quantile of a N(mean, std²) Gaussian.
pub fn normal_quantile(p: f64, mean: f64, std: f64) -> f64 {
    assert!(std > 0.0, "normal_quantile requires std > 0, got {std}");
    mean + std * std_normal_quantile(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_known_values() {
        // The rational approximation carries a ~1e-9 residual at the origin.
        assert_close(erf(0.0), 0.0, 1e-8);
        assert_close(erf(1.0), 0.842_700_792_949_715, 1e-6);
        assert_close(erf(2.0), 0.995_322_265_018_953, 1e-6);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 1e-6);
        assert_close(erf(3.5), 0.999_999_256_9, 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        for i in 0..100 {
            let x = i as f64 * 0.07;
            assert_close(erf(x), -erf(-x), 1e-8);
        }
    }

    #[test]
    fn cdf_known_values() {
        assert_close(std_normal_cdf(0.0), 0.5, 1e-9);
        assert_close(std_normal_cdf(1.0), 0.841_344_746_068_543, 1e-6);
        assert_close(std_normal_cdf(-1.96), 0.024_997_895_148_220, 1e-6);
        assert_close(std_normal_cdf(2.575_829), 0.995, 1e-5);
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = 0.0;
        for i in -500..=500 {
            let x = i as f64 / 50.0;
            let c = std_normal_cdf(x);
            assert!(c >= prev - 1e-12, "CDF not monotone at {x}");
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 2e-7);
        }
    }

    #[test]
    fn quantile_tails() {
        assert!(std_normal_quantile(1e-10) < -6.0);
        assert!(std_normal_quantile(1.0 - 1e-10) > 6.0);
        assert_close(std_normal_quantile(0.5), 0.0, 1e-8);
    }

    #[test]
    fn scaled_normal_helpers() {
        assert_close(normal_cdf(6.0, 6.0, 2.0), 0.5, 1e-9);
        assert_close(normal_quantile(0.5, 6.0, 2.0), 6.0, 1e-7);
        // 97.5% quantile of N(0,1) is ~1.96.
        assert_close(normal_quantile(0.975, 0.0, 1.0), 1.959_964, 1e-4);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_zero() {
        std_normal_quantile(0.0);
    }

    #[test]
    #[should_panic]
    fn cdf_rejects_nonpositive_std() {
        normal_cdf(0.0, 0.0, 0.0);
    }
}
