//! Deterministic regression cases distilled from historical property-test
//! failures (formerly `.proptest-regressions` seed files).
//!
//! Each case pins the exact shrunk input that once broke an assertion, so
//! the fix stays observable without depending on any particular RNG
//! replay format.

use rrs::prelude::*;

/// Shrunk from `kernel_energy_equals_variance`: h = 0.1, cl = 3.0,
/// family = exponential. The Exponential family's K⁻³ spectral tail loses
/// ≈ 1/(π·cl) of its energy to Nyquist truncation; the assertion bound
/// must account for that analytically instead of a flat tolerance.
#[test]
fn exponential_kernel_energy_at_small_h_short_cl() {
    let (h, cl) = (0.1, 3.0);
    let s = SpectrumModel::exponential(SurfaceParams::isotropic(h, cl));
    let k = ConvolutionKernel::build(&s, KernelSizing::Auto { factor: 10.0, min: 32, max: 256 });
    let rel = (k.energy() - h * h).abs() / (h * h);
    let bound = 0.02 + 1.5 / (core::f64::consts::PI * cl);
    assert!(rel < bound, "relative energy error {rel} exceeds analytic tail bound {bound}");
}

/// Shrunk from `weight_array_is_non_negative_and_sums_to_variance`:
/// PowerLaw n = 2.0 with long, strongly anisotropic correlation lengths.
/// The lattice must span several correlation lengths per axis before the
/// Riemann sum over the sharp spectral peak converges to h².
#[test]
fn power_law_weight_sum_with_long_anisotropic_lengths() {
    use rrs::spectrum::{weight_array, GridSpec};
    let p = SurfaceParams::new(1.9844031021393171, 27.287569486112787, 20.4034294982157);
    let m = SpectrumModel::power_law(p, 2.0);
    let pick = |cl: f64| ((8.0 * cl).ceil() as usize).next_power_of_two().clamp(32, 512);
    let spec = GridSpec::unit(pick(p.clx), pick(p.cly));
    let w = weight_array(&m, spec);
    assert!(w.as_slice().iter().all(|&v| v >= 0.0));
    let total: f64 = w.as_slice().iter().sum();
    let v = p.variance();
    assert!(
        total <= 1.2 * v + 1e-12 && total >= 0.6 * v,
        "Σw = {total}, h² = {v}"
    );
}

/// FNV-1a over a kernel's extent, origin and weight bits.
fn kernel_hash(kernels: &[ConvolutionKernel]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in kernels {
        let (w, ht) = k.extent();
        let (x0, y0) = k.origin();
        let head = [w as u64, ht as u64, x0 as u64, y0 as u64];
        for v in head
            .into_iter()
            .chain(k.weights().as_slice().iter().map(|v| v.to_bits()))
        {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn truncated(spectra: &[SpectrumModel], eps: f64) -> Vec<ConvolutionKernel> {
    let sizing = KernelSizing::Auto {
        factor: 8.0,
        min: 16,
        max: 2048,
    };
    spectra
        .iter()
        .map(|s| ConvolutionKernel::build(s, sizing).truncated(eps))
        .collect()
}

/// The truncation search picks the same crop, with the same bits, for the
/// kernels the benchmark's workloads build: the 32 served Gaussian keys
/// (h ∈ {0.5, 1, 1.5, 2}, cl = 4..18, ε = 1e-3) and the Figure 1 (scale 1)
/// and Figure 4 (scale 1/3) kernels at ε = 0.01.
#[test]
fn truncated_kernels_keep_their_bits() {
    let g = |h: f64, cl: f64| SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl));
    let serve: Vec<_> = [0.5, 1.0, 1.5, 2.0]
        .iter()
        .flat_map(|&h| (0..8).map(move |i| g(h, 4.0 + 2.0 * i as f64)))
        .collect();
    let fig1 = [g(1.0, 40.0), g(1.5, 60.0), g(2.0, 80.0)];
    let s = 1.0 / 3.0;
    let fig4 = [
        g(1.0, 50.0 * s),
        g(1.5, 75.0 * s),
        g(2.0, 100.0 * s),
        SpectrumModel::exponential(SurfaceParams::isotropic(0.5, 100.0 * s)),
    ];
    let got = [
        kernel_hash(&truncated(&serve, 1e-3)),
        kernel_hash(&truncated(&fig1, 0.01)),
        kernel_hash(&truncated(&fig4, 0.01)),
    ];
    assert_eq!(
        got,
        [
            0x7055_75fa_0c42_7dce,
            0x311a_abf2_a192_e35b,
            0xa1d2_2690_efe6_af9d
        ],
        "truncated-kernel hashes moved: {got:#x?}"
    );
}
