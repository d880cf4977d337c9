//! Backend equivalence and bit-identity regression suite.
//!
//! Three contracts pin the convolution backends:
//!
//! * `ConvBackend::FftOverlapSave` (the parallel real-input pipeline)
//!   computes the *same sum* as `ConvBackend::Direct` in the frequency
//!   domain — equal within 1e-9 relative error across spectrum families,
//!   anisotropic correlation lengths, truncated and full kernels,
//!   worker counts, and strip-tile seams — and the real-input engine is
//!   bit-identical across worker counts;
//! * `ConvBackend::Direct` is the reference: its output is bit-identical
//!   to the seed release (FNV-1a hashes of the f64 bit patterns captured
//!   from the pre-backend build), so every regression seed and
//!   resume/budget guarantee survives the backend refactor and the
//!   vectorised inner-loop restructure.

use rrs::prelude::*;
use rrs_check::{from_fn, Gen};

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in bits {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn hash_grid(g: &Grid2<f64>) -> u64 {
    fnv1a(g.as_slice().iter().map(|v| v.to_bits()))
}

/// Asserts two grids agree within `tol` relative to the reference's
/// largest magnitude.
fn assert_close(reference: &Grid2<f64>, other: &Grid2<f64>, tol: f64, what: &str) {
    assert_eq!(reference.shape(), other.shape(), "{what}: shape");
    let scale = reference
        .as_slice()
        .iter()
        .map(|v| v.abs())
        .fold(0.0, f64::max)
        .max(1e-30);
    let max_rel = reference
        .as_slice()
        .iter()
        .zip(other.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
        / scale;
    assert!(max_rel <= tol, "{what}: max relative error {max_rel:e} > {tol:e}");
}

// --- Bit-identity: Direct output is unchanged from the seed release. ---

#[test]
fn direct_backend_is_bit_identical_to_seed() {
    // Hashes captured from the pre-backend build (commit d2106fd).
    let s1 = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    let g1 = ConvolutionGenerator::new(&s1, KernelSizing::default())
        .with_workers(1)
        .generate(&NoiseField::new(5), Window::sized(32, 16));
    assert_eq!(hash_grid(&g1), 0xd4354263c73d2f76, "full kernel, serial");

    let s2 = Gaussian::new(SurfaceParams::new(1.3, 6.0, 4.0));
    let k2 = ConvolutionKernel::build(&s2, KernelSizing::default()).truncated(1e-3);
    let g2 = ConvolutionGenerator::from_kernel(k2)
        .with_workers(3)
        .generate(&NoiseField::new(41), Window::new(-7, 3, 40, 28));
    assert_eq!(hash_grid(&g2), 0x05f15a8657760fab, "truncated aniso kernel, workers=3");

    let s3 = Exponential::new(SurfaceParams::new(0.8, 3.0, 7.0));
    let k3 = ConvolutionKernel::build(&s3, KernelSizing::default()).truncated(1e-2);
    let g3 = ConvolutionGenerator::from_kernel(k3)
        .with_workers(2)
        .generate(&NoiseField::new(99), Window::new(11, -5, 33, 21));
    assert_eq!(hash_grid(&g3), 0x3128fd4cedb5fa8d, "exponential, offset window");
}

#[test]
fn strip_stream_is_bit_identical_to_seed() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), 24, 7);
    assert_eq!(hash_grid(&sg.next_strip(16)), 0x0e02845b448152b8, "strip 0");
    assert_eq!(hash_grid(&sg.next_strip(16)), 0x0eb0089b6b1be169, "strip 1");
}

// --- Deterministic FFT/Direct agreement cases. ---

fn generators(
    kernel: ConvolutionKernel,
) -> (ConvolutionGenerator, ConvolutionGenerator) {
    let direct = ConvolutionGenerator::from_kernel(kernel.clone())
        .with_workers(2)
        .with_backend(ConvBackend::Direct);
    let fft = ConvolutionGenerator::from_kernel(kernel)
        .with_workers(2)
        .with_backend(ConvBackend::FftOverlapSave);
    (direct, fft)
}

#[test]
fn fft_matches_direct_full_kernel() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.2, 6.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default());
    let (direct, fft) = generators(k);
    let noise = NoiseField::new(314);
    let win = Window::new(-9, 14, 80, 52);
    assert_close(
        &direct.generate(&noise, win),
        &fft.generate(&noise, win),
        1e-9,
        "full kernel",
    );
}

#[test]
fn fft_strip_seams_match_direct_whole_surface() {
    // Strips generated tile-by-tile under the FFT backend must agree with
    // one Direct whole-window generation — seams included.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 7.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let seed = 2718;
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone()).with_backend(ConvBackend::FftOverlapSave),
        40,
        seed,
    );
    let a = sg.next_strip(24);
    let b = sg.next_strip(24);
    let whole = ConvolutionGenerator::from_kernel(k)
        .generate(&NoiseField::new(seed), Window::sized(48, 40));
    let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for iy in 0..40 {
        for ix in 0..24 {
            let ea = (*whole.get(ix, iy) - *a.get(ix, iy)).abs();
            let eb = (*whole.get(ix + 24, iy) - *b.get(ix, iy)).abs();
            assert!(ea <= 1e-9 * scale, "strip A ({ix},{iy}): {ea}");
            assert!(eb <= 1e-9 * scale, "strip B ({ix},{iy}): {eb}");
        }
    }
}

#[test]
fn auto_dispatches_by_kernel_area_and_counts() {
    use rrs::obs::stage;
    // Large kernel: Auto must resolve to the FFT engine and tick its
    // dispatch counter. Exponential, not Gaussian: a rank-one kernel
    // would take the separable field and run no overlap-save tile.
    let s = Exponential::new(SurfaceParams::isotropic(1.0, 16.0));
    let rec = Recorder::enabled();
    let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_backend(ConvBackend::Auto)
        .with_recorder(rec.clone());
    assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
    gen.generate(&NoiseField::new(1), Window::sized(48, 48));
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1);
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0);
    assert!(report.counter(stage::CONV_FFT_TILES) >= 1);
    assert_eq!(report.counter(stage::CORRELATE_SAMPLES), 48 * 48);

    // Tiny kernel: Auto stays on the direct path.
    let tiny = ConvolutionKernel::build(&s, KernelSizing::default()).crop(3, 3);
    let rec2 = Recorder::enabled();
    let gen2 = ConvolutionGenerator::from_kernel(tiny)
        .with_backend(ConvBackend::Auto)
        .with_recorder(rec2.clone());
    assert_eq!(gen2.resolved_backend(), ConvBackend::Direct);
    gen2.generate(&NoiseField::new(1), Window::sized(16, 16));
    assert_eq!(rec2.report().counter(stage::CONV_BACKEND_DIRECT), 1);
    assert_eq!(rec2.report().counter(stage::CONV_BACKEND_FFT), 0);
}

#[test]
fn correlate_window_api_matches_generate() {
    // The public prefetched-window entry point (what benches time) must
    // agree with the end-to-end path on both backends.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(77);
    let win = Window::new(5, -3, 36, 28);
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let gen = ConvolutionGenerator::from_kernel(k.clone()).with_backend(backend);
        let (kw, kh) = gen.kernel().extent();
        let (ox, oy) = gen.kernel().origin();
        let prefetched = noise.window(
            win.x0 - (ox + kw as i64 - 1),
            win.y0 - (oy + kh as i64 - 1),
            win.nx + kw - 1,
            win.ny + kh - 1,
        );
        let via_window = gen.try_correlate_window(&prefetched, win.nx, win.ny).unwrap();
        assert_eq!(via_window, gen.generate(&noise, win), "backend {backend:?}");
    }
    // Geometry is validated, not trusted.
    let gen = ConvolutionGenerator::from_kernel(k);
    let err = gen.try_correlate_window(&[0.0; 10], 36, 28).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ShapeMismatch);
    let err = gen.try_correlate_window(&[], 0, 4).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidParam);
}

// --- Real-input engine: ≡ Direct, across worker counts. ---

#[test]
fn real_fft_matches_direct_across_worker_counts() {
    // Two engines, one sum: the parallel real-input pipeline
    // (FftOverlapSave) and the Direct reference must agree within 1e-9
    // for every worker count — including whatever the host actually
    // has — on an anisotropic truncated kernel with an offset window.
    let s = Gaussian::new(SurfaceParams::new(1.1, 9.0, 4.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-4);
    let noise = NoiseField::new(271828);
    let win = Window::new(-13, 7, 96, 60);
    let direct = ConvolutionGenerator::from_kernel(k.clone())
        .with_backend(ConvBackend::Direct)
        .generate(&noise, win);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, 2, host] {
        let rfft = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(workers)
            .with_backend(ConvBackend::FftOverlapSave)
            .generate(&noise, win);
        assert_close(&direct, &rfft, 1e-9, &format!("rfft vs direct, workers={workers}"));
    }
}

#[test]
fn real_fft_is_bit_identical_across_worker_counts() {
    // The parallel branch changes who computes each tile, never the
    // arithmetic inside it: outputs are equal to the bit, not just 1e-9.
    let s = Exponential::new(SurfaceParams::new(0.9, 5.0, 8.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(1618);
    let win = Window::new(3, -9, 180, 120);
    let reference = ConvolutionGenerator::from_kernel(k.clone())
        .with_workers(1)
        .with_backend(ConvBackend::FftOverlapSave)
        .generate(&noise, win);
    for workers in [2, 3, 7] {
        let g = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(workers)
            .with_backend(ConvBackend::FftOverlapSave)
            .generate(&noise, win);
        assert_eq!(hash_grid(&reference), hash_grid(&g), "workers={workers}");
        assert_eq!(reference, g, "workers={workers}");
    }
}

#[test]
fn parallel_real_fft_strips_tile_seamlessly() {
    // Strip-seam contract on the parallel real-input engine specifically:
    // tiles dispatched across workers must reproduce the Direct
    // whole-surface values at every seam.
    let s = Gaussian::new(SurfaceParams::new(1.0, 6.0, 9.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let seed = 31415;
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(3)
            .with_backend(ConvBackend::FftOverlapSave),
        36,
        seed,
    );
    let a = sg.next_strip(40);
    let b = sg.next_strip(40);
    let whole = ConvolutionGenerator::from_kernel(k)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(seed), Window::sized(80, 36));
    let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for iy in 0..36 {
        for ix in 0..40 {
            let ea = (*whole.get(ix, iy) - *a.get(ix, iy)).abs();
            let eb = (*whole.get(ix + 40, iy) - *b.get(ix, iy)).abs();
            assert!(ea <= 1e-9 * scale, "strip A ({ix},{iy}): {ea}");
            assert!(eb <= 1e-9 * scale, "strip B ({ix},{iy}): {eb}");
        }
    }
}

#[test]
fn plan_cache_and_parallel_tiles_are_observed() {
    use rrs::obs::stage;
    // Non-separable, so the FFT rung runs overlap-save tiles.
    let s = Exponential::new(SurfaceParams::isotropic(1.0, 5.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let win = Window::sized(220, 160);

    let rec = Recorder::enabled();
    let gen = ConvolutionGenerator::from_kernel(k)
        .with_workers(4)
        .with_backend(ConvBackend::FftOverlapSave)
        .with_recorder(rec.clone());
    let noise = NoiseField::new(55);
    let first = gen.generate(&noise, win);
    let after_first = rec.report();
    // First request: every plan is a miss (tile transform + kernel
    // spectrum share the same shape, so at least one miss; zero hits
    // would need a pre-warmed cache).
    let misses = after_first.counter(stage::FFT_PLAN_MISS);
    assert!(misses >= 1, "first request must build at least one plan");
    // The case must actually tile and actually parallelise, or the
    // assertions below test nothing: every tile ran on the parallel
    // branch, across more than one worker band.
    let total_tiles = after_first.counter(stage::CONV_FFT_TILES);
    assert!(total_tiles > 1, "geometry drifted: {total_tiles} tile(s)");
    assert_eq!(after_first.counter(stage::CONV_TILES_PARALLEL), total_tiles);
    assert!(after_first.counter(stage::PAR_BANDS) > 1, "tiles must spread across workers");

    // Second identical request: plans come from the cache — misses stay
    // where they were, hits move.
    let second = gen.generate(&noise, win);
    let after_second = rec.report();
    assert_eq!(
        after_second.counter(stage::FFT_PLAN_MISS),
        misses,
        "a repeated shape must not rebuild plans"
    );
    assert!(after_second.counter(stage::FFT_PLAN_HIT) >= 1);
    assert_eq!(first, second, "plan caching must not change output");
}

#[test]
fn shared_plan_cache_is_warm_across_generators() {
    use rrs::obs::stage;
    use rrs_fft::FftPlanCache;
    use std::sync::Arc;
    // Non-separable, so the FFT rung transforms through the plan cache.
    let s = Exponential::new(SurfaceParams::isotropic(1.0, 6.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let plans = Arc::new(FftPlanCache::new());
    let noise = NoiseField::new(808);
    let win = Window::sized(64, 48);

    // Warm the cache through a plain generator…
    ConvolutionGenerator::from_kernel(k.clone())
        .with_backend(ConvBackend::FftOverlapSave)
        .with_plan_cache(plans.clone())
        .generate(&noise, win);

    // …then a strip generator sharing the cache and transforming the same
    // tile shape must hit without a single new plan build.
    let rec = Recorder::enabled();
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone())
            .with_backend(ConvBackend::FftOverlapSave)
            .with_plan_cache(plans)
            .with_recorder(rec.clone()),
        win.ny,
        808,
    );
    let strip = sg.next_strip(win.nx);
    let report = rec.report();
    assert!(report.counter(stage::FFT_PLAN_HIT) >= 1, "shared cache must serve hits");
    assert_eq!(report.counter(stage::FFT_PLAN_MISS), 0, "no plan may be rebuilt");
    // Same surface either way.
    let direct = ConvolutionGenerator::from_kernel(k)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(808), Window::sized(win.nx, win.ny));
    assert_close(&direct, &strip, 1e-9, "shared-cache strip");
}

// --- Property suite: FFT ≡ Direct across families / anisotropy / truncation. ---

struct EquivCase {
    family: u8,
    h: f64,
    clx: f64,
    cly: f64,
    truncate: Option<f64>,
    seed: u64,
    x0: i64,
    y0: i64,
    nx: usize,
    ny: usize,
}

fn arb_case() -> impl Gen<Value = EquivCase> {
    from_fn(|rng| EquivCase {
        family: (rng.next_below(3)) as u8,
        h: 0.3 + rng.next_f64() * 2.0,
        clx: 3.0 + rng.next_f64() * 9.0,
        cly: 3.0 + rng.next_f64() * 9.0,
        truncate: if rng.next_below(2) == 0 { Some(10f64.powf(-1.0 - 2.0 * rng.next_f64())) } else { None },
        seed: rng.next_u64(),
        x0: rng.next_below(64) as i64 - 32,
        y0: rng.next_below(64) as i64 - 32,
        nx: 8 + rng.next_below(56) as usize,
        ny: 8 + rng.next_below(56) as usize,
    })
}

rrs_check::props! {
    #![cases = 24]

    /// The overlap-save engine reproduces the direct sum within 1e-9
    /// relative error for random spectrum families, anisotropic
    /// correlation lengths, truncated and full kernels, and arbitrary
    /// window offsets.
    fn fft_backend_matches_direct(case in arb_case(), workers in 1usize..4) {
        let p = SurfaceParams::new(case.h, case.clx, case.cly);
        let s = match case.family {
            0 => SpectrumModel::gaussian(p),
            1 => SpectrumModel::power_law(p, 2.5),
            _ => SpectrumModel::exponential(p),
        };
        let sizing = KernelSizing::Auto { factor: 6.0, min: 16, max: 96 };
        let mut kernel = ConvolutionKernel::build(&s, sizing);
        if let Some(eps) = case.truncate {
            kernel = kernel.truncated(eps);
        }
        let noise = NoiseField::new(case.seed);
        let win = Window::new(case.x0, case.y0, case.nx, case.ny);
        let direct = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_workers(workers)
            .with_backend(ConvBackend::Direct)
            .generate(&noise, win);
        let fft = ConvolutionGenerator::from_kernel(kernel)
            .with_workers(workers)
            .with_backend(ConvBackend::FftOverlapSave)
            .generate(&noise, win);
        let scale = direct.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-30);
        for (i, (a, v)) in direct.as_slice().iter().zip(fft.as_slice()).enumerate() {
            let rel = (a - v).abs() / scale;
            assert!(
                rel <= 1e-9,
                "rfft: family {} {}x{} trunc {:?} sample {i}: rel err {rel:e}",
                case.family, case.nx, case.ny, case.truncate
            );
        }
    }

    /// `Auto` always resolves to one of the two concrete engines, and its
    /// output equals that engine's exactly (dispatch adds no arithmetic).
    fn auto_equals_resolved_backend(case in arb_case()) {
        let p = SurfaceParams::new(case.h, case.clx, case.cly);
        let s = SpectrumModel::gaussian(p);
        let sizing = KernelSizing::Auto { factor: 6.0, min: 16, max: 64 };
        let kernel = ConvolutionKernel::build(&s, sizing);
        let noise = NoiseField::new(case.seed);
        let win = Window::new(case.x0, case.y0, case.nx.min(32), case.ny.min(32));
        let auto_gen = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_backend(ConvBackend::Auto);
        let resolved = auto_gen.resolved_backend();
        assert!(matches!(resolved, ConvBackend::Direct | ConvBackend::FftOverlapSave));
        let concrete = ConvolutionGenerator::from_kernel(kernel).with_backend(resolved);
        assert_eq!(
            auto_gen.generate(&noise, win),
            concrete.generate(&noise, win),
            "Auto must be a pure dispatch"
        );
    }
}
