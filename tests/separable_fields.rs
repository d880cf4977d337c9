//! The FFT rung's separable field.
//!
//! A Gaussian kernel is rank one, `w̃ = c ⊗ r`, and the FFT rung computes
//! its field in two 1-D passes wherever the cost rule finds them cheaper
//! than overlap-save. This suite pins that path's contract:
//!
//! * the field is within 1e-9 of the Direct rung, bit-identical across
//!   worker counts, and ticks `conv/separable_fields`, not
//!   `conv/fft_tiles`;
//! * kernels that are not rank one — exponential, power-law, rotated
//!   anisotropic Gaussian, or weights too large to square — keep
//!   overlap-save, as does a large kernel on a large window;
//! * weighted windows may mix a separable field with tiled ones;
//! * faults and byte ceilings behave as on any other FFT tile.

use rrs::obs::report::ObsReport;
use rrs::obs::stage;
use rrs::prelude::*;

fn fnv1a(g: &Grid2<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in g.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Largest `|a − b|` relative to the largest `|a|`.
fn rel_err(reference: &Grid2<f64>, other: &Grid2<f64>) -> f64 {
    assert_eq!(reference.shape(), other.shape());
    let scale = reference
        .as_slice()
        .iter()
        .map(|v| v.abs())
        .fold(0.0, f64::max)
        .max(1e-30);
    let err = reference
        .as_slice()
        .iter()
        .zip(other.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    err / scale
}

fn gauss(h: f64, clx: f64, cly: f64) -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::new(h, clx, cly))
}

/// The figures' kernel sizing and truncation.
fn figure_kernel(s: &SpectrumModel) -> ConvolutionKernel {
    ConvolutionKernel::build(
        s,
        KernelSizing::Auto {
            factor: 8.0,
            min: 16,
            max: 2048,
        },
    )
    .truncated(0.01)
}

/// `win` through the homogeneous generator over `kernel`.
fn generate(
    kernel: &ConvolutionKernel,
    backend: ConvBackend,
    workers: usize,
    rec: &Recorder,
    noise: &NoiseField,
    win: Window,
) -> Grid2<f64> {
    ConvolutionGenerator::from_kernel(kernel.clone())
        .with_context(
            GenContext::new()
                .with_backend(backend)
                .with_workers(workers)
                .with_recorder(rec.clone()),
        )
        .generate(noise, win)
}

/// The FFT rung's report for `win`, after asserting its output within
/// 1e-9 of Direct.
fn check(kernel: &ConvolutionKernel, win: Window, workers: usize) -> ObsReport {
    let noise = NoiseField::new(0x5e9a ^ win.nx as u64 ^ ((win.ny as u64) << 16));
    let off = Recorder::disabled();
    let direct = generate(kernel, ConvBackend::Direct, workers, &off, &noise, win);
    let rec = Recorder::enabled();
    let fft = generate(
        kernel,
        ConvBackend::FftOverlapSave,
        workers,
        &rec,
        &noise,
        win,
    );
    let err = rel_err(&direct, &fft);
    assert!(
        err <= 1e-9,
        "{:?} over {win:?}: relative err {err:e}",
        kernel.extent()
    );
    rec.report()
}

fn assert_separable(report: &ObsReport, what: &str) {
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1, "{what}");
    assert_eq!(report.counter(stage::CONV_SEPARABLE_FIELDS), 1, "{what}");
    assert_eq!(report.counter(stage::CONV_FFT_TILES), 0, "{what}");
    assert_eq!(
        report.counter(stage::FFT_PLAN_MISS) + report.counter(stage::FFT_PLAN_HIT),
        0
    );
}

fn assert_tiled(report: &ObsReport, what: &str) {
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1, "{what}");
    assert!(report.counter(stage::CONV_FFT_TILES) > 0, "{what}");
    assert_eq!(report.counter(stage::CONV_SEPARABLE_FIELDS), 0, "{what}");
}

#[test]
fn separable_field_matches_direct_over_window_shapes() {
    let kernels = [
        ("isotropic", gauss(1.0, 6.0, 6.0)),
        ("anisotropic", gauss(1.3, 9.0, 3.5)),
        ("anisotropic tall", gauss(0.7, 2.5, 7.0)),
    ];
    for (what, s) in &kernels {
        let full = ConvolutionKernel::build(s, KernelSizing::default());
        let truncated = full.truncated(1e-3);
        assert_ne!(
            full.extent(),
            truncated.extent(),
            "{what}: truncation must crop"
        );
        for kernel in [&full, &truncated] {
            for (nx, ny) in [(1, 1), (1, 17), (23, 1), (16, 16), (33, 20), (200, 40)] {
                let report = check(kernel, Window::sized(nx, ny), 2);
                assert_separable(
                    &report,
                    &format!("{what} {:?} on {nx}x{ny}", kernel.extent()),
                );
            }
        }
    }
    // A kernel wider and taller than its window.
    let wide = ConvolutionKernel::build(&gauss(1.0, 12.0, 8.0), KernelSizing::default());
    let (kw, kh) = wide.extent();
    assert!(kw > 20 && kh > 12);
    let report = check(&wide, Window::new(-7, 5, 20, 12), 3);
    assert_separable(&report, "kernel wider than its window");
}

#[test]
fn separable_field_is_bit_identical_across_worker_counts() {
    let kernel = ConvolutionKernel::build(&gauss(1.1, 7.0, 4.0), KernelSizing::default());
    let noise = NoiseField::new(31);
    let win = Window::new(-13, 9, 57, 41);
    let off = Recorder::disabled();
    let one = generate(&kernel, ConvBackend::FftOverlapSave, 1, &off, &noise, win);
    for workers in [2, 3] {
        let rec = Recorder::enabled();
        let got = generate(
            &kernel,
            ConvBackend::FftOverlapSave,
            workers,
            &rec,
            &noise,
            win,
        );
        assert_eq!(fnv1a(&got), fnv1a(&one), "workers = {workers}");
        assert_separable(&rec.report(), &format!("workers = {workers}"));
    }
}

#[test]
fn kernels_that_are_not_rank_one_keep_overlap_save() {
    // Correlation lengths long enough that the rotated spectrum is
    // negligible on the lattice's Nyquist lines, so its kernel is real.
    let p = SurfaceParams::new(1.0, 12.0, 5.0);
    let rotated = Rotated::new(Gaussian::new(p), 0.6);
    let kernels = [
        (
            "exponential",
            ConvolutionKernel::build(&Exponential::new(p), KernelSizing::default()),
        ),
        (
            "power law",
            ConvolutionKernel::build(&PowerLaw::new(p, 2.0), KernelSizing::default()),
        ),
        (
            "rotated gaussian",
            ConvolutionKernel::build(&rotated, KernelSizing::default()),
        ),
    ];
    for (what, kernel) in &kernels {
        assert_tiled(&check(kernel, Window::sized(40, 24), 2), what);
    }
    // Weights so large that `Σ w̃²` overflows: the rank test must still
    // see that the kernel is not rank one.
    let (_, exponential) = &kernels[0];
    let w = exponential.weights();
    let (kw, kh) = w.shape();
    let huge = w.as_slice().iter().map(|v| v * 1e160).collect();
    let (x0, y0) = exponential.origin();
    let huge = ConvolutionKernel::from_parts(Grid2::from_vec(kw, kh, huge), x0, y0);
    assert!(huge.weights().as_slice().iter().map(|v| v * v).sum::<f64>().is_infinite());
    assert_tiled(&check(&huge, Window::sized(40, 24), 2), "huge exponential");
}

#[test]
fn the_cost_rule_keeps_overlap_save_for_large_windows() {
    // Figure 1's largest kernel: Gaussian (h = 2, cl = 80), 231² after
    // truncation.
    let kernel = figure_kernel(&gauss(2.0, 80.0, 80.0));
    assert_eq!(kernel.extent(), (231, 231));
    let noise = NoiseField::new(5);
    let rec = Recorder::enabled();
    generate(
        &kernel,
        ConvBackend::FftOverlapSave,
        2,
        &rec,
        &noise,
        Window::new(64, 0, 64, 64),
    );
    assert_separable(&rec.report(), "64² window");
    // Passes cost O(k) per sample and transforms O(log), so a 1024²
    // window keeps overlap-save.
    let rec = Recorder::enabled();
    generate(
        &kernel,
        ConvBackend::FftOverlapSave,
        2,
        &rec,
        &noise,
        Window::sized(1024, 1024),
    );
    assert_tiled(&rec.report(), "1024² window");
}

#[test]
fn weighted_window_mixes_a_separable_field_with_an_exponential_one() {
    // Figure 4 at scale 1/3: one ring point and the exponential centre,
    // over a window straddling the transition between their cells.
    let s = 1.0 / 3.0;
    let ring = 500.0 * s;
    let th = std::f64::consts::TAU / 9.0;
    let points = vec![
        RepresentativePoint {
            x: ring * th.cos(),
            y: ring * th.sin(),
            spectrum: gauss(1.0, 50.0 * s, 50.0 * s),
        },
        RepresentativePoint {
            x: 0.0,
            y: 0.0,
            spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.5, 100.0 * s)),
        },
    ];
    let map = PointLayout::new(points, 100.0 * s);
    let kernels: Vec<_> = map_spectra(&map).iter().map(figure_kernel).collect();
    let win = Window::new(48, 40, 32, 32);
    let noise = NoiseField::new(404);
    let run = |backend, rec: &Recorder| {
        InhomogeneousGenerator::try_from_kernels(map.clone(), kernels.clone())
            .unwrap()
            .with_context(
                GenContext::new()
                    .with_backend(backend)
                    .with_workers(2)
                    .with_recorder(rec.clone()),
            )
            .generate(&noise, win)
    };
    let direct = run(ConvBackend::Direct, &Recorder::disabled());
    let rec = Recorder::enabled();
    let fft = run(ConvBackend::FftOverlapSave, &rec);
    let err = rel_err(&direct, &fft);
    assert!(err <= 1e-9, "blended window: relative err {err:e}");
    let report = rec.report();
    assert!(
        report.counter(stage::INHOMO_BLENDED_SAMPLES) > 0,
        "the window must blend"
    );
    assert_eq!(
        report.counter(stage::CONV_SEPARABLE_FIELDS),
        1,
        "the Gaussian's field"
    );
    assert!(
        report.counter(stage::CONV_FFT_TILES) > 0,
        "the exponential's field"
    );
}

fn map_spectra(map: &PointLayout) -> Vec<SpectrumModel> {
    use rrs::inhomo::WeightMap;
    map.spectra().to_vec()
}

#[test]
fn injected_tile_panic_on_a_separable_field_degrades_to_direct_bits() {
    let kernel = ConvolutionKernel::build(&gauss(1.2, 6.0, 6.0), KernelSizing::default());
    let noise = NoiseField::new(77);
    let win = Window::new(3, -4, 30, 22);
    let direct = generate(
        &kernel,
        ConvBackend::Direct,
        2,
        &Recorder::disabled(),
        &noise,
        win,
    );
    // One poll per pass: visit 0 fails the row pass, visit 1 the column
    // pass.
    for visit in [0, 1] {
        let chaos = ChaosInjector::new(FaultSchedule::new(9).with_fault(
            FaultSite::FftTile,
            FaultKind::Panic,
            visit,
        ));
        let rec = Recorder::enabled();
        let got = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_context(
                GenContext::new()
                    .with_backend(ConvBackend::FftOverlapSave)
                    .with_workers(2)
                    .with_recorder(rec.clone())
                    .with_chaos(chaos.clone()),
            )
            .try_generate(&noise, win)
            .unwrap();
        assert_eq!(fnv1a(&got), fnv1a(&direct), "visit {visit}: degraded bits");
        assert_eq!(chaos.injected(), 1);
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_SEPARABLE_FIELDS), 0);
    }
}

#[test]
fn byte_ceiling_below_the_separable_workspace_is_rejected() {
    let kernel = ConvolutionKernel::build(&gauss(1.0, 8.0, 8.0), KernelSizing::default());
    let (kw, kh) = kernel.extent();
    let (nx, ny) = (64usize, 48usize);
    let win = Window::sized(nx, ny);
    let noise = NoiseField::new(3);
    // Room for the noise window and the output — all the Direct rung
    // needs — but not for the row pass's (ny+kh−1) × nx buffer.
    let direct_bytes = 8 * ((nx + kw - 1) * (ny + kh - 1) + nx * ny);
    let ceiling = direct_bytes + 8 * nx * (ny + kh - 1) - 8;
    let gen = |backend| {
        ConvolutionGenerator::from_kernel(kernel.clone()).with_context(
            GenContext::new()
                .with_backend(backend)
                .with_budget(Budget::unlimited().with_max_bytes(ceiling)),
        )
    };
    let err = gen(ConvBackend::FftOverlapSave)
        .try_generate(&noise, win)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::BudgetExceeded, "{err}");
    gen(ConvBackend::Direct)
        .try_generate(&noise, win)
        .expect("Direct fits the ceiling");
}
