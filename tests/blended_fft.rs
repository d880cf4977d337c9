//! Blended inhomogeneous windows on the FFT rung.
//!
//! `InhomogeneousGenerator` evaluates `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)`
//! (paper eqns 37/46) on the overlap-save engine for every window, pure or
//! blended: one weight pass per request, one field per active kernel, and
//! kernel blocks when a kernel dwarfs the window. This suite pins:
//!
//! * **equivalence** — FFT and Auto stay within 1e-9 relative of the
//!   per-sample Direct loop over plate-quadrant, circle-pond and
//!   point-ring layouts, for windows straddling a transition, windows
//!   spanning two pure regions, windows inside one region, and kernels
//!   that dwarf their window;
//! * **determinism** — FFT output is bit-identical for 1, 2 and 5 workers;
//! * **one weight pass** — `weights_at` runs once per sample per request;
//! * **faults and budgets** — an injected FFT fault degrades a blended
//!   window to output FNV-1a-equal to a clean Direct run, cancellation
//!   surfaces typed, and admission charges the rung's whole workspace.
//!
//! The partition cases also run `ConvolutionGenerator`: it is the same
//! window engine over one kernel at weight 1, so a kernel that dwarfs its
//! window is split into blocks there too.

use rrs::inhomo::WeightMap;
use rrs::obs::stage;
use rrs::prelude::*;
use rrs_check::{from_fn, Gen};
use std::sync::atomic::{AtomicU64, Ordering};

fn fnv1a(g: &Grid2<f64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in g.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
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

fn gauss(h: f64, cl: f64) -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto {
        factor: 6.0,
        min: 16,
        max: 48,
    }
}

/// Four Gaussian quadrants of `[0, n]²` blending across `t`.
fn plate_quadrants(n: f64, t: f64) -> Box<dyn WeightMap> {
    Box::new(rrs::inhomo::plate::quadrant_layout(
        n,
        n,
        [
            gauss(1.0, 3.0),
            gauss(1.5, 4.0),
            gauss(2.0, 5.0),
            gauss(1.5, 4.0),
        ],
        t,
    ))
}

/// Figure 1's quadrants on `[0, 64]²`, blending across 8.
fn quadrants() -> Box<dyn WeightMap> {
    plate_quadrants(64.0, 8.0)
}

/// A layout constructor.
type Layout = fn() -> Box<dyn WeightMap>;

/// An exponential pond of radius 20 at (32, 32) in a Gaussian field.
fn circle_pond() -> Box<dyn WeightMap> {
    let pond = Plate {
        region: Region::Circle {
            cx: 32.0,
            cy: 32.0,
            r: 20.0,
        },
        spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.3, 4.0)),
    };
    Box::new(PlateLayout::new(vec![pond], Some(gauss(1.0, 3.0)), 8.0))
}

/// Nine points on a radius-40 ring plus the centre, as in Figure 4.
fn point_ring() -> Box<dyn WeightMap> {
    ring_of(gauss)
}

/// [`point_ring`] with exponential ring kernels: no kernel is rank one,
/// so every field runs overlap-save.
fn exponential_ring() -> Box<dyn WeightMap> {
    ring_of(|h, cl| SpectrumModel::exponential(SurfaceParams::isotropic(h, cl)))
}

fn ring_of(family: fn(f64, f64) -> SpectrumModel) -> Box<dyn WeightMap> {
    let mut points: Vec<RepresentativePoint> = (1..=9)
        .map(|i| {
            let th = std::f64::consts::TAU * i as f64 / 9.0;
            let (h, cl) = [(1.0, 3.0), (1.5, 4.0), (2.0, 5.0)][(i - 1) / 3];
            RepresentativePoint {
                x: 40.0 * th.cos(),
                y: 40.0 * th.sin(),
                spectrum: family(h, cl),
            }
        })
        .collect();
    points.push(RepresentativePoint {
        x: 0.0,
        y: 0.0,
        spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.5, 5.0)),
    });
    Box::new(PointLayout::new(points, 8.0))
}

type Gen2 = InhomogeneousGenerator<Box<dyn WeightMap>>;

fn generator(
    map: Box<dyn WeightMap>,
    sizing: KernelSizing,
    backend: ConvBackend,
    workers: usize,
) -> Gen2 {
    InhomogeneousGenerator::new(map, sizing)
        .with_backend(backend)
        .with_workers(workers)
}

/// A generator under test: the inhomogeneous generator over a layout, or
/// the homogeneous generator over one Gaussian kernel.
#[derive(Clone, Copy)]
enum Subject {
    Map(Layout),
    /// The homogeneous generator over a Gaussian kernel.
    Homogeneous,
    /// The homogeneous generator over an exponential kernel.
    HomogeneousExponential,
}

impl Subject {
    fn try_generate(
        self,
        sizing: KernelSizing,
        ctx: GenContext,
        noise: &NoiseField,
        win: Window,
    ) -> Result<Grid2<f64>, RrsError> {
        match self {
            Subject::Map(map) => InhomogeneousGenerator::new(map(), sizing)
                .with_context(ctx)
                .try_generate(noise, win),
            Subject::Homogeneous => ConvolutionGenerator::new(&gauss(1.5, 4.0), sizing)
                .with_context(ctx)
                .try_generate(noise, win),
            Subject::HomogeneousExponential => ConvolutionGenerator::new(
                &SpectrumModel::exponential(SurfaceParams::isotropic(1.5, 4.0)),
                sizing,
            )
            .with_context(ctx)
            .try_generate(noise, win),
        }
    }

    /// `win` under `backend` and `workers`, observed by `rec`.
    fn generate(
        self,
        sizing: KernelSizing,
        backend: ConvBackend,
        workers: usize,
        rec: &Recorder,
        noise: &NoiseField,
        win: Window,
    ) -> Grid2<f64> {
        let ctx = GenContext::new()
            .with_backend(backend)
            .with_workers(workers)
            .with_recorder(rec.clone());
        self.try_generate(sizing, ctx, noise, win).unwrap()
    }
}

/// Generates `win` under Direct, FFT and Auto; asserts both FFT paths
/// within 1e-9 of Direct and returns the FFT generator's report.
fn check_window(
    subject: Subject,
    sizing: KernelSizing,
    win: Window,
    workers: usize,
) -> rrs::obs::report::ObsReport {
    let noise = NoiseField::new(0x5eed ^ (win.x0 as u64) ^ ((win.y0 as u64) << 20));
    let off = Recorder::disabled();
    let direct = subject.generate(sizing, ConvBackend::Direct, workers, &off, &noise, win);
    let rec = Recorder::enabled();
    let fft = subject.generate(sizing, ConvBackend::FftOverlapSave, workers, &rec, &noise, win);
    let auto = subject.generate(sizing, ConvBackend::Auto, workers, &off, &noise, win);
    let err = rel_err(&direct, &fft);
    assert!(
        err <= 1e-9,
        "FFT vs Direct over {win:?}: relative err {err:e}"
    );
    let err = rel_err(&direct, &auto);
    assert!(
        err <= 1e-9,
        "Auto vs Direct over {win:?}: relative err {err:e}"
    );
    let report = rec.report();
    assert_eq!(
        report.counter(stage::CONV_BACKEND_FFT),
        1,
        "{win:?} must take the FFT rung"
    );
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0);
    report
}

#[test]
fn window_straddling_a_transition_blends_on_the_fft_rung() {
    for (map, win) in [
        (quadrants as Layout, Window::new(20, 24, 24, 20)),
        (circle_pond, Window::new(0, 20, 30, 24)),
        (point_ring, Window::new(-8, -30, 28, 24)),
    ] {
        let report = check_window(Subject::Map(map), sizing(), win, 2);
        assert!(
            report.counter(stage::INHOMO_BLENDED_SAMPLES) > 0,
            "{win:?} must blend"
        );
    }
}

#[test]
fn window_spanning_two_pure_regions_copies_each_field() {
    // An odd side puts the quadrant boundary at 32.5; with T = 0.5 no
    // lattice sample blends, so the window is two pure halves.
    let win = Window::new(24, 4, 18, 20);
    let report = check_window(Subject::Map(|| plate_quadrants(65.0, 0.5)), sizing(), win, 2);
    assert_eq!(report.counter(stage::INHOMO_BLENDED_SAMPLES), 0);
    assert_eq!(
        report.counter(stage::INHOMO_PURE_SAMPLES),
        (win.nx * win.ny) as u64
    );
    assert_eq!(
        report.counter(stage::CORRELATE_SAMPLES),
        2 * (win.nx * win.ny) as u64,
        "one field per active kernel"
    );
}

#[test]
fn window_inside_one_region_is_one_field() {
    for (map, win) in [
        (quadrants as Layout, Window::new(40, 40, 16, 16)),
        (circle_pond, Window::new(26, 26, 12, 12)),
        (point_ring, Window::new(-6, -6, 12, 12)),
    ] {
        let report = check_window(Subject::Map(map), sizing(), win, 2);
        assert_eq!(report.counter(stage::INHOMO_BLENDED_SAMPLES), 0, "{win:?}");
        assert_eq!(
            report.counter(stage::CORRELATE_SAMPLES),
            (win.nx * win.ny) as u64
        );
    }
}

#[test]
fn kernel_dwarfing_its_window_is_computed_in_blocks() {
    // 96² kernels over 16² windows: the single-block plan would need a
    // 128² lattice, more than 4 × 16, so each field is split into
    // 17 × 17 kernel blocks on the 32² window lattice: 6 × 6 = 36.
    // Exponential kernels throughout: a rank-one Gaussian would take the
    // separable field, which runs no block.
    let sizing = KernelSizing::Explicit(GridSpec::unit(96, 96));
    let probe = InhomogeneousGenerator::new(exponential_ring(), sizing);
    assert!(probe.kernels().iter().all(|k| k.extent() == (96, 96)));

    for subject in [
        Subject::Map(exponential_ring),
        Subject::HomogeneousExponential,
    ] {
        let pure = check_window(subject, sizing, Window::new(-8, -8, 16, 16), 2);
        assert_eq!(pure.counter(stage::CONV_FFT_TILES), 36);
    }

    // Straddling the centre cell's edge: two or more kernels, each in
    // 36 blocks.
    let blended =
        check_window(Subject::Map(exponential_ring), sizing, Window::new(12, -8, 16, 16), 3);
    let fields = blended.counter(stage::CORRELATE_SAMPLES) / (16 * 16);
    assert!(fields >= 2 && blended.counter(stage::INHOMO_BLENDED_SAMPLES) > 0);
    assert_eq!(blended.counter(stage::CONV_FFT_TILES), 36 * fields);
}

#[test]
fn fft_output_is_bit_identical_for_1_2_and_5_workers() {
    let noise = NoiseField::new(77);
    for (map, sizing, win) in [
        (quadrants as Layout, sizing(), Window::new(10, 12, 40, 36)),
        (circle_pond, sizing(), Window::new(-4, 8, 44, 30)),
        (point_ring, sizing(), Window::new(-30, -20, 48, 40)),
        (
            point_ring,
            KernelSizing::Explicit(GridSpec::unit(96, 96)),
            Window::new(12, -8, 16, 16),
        ),
    ] {
        let hashes: Vec<u64> = [1, 2, 5]
            .iter()
            .map(|&w| {
                fnv1a(
                    &generator(map(), sizing, ConvBackend::FftOverlapSave, w).generate(&noise, win),
                )
            })
            .collect();
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "{win:?}: {hashes:x?}"
        );
    }
}

/// A [`WeightMap`] that counts its `weights_at` calls.
struct Counting {
    inner: Box<dyn WeightMap>,
    calls: AtomicU64,
}

impl WeightMap for Counting {
    fn kernel_count(&self) -> usize {
        self.inner.kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        self.inner.spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.weights_at(x, y, out)
    }
}

#[test]
fn weights_are_evaluated_once_per_sample_per_request() {
    let win = Window::new(-20, -24, 40, 30);
    let noise = NoiseField::new(3);
    for backend in [
        ConvBackend::FftOverlapSave,
        ConvBackend::Auto,
        ConvBackend::Direct,
    ] {
        let map = Counting {
            inner: point_ring(),
            calls: AtomicU64::new(0),
        };
        let gen = InhomogeneousGenerator::new(map, sizing())
            .with_backend(backend)
            .with_workers(2);
        gen.generate(&noise, win);
        gen.generate(&noise, win);
        assert_eq!(
            gen.map().calls.load(Ordering::Relaxed),
            2 * (win.nx * win.ny) as u64,
            "{backend:?}"
        );
    }
}

struct Case {
    layout: u8,
    seed: u64,
    x0: i64,
    y0: i64,
    nx: usize,
    ny: usize,
}

fn arb_case() -> impl Gen<Value = Case> {
    from_fn(|rng| Case {
        layout: rng.next_below(3) as u8,
        seed: rng.next_u64(),
        x0: rng.next_below(96) as i64 - 48,
        y0: rng.next_below(96) as i64 - 48,
        nx: 4 + rng.next_below(40) as usize,
        ny: 4 + rng.next_below(40) as usize,
    })
}

rrs_check::props! {
    #![cases = 16]

    /// FFT and Auto reproduce the per-sample loop within 1e-9 relative
    /// for random windows over all three layouts, at any worker count.
    fn fft_and_auto_match_direct_over_every_layout(case in arb_case(), workers in 1usize..4) {
        let map = || match case.layout {
            0 => quadrants(),
            1 => circle_pond(),
            _ => point_ring(),
        };
        let win = Window::new(case.x0, case.y0, case.nx, case.ny);
        let noise = NoiseField::new(case.seed);
        let direct = generator(map(), sizing(), ConvBackend::Direct, workers).generate(&noise, win);
        for backend in [ConvBackend::FftOverlapSave, ConvBackend::Auto] {
            let got = generator(map(), sizing(), backend, workers).generate(&noise, win);
            let err = rel_err(&direct, &got);
            assert!(err <= 1e-9, "layout {} {backend:?} {win:?}: relative err {err:e}", case.layout);
        }
    }
}

// --- Faults, breaker and budget on blended windows. ---

#[test]
fn injected_fft_panic_in_a_blended_window_degrades_to_direct_bits() {
    let noise = NoiseField::new(404);
    let explicit = KernelSizing::Explicit(GridSpec::unit(96, 96));
    // A partitioned blend (96² kernels over a 16² window), a
    // single-block one, and the homogeneous generator's partitioned
    // field.
    for (subject, sizing, win) in [
        (Subject::Map(point_ring), explicit, Window::new(12, -8, 16, 16)),
        (Subject::Map(point_ring), sizing(), Window::new(-8, -30, 28, 24)),
        (Subject::Homogeneous, explicit, Window::new(12, -8, 16, 16)),
    ] {
        let off = Recorder::disabled();
        let direct = subject.generate(sizing, ConvBackend::Direct, 2, &off, &noise, win);
        for visit in [0, 1] {
            let chaos = ChaosInjector::new(FaultSchedule::new(11).with_fault(
                FaultSite::FftTile,
                FaultKind::Panic,
                visit,
            ));
            let rec = Recorder::enabled();
            let ctx = GenContext::new()
                .with_backend(ConvBackend::FftOverlapSave)
                .with_workers(2)
                .with_recorder(rec.clone())
                .with_chaos(chaos.clone());
            let got = subject.try_generate(sizing, ctx, &noise, win).unwrap();
            assert_eq!(
                fnv1a(&got),
                fnv1a(&direct),
                "{win:?} visit {visit}: degraded bits"
            );
            let report = rec.report();
            if let Subject::Map(_) = subject {
                assert!(report.counter(stage::INHOMO_BLENDED_SAMPLES) > 0);
            }
            assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
            assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
            assert_eq!(chaos.injected(), 1);
        }
    }
}

#[test]
fn cancellation_on_a_blended_window_surfaces_typed_and_never_degrades() {
    let noise = NoiseField::new(405);
    let sizing = KernelSizing::Explicit(GridSpec::unit(96, 96));
    let win = Window::new(12, -8, 16, 16);

    let token = CancelToken::new();
    token.cancel();
    let rec = Recorder::enabled();
    let gen = generator(point_ring(), sizing, ConvBackend::FftOverlapSave, 2)
        .with_recorder(rec.clone())
        .with_budget(Budget::unlimited().with_cancel_token(token));
    let err = gen.try_generate(&noise, win).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);
    assert_eq!(rec.report().counter(stage::CONV_DEGRADED_TO_DIRECT), 0);

    // Cancelled mid-rung, at the third block product.
    let chaos = ChaosInjector::new(FaultSchedule::new(12).with_fault(
        FaultSite::FftTile,
        FaultKind::Cancel,
        2,
    ));
    let rec = Recorder::enabled();
    let gen = generator(point_ring(), sizing, ConvBackend::FftOverlapSave, 2)
        .with_recorder(rec.clone())
        .with_chaos(chaos);
    let err = gen.try_generate(&noise, win).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0);
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0);
}

#[test]
fn admission_charges_the_blended_rungs_whole_workspace() {
    let noise = NoiseField::new(406);
    let sizing = KernelSizing::Explicit(GridSpec::unit(96, 96));
    let win = Window::new(12, -8, 16, 16);
    let samples = (win.nx * win.ny) as u64;
    // Enough for the output and a one-pair-per-sample weight table (the
    // weight pass runs), far short of the 111² noise window, the field
    // buffer and the block workspace.
    let ceiling = (8 * samples + 20 * samples + 64) as usize;
    for subject in [Subject::Map(point_ring), Subject::Homogeneous] {
        let rec = Recorder::enabled();
        let ctx = GenContext::new()
            .with_backend(ConvBackend::FftOverlapSave)
            .with_workers(2)
            .with_recorder(rec.clone());
        let tight = ctx.clone().with_budget(Budget::unlimited().with_max_bytes(ceiling));
        let err = subject.try_generate(sizing, tight, &noise, win).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
        let report = rec.report();
        assert_eq!(report.counter(stage::BUDGET_REJECT), 1);
        assert_eq!(
            report.counter(stage::CONV_BACKEND_FFT),
            0,
            "rejected before the rung ran"
        );
        assert!(
            !report.durations.contains_key(stage::WINDOW_MATERIALISE),
            "nothing materialised"
        );

        // The same request fits once the ceiling covers the workspace.
        let roomy = ctx.with_budget(Budget::unlimited().with_max_bytes(64 << 20));
        let got = subject.try_generate(sizing, roomy, &noise, win).unwrap();
        let off = Recorder::disabled();
        let direct = subject.generate(sizing, ConvBackend::Direct, 2, &off, &noise, win);
        assert!(rel_err(&direct, &got) <= 1e-9);
    }
}
