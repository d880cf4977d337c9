//! The inhomogeneous convolution generator (eqns 37 and 46).
//!
//! A [`WeightMap`] answers "which kernels, with what weights, at this
//! sample"; the generator evaluates, for every output sample `n`,
//!
//! ```text
//! f(n) = Σ_i g_i(n) · (w̃_i ⊛ X)(n)
//! ```
//!
//! which by linearity equals convolving the blended kernel
//! `Σ_i g_i(n)·w̃_i` of eqns (37)/(46) with the noise.
//!
//! The generator is the map plus `rrs-surface`'s window engine over one
//! kernel per map entry; the homogeneous generator is the same engine
//! over one kernel at weight 1. Every request runs one weight pass —
//! `weights_at` once per sample — and then the engine's degradation
//! ladder: its FFT rung computes one overlap-save field per kernel active
//! in the window and accumulates `g_i(n)·field_i(n)`, and its Direct rung
//! (the only rung under the default [`ConvBackend::Direct`]) is a
//! per-sample loop of one homogeneous-kernel dot product per active
//! kernel, reading the same weights.

use rrs_chaos::ChaosInjector;
use rrs_error::{Budget, RrsError};
use rrs_fft::FftPlanCache;
use rrs_grid::{Grid2, Window};
use rrs_obs::Recorder;
use rrs_spectrum::SpectrumModel;
use rrs_surface::internal::WindowEngine;
use rrs_surface::{ConvBackend, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::sync::Arc;

/// Assigns per-sample kernel weights; implemented by
/// [`crate::PlateLayout`] and [`crate::PointLayout`].
pub trait WeightMap: Send + Sync {
    /// Number of kernels the map refers to.
    fn kernel_count(&self) -> usize;

    /// The spectra backing each kernel index, in order.
    fn spectra(&self) -> Vec<SpectrumModel>;

    /// Writes the non-zero `(kernel_index, weight)` pairs at `(x, y)` into
    /// `out` (cleared first). Weights are non-negative and sum to 1; an
    /// index of `kernel_count()` or more fails the request with
    /// [`RrsError::InvalidParam`].
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>);
}

impl WeightMap for Box<dyn WeightMap> {
    fn kernel_count(&self) -> usize {
        (**self).kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        (**self).spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        (**self).weights_at(x, y, out)
    }
}

/// Inhomogeneous surface generator over any [`WeightMap`]: the map, and
/// a window engine over one kernel per map entry.
pub struct InhomogeneousGenerator<M> {
    map: M,
    engine: WindowEngine,
}

impl<M: WeightMap> InhomogeneousGenerator<M> {
    /// Builds the generator, constructing one kernel per map entry with
    /// the given sizing policy.
    pub fn new(map: M, sizing: KernelSizing) -> Self {
        let kernels = map
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing))
            .collect();
        Self::from_kernels(map, kernels)
    }

    /// Builds the generator with kernel truncation (`epsilon` relative
    /// root-energy loss) — the ablation knob for transition fidelity vs
    /// speed.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1`. Fallible callers use
    /// [`InhomogeneousGenerator::try_new_truncated`].
    pub fn new_truncated(map: M, sizing: KernelSizing, epsilon: f64) -> Self {
        Self::try_new_truncated(map, sizing, epsilon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`InhomogeneousGenerator::new_truncated`].
    pub fn try_new_truncated(
        map: M,
        sizing: KernelSizing,
        epsilon: f64,
    ) -> Result<Self, RrsError> {
        let kernels = map
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing).try_truncated(epsilon))
            .collect::<Result<Vec<_>, _>>()?;
        Self::try_from_kernels(map, kernels)
    }

    /// Wraps explicit kernels (must match `map.kernel_count()`).
    ///
    /// # Panics
    /// Panics on a count mismatch or an empty kernel list. Fallible
    /// callers use [`InhomogeneousGenerator::try_from_kernels`].
    pub fn from_kernels(map: M, kernels: Vec<ConvolutionKernel>) -> Self {
        Self::try_from_kernels(map, kernels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`InhomogeneousGenerator::from_kernels`].
    pub fn try_from_kernels(map: M, kernels: Vec<ConvolutionKernel>) -> Result<Self, RrsError> {
        if kernels.len() != map.kernel_count() {
            return Err(RrsError::shape_mismatch(
                "kernel count must match the weight map",
                map.kernel_count(),
                kernels.len(),
            ));
        }
        if kernels.is_empty() {
            return Err(RrsError::invalid_param("kernels", "need at least one kernel"));
        }
        Ok(Self { map, engine: WindowEngine::new(kernels) })
    }

    /// Replaces the whole [`GenContext`] at once — the single entry
    /// point every `with_*` builder delegates to, shared verbatim with
    /// the homogeneous generators. Cached kernel spectra stay warm unless
    /// the context carries a different plan cache; the window engine's
    /// `with_context` documents exactly what carries over.
    pub fn with_context(self, ctx: GenContext) -> Self {
        Self { map: self.map, engine: self.engine.with_context(ctx) }
    }

    /// Applies `f` to a copy of the context, through
    /// [`InhomogeneousGenerator::with_context`].
    fn map_context(self, f: impl FnOnce(GenContext) -> GenContext) -> Self {
        let ctx = f(self.context().clone());
        self.with_context(ctx)
    }

    /// The generation context (workers, backend, plan cache, recorder,
    /// budget, chaos).
    pub fn context(&self) -> &GenContext {
        self.engine.context()
    }

    /// Sets the worker count (output is identical for any value).
    pub fn with_workers(self, workers: usize) -> Self {
        self.map_context(|c| c.with_workers(workers))
    }

    /// Attaches a recorder: window materialisation and the blending loop
    /// are timed, and the kernel-selection mix is counted
    /// (`inhomo/pure_samples`, `inhomo/blended_samples`,
    /// `inhomo/kernel_evals`). Observation never changes output.
    pub fn with_recorder(self, obs: Recorder) -> Self {
        self.map_context(|c| c.with_recorder(obs))
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.context().recorder()
    }

    /// Attaches a resource [`Budget`]: deadline/cancel polled at band
    /// granularity during blending, byte ceiling enforced before the
    /// noise window and output field are allocated. Defaults to
    /// [`Budget::unlimited`], under which generation is bit-identical to
    /// the unbudgeted path.
    pub fn with_budget(self, budget: Budget) -> Self {
        self.map_context(|c| c.with_budget(budget))
    }

    /// The attached budget ([`Budget::unlimited`] by default).
    pub fn budget(&self) -> &Budget {
        self.context().budget()
    }

    /// Attaches a [`ChaosInjector`]: fault sites in the blending loop and
    /// the FFT rung consult its schedule. Disabled by default,
    /// under which generation is bit-identical to the un-instrumented
    /// path.
    pub fn with_chaos(self, chaos: ChaosInjector) -> Self {
        self.map_context(|c| c.with_chaos(chaos))
    }

    /// The attached chaos injector (disabled by default).
    pub fn chaos(&self) -> &ChaosInjector {
        self.context().chaos()
    }

    /// Selects the convolution backend. Every request runs one weight
    /// pass and takes the same engine, degradation ladder and circuit
    /// breaker as [`ConvolutionGenerator`](rrs_surface::ConvolutionGenerator):
    /// when every kernel active in the window resolves to
    /// [`ConvBackend::FftOverlapSave`] (always for that backend, by kernel
    /// area for [`ConvBackend::Auto`]), each kernel's field is computed by
    /// overlap-save FFT — split into kernel blocks when the kernel dwarfs
    /// the window — and blended per sample with the pass's weights, within
    /// 1e-9 relative of the per-sample loop. Otherwise, and on a worker
    /// panic or injected fault, the per-sample loop serves the window;
    /// under the default [`ConvBackend::Direct`] it always does, and is
    /// bit-identical to previous releases.
    pub fn with_backend(self, backend: ConvBackend) -> Self {
        self.map_context(|c| c.with_backend(backend))
    }

    /// The configured backend policy ([`ConvBackend::Direct`] by default).
    pub fn backend(&self) -> ConvBackend {
        self.context().backend()
    }

    /// Shares an [`FftPlanCache`] with other generators so FFT dispatches
    /// reuse their twiddle tables. Sugar for
    /// [`GenContext::with_plan_cache`] via
    /// [`InhomogeneousGenerator::with_context`]: a different cache starts
    /// the kernels' FFT spectra afresh.
    pub fn with_plan_cache(self, plans: Arc<FftPlanCache>) -> Self {
        self.map_context(|c| c.with_plan_cache(plans))
    }

    /// The plan cache backing the FFT path.
    pub fn plan_cache(&self) -> &Arc<FftPlanCache> {
        self.context().plan_cache()
    }

    /// The kernels, in map order.
    pub fn kernels(&self) -> &[ConvolutionKernel] {
        self.engine.kernels()
    }

    /// The weight map.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// Fallible [`InhomogeneousGenerator::generate`]: reports worker
    /// panics — in the weight map too — as [`RrsError::WorkerPanicked`]
    /// instead of propagating the unwind. With a [`Budget`] attached, a
    /// tripped cancel/deadline returns before any allocation and a byte
    /// ceiling rejects oversized requests with
    /// [`RrsError::BudgetExceeded`] before the noise window or output
    /// field is materialised.
    pub fn try_generate(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.engine.try_generate(noise, win, Some(&|x, y, out| self.map.weights_at(x, y, out)))
    }

    /// Generates the surface samples requested by `win` from the
    /// unbounded inhomogeneous surface driven by `noise`. Windows tile
    /// seamlessly.
    ///
    /// # Panics
    /// Panics if a worker panics. Fallible callers use
    /// [`InhomogeneousGenerator::try_generate`].
    pub fn generate(&self, noise: &NoiseField, win: Window) -> Grid2<f64> {
        self.try_generate(noise, win).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plate::{quadrant_layout, Plate, PlateLayout};
    use crate::point::{PointLayout, RepresentativePoint};
    use crate::region::Region;
    use rrs_obs::stage;
    use rrs_spectrum::{SpectrumModel, SurfaceParams};
    use rrs_surface::BackendHealth;

    fn sm(h: f64, cl: f64) -> SpectrumModel {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
    }

    fn sizing() -> KernelSizing {
        KernelSizing::Auto { factor: 8.0, min: 16, max: 128 }
    }

    #[test]
    fn homogeneous_map_reduces_to_homogeneous_generator() {
        // A single-plate layout reproduces the homogeneous convolution
        // generator bit for bit (same kernel, same noise) on every
        // backend: the one engine runs both, a pure weight-1 sample
        // copies its field, and the per-sample loop adds in the
        // vectorised correlate's order. The second input is a 96² kernel
        // over a 16² window, which the FFT rung computes in blocks.
        let spectrum = sm(1.2, 5.0);
        let noise = NoiseField::new(7);
        let explicit = KernelSizing::Explicit(rrs_spectrum::GridSpec::unit(96, 96));
        for (sizing, win) in [(sizing(), Window::new(-3, 4, 40, 24)), (explicit, Window::new(5, -9, 16, 16))]
        {
            let kernel = ConvolutionKernel::build(&spectrum, sizing);
            for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave, ConvBackend::Auto] {
                let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
                let inh = InhomogeneousGenerator::from_kernels(layout, vec![kernel.clone()])
                    .with_workers(1)
                    .with_backend(backend);
                let hom = rrs_surface::ConvolutionGenerator::from_kernel(kernel.clone())
                    .with_workers(1)
                    .with_backend(backend);
                assert_eq!(inh.generate(&noise, win), hom.generate(&noise, win), "{backend:?} {win:?}");
            }
        }
    }

    #[test]
    fn faulty_weight_maps_are_typed_on_every_backend() {
        // A map that panics past x = 10, and one that names a kernel it
        // does not have: the weight pass runs before the ladder on every
        // backend, contained, so each fault surfaces as a typed error and
        // nothing is materialised.
        struct Faulty(PlateLayout, usize);
        impl WeightMap for Faulty {
            fn kernel_count(&self) -> usize {
                self.0.kernel_count()
            }
            fn spectra(&self) -> Vec<SpectrumModel> {
                self.0.spectra()
            }
            fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
                assert!(x <= 10.0, "weight map fault at x = {x}");
                self.0.weights_at(x, y, out);
                out[0].0 += self.1;
            }
        }
        use rrs_error::ErrorKind;
        for (win, shift, kind, message) in [
            (Window::sized(24, 8), 0, ErrorKind::WorkerPanicked, "weight map fault"),
            (Window::sized(8, 8), 1, ErrorKind::InvalidParam, "kernel index 1 out of range"),
        ] {
            for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave, ConvBackend::Auto] {
                let rec = Recorder::enabled();
                let map = Faulty(PlateLayout::new(vec![], Some(sm(1.0, 4.0)), 1.0), shift);
                let gen = InhomogeneousGenerator::new(map, sizing())
                    .with_backend(backend)
                    .with_recorder(rec.clone());
                let err = gen.try_generate(&NoiseField::new(3), win).unwrap_err();
                assert_eq!(err.kind(), kind, "{backend:?}");
                assert!(err.to_string().contains(message), "{err}");
                assert!(!rec.report().durations.contains_key(stage::WINDOW_MATERIALISE));
            }
        }
    }

    #[test]
    fn quadrants_have_their_target_statistics() {
        // A miniature Figure 1: four quadrants with different (h, cl).
        let n = 192usize;
        let layout = quadrant_layout(
            n as f64,
            n as f64,
            [sm(1.0, 4.0), sm(1.5, 6.0), sm(2.0, 8.0), sm(1.5, 6.0)],
            8.0,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(3), Window::sized(n, n));
        // Estimate h deep inside each quadrant (margin avoids transitions).
        let m = 24usize;
        let h_q1 = f.window(n / 2 + m, n / 2 + m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q2 = f.window(m, n / 2 + m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q3 = f.window(m, m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q4 = f.window(n / 2 + m, m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        for (got, want) in [(h_q1, 1.0), (h_q2, 1.5), (h_q3, 2.0), (h_q4, 1.5)] {
            // Few independent patches per quadrant ⇒ generous tolerance.
            assert!((got - want).abs() < 0.45 * want, "ĥ = {got}, target {want}");
        }
        // Ordering must hold strictly: q3 roughest, q1 smoothest.
        assert!(h_q3 > h_q2 && h_q2 > h_q1);
        assert!(h_q3 > h_q4 && h_q4 > h_q1);
    }

    #[test]
    fn windows_tile_seamlessly() {
        let layout = quadrant_layout(
            64.0,
            64.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing()).with_workers(2);
        let noise = NoiseField::new(9);
        let whole = gen.generate(&noise, Window::sized(64, 64));
        let part = gen.generate(&noise, Window::new(16, 24, 32, 20));
        for iy in 0..20 {
            for ix in 0..32 {
                assert_eq!(*part.get(ix, iy), *whole.get(ix + 16, iy + 24));
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let layout = quadrant_layout(
            48.0,
            48.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing()))
            .collect();
        let a = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_workers(1)
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        let b = InhomogeneousGenerator::from_kernels(layout, k)
            .with_workers(6)
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        assert_eq!(a, b);
    }

    #[test]
    fn circular_pond_is_smoother_than_field() {
        // Miniature Figure 3: exponential pond in a gaussian field.
        let pond = Plate {
            region: Region::Circle { cx: 64.0, cy: 64.0, r: 32.0 },
            spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.2, 6.0)),
        };
        let layout = PlateLayout::new(vec![pond], Some(sm(1.0, 6.0)), 10.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(11), Window::sized(128, 128));
        let inside = f.window(52, 52, 24, 24).std_dev();
        let outside = f.window(0, 0, 24, 24).std_dev();
        assert!(inside < 0.5, "pond ĥ = {inside}");
        assert!(outside > 0.55, "field ĥ = {outside}");
    }

    #[test]
    fn point_oriented_cells_have_target_statistics() {
        let pts = vec![
            RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(0.5, 4.0) },
            RepresentativePoint { x: 96.0, y: 0.0, spectrum: sm(2.0, 8.0) },
        ];
        let layout = PointLayout::new(pts, 12.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(17), Window::new(-48, -48, 192, 96));
        // Cell of point 0: x in [-48, 36) roughly; stay well clear of the
        // bisector at x = 48 (window-local 96).
        let left = f.window(8, 8, 64, 80).std_dev();
        let right = f.window(120, 8, 64, 80).std_dev();
        assert!((left - 0.5).abs() < 0.3, "left ĥ = {left}");
        assert!((right - 2.0).abs() < 0.8, "right ĥ = {right}");
        assert!(right > 2.0 * left);
    }

    #[test]
    fn transition_interpolates_monotonically() {
        // Across a two-plate boundary, a windowed std profile should rise
        // from ~h1 to ~h2 without overshooting wildly.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 64.0 },
            spectrum: sm(0.5, 4.0),
        };
        let layout = PlateLayout::new(vec![left], Some(sm(2.0, 4.0)), 16.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(23), Window::sized(128, 256));
        // Column-band std profile along x.
        let band = 8usize;
        let mut profile = Vec::new();
        for bx in (0..128).step_by(band) {
            profile.push(f.window(bx, 0, band, 256).std_dev());
        }
        let first = profile.first().copied().unwrap();
        let last = profile.last().copied().unwrap();
        assert!(first < 0.8, "left side ĥ = {first}");
        assert!(last > 1.5, "right side ĥ = {last}");
        // Rough monotonicity: each step may wiggle by sampling noise but
        // the cumulative trend must be increasing.
        let mid = profile[profile.len() / 2];
        assert!(mid > first && mid < last * 1.2, "profile {profile:?}");
    }

    #[test]
    #[should_panic(expected = "kernel count must match")]
    fn kernel_count_mismatch_rejected() {
        let layout = PlateLayout::new(vec![], Some(sm(1.0, 4.0)), 1.0);
        let _ = InhomogeneousGenerator::from_kernels(layout, vec![]);
    }

    #[test]
    fn budgeted_idle_run_is_bit_identical_and_rejections_are_precise() {
        use rrs_error::{Budget, CancelToken, ErrorKind};
        let layout = quadrant_layout(
            48.0,
            48.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing()))
            .collect();
        let plain = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_workers(3)
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        let budget = Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600))
            .with_max_bytes(usize::MAX);
        let gen = InhomogeneousGenerator::from_kernels(layout, k)
            .with_workers(3)
            .with_budget(budget);
        assert_eq!(
            gen.try_generate(&NoiseField::new(5), Window::sized(48, 48)).unwrap(),
            plain,
            "armed-but-idle budget must not change a single bit"
        );

        // Pre-cancelled: fails before the huge window is ever allocated.
        let token = CancelToken::new();
        token.cancel();
        let gen = gen.with_budget(Budget::unlimited().with_cancel_token(token));
        let huge = Window::sized(1 << 28, 1 << 28);
        let err = gen.try_generate(&NoiseField::new(5), huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled);

        // Admission: oversized request is rejected with the precise error.
        let gen = gen.with_budget(Budget::unlimited().with_max_bytes(1 << 20));
        let err = gen.try_generate(&NoiseField::new(5), huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
        assert!(err.to_string().contains("inhomogeneous generation"), "{err}");
    }

    /// Largest `|a − b|` over two equally shaped grids, relative to the
    /// largest `|a|`.
    fn rel_err(a: &Grid2<f64>, b: &Grid2<f64>) -> f64 {
        let scale = a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        let err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        err / scale
    }

    #[test]
    fn fft_backend_serves_pure_and_blended_windows() {
        // Pond in a field: windows deep inside either region are pure,
        // and a window across the shoreline blends both kernels; every
        // one of them takes the overlap-save rung within 1e-9 of the
        // per-sample loop.
        let pond = Plate {
            region: Region::Circle { cx: 64.0, cy: 64.0, r: 32.0 },
            spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.2, 6.0)),
        };
        let make = || {
            let layout = PlateLayout::new(vec![pond.clone()], Some(sm(1.0, 6.0)), 10.0);
            InhomogeneousGenerator::new(layout, sizing()).with_workers(2)
        };
        let direct = make();
        let rec = Recorder::enabled();
        let fft = make()
            .with_backend(rrs_surface::ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone());
        assert_eq!(fft.backend(), rrs_surface::ConvBackend::FftOverlapSave);
        let noise = NoiseField::new(29);

        // Field corner: pure background kernel → FFT path, within 1e-9.
        let win = Window::new(-40, -40, 32, 32);
        let a = direct.generate(&noise, win);
        let b = fft.generate(&noise, win);
        let scale = a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        let err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1e-9 * scale, "pure window: max err {err}");
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 1);
        assert_eq!(rec.report().counter(stage::INHOMO_PURE_SAMPLES), 32 * 32);

        // Pond centre: also pure, distinct kernel id in the engine cache.
        let win = Window::new(56, 56, 16, 16);
        let c = direct.generate(&noise, win);
        let d = fft.generate(&noise, win);
        let scale = c.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x, y) in c.as_slice().iter().zip(d.as_slice()) {
            assert!((x - y).abs() <= 1e-9 * scale, "pond window");
        }
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 2);

        // A window across the shoreline blends both kernels' fields.
        let win = Window::new(20, 20, 48, 48);
        let err = rel_err(&direct.generate(&noise, win), &fft.generate(&noise, win));
        assert!(err <= 1e-9, "shoreline window: relative err {err}");
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_DIRECT), 0);
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 3);
        assert!(rec.report().counter(stage::INHOMO_BLENDED_SAMPLES) > 0);

        // Auto resolves by kernel area: these kernels are far past the
        // crossover, so pure windows dispatch to the FFT engine too.
        let auto = make().with_backend(rrs_surface::ConvBackend::Auto);
        let e = auto.generate(&noise, Window::new(-40, -40, 32, 32));
        assert_eq!(e, b, "Auto must match the resolved FFT engine exactly");
    }

    #[test]
    fn injected_fft_faults_degrade_pure_windows_to_the_direct_loop() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        use rrs_obs::Recorder;
        // Pond-free layout: a pure window that would dispatch to the FFT
        // engine. A panic at FftTile visit 0 kills the FFT rung; the
        // generator must fall back to the per-sample direct loop, whose
        // output is the bit-exact reference the Direct backend produces.
        let spectrum = sm(1.1, 5.0);
        let make = || {
            let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
            InhomogeneousGenerator::new(layout, sizing()).with_workers(1)
        };
        let noise = NoiseField::new(37);
        let win = Window::new(-8, 4, 24, 20);
        let direct = make().generate(&noise, win);
        let chaos = ChaosInjector::new(
            FaultSchedule::new(5).with_fault(FaultSite::FftTile, FaultKind::Panic, 0),
        );
        let rec = Recorder::enabled();
        let gen = make()
            .with_backend(rrs_surface::ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone())
            .with_chaos(chaos.clone());
        let got = gen.try_generate(&noise, win).unwrap();
        assert_eq!(got, direct, "degraded output must match the direct loop bit-for-bit");
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
        assert_eq!(chaos.visits(FaultSite::FftTile), 1);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn open_breaker_skips_pure_windows_to_the_direct_loop_until_a_probe_succeeds() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        // A pure window whose FFT rung fails THRESHOLD times in a row
        // opens the breaker: the next request skips straight to the
        // per-sample loop without touching the FFT engine, and is
        // bit-identical to the Direct backend.
        let spectrum = sm(1.1, 5.0);
        let make = || {
            let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
            InhomogeneousGenerator::new(layout, sizing()).with_workers(1)
        };
        let noise = NoiseField::new(53);
        let win = Window::new(5, -7, 20, 16);
        let direct = make().with_backend(ConvBackend::Direct).generate(&noise, win);
        let mut schedule = FaultSchedule::new(9);
        for visit in 0..BackendHealth::THRESHOLD {
            schedule = schedule.with_fault(FaultSite::FftTile, FaultKind::Error, visit);
        }
        let chaos = ChaosInjector::new(schedule);
        let gen = make().with_backend(ConvBackend::FftOverlapSave).with_chaos(chaos.clone());
        for _ in 0..BackendHealth::THRESHOLD {
            assert_eq!(gen.try_generate(&noise, win).unwrap(), direct);
        }
        assert!(gen.engine.health().is_open());

        let rec = Recorder::enabled();
        let gen = gen.with_recorder(rec.clone());
        let skipped = gen.try_generate(&noise, win).unwrap();
        assert_eq!(skipped, direct, "a breaker skip must land on the Direct bits");
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_BREAKER_SKIPS), 1);
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0);
        assert_eq!(chaos.visits(FaultSite::FftTile), BackendHealth::THRESHOLD);

        // Skipped requests keep landing on the per-sample loop until the
        // probe request: the schedule is exhausted, so the probe succeeds
        // on the FFT engine and that one success closes the breaker.
        for _ in 1..BackendHealth::PROBE_EVERY {
            gen.try_generate(&noise, win).unwrap();
        }
        assert_eq!(rec.report().counter(stage::CONV_BREAKER_SKIPS), BackendHealth::PROBE_EVERY - 1);
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 1, "the probe ran the FFT rung");
        assert!(!gen.engine.health().is_open());
        assert_eq!(gen.engine.health().consecutive_failures(), 0);
        let scale = direct.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        let fft = gen.try_generate(&noise, win).unwrap();
        for (a, b) in fft.as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() <= 1e-9 * scale);
        }
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 2);
    }

    #[test]
    fn with_context_matches_the_sugar_builders() {
        let spectrum = sm(1.2, 5.0);
        let make = || {
            let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
            InhomogeneousGenerator::new(layout, sizing())
        };
        let plans = Arc::new(FftPlanCache::new());
        let sugar = make()
            .with_workers(2)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_plan_cache(Arc::clone(&plans));
        let ctx = GenContext::new()
            .with_workers(2)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_plan_cache(Arc::clone(&plans));
        let via_ctx = make().with_context(ctx);
        let noise = NoiseField::new(91);
        let win = Window::new(-6, 2, 28, 20);
        assert_eq!(
            sugar.try_generate(&noise, win).unwrap(),
            via_ctx.try_generate(&noise, win).unwrap(),
            "one with_context must equal the chained sugar builders bit-for-bit"
        );
        assert!(Arc::ptr_eq(via_ctx.plan_cache(), &plans));
        assert_eq!(via_ctx.context().workers(), 2);
        assert_eq!(via_ctx.backend(), ConvBackend::FftOverlapSave);
    }

    #[test]
    fn recorder_counts_kernel_selection_without_changing_output() {
        // Two half-plane plates with a transition band: most samples are
        // pure, the band is blended, and every sample costs ≥ 1 eval.
        // The per-sample loop counts as it goes; the FFT rung counts
        // from its weight pass, to the same totals.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 24.0 },
            spectrum: sm(0.5, 3.0),
        };
        let layout = PlateLayout::new(vec![left], Some(sm(1.5, 3.0)), 8.0);
        let sizing = KernelSizing::Explicit(rrs_spectrum::GridSpec::unit(16, 16));
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing))
            .collect();
        for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
            let plain = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
                .with_workers(2)
                .with_backend(backend);
            let rec = Recorder::enabled();
            let observed = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
                .with_workers(2)
                .with_backend(backend)
                .with_recorder(rec.clone());
            let noise = NoiseField::new(31);
            let win = Window::sized(48, 32);
            assert_eq!(plain.generate(&noise, win), observed.generate(&noise, win));
            let report = rec.report();
            let pure = report.counter(stage::INHOMO_PURE_SAMPLES);
            let blended = report.counter(stage::INHOMO_BLENDED_SAMPLES);
            let evals = report.counter(stage::INHOMO_KERNEL_EVALS);
            assert_eq!(pure + blended, 48 * 32, "{backend:?}");
            assert!(blended > 0, "the transition band must blend");
            assert!(pure > blended, "the bulk must stay pure");
            assert_eq!(evals, pure + 2 * blended);
            assert_eq!(report.counter(stage::CONV_BACKEND_FFT), u64::from(backend != ConvBackend::Direct));
            assert!(report.durations.contains_key(stage::WINDOW_MATERIALISE));
            assert!(report.durations.contains_key(stage::CORRELATE));
        }
    }
}
