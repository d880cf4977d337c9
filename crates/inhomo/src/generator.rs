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
//! `Σ_i g_i(n)·w̃_i` of eqns (37)/(46) with the noise. Samples where only
//! one kernel is active (the bulk of the surface) cost exactly one
//! homogeneous-kernel dot product.

use rrs_chaos::ChaosInjector;
use rrs_error::{Budget, RrsError};
use rrs_fft::FftPlanCache;
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, ObsSink, Recorder};
use rrs_spectrum::SpectrumModel;
use rrs_surface::internal::{run_ladder, FftEngine};
use rrs_surface::{
    BackendHealth, ConvBackend, ConvolutionKernel, GenContext, KernelSizing, NoiseField,
};
use std::sync::Arc;

/// Assigns per-sample kernel weights; implemented by
/// [`crate::PlateLayout`] and [`crate::PointLayout`].
pub trait WeightMap: Send + Sync {
    /// Number of kernels the map refers to.
    fn kernel_count(&self) -> usize;

    /// The spectra backing each kernel index, in order.
    fn spectra(&self) -> Vec<SpectrumModel>;

    /// Writes the non-zero `(kernel_index, weight)` pairs at `(x, y)` into
    /// `out` (cleared first). Weights are non-negative and sum to 1.
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

/// Inhomogeneous surface generator over any [`WeightMap`].
pub struct InhomogeneousGenerator<M> {
    map: M,
    kernels: Vec<ConvolutionKernel>,
    ctx: GenContext,
    fft: FftEngine,
    health: BackendHealth,
    // Precomputed reaches for noise-window sizing.
    reach_left: i64,
    reach_right: i64,
    reach_down: i64,
    reach_up: i64,
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
        let mut reach_left = 0i64;
        let mut reach_right = 0i64;
        let mut reach_down = 0i64;
        let mut reach_up = 0i64;
        for k in &kernels {
            let (w, h) = k.extent();
            let (ox, oy) = k.origin();
            reach_left = reach_left.max(ox + w as i64 - 1);
            reach_right = reach_right.max(-ox);
            reach_down = reach_down.max(oy + h as i64 - 1);
            reach_up = reach_up.max(-oy);
        }
        let ctx = GenContext::new();
        Ok(Self {
            map,
            kernels,
            fft: FftEngine::new(Arc::clone(ctx.plan_cache())),
            ctx,
            health: BackendHealth::new(),
            reach_left,
            reach_right,
            reach_down,
            reach_up,
        })
    }

    /// Replaces the whole [`GenContext`] at once — the single entry
    /// point every `with_*` builder delegates to, shared verbatim with
    /// the homogeneous generators. The FFT engine is rebuilt only when
    /// the context carries a different plan cache, so re-applying a
    /// context that shares the current cache keeps cached kernel
    /// spectra warm.
    pub fn with_context(mut self, ctx: GenContext) -> Self {
        if !Arc::ptr_eq(self.fft.plans(), ctx.plan_cache()) {
            self.fft = FftEngine::new(Arc::clone(ctx.plan_cache()));
        }
        self.ctx = ctx;
        self
    }

    /// The generation context (workers, backend, plan cache, recorder,
    /// budget, chaos).
    pub fn context(&self) -> &GenContext {
        &self.ctx
    }

    /// Sets the worker count (output is identical for any value).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.ctx = self.ctx.with_workers(workers);
        self
    }

    /// Attaches a recorder: window materialisation and the blending loop
    /// are timed, and the kernel-selection mix is counted
    /// (`inhomo/pure_samples`, `inhomo/blended_samples`,
    /// `inhomo/kernel_evals`). Observation never changes output.
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.ctx = self.ctx.with_recorder(obs);
        self
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.ctx.recorder()
    }

    /// Attaches a resource [`Budget`]: deadline/cancel polled at band
    /// granularity during blending, byte ceiling enforced before the
    /// noise window and output field are allocated. Defaults to
    /// [`Budget::unlimited`], under which generation is bit-identical to
    /// the unbudgeted path.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.ctx = self.ctx.with_budget(budget);
        self
    }

    /// The attached budget ([`Budget::unlimited`] by default).
    pub fn budget(&self) -> &Budget {
        self.ctx.budget()
    }

    /// Attaches a [`ChaosInjector`]: fault sites in the blending loop and
    /// the pure-window FFT path consult its schedule. Disabled by default,
    /// under which generation is bit-identical to the un-instrumented
    /// path.
    pub fn with_chaos(mut self, chaos: ChaosInjector) -> Self {
        self.ctx = self.ctx.with_chaos(chaos);
        self
    }

    /// The attached chaos injector (disabled by default).
    pub fn chaos(&self) -> &ChaosInjector {
        self.ctx.chaos()
    }

    /// Selects the convolution backend for **pure** windows — requests
    /// whose every sample carries exactly one kernel at weight 1 (the
    /// bulk of a plate's interior, away from transition bands). Such
    /// windows reduce to a homogeneous convolution, so they dispatch to
    /// the same engine, degradation ladder and circuit breaker as
    /// [`ConvolutionGenerator`](rrs_surface::ConvolutionGenerator):
    /// [`ConvBackend::FftOverlapSave`] or an [`ConvBackend::Auto`]
    /// resolution of it runs overlap-save FFT tiles, degrading to the
    /// per-sample loop on a worker panic or injected fault; windows that
    /// blend kernels anywhere — or mix two pure regions — always fall back to
    /// the per-sample direct loop, which is the only evaluator of the
    /// blended sum. The default [`ConvBackend::Direct`] skips the
    /// pure-window scan entirely and is bit-identical to previous
    /// releases.
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.ctx = self.ctx.with_backend(backend);
        self
    }

    /// The configured backend policy ([`ConvBackend::Direct`] by default).
    pub fn backend(&self) -> ConvBackend {
        self.ctx.backend()
    }

    /// Shares an [`FftPlanCache`] with other generators so pure-window
    /// FFT dispatches reuse their twiddle tables (resets this generator's
    /// cached kernel spectra).
    pub fn with_plan_cache(self, plans: Arc<FftPlanCache>) -> Self {
        let ctx = self.ctx.clone().with_plan_cache(plans);
        self.with_context(ctx)
    }

    /// The plan cache backing the FFT path.
    pub fn plan_cache(&self) -> &Arc<FftPlanCache> {
        self.fft.plans()
    }

    /// The kernels, in map order.
    pub fn kernels(&self) -> &[ConvolutionKernel] {
        &self.kernels
    }

    /// The weight map.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// Fallible [`InhomogeneousGenerator::generate`]: reports worker
    /// panics as [`RrsError::WorkerPanicked`] instead of propagating the
    /// unwind. With a [`Budget`] attached, a tripped cancel/deadline
    /// returns before any allocation and a byte ceiling rejects
    /// oversized requests with [`RrsError::BudgetExceeded`] before the
    /// noise window or output field is materialised.
    pub fn try_generate(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.ctx.budget().check()?;
        let mut pure = None;
        if self.ctx.backend() != ConvBackend::Direct {
            // The pure-window scan is O(nx·ny) map lookups; admit the
            // output footprint first so an oversized request still fails
            // the byte ceiling before any of that work runs.
            self.admit(win.nx as u128 * win.ny as u128)?;
            pure = self.pure_kernel(win);
        }
        // A pure window is the homogeneous convolution of kernel `ki`, so
        // it may take the FFT rung of the shared ladder; the per-sample
        // loop, the only evaluator of the blended sum, is the Direct rung.
        let Window { x0, y0, nx, ny } = win;
        let mut fft_win = Vec::new();
        let (out, served) = run_ladder(
            &self.ctx,
            &self.health,
            pure.map(|ki| (&self.fft, ki, &self.kernels[ki])),
            nx,
            ny,
            |fft_scratch| {
                // Only the FFT rung reads this window: the pure kernel's
                // own noise window, as the homogeneous generator sizes it.
                let (Some(scratch), Some(ki)) = (fft_scratch, pure) else {
                    return Ok(&[]);
                };
                let (kw, kh) = self.kernels[ki].extent();
                let (ox, oy) = self.kernels[ki].origin();
                let (ww, wh) = (nx + kw - 1, ny + kh - 1);
                self.admit(ww as u128 * wh as u128 + nx as u128 * ny as u128 + scratch)?;
                let span = self.ctx.recorder().start(stage::WINDOW_MATERIALISE);
                let (wx0, wy0) = (x0 - (ox + kw as i64 - 1), y0 - (oy + kh as i64 - 1));
                noise.try_window_into(wx0, wy0, ww, wh, &mut fft_win)?;
                self.ctx.recorder().finish(span);
                Ok(&fft_win)
            },
            |_| self.blend(noise, win),
        )?;
        if served == ConvBackend::FftOverlapSave {
            let mut shard = self.ctx.recorder().shard();
            shard.add(stage::INHOMO_PURE_SAMPLES, (nx * ny) as u64);
            shard.add(stage::INHOMO_KERNEL_EVALS, (nx * ny) as u64);
            self.ctx.recorder().absorb(shard);
        }
        Ok(out)
    }

    /// Admission control for a request materialising `samples` f64s: a
    /// rejection ticks [`stage::BUDGET_REJECT`] before anything is
    /// allocated.
    fn admit(&self, samples: u128) -> Result<(), RrsError> {
        self.ctx.budget().admit("inhomogeneous generation", samples * 8).inspect_err(|_| {
            self.ctx.recorder().add_counter(stage::BUDGET_REJECT, 1);
        })
    }

    /// The per-sample loop: `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)` over a noise
    /// window wide enough for every kernel. The bit-exact reference for
    /// every window, and the only evaluator of blended samples.
    fn blend(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        let Window { x0, y0, nx, ny } = win;
        let wx0 = x0 - self.reach_left;
        let wy0 = y0 - self.reach_down;
        let ww = nx + (self.reach_left + self.reach_right) as usize;
        let wh = ny + (self.reach_down + self.reach_up) as usize;
        // Noise window plus output field, estimated in u128 before either
        // is allocated.
        self.admit(ww as u128 * wh as u128 + nx as u128 * ny as u128)?;
        let span = self.ctx.recorder().start(stage::WINDOW_MATERIALISE);
        let noise_win = noise.window(wx0, wy0, ww, wh);
        self.ctx.recorder().finish(span);

        let mut out = Grid2::zeros(nx, ny);
        let out_slice = out.as_mut_slice();
        let span = self.ctx.recorder().start(stage::CORRELATE);
        rrs_par::try_par_rows(
            out_slice,
            nx,
            self.ctx.workers(),
            self.ctx.recorder(),
            self.ctx.budget(),
            self.ctx.chaos(),
            |iy0, chunk| {
                let mut weights: Vec<(usize, f64)> = Vec::with_capacity(self.kernels.len());
                let mut pure = 0u64;
                let mut blended = 0u64;
                let mut evals = 0u64;
                for (row_off, row) in chunk.chunks_mut(nx).enumerate() {
                    let iy = iy0 + row_off;
                    let gy = y0 + iy as i64;
                    for (ix, slot) in row.iter_mut().enumerate() {
                        let gx = x0 + ix as i64;
                        self.map.weights_at(gx as f64, gy as f64, &mut weights);
                        let mut acc = 0.0;
                        for &(ki, g) in &weights {
                            acc += g * self.kernel_dot(ki, &noise_win, ww, gx - wx0, gy - wy0);
                        }
                        *slot = acc;
                        if weights.len() > 1 {
                            blended += 1;
                        } else {
                            pure += 1;
                        }
                        evals += weights.len() as u64;
                    }
                }
                let mut shard = self.ctx.recorder().shard();
                shard.add(stage::INHOMO_PURE_SAMPLES, pure);
                shard.add(stage::INHOMO_BLENDED_SAMPLES, blended);
                shard.add(stage::INHOMO_KERNEL_EVALS, evals);
                self.ctx.recorder().absorb(shard);
            },
        )?;
        self.ctx.recorder().finish(span);
        Ok(out)
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

    /// Scans the window for a single pure kernel: `Some(ki)` iff every
    /// sample's weight vector is exactly `[(ki, 1.0)]`. Early-exits on
    /// the first blended, fractional or differing sample, so windows
    /// touching a transition band pay for only a prefix of the scan.
    fn pure_kernel(&self, win: Window) -> Option<usize> {
        let mut weights: Vec<(usize, f64)> = Vec::with_capacity(self.kernels.len());
        let mut pure = None;
        for iy in 0..win.ny {
            let gy = (win.y0 + iy as i64) as f64;
            for ix in 0..win.nx {
                let gx = (win.x0 + ix as i64) as f64;
                self.map.weights_at(gx, gy, &mut weights);
                match (pure, weights.as_slice()) {
                    (None, &[(ki, g)]) if g == 1.0 => pure = Some(ki),
                    (Some(p), &[(ki, g)]) if g == 1.0 && p == ki => {}
                    _ => return None,
                }
            }
        }
        pure
    }

    /// Evaluates `(w̃_ki ⊛ X)(n)` for the sample at window-local
    /// coordinates `(lx, ly)`.
    #[inline]
    fn kernel_dot(&self, ki: usize, win: &[f64], ww: usize, lx: i64, ly: i64) -> f64 {
        let kernel = &self.kernels[ki];
        let (kw, kh) = kernel.extent();
        let (ox, oy) = kernel.origin();
        let weights = kernel.weights();
        let mut acc = 0.0;
        for b in 0..kh {
            let jy = oy + b as i64;
            let wy = (ly - jy) as usize;
            let krow = weights.row(b);
            // X(n−j) with jx = ox + a: window x index = lx − ox − a.
            let base = (lx - ox) as usize;
            let wrow = &win[wy * ww + base + 1 - kw..=wy * ww + base];
            let mut s = 0.0;
            for (a, &kv) in krow.iter().enumerate() {
                s += kv * wrow[kw - 1 - a];
            }
            acc += s;
        }
        acc
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plate::{quadrant_layout, Plate, PlateLayout};
    use crate::point::{PointLayout, RepresentativePoint};
    use crate::region::Region;
    use rrs_spectrum::{SpectrumModel, SurfaceParams};

    fn sm(h: f64, cl: f64) -> SpectrumModel {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
    }

    fn sizing() -> KernelSizing {
        KernelSizing::Auto { factor: 8.0, min: 16, max: 128 }
    }

    #[test]
    fn homogeneous_map_reduces_to_homogeneous_generator() {
        // A single-plate layout must reproduce the homogeneous convolution
        // generator exactly (same kernel, same noise).
        let spectrum = sm(1.2, 5.0);
        let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
        let kernel = ConvolutionKernel::build(&spectrum, sizing());
        let inh = InhomogeneousGenerator::from_kernels(layout, vec![kernel.clone()])
            .with_workers(1);
        let hom = rrs_surface::ConvolutionGenerator::from_kernel(kernel).with_workers(1);
        let noise = NoiseField::new(7);
        let a = inh.generate(&noise, Window::new(-3, 4, 40, 24));
        let b = hom.generate(&noise, Window::new(-3, 4, 40, 24));
        let err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "max err {err}");
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

    #[test]
    fn fft_backend_serves_pure_windows_and_falls_back_on_blends() {
        // Pond in a field: windows deep inside either region are pure and
        // may dispatch to the overlap-save engine; windows touching the
        // transition band must fall back to the per-sample direct loop.
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

        // A window across the shoreline blends → bit-identical fallback.
        let win = Window::new(20, 20, 48, 48);
        assert_eq!(direct.generate(&noise, win), fft.generate(&noise, win));
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_DIRECT), 1);
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 2);

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
        assert!(gen.health.is_open());

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
        assert!(!gen.health.is_open());
        assert_eq!(gen.health.consecutive_failures(), 0);
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
        let plain = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_workers(2);
        let rec = Recorder::enabled();
        let observed = InhomogeneousGenerator::from_kernels(layout, k)
            .with_workers(2)
            .with_recorder(rec.clone());
        let noise = NoiseField::new(31);
        let win = Window::sized(48, 32);
        assert_eq!(plain.generate(&noise, win), observed.generate(&noise, win));
        let report = rec.report();
        let pure = report.counter(stage::INHOMO_PURE_SAMPLES);
        let blended = report.counter(stage::INHOMO_BLENDED_SAMPLES);
        let evals = report.counter(stage::INHOMO_KERNEL_EVALS);
        assert_eq!(pure + blended, 48 * 32);
        assert!(blended > 0, "the transition band must blend");
        assert!(pure > blended, "the bulk must stay pure");
        assert_eq!(evals, pure + 2 * blended);
        assert!(report.durations.contains_key(stage::WINDOW_MATERIALISE));
        assert!(report.durations.contains_key(stage::CORRELATE));
    }
}
