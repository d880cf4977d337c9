//! The convolution method (paper §2.4, eqn 36).
//!
//! `f[n] = Σ_k w̃[k] · X[n − k]` with `w̃` the centred kernel and `X` unit
//! lattice noise. Two noise backings are provided:
//!
//! * **open** — [`NoiseField`], an unbounded deterministic lattice: any
//!   output [`Window`] can be generated independently and windows tile
//!   seamlessly (the paper's "arbitrarily long or wide RRS by successive
//!   computations");
//! * **periodic** — an explicit `Nx × Ny` noise grid with wrap-around
//!   indexing, matching the direct DFT method *exactly* when the noise is
//!   the transform of the same Hermitian array (this identity is what the
//!   convolution theorem derivation promises, and the tests enforce it).
//!
//! Attach an enabled [`Recorder`] with
//! [`ConvolutionGenerator::with_recorder`] to time window materialisation
//! and the correlation loops (`window/materialise`, `correlate/inner`)
//! and count per-band output samples (`correlate/samples`); the default
//! disabled recorder records nothing and costs nothing, and enabling it
//! never changes a single output bit.

use crate::context::GenContext;
use crate::engine::{BackendHealth, WindowEngine};
use crate::kernel::{ConvolutionKernel, KernelSizing};
use crate::noise::NoiseField;
use rrs_chaos::ChaosInjector;
use rrs_error::{Budget, RrsError};
use rrs_fft::FftPlanCache;
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, Recorder};
use rrs_spectrum::Spectrum;
use std::sync::Arc;

/// Kernel area (`kw·kh`) above which [`ConvBackend::Auto`] dispatches to
/// the FFT overlap-save engine. Measured with `bench_convolution`'s
/// crossover probes (128×128 output, cropped kernels): at 13×13 the
/// direct path's vectorised row accumulation still wins (FFT ~1.4× slower
/// — tile setup dominates), the engines tie around 19×19–25×25, and FFT
/// pulls ahead monotonically beyond (1.6× at 31×31, 4× at 64×64, 12× at
/// 256×256). The boundary is placed at the last probed size where direct
/// wins; `bench_convolution` fails CI if `Auto` ever resolves to a
/// measurably slower engine, so drift shows up as a gate failure rather
/// than a silent slowdown.
pub(crate) const AUTO_CROSSOVER_KERNEL_AREA: usize = 169;

/// Which engine evaluates the convolution sum (paper eqn 36).
///
/// `#[non_exhaustive]`: backends are an open set; match with a wildcard
/// arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvBackend {
    /// The spatial-domain loop: exact reference semantics, bit-identical
    /// across releases, fastest for small kernels. The default.
    #[default]
    Direct,
    /// Frequency-domain overlap-save tiling (`O(N log N)`) through the
    /// **real-input** pipeline: half-size-trick transforms on packed
    /// Hermitian spectra, tiles dispatched across the generator's
    /// workers with per-worker scratch arenas. Equal to `Direct` within
    /// floating-point roundoff (≤ 1e-9 relative — the property suite
    /// enforces it), bit-identical across worker counts, and dramatically
    /// faster than `Direct` for large kernels. A worker panic or an
    /// injected fault degrades the request to `Direct`.
    FftOverlapSave,
    /// Picks per request: `FftOverlapSave` when the kernel area exceeds
    /// the measured crossover
    /// ([`AUTO_CROSSOVER_KERNEL_AREA`](self::AUTO_CROSSOVER_KERNEL_AREA)
    /// = 13×13), `Direct` below it. What benches and examples advertise.
    Auto,
}

impl ConvBackend {
    /// The backend this policy actually runs for a `kw × kh` kernel:
    /// `Auto` resolves through the measured crossover, the explicit
    /// choices return themselves.
    pub fn resolve(self, kw: usize, kh: usize) -> ConvBackend {
        match self {
            ConvBackend::Auto => {
                if kw * kh > AUTO_CROSSOVER_KERNEL_AREA {
                    ConvBackend::FftOverlapSave
                } else {
                    ConvBackend::Direct
                }
            }
            other => other,
        }
    }
}

/// Homogeneous surface generator by real-space convolution: the window
/// engine over one kernel at weight 1, plus the periodic and
/// pre-materialised-window entry points.
///
/// Clones share the kernel, its cached FFT spectra and the circuit
/// breaker; [`ConvolutionGenerator::with_context`] on a clone changes
/// only that clone's context.
#[derive(Clone)]
pub struct ConvolutionGenerator {
    engine: WindowEngine,
}

impl ConvolutionGenerator {
    /// Builds a generator from a spectrum with the given kernel sizing and
    /// default parallelism.
    pub fn new<S: Spectrum + ?Sized>(spectrum: &S, sizing: KernelSizing) -> Self {
        Self::from_kernel(ConvolutionKernel::build(spectrum, sizing))
    }

    /// [`ConvolutionGenerator::new`] with kernel construction stages timed
    /// into `obs`, which the generator then keeps for generation-time
    /// observations (equivalent to `new` + [`with_recorder`]).
    ///
    /// [`with_recorder`]: ConvolutionGenerator::with_recorder
    pub fn new_observed<S: Spectrum + ?Sized>(
        spectrum: &S,
        sizing: KernelSizing,
        obs: Recorder,
    ) -> Self {
        Self::from_kernel(ConvolutionKernel::build_observed(spectrum, sizing, &obs))
            .with_recorder(obs)
    }

    /// Wraps a prebuilt (possibly truncated) kernel with the default
    /// [`GenContext`].
    pub fn from_kernel(kernel: ConvolutionKernel) -> Self {
        Self { engine: WindowEngine::new(vec![kernel]) }
    }

    /// Replaces the whole [`GenContext`] at once — the single entry
    /// point every `with_*` builder delegates to, and the one a serving
    /// front-end uses to apply wire-decoded per-request options. Cached
    /// kernel spectra stay warm unless the context carries a different
    /// plan cache; the window engine's `with_context` documents exactly
    /// what carries over.
    pub fn with_context(self, ctx: GenContext) -> Self {
        Self { engine: self.engine.with_context(ctx) }
    }

    /// Applies `f` to a copy of the context, through
    /// [`ConvolutionGenerator::with_context`].
    fn map_context(self, f: impl FnOnce(GenContext) -> GenContext) -> Self {
        let ctx = f(self.context().clone());
        self.with_context(ctx)
    }

    /// The generation context (workers, backend, plan cache, recorder,
    /// budget, chaos).
    pub fn context(&self) -> &GenContext {
        self.engine.context()
    }

    /// Sets the worker count (1 = serial). Output is identical for any
    /// worker count. Sugar for [`GenContext::with_workers`] via
    /// [`ConvolutionGenerator::with_context`].
    pub fn with_workers(self, workers: usize) -> Self {
        self.map_context(|c| c.with_workers(workers))
    }

    /// Selects the convolution engine. [`ConvBackend::Direct`] (the
    /// default) keeps the reference spatial loop — bit-identical across
    /// releases; [`ConvBackend::FftOverlapSave`] evaluates the same sum
    /// in the frequency domain (equal within 1e-9 relative), splitting
    /// a kernel that dwarfs the window into blocks; [`ConvBackend::Auto`]
    /// picks per kernel size. Each request ticks
    /// [`stage::CONV_BACKEND_DIRECT`] or [`stage::CONV_BACKEND_FFT`] for
    /// the engine it actually ran.
    pub fn with_backend(self, backend: ConvBackend) -> Self {
        self.map_context(|c| c.with_backend(backend))
    }

    /// The configured backend policy (not yet resolved — see
    /// [`ConvolutionGenerator::resolved_backend`]).
    pub fn backend(&self) -> ConvBackend {
        self.context().backend
    }

    /// The backend this generator actually runs for its kernel:
    /// `Auto` resolved through the measured crossover.
    pub fn resolved_backend(&self) -> ConvBackend {
        let (kw, kh) = self.kernel().extent();
        self.context().backend.resolve(kw, kh)
    }

    /// Shares an [`FftPlanCache`] with this generator (and, through
    /// [`StripGenerator`](crate::StripGenerator), with streams built on
    /// it), so several generators transforming the same tile shapes reuse
    /// one set of twiddle tables. Sugar for [`GenContext::with_plan_cache`]
    /// via [`ConvolutionGenerator::with_context`]: a different cache
    /// starts the kernel's FFT spectra afresh.
    pub fn with_plan_cache(self, plans: Arc<FftPlanCache>) -> Self {
        self.map_context(|c| c.with_plan_cache(plans))
    }

    /// The FFT plan cache backing the overlap-save engine.
    pub fn plan_cache(&self) -> &Arc<FftPlanCache> {
        &self.context().plans
    }

    /// Attaches a recorder for stage timings and counters. Observation
    /// never alters output: an enabled run is bit-identical to a disabled
    /// one.
    pub fn with_recorder(self, obs: Recorder) -> Self {
        self.map_context(|c| c.with_recorder(obs))
    }

    /// Attaches a resource [`Budget`]: a deadline and/or cancel token is
    /// polled cooperatively at band granularity during correlation, and a
    /// byte ceiling is enforced by admission control *before* the noise
    /// window or output field is allocated. The default is
    /// [`Budget::unlimited`], under which every code path is bit-identical
    /// to (and as fast as) the unbudgeted generator.
    pub fn with_budget(self, budget: Budget) -> Self {
        self.map_context(|c| c.with_budget(budget))
    }

    /// The attached budget ([`Budget::unlimited`] unless
    /// [`ConvolutionGenerator::with_budget`] was called).
    pub fn budget(&self) -> &Budget {
        &self.context().budget
    }

    /// Arms a deterministic fault schedule ([`ChaosInjector`]): every
    /// cooperative poll point this generator touches — parallel band
    /// slices, FFT tile loops, plan-cache lookups — polls the schedule
    /// and can be made to panic, error, cancel or expire on exact visit
    /// indices. The default is [`ChaosInjector::disabled`], under which
    /// every poll is a single branch and output is untouched (the
    /// `bench_runtime` gate holds the overhead under 1.05x).
    pub fn with_chaos(self, chaos: ChaosInjector) -> Self {
        self.map_context(|c| c.with_chaos(chaos))
    }

    /// The armed chaos injector (disabled unless
    /// [`ConvolutionGenerator::with_chaos`] was called).
    pub fn chaos(&self) -> &ChaosInjector {
        &self.context().chaos
    }

    /// This generator's circuit breaker over the degradation ladder.
    pub fn backend_health(&self) -> &BackendHealth {
        self.engine.health()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &ConvolutionKernel {
        &self.engine.kernels()[0]
    }

    /// The attached recorder (disabled unless
    /// [`ConvolutionGenerator::with_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.context().obs
    }

    /// Fallible [`ConvolutionGenerator::generate`]: reports a worker
    /// panic as [`RrsError::WorkerPanicked`](rrs_error::RrsError) instead
    /// of propagating the unwind. With a [`Budget`] attached, an
    /// already-tripped cancel token / expired deadline returns before any
    /// allocation, and a byte ceiling rejects an oversized request
    /// ([`RrsError::BudgetExceeded`]) before the noise window or output
    /// field is materialised.
    pub fn try_generate(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.engine.try_generate(noise, win, None)
    }

    /// Generates the surface samples requested by `win` from the
    /// unbounded surface defined by `noise`. Windows of the same `noise`
    /// tile seamlessly.
    ///
    /// # Panics
    /// Panics if a worker panics. Fallible callers use
    /// [`ConvolutionGenerator::try_generate`].
    pub fn generate(&self, noise: &NoiseField, win: Window) -> Grid2<f64> {
        self.try_generate(noise, win).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Correlates a pre-materialised noise window against the kernel
    /// through the configured backend: `win` must be the row-major
    /// `(nx+kw−1) × (ny+kh−1)` window a `nx × ny` request materialises
    /// (the window at `(x0 − (ox+kw−1), y0 − (oy+kh−1))` for kernel
    /// origin `(ox, oy)`). Public so benchmarks and equivalence suites
    /// can time and compare the correlate stage in isolation from window
    /// materialisation.
    pub fn try_correlate_window(
        &self,
        win: &[f64],
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        if nx == 0 || ny == 0 {
            return Err(RrsError::invalid_param(
                "window",
                format!("output window must be non-empty, got {nx}x{ny}"),
            ));
        }
        let (kw, kh) = self.kernel().extent();
        let ww = nx + kw - 1;
        let wh = ny + kh - 1;
        if win.len() != ww * wh {
            return Err(RrsError::shape_mismatch(
                "noise window does not match the requested output",
                format!("{ww}x{wh} = {} samples", ww * wh),
                win.len(),
            ));
        }
        self.engine.correlate_window(win, nx, ny)
    }

    /// Fallible [`ConvolutionGenerator::convolve_periodic`]: additionally
    /// rejects an empty noise grid and a kernel whose extent exceeds the
    /// grid (wrap-around would fold the kernel onto itself and the result
    /// would no longer carry the prescribed statistics).
    pub fn try_convolve_periodic(&self, noise: &Grid2<f64>) -> Result<Grid2<f64>, RrsError> {
        let (nx, ny) = noise.shape();
        let kernel = self.kernel();
        let (kw, kh) = kernel.extent();
        if nx == 0 || ny == 0 {
            return Err(RrsError::invalid_param(
                "noise",
                format!("noise grid must be non-empty, got {nx}x{ny}"),
            ));
        }
        if kw > nx || kh > ny {
            return Err(RrsError::shape_mismatch(
                "kernel larger than the noise grid",
                format!("kernel extent at most {nx}x{ny}"),
                format!("{kw}x{kh}"),
            ));
        }
        let ctx = self.context();
        ctx.budget.check()?;
        self.engine.admit("periodic convolution", nx as u128 * ny as u128)?;
        let (ox, oy) = kernel.origin();
        let kernel = kernel.weights();
        let mut out = Grid2::zeros(nx, ny);
        let out_slice = out.as_mut_slice();
        let span = ctx.obs.start(stage::CORRELATE);
        rrs_par::try_par_rows(
            out_slice,
            nx,
            ctx.workers,
            &ctx.obs,
            &ctx.budget,
            &ctx.chaos,
            |iy0, chunk| {
                for (row_off, row) in chunk.chunks_mut(nx).enumerate() {
                    let iy = iy0 + row_off;
                    for (ix, slot) in row.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for b in 0..kh {
                            let jy = oy + b as i64;
                            let sy = (iy as i64 - jy).rem_euclid(ny as i64) as usize;
                            let krow = kernel.row(b);
                            for (a, &kv) in krow.iter().enumerate() {
                                let jx = ox + a as i64;
                                let sx = (ix as i64 - jx).rem_euclid(nx as i64) as usize;
                                acc += kv * *noise.get(sx, sy);
                            }
                        }
                        *slot = acc;
                    }
                }
                let mut shard = ctx.obs.shard();
                shard.add(stage::CORRELATE_SAMPLES, chunk.len() as u64);
                ctx.obs.absorb(shard);
            },
        )?;
        ctx.obs.finish(span);
        Ok(out)
    }

    /// Periodic convolution against an explicit `Nx × Ny` noise grid
    /// (wrap-around indexing): `f[n] = Σ_j w̃[j] · X[(n−j) mod N]`.
    ///
    /// With the full-size kernel and `X = DFT(u)/√(NxNy)` this reproduces
    /// the direct DFT method sample-for-sample.
    ///
    /// # Panics
    /// Panics on an empty noise grid or a kernel larger than it. Fallible
    /// callers use [`ConvolutionGenerator::try_convolve_periodic`].
    pub fn convolve_periodic(&self, noise: &Grid2<f64>) -> Grid2<f64> {
        self.try_convolve_periodic(noise).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDftGenerator;
    use crate::hermitian::hermitian_gaussian_array;
    use rrs_fft::{Direction, Fft2d};
    use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
    use rrs_rng::Xoshiro256pp;

    #[test]
    fn window_shape_and_determinism() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default()).with_workers(1);
        let noise = NoiseField::new(5);
        let a = gen.generate(&noise, Window::sized(32, 16));
        assert_eq!(a.shape(), (32, 16));
        let b = gen.generate(&noise, Window::sized(32, 16));
        assert_eq!(a, b);
    }

    #[test]
    fn windows_tile_seamlessly() {
        // The paper's "successive computations" claim, exactly.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default()).with_workers(1);
        let noise = NoiseField::new(11);
        let whole = gen.generate(&noise, Window::sized(64, 32));
        let left = gen.generate(&noise, Window::sized(32, 32));
        let right = gen.generate(&noise, Window::new(32, 0, 32, 32));
        for iy in 0..32 {
            for ix in 0..32 {
                assert!((*whole.get(ix, iy) - *left.get(ix, iy)).abs() < 1e-12);
                assert!((*whole.get(ix + 32, iy) - *right.get(ix, iy)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn vertical_tiles_are_seamless_too() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default()).with_workers(2);
        let noise = NoiseField::new(13);
        let whole = gen.generate(&noise, Window::new(-5, -5, 24, 48));
        let top = gen.generate(&noise, Window::new(-5, -5 + 24, 24, 24));
        for iy in 0..24 {
            for ix in 0..24 {
                assert!((*whole.get(ix, iy + 24) - *top.get(ix, iy)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(3);
        let serial = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(1)
            .generate(&noise, Window::sized(48, 48));
        let parallel = ConvolutionGenerator::from_kernel(k)
            .with_workers(5)
            .generate(&noise, Window::sized(48, 48));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn surface_statistics_match_target() {
        let h = 1.5;
        let cl = 6.0;
        let s = Gaussian::new(SurfaceParams::isotropic(h, cl));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let f = gen.generate(&NoiseField::new(21), Window::sized(256, 256));
        let measured = f.std_dev();
        let patches = (256.0 / cl) * (256.0 / cl);
        let tol = 4.5 * h / patches.sqrt();
        assert!((measured - h).abs() < tol, "ĥ = {measured} (target {h} ± {tol})");
    }

    #[test]
    fn matches_direct_dft_method_exactly() {
        // Drive both methods with the same Hermitian array u:
        //   direct:      f = DFT(v·u)
        //   convolution: f = w̃ ⊛ X,  X = DFT(u)/√(NxNy)
        // The convolution theorem says these are the same surface.
        let p = SurfaceParams::isotropic(1.3, 5.0);
        let s = Gaussian::new(p);
        let spec = GridSpec::unit(32, 32);
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let u = hermitian_gaussian_array(spec.nx, spec.ny, &mut rng);

        let f_direct = DirectDftGenerator::with_workers(s, spec, 1).generate_from_bins(&u);

        let mut x = u.clone();
        Fft2d::with_workers(spec.nx, spec.ny, 1).process(&mut x, Direction::Forward);
        let scale = 1.0 / ((spec.nx * spec.ny) as f64).sqrt();
        let noise = Grid2::from_vec(
            spec.nx,
            spec.ny,
            x.iter().map(|z| z.re * scale).collect(),
        );
        let kernel = ConvolutionKernel::build_on(&s, spec);
        let f_conv =
            ConvolutionGenerator::from_kernel(kernel).with_workers(1).convolve_periodic(&noise);

        let max_err = f_direct
            .as_slice()
            .iter()
            .zip(f_conv.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_err < 1e-9, "methods disagree by {max_err}");
    }

    #[test]
    fn truncated_kernel_stays_statistically_faithful() {
        let h = 1.0;
        let s = Gaussian::new(SurfaceParams::isotropic(h, 5.0));
        let full = ConvolutionKernel::build(&s, KernelSizing::default());
        let trunc = full.truncated(1e-3);
        assert!(trunc.extent().0 < full.extent().0);
        let f = ConvolutionGenerator::from_kernel(trunc)
            .generate(&NoiseField::new(8), Window::sized(192, 192));
        assert!((f.std_dev() - h).abs() < 0.15, "ĥ = {}", f.std_dev());
    }

    #[test]
    fn empty_window_rejected() {
        // Window construction is where emptiness is rejected now that the
        // positional wrappers are gone.
        let err = Window::try_new(0, 0, 0, 4).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::InvalidParam);
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 3.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let err = gen.try_correlate_window(&[], 0, 4).unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    fn with_context_matches_the_sugar_builders() {
        use crate::context::GenContext;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(77);
        let win = Window::new(-3, 9, 20, 12);
        let plans = Arc::new(FftPlanCache::new());
        let sugar = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(2)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_plan_cache(Arc::clone(&plans));
        let ctx = GenContext::new()
            .with_workers(2)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_plan_cache(Arc::clone(&plans));
        let via_ctx = ConvolutionGenerator::from_kernel(k).with_context(ctx);
        assert_eq!(
            sugar.try_generate(&noise, win).unwrap(),
            via_ctx.try_generate(&noise, win).unwrap(),
            "one with_context must equal the chained sugar builders bit-for-bit"
        );
        assert!(Arc::ptr_eq(sugar.plan_cache(), via_ctx.plan_cache()));
        assert_eq!(via_ctx.context().workers(), 2);
        assert_eq!(via_ctx.context().backend(), ConvBackend::FftOverlapSave);
    }

    #[test]
    fn reapplying_a_same_cache_context_keeps_the_fft_engine() {
        use crate::context::GenContext;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let same = gen.context().clone().with_workers(3);
        let gen = gen.with_context(same);
        assert_eq!(gen.context().workers(), 3);
        // A context with a different cache swaps the engine's plans.
        let other = Arc::new(FftPlanCache::new());
        let ctx = GenContext::new().with_plan_cache(Arc::clone(&other));
        let gen = gen.with_context(ctx);
        assert!(Arc::ptr_eq(gen.plan_cache(), &other));
        // A clone on its own context still reports to the same breaker.
        let clone = gen.clone().with_context(GenContext::new().with_workers(1));
        clone.backend_health().record_failure();
        assert_eq!(gen.backend_health().consecutive_failures(), 1);
    }

    #[test]
    fn budgeted_idle_run_is_bit_identical() {
        use rrs_error::{Budget, CancelToken};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(41);
        let win = Window::new(-7, 3, 40, 28);
        let plain = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(3)
            .generate(&noise, win);
        let budget = Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600))
            .with_max_bytes(usize::MAX);
        let budgeted = ConvolutionGenerator::from_kernel(k)
            .with_workers(3)
            .with_budget(budget)
            .try_generate(&noise, win)
            .unwrap();
        assert_eq!(plain, budgeted, "armed-but-idle budget must not change a single bit");
    }

    #[test]
    fn pre_cancelled_request_fails_before_allocating() {
        use rrs_error::{Budget, CancelToken};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let token = CancelToken::new();
        token.cancel();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_budget(Budget::unlimited().with_cancel_token(token));
        // A window this large would abort the process if the generator
        // tried to materialise it; returning Cancelled proves the
        // pre-flight check fires first.
        let win = Window::new(0, 0, 1 << 30, 1 << 30);
        let err = gen.try_generate(&NoiseField::new(1), win).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
    }

    #[test]
    fn admission_rejects_oversized_requests_before_allocating() {
        use rrs_error::Budget;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_recorder(rec.clone())
            .with_budget(Budget::unlimited().with_max_bytes(1 << 20));
        // Would abort the allocator if admission did not fire first.
        let win = Window::new(0, 0, 1 << 30, 1 << 30);
        let err = gen.try_generate(&NoiseField::new(1), win).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::BudgetExceeded);
        assert!(err.to_string().contains("convolution generation"), "{err}");
        assert_eq!(rec.report().counter(stage::BUDGET_REJECT), 1);
        // A window that fits the ceiling still generates.
        let small = Window::sized(8, 8);
        assert_eq!(gen.try_generate(&NoiseField::new(1), small).unwrap().shape(), (8, 8));
    }

    #[test]
    fn budgeted_periodic_convolution_admits_and_matches() {
        use rrs_error::Budget;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let spec = GridSpec::unit(16, 16);
        let kernel = ConvolutionKernel::build_on(&s, spec);
        let noise = Grid2::from_vec(16, 16, (0..256).map(|i| (i as f64).sin()).collect());
        let plain = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_workers(1)
            .convolve_periodic(&noise);
        let gen = ConvolutionGenerator::from_kernel(kernel)
            .with_workers(1)
            .with_budget(Budget::unlimited().with_max_bytes(16 * 16 * 8));
        assert_eq!(gen.try_convolve_periodic(&noise).unwrap(), plain);
        let tight = gen.with_budget(Budget::unlimited().with_max_bytes(16 * 16 * 8 - 1));
        let err = tight.try_convolve_periodic(&noise).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::BudgetExceeded);
    }

    #[test]
    fn observed_run_is_bit_identical_and_reports_stages() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let plain = ConvolutionGenerator::new(&s, KernelSizing::default()).with_workers(2);
        let rec = Recorder::enabled();
        let observed = ConvolutionGenerator::new_observed(&s, KernelSizing::default(), rec.clone())
            .with_workers(2);
        let noise = NoiseField::new(19);
        let win = Window::new(-4, 6, 40, 24);
        assert_eq!(plain.generate(&noise, win), observed.generate(&noise, win));
        let report = rec.report();
        for name in [
            stage::KERNEL_AMPLITUDE,
            stage::KERNEL_DFT,
            stage::KERNEL_PERMUTE,
            stage::WINDOW_MATERIALISE,
            stage::CORRELATE,
        ] {
            assert!(report.durations.contains_key(name), "missing stage {name}");
        }
        assert_eq!(report.counter(stage::CORRELATE_SAMPLES), 40 * 24);
        assert!(report.counter(stage::PAR_BANDS) >= 2);
    }

    #[test]
    fn injected_fft_faults_degrade_to_direct_bit_identical() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(41);
        let win = Window::sized(24, 24);
        let clean = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(1)
            .with_backend(ConvBackend::Direct)
            .generate(&noise, win);
        // The serial tile loop visits FftTile deterministically: the
        // overlap-save rung panics at visit 0 (proving rung-level
        // containment), and the Direct rung — the reference loop — serves
        // the request.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(1).with_fault(FaultSite::FftTile, FaultKind::Panic, 0),
        );
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::from_kernel(k)
            .with_workers(1)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone())
            .with_chaos(chaos.clone());
        let got = gen.try_generate(&noise, win).unwrap();
        assert_eq!(got, clean, "degraded output must be bit-identical to clean Direct");
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(chaos.visits(FaultSite::FftTile), 1, "one poll on the failed rung");
        assert_eq!(chaos.injected(), 1);
        assert_eq!(gen.backend_health().consecutive_failures(), 1);

        // The schedule is exhausted: the same generator now serves the
        // FFT path cleanly and the breaker closes again.
        let again = gen.try_generate(&noise, win).unwrap();
        let scale = clean.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (a, b) in again.as_slice().iter().zip(clean.as_slice()) {
            assert!((a - b).abs() <= 1e-9 * scale);
        }
        assert_eq!(gen.backend_health().consecutive_failures(), 0);
    }

    #[test]
    fn non_degradable_errors_surface_unchanged() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        // A Cancel fault reflects the request, not the engine: no ladder
        // retry, no degradation counters.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let chaos = ChaosInjector::new(
            FaultSchedule::new(3).with_fault(FaultSite::FftTile, FaultKind::Cancel, 0),
        );
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_workers(1)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone())
            .with_chaos(chaos);
        let err = gen.try_generate(&NoiseField::new(5), Window::sized(16, 16)).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
        assert_eq!(rec.report().counter(stage::CONV_DEGRADED_TO_DIRECT), 0);
    }

    #[test]
    fn open_breakers_skip_straight_to_direct_but_never_fail_a_request() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(47);
        let win = Window::sized(18, 18);
        let clean = ConvolutionGenerator::from_kernel(k.clone())
            .with_workers(1)
            .with_backend(ConvBackend::Direct)
            .generate(&noise, win);
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::from_kernel(k)
            .with_workers(1)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone());
        for _ in 0..BackendHealth::THRESHOLD {
            gen.backend_health().record_failure();
        }
        let got = gen.try_generate(&noise, win).unwrap();
        assert_eq!(got, clean, "Direct always serves when the FFT rung is open");
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_BREAKER_SKIPS), 1);
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0);
    }
}
