//! The window engine: the one request path behind every convolution
//! generator.
//!
//! Paper eqns 37/46 give every sample of a surface as
//! `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)`; the homogeneous convolution of
//! eqn 36 is its one-kernel, weight-1 case. A [`WindowEngine`] evaluates
//! that sum over one output window and owns everything a request
//! touches: the kernels, the [`GenContext`], the overlap-save
//! [`FftEngine`] with its cached kernel spectra, the circuit breaker
//! ([`BackendHealth`]) and the reused noise-window scratch.
//! [`ConvolutionGenerator`](crate::ConvolutionGenerator) is an engine
//! over one kernel; the inhomogeneous generator is a weight map over an
//! engine of several. A request runs, in order:
//!
//! 1. the budget's pre-flight check;
//! 2. with a weight map, one contained **weight pass** — `weights_at`
//!    once per sample into a [`WeightTable`] — which names the window's
//!    active kernels and yields the `inhomo/*` counters;
//! 3. [`Reach`] sizing of the one noise window the active kernels read,
//!    admission of the whole workspace, and materialisation;
//! 4. the degradation ladder `FftOverlapSave → Direct`.
//!
//! The ladder owns the breaker check, the `catch_unwind` around each
//! rung, the rule for which failures degrade, and the `conv/backend_*`,
//! `conv/degraded_to_direct` and `conv/breaker_skips` counters. Its FFT
//! rung is [`FftEngine::convolve_fields`]. Its Direct rung is the
//! vectorised correlate for one kernel at weight 1, and the per-sample
//! loop over the weight table otherwise; for a single-kernel map the two
//! produce the same bits.

use crate::blend::{Reach, WeightTable};
use crate::context::GenContext;
use crate::conv::ConvBackend;
use crate::fftconv::{fields_scratch, FftEngine};
use crate::kernel::ConvolutionKernel;
use crate::noise::NoiseField;
use rrs_error::{ErrorKind, RrsError};
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, ObsSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Circuit breaker over the ladder's one skippable rung, the FFT engine.
///
/// Every FFT attempt reports success or failure here; after
/// [`BackendHealth::THRESHOLD`] *consecutive* failures the breaker opens
/// and the ladder skips the FFT rung (ticking
/// [`stage::CONV_BREAKER_SKIPS`]) instead of re-running an engine that
/// keeps failing. The Direct rung is never skipped, so a request never
/// fails purely because the breaker is open. Every
/// [`BackendHealth::PROBE_EVERY`]th skipped request probes the FFT engine
/// again; one success closes the breaker.
///
/// All state is atomic, so the breaker works under `&self` from
/// concurrent requests; it is routing state only and never influences
/// the *bits* of a successful result (both rungs compute the same
/// convolution sum).
#[derive(Debug, Default)]
pub struct BackendHealth {
    consec_failures: AtomicU64,
    skipped: AtomicU64,
}

impl BackendHealth {
    /// Consecutive FFT failures after which the breaker opens.
    pub const THRESHOLD: u64 = 3;
    /// While the breaker is open, every Nth skipped request is let
    /// through as a probe so a recovered engine closes it again.
    pub const PROBE_EVERY: u64 = 16;

    /// A closed (healthy) breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the ladder should attempt the FFT rung, advancing the
    /// probe counter when the breaker is open.
    pub fn should_try(&self) -> bool {
        if !self.is_open() {
            return true;
        }
        let k = self.skipped.fetch_add(1, Ordering::Relaxed);
        (k + 1) % Self::PROBE_EVERY == 0
    }

    /// Records a successful FFT run: closes the breaker.
    pub fn record_success(&self) {
        self.consec_failures.store(0, Ordering::Relaxed);
    }

    /// Records a failed FFT run.
    pub fn record_failure(&self) {
        self.consec_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Current consecutive-failure count.
    pub fn consecutive_failures(&self) -> u64 {
        self.consec_failures.load(Ordering::Relaxed)
    }

    /// True when the FFT engine has failed often enough that the ladder
    /// skips it (outside probe requests).
    pub fn is_open(&self) -> bool {
        self.consecutive_failures() >= Self::THRESHOLD
    }
}

/// Whether a failed FFT attempt should fall to the Direct rung. Worker
/// panics (real or chaos-injected) and injected faults degrade;
/// everything else — cancellation, deadline expiry, admission rejection,
/// invalid input — reflects the *request*, not the engine, and would
/// recur identically on the Direct rung, so it surfaces unchanged.
fn is_degradable(e: &RrsError) -> bool {
    matches!(e.kind(), ErrorKind::WorkerPanicked | ErrorKind::FaultInjected)
}

/// Runs `f`, reporting a panic as [`RrsError::WorkerPanicked`].
fn contained<T>(f: impl FnOnce() -> Result<T, RrsError>) -> Result<T, RrsError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(RrsError::worker_panicked(0, p.as_ref())))
}

/// A weighted request's weight map: writes the non-zero
/// `(kernel index, weight)` pairs of sample `(x, y)` into `out`.
type WeightsAt<'a> = &'a dyn Fn(f64, f64, &mut Vec<(usize, f64)>);

/// The kernels, execution context and warm state of one generator, and
/// the request path that evaluates `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)`
/// with them (see the module docs).
///
/// Clones share the kernels, the FFT engine with its cached kernel
/// spectra, the breaker and the noise-window scratch; only the
/// [`GenContext`] is per clone.
#[derive(Clone)]
pub struct WindowEngine {
    kernels: Arc<[ConvolutionKernel]>,
    ctx: GenContext,
    fft: Arc<FftEngine>,
    health: Arc<BackendHealth>,
    /// Noise-window scratch reused across requests; a concurrent request
    /// that loses the `try_lock` race materialises into its own buffer.
    scratch: Arc<Mutex<Vec<f64>>>,
}

impl WindowEngine {
    /// An engine over `kernels` with the default [`GenContext`].
    pub fn new(kernels: Vec<ConvolutionKernel>) -> Self {
        let ctx = GenContext::new();
        Self {
            kernels: kernels.into(),
            fft: Arc::new(FftEngine::new(Arc::clone(&ctx.plans))),
            ctx,
            health: Arc::default(),
            scratch: Arc::default(),
        }
    }

    /// Replaces the whole [`GenContext`] — the one entry point every
    /// generator's `with_*` builder delegates to. Cached kernel spectra
    /// belong to the FFT engine, which draws its transforms from the
    /// context's plan cache: a `ctx` that shares the current cache keeps
    /// the engine and its spectra warm, and one that carries a different
    /// cache gets a new engine on it, whose spectra are rebuilt on first
    /// use. The kernels, the breaker and the scratch carry over either
    /// way.
    pub fn with_context(mut self, ctx: GenContext) -> Self {
        if !Arc::ptr_eq(self.fft.plans(), &ctx.plans) {
            self.fft = Arc::new(FftEngine::new(Arc::clone(&ctx.plans)));
        }
        self.ctx = ctx;
        self
    }

    /// The generation context (workers, backend, plan cache, recorder,
    /// budget, chaos).
    pub fn context(&self) -> &GenContext {
        &self.ctx
    }

    /// The kernels, in index order.
    pub fn kernels(&self) -> &[ConvolutionKernel] {
        &self.kernels
    }

    /// The circuit breaker over this engine's FFT rung.
    pub fn health(&self) -> &BackendHealth {
        &self.health
    }

    /// Admission control against the attached budget for a request
    /// materialising `samples` f64s. A rejection ticks
    /// [`stage::BUDGET_REJECT`] and nothing has been allocated yet.
    pub(crate) fn admit(&self, what: &'static str, samples: u128) -> Result<(), RrsError> {
        self.ctx.budget.admit(what, samples * 8).inspect_err(|_| {
            self.ctx.obs.add_counter(stage::BUDGET_REJECT, 1);
        })
    }

    /// Generates the samples of `win` from the unbounded surface driven
    /// by `noise`. With `weights = None` the engine's one kernel applies
    /// at weight 1 everywhere. Otherwise `weights(x, y, out)` writes the
    /// non-zero `(kernel index, weight)` pairs of sample `(x, y)` into
    /// `out` (cleared first); it runs once per sample, before anything
    /// else is allocated, and a panic there surfaces as
    /// [`RrsError::WorkerPanicked`].
    ///
    /// A tripped cancel token or expired deadline returns before any
    /// allocation, and a byte ceiling rejects an oversized request with
    /// [`RrsError::BudgetExceeded`] before the noise window or output is
    /// materialised.
    pub fn try_generate(
        &self,
        noise: &NoiseField,
        win: Window,
        weights: Option<WeightsAt<'_>>,
    ) -> Result<Grid2<f64>, RrsError> {
        self.ctx.budget.check()?;
        let Window { nx, ny, .. } = win;
        let out_samples = nx as u128 * ny as u128;
        let (what, table) = match weights {
            None => ("convolution generation", None),
            Some(weights_at) => {
                const WHAT: &str = "inhomogeneous generation";
                // The weight pass is O(nx·ny) map calls: admit the output
                // and the smallest possible table first, so an oversized
                // request fails the ceiling before that work runs.
                self.admit(WHAT, out_samples + WeightTable::min_footprint(nx * ny))?;
                let table = contained(|| {
                    Ok(WeightTable::build(nx, ny, |ix, iy, out| {
                        weights_at((win.x0 + ix as i64) as f64, (win.y0 + iy as i64) as f64, out)
                    }))
                })?;
                (WHAT, Some(table))
            }
        };
        let active = match &table {
            Some(t) => t
                .active()
                .into_iter()
                .map(|k| {
                    let kernel = self.kernels.get(k).ok_or_else(|| {
                        RrsError::invalid_param("weights", format!("kernel index {k} out of range"))
                    })?;
                    Ok((k, kernel))
                })
                .collect::<Result<Vec<_>, RrsError>>()?,
            None => self.kernels.iter().enumerate().collect(),
        };
        let reach = Reach::of(active.iter().map(|&(_, k)| k));
        let (wx0, wy0, ww, wh) = reach.window(win);
        let table_samples = table.as_ref().map_or(0, WeightTable::footprint);
        let mut local = Vec::new();
        let mut guard = self.scratch.try_lock().ok();
        let buf: &mut Vec<f64> = guard.as_deref_mut().unwrap_or(&mut local);
        let out = self.run_ladder(&active, table.as_ref(), reach, nx, ny, |fft_scratch| {
            // Noise window, output, weight table and the FFT rung's
            // workspace, in u128 so the estimate itself cannot overflow
            // even for windows far beyond addressable memory.
            let samples =
                ww as u128 * wh as u128 + out_samples + table_samples + fft_scratch.unwrap_or(0);
            self.admit(what, samples)?;
            let span = self.ctx.obs.start(stage::WINDOW_MATERIALISE);
            noise.try_window_into(wx0, wy0, ww, wh, buf)?;
            self.ctx.obs.finish(span);
            Ok(buf.as_slice())
        })?;
        if let Some(t) = &table {
            let (pure, blended, evals) = t.counts();
            let mut shard = self.ctx.obs.shard();
            shard.add(stage::INHOMO_PURE_SAMPLES, pure);
            shard.add(stage::INHOMO_BLENDED_SAMPLES, blended);
            shard.add(stage::INHOMO_KERNEL_EVALS, evals);
            self.ctx.obs.absorb(shard);
        }
        Ok(out)
    }

    /// Runs an `nx × ny` request for the engine's one kernel over `win`,
    /// its pre-materialised row-major `(nx+kw−1) × (ny+kh−1)` noise
    /// window, down the same ladder as [`WindowEngine::try_generate`].
    pub(crate) fn correlate_window(
        &self,
        win: &[f64],
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        self.ctx.budget.check()?;
        let active: Vec<_> = self.kernels.iter().enumerate().collect();
        self.run_ladder(&active, None, Reach::of(&*self.kernels), nx, ny, |_| Ok(win))
    }

    /// Runs one `nx × ny` request down the ladder `FftOverlapSave →
    /// Direct` over `kernels`, the request's active `(index, kernel)`
    /// pairs, weighted by `table` (`None`: one kernel at weight 1).
    ///
    /// The FFT rung runs when the context's backend resolves to
    /// [`ConvBackend::FftOverlapSave`] for every kernel and the breaker
    /// does not hold it open. `prepare` then admits and materialises the
    /// request: it receives the FFT rung's workspace in f64 samples
    /// (`None` when that rung will not run) and returns the noise window
    /// of `reach` around the output, which both rungs read; its errors
    /// surface unchanged. A worker panic or an injected fault on the FFT
    /// rung degrades to the Direct rung, ticking
    /// [`stage::CONV_DEGRADED_TO_DIRECT`], as does a breaker skip (which
    /// also ticks [`stage::CONV_BREAKER_SKIPS`]). Each rung runs under
    /// its own `catch_unwind` and builds its own output, so a failed rung
    /// can neither leak a panic nor leave torn samples in the result.
    fn run_ladder<'w>(
        &self,
        kernels: &[(usize, &ConvolutionKernel)],
        table: Option<&WeightTable>,
        reach: Reach,
        nx: usize,
        ny: usize,
        prepare: impl FnOnce(Option<u128>) -> Result<&'w [f64], RrsError>,
    ) -> Result<Grid2<f64>, RrsError> {
        let ctx = &self.ctx;
        let obs = &ctx.obs;
        let eligible = kernels.iter().all(|(_, kernel)| {
            let (kw, kh) = kernel.extent();
            ctx.backend.resolve(kw, kh) == ConvBackend::FftOverlapSave
        });
        let skipped = eligible && !self.health.should_try();
        if skipped {
            obs.add_counter(stage::CONV_BREAKER_SKIPS, 1);
        }
        let fft = eligible && !skipped;
        // A weighted request accumulates through one field buffer.
        let field = table.map_or(0, |_| nx as u128 * ny as u128);
        let win = prepare(fft.then(|| fields_scratch(kernels, nx, ny, ctx.workers) + field))?;

        if fft {
            obs.add_counter(stage::CONV_BACKEND_FFT, 1);
            let attempt = contained(|| {
                self.fft.convolve_fields(
                    kernels,
                    table,
                    win,
                    nx,
                    ny,
                    ctx.workers,
                    obs,
                    &ctx.budget,
                    &ctx.chaos,
                )
            });
            match attempt {
                Ok(out) => {
                    self.health.record_success();
                    return Ok(out);
                }
                Err(e) => {
                    self.health.record_failure();
                    if !is_degradable(&e) {
                        return Err(e);
                    }
                }
            }
        }
        // An eligible request gets here only by a breaker skip or a
        // degradable FFT failure.
        if eligible {
            obs.add_counter(stage::CONV_DEGRADED_TO_DIRECT, 1);
        }
        obs.add_counter(stage::CONV_BACKEND_DIRECT, 1);
        contained(|| match table {
            Some(t) => self.blend(t, win, reach, nx, ny),
            None => self.correlate(kernels[0].1, win, nx, ny),
        })
    }

    /// The per-sample loop, the Direct rung of a weighted request:
    /// `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)` with the weights read from
    /// `table`, over `win`, the noise window of `reach` around the
    /// `nx × ny` output. The bit-exact reference for blended windows.
    fn blend(
        &self,
        table: &WeightTable,
        win: &[f64],
        reach: Reach,
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        let ww = nx + (reach.left + reach.right) as usize;
        let mut out = Grid2::zeros(nx, ny);
        let span = self.ctx.obs.start(stage::CORRELATE);
        rrs_par::try_par_rows(
            out.as_mut_slice(),
            nx,
            self.ctx.workers,
            &self.ctx.obs,
            &self.ctx.budget,
            &self.ctx.chaos,
            |iy0, chunk| {
                for (row_off, row) in chunk.chunks_mut(nx).enumerate() {
                    let iy = iy0 + row_off;
                    let ly = iy as i64 + reach.down;
                    for (ix, slot) in row.iter_mut().enumerate() {
                        let lx = ix as i64 + reach.left;
                        let mut acc = 0.0;
                        for &(ki, g) in table.sample(iy * nx + ix) {
                            acc += g * kernel_dot(&self.kernels[ki], win, ww, lx, ly);
                        }
                        *slot = acc;
                    }
                }
            },
        )?;
        self.ctx.obs.finish(span);
        Ok(out)
    }

    /// The vectorised correlate, the Direct rung of a single kernel at
    /// weight 1: `out[ix,iy] = Σ_{a,b} w̃[a,b] · win[ix + kw−1−a,
    /// iy + kh−1−b]` over the kernel's `(nx+kw−1) × (ny+kh−1)` window —
    /// convolution with the kernel flipped, which realises
    /// `Σ_j w̃(j)·X(n−j)`.
    ///
    /// Loop structure: for each output row, each kernel row contributes a
    /// sub-sum `s_row` accumulated *elementwise over output columns* —
    /// `s_row[ix] += w̃[a,b]·win[ix + kw−1−a]` with `ix` innermost over
    /// contiguous, independent lanes, which the compiler autovectorizes.
    /// Per output sample the floating-point operation sequence (kernel
    /// row sub-sum in ascending `a`, then `acc += s` in ascending `b`) is
    /// exactly the historical scalar loop's — and [`kernel_dot`]'s — so
    /// output stays bit-identical to every seed release.
    fn correlate(
        &self,
        kernel: &ConvolutionKernel,
        win: &[f64],
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        let (kw, kh) = kernel.extent();
        let ww = nx + kw - 1;
        let kernel = kernel.weights();
        let mut out = Grid2::zeros(nx, ny);
        let span = self.ctx.obs.start(stage::CORRELATE);
        rrs_par::try_par_rows(
            out.as_mut_slice(),
            nx,
            self.ctx.workers,
            &self.ctx.obs,
            &self.ctx.budget,
            &self.ctx.chaos,
            |iy0, chunk| {
                let mut s_row = vec![0.0f64; nx];
                for (row_off, row) in chunk.chunks_mut(nx).enumerate() {
                    let iy = iy0 + row_off;
                    // `row` starts zeroed and plays the per-sample
                    // accumulator; adding each kernel row's sub-sum in
                    // ascending `b` preserves the scalar op order.
                    for b in 0..kh {
                        let krow = kernel.row(b);
                        let wrow = &win[(iy + kh - 1 - b) * ww..][..ww];
                        s_row.fill(0.0);
                        for (a, &kv) in krow.iter().enumerate() {
                            // Σ_a w̃[a,b] · win[ix + kw−1−a]: the reversed
                            // window index becomes a forward slice offset.
                            let wseg = &wrow[kw - 1 - a..][..nx];
                            for (s, &w) in s_row.iter_mut().zip(wseg) {
                                *s += kv * w;
                            }
                        }
                        for (slot, &s) in row.iter_mut().zip(&s_row) {
                            *slot += s;
                        }
                    }
                }
                let mut shard = self.ctx.obs.shard();
                shard.add(stage::CORRELATE_SAMPLES, chunk.len() as u64);
                self.ctx.obs.absorb(shard);
            },
        )?;
        self.ctx.obs.finish(span);
        Ok(out)
    }
}

/// `(w̃ ⊛ X)(n)` for the sample at `(lx, ly)` of the row-major noise
/// window `win` of row stride `ww`.
#[inline]
fn kernel_dot(kernel: &ConvolutionKernel, win: &[f64], ww: usize, lx: i64, ly: i64) -> f64 {
    let (kw, kh) = kernel.extent();
    let (ox, oy) = kernel.origin();
    let weights = kernel.weights();
    let mut acc = 0.0;
    for b in 0..kh {
        let wy = (ly - oy - b as i64) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_probes_every_16th() {
        let h = BackendHealth::new();
        assert!(h.should_try());
        for _ in 0..BackendHealth::THRESHOLD {
            h.record_failure();
        }
        assert!(h.is_open());
        let allowed = (0..BackendHealth::PROBE_EVERY).filter(|_| h.should_try()).count();
        assert_eq!(allowed, 1, "exactly one probe per {} skips", BackendHealth::PROBE_EVERY);
        h.record_success();
        assert!(!h.is_open());
        assert!(h.should_try());
    }
}
