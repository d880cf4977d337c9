//! The degradation ladder `FftOverlapSave → Direct`, shared by every
//! generator that can send a window to the FFT engine.
//!
//! [`run_ladder`] owns the whole policy: the circuit-breaker check, the
//! `catch_unwind` around each rung, the rule for which failures degrade,
//! the `conv/backend_*`, `conv/degraded_to_direct` and
//! `conv/breaker_skips` counters, and the FFT rung's workspace estimate
//! that admission control charges. The FFT rung evaluates
//! `Σ_i g_i(n)·(w̃_i ⊛ X)(n)` over the kernels a request names
//! ([`FftFields`]): the homogeneous generator's one kernel at weight 1,
//! or every kernel active in an inhomogeneous window with its
//! [`WeightTable`]. Callers bring only what differs between them: how a
//! request is admitted and its noise window materialised, and their own
//! Direct rung — the homogeneous generator's vectorised correlate, the
//! inhomogeneous generator's per-sample loop.

use crate::blend::WeightTable;
use crate::context::GenContext;
use crate::conv::ConvBackend;
use crate::fftconv::{fields_scratch, FftEngine};
use crate::kernel::ConvolutionKernel;
use rrs_error::{ErrorKind, RrsError};
use rrs_grid::Grid2;
use rrs_obs::{stage, ObsSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Circuit breaker over the ladder's one skippable rung, the FFT engine.
///
/// Every FFT attempt reports success or failure here; after
/// [`BackendHealth::THRESHOLD`] *consecutive* failures the breaker opens
/// and [`run_ladder`] skips the FFT rung (ticking
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

/// What the FFT rung computes for one request:
/// `out(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)` over `kernels`.
#[derive(Clone, Copy)]
pub struct FftFields<'a> {
    /// The overlap-save engine, whose spectrum cache the kernel ids key.
    pub engine: &'a FftEngine,
    /// `(id, kernel)` for every kernel with a weight in the window, ids
    /// ascending; the id keys the engine's cached spectra and names the
    /// kernel in `weights`.
    pub kernels: &'a [(usize, &'a ConvolutionKernel)],
    /// Per-sample weights, or `None` for a single kernel at weight 1
    /// everywhere, tiled exactly as the homogeneous generator tiles it.
    pub weights: Option<&'a WeightTable>,
}

/// Runs one `nx × ny` request down the ladder `FftOverlapSave → Direct`
/// and returns the output with the rung that served it.
///
/// `fft` names the fields when the request may take the FFT rung at all;
/// the rung runs when the context's backend resolves to
/// [`ConvBackend::FftOverlapSave`] for every one of its kernels and
/// `health` does not hold it open. `prepare` then admits and materialises
/// the request: it receives the FFT rung's workspace in f64 samples
/// (`None` when the FFT rung will not run) and returns the noise window
/// the FFT rung reads — the window of the kernels' union
/// [`Reach`](crate::internal::Reach) around the output, which for one
/// kernel is the `(nx+kw−1) × (ny+kh−1)` window
/// [`ConvolutionGenerator`](crate::ConvolutionGenerator) correlates.
/// Errors from `prepare` surface unchanged.
///
/// The FFT rung ticks [`stage::CONV_BACKEND_FFT`]; a worker panic or an
/// injected fault there degrades to `direct`, ticking
/// [`stage::CONV_DEGRADED_TO_DIRECT`], as does a breaker skip (which also
/// ticks [`stage::CONV_BREAKER_SKIPS`]). `direct` receives the prepared
/// window, ticks [`stage::CONV_BACKEND_DIRECT`] and has no fallback. Each
/// rung runs under its own `catch_unwind` and builds its own output, so a
/// failed rung can neither leak a panic nor leave torn samples in the
/// result.
pub fn run_ladder<'w>(
    ctx: &GenContext,
    health: &BackendHealth,
    fft: Option<FftFields<'_>>,
    nx: usize,
    ny: usize,
    prepare: impl FnOnce(Option<u128>) -> Result<&'w [f64], RrsError>,
    direct: impl FnOnce(&[f64]) -> Result<Grid2<f64>, RrsError>,
) -> Result<(Grid2<f64>, ConvBackend), RrsError> {
    let obs = ctx.recorder();
    let fft = fft.filter(|f| {
        f.kernels.iter().all(|(_, kernel)| {
            let (kw, kh) = kernel.extent();
            ctx.backend().resolve(kw, kh) == ConvBackend::FftOverlapSave
        })
    });
    let skipped = fft.is_some() && !health.should_try();
    if skipped {
        obs.add_counter(stage::CONV_BREAKER_SKIPS, 1);
    }
    let fft = fft.filter(|_| !skipped);
    let scratch =
        fft.map(|f| fields_scratch(f.kernels, f.weights.is_some(), nx, ny, ctx.workers()));
    let win = prepare(scratch)?;

    let mut degraded = skipped;
    if let Some(f) = fft {
        obs.add_counter(stage::CONV_BACKEND_FFT, 1);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            f.engine.convolve_fields(
                f.kernels,
                f.weights,
                win,
                nx,
                ny,
                ctx.workers(),
                obs,
                ctx.budget(),
                ctx.chaos(),
            )
        }))
        .unwrap_or_else(|p| Err(RrsError::worker_panicked(0, p.as_ref())));
        match attempt {
            Ok(out) => {
                health.record_success();
                return Ok((out, ConvBackend::FftOverlapSave));
            }
            Err(e) => {
                health.record_failure();
                if !is_degradable(&e) {
                    return Err(e);
                }
                degraded = true;
            }
        }
    }
    if degraded {
        obs.add_counter(stage::CONV_DEGRADED_TO_DIRECT, 1);
    }
    obs.add_counter(stage::CONV_BACKEND_DIRECT, 1);
    catch_unwind(AssertUnwindSafe(|| direct(win)))
        .unwrap_or_else(|p| Err(RrsError::worker_panicked(0, p.as_ref())))
        .map(|out| (out, ConvBackend::Direct))
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
