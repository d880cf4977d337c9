//! The FFT rung's field engines behind
//! [`ConvBackend::FftOverlapSave`](crate::ConvBackend): overlap-save
//! tiles, kernel blocks, and the separable field of a rank-one kernel.
//!
//! The direct correlate loop costs `O(nx·ny·kw·kh)`; by the convolution
//! theorem the same surface is `IFFT(FFT(X)·FFT(w̃))` at
//! `O(N log N)`. Materialised windows are unbounded in principle, so the
//! engine processes them in **overlap-save tiles**: each tile loads an
//! `fft_nx × fft_ny` segment of the noise window, transforms it,
//! multiplies by the cached kernel spectrum, inverse-transforms, and
//! keeps only the `(fft_nx−kw+1) × (fft_ny−kh+1)` outputs whose circular
//! convolution never wrapped.
//!
//! [`FftEngine::convolve_rfft`] runs that tiling through the
//! **real-input** pipeline ([`RealFft2d`], half-size complex trick,
//! packed Hermitian spectra) with tiles dispatched across `rrs-par`
//! workers. Each worker owns a private [`TileArena`] (real tile, packed
//! spectrum, column scratch), so steady-state tile processing allocates
//! nothing and workers never contend. Tiles write strictly disjoint
//! output regions, so the result is bit-identical for every worker
//! count.
//!
//! [`FftEngine::convolve_fields`] is the window engine's FFT rung. It
//! evaluates `Σ_i g_i(n)·(w̃_i ⊛ X)(n)` over the kernels of a request,
//! reading each kernel's window in place from the one noise window that
//! covers them all. One field rule, [`FieldPlan::of`], holds whatever
//! the weights:
//!
//! * a kernel whose single-block plan would need a lattice side more
//!   than 4× `next_pow2` of the window side is **partitioned**
//!   ([`Blocks`]) — split into blocks of `L − n + 1` on the window
//!   lattice `L = 2·next_pow2(n)`, the block products summed in the
//!   frequency domain before one inverse transform, block spectra
//!   recomputed per call rather than cached, so a huge kernel never pins
//!   a huge cached spectrum; any other kernel keeps the cached
//!   single-block engine;
//! * a **rank-one** kernel `w̃ = c ⊗ r` ([`Factors`], tested once per
//!   window engine; the paper's Gaussian spectrum factorises, eqns 5–6)
//!   computes its field in two 1-D passes instead
//!   ([`convolve_separable`]) when their `kw + kh` multiply-adds per
//!   sample cost less than that FFT plan. The rank test's bound keeps
//!   the factored field within 1e-10 of its scale, and the cost constant
//!   [`MACS_PER_FFT_UNIT`] is fixed, so large kernels on large windows
//!   keep overlap-save and the choice never depends on the host or the
//!   worker count.
//!
//! The weights decide only whether a field is the output (one kernel at
//! weight 1) or is accumulated into it through a [`WeightTable`].
//!
//! # Tile correctness
//!
//! With the kernel zero-padded at the tile origin, the circular
//! convolution of a segment starting at window column `ox` satisfies
//! `c[m] = Σ_j w̃[j]·seg[m−j]` exactly for `m ≥ kw−1` (no index wraps:
//! the kernel support is `[0, kw)`), and `seg[m−j] = win[ox+m−j]`, so
//! `c[(ix−ox)+kw−1] = Σ_a w̃[a]·win[ix+kw−1−a] = out[ix]` — the direct
//! loop's sum, evaluated in the frequency domain. Per-axis the same
//! argument holds for rows. Zero-padding past the right/top window edge
//! only reaches `c[m]` with `m ≥ ww−ox`, i.e. output indices `≥ nx`,
//! which the scatter step discards.
//!
//! # Cost model
//!
//! The tile side is chosen by brute-force minimisation of
//! `tiles · fft_area · (log2(fft_area) + 1)` over power-of-two sides —
//! small tiles amortise badly (little valid output per transform), huge
//! tiles waste work past the output edge. The search space is tiny
//! (≤ ~12 candidates per axis), so the exact model is evaluated rather
//! than approximated. Worker dispatch then splits the flattened tile
//! index range evenly; a request whose plan yields a single tile runs
//! serially regardless of the configured worker count. The same units
//! price a field's FFT plan against its separable passes: a partitioned
//! field costs half a tile per transform, two per block plus one
//! inverse.

use crate::blend::{Reach, WeightTable};
use crate::kernel::ConvolutionKernel;
use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, RrsError};
use rrs_fft::{FftPlanCache, RealFft2d};
use rrs_grid::Grid2;
use rrs_num::Complex64;
use rrs_obs::{stage, ObsSink, Recorder, Shard};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// The overlap-save tile shape chosen for one `(output, kernel)` geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TileShape {
    /// FFT side along x (power of two, ≥ `kw`).
    pub(crate) fft_nx: usize,
    /// FFT side along y (power of two, ≥ `kh`).
    pub(crate) fft_ny: usize,
}

impl TileShape {
    /// Valid (non-wrapped) outputs per tile along each axis.
    pub(crate) fn valid(&self, kw: usize, kh: usize) -> (usize, usize) {
        (self.fft_nx - kw + 1, self.fft_ny - kh + 1)
    }

    /// Tile grid `(columns, rows)` this shape induces on an `nx × ny`
    /// output under a `kw × kh` kernel.
    pub(crate) fn tiles(&self, nx: usize, ny: usize, kw: usize, kh: usize) -> (usize, usize) {
        let (vx, vy) = self.valid(kw, kh);
        (nx.div_ceil(vx), ny.div_ceil(vy))
    }

    /// Packed (Hermitian, half-width-plus-one) spectrum samples per tile.
    fn packed_samples(&self) -> u128 {
        (self.fft_nx / 2 + 1) as u128 * self.fft_ny as u128
    }

    /// Workspace footprint of the real-input engine at a given worker
    /// count, in f64-equivalents: each worker arena holds a real tile, a
    /// packed spectrum and the transform's column scratch, and one packed
    /// kernel spectrum is shared. Deterministic in its arguments, so
    /// admission control and the convolve loop agree on the footprint.
    pub(crate) fn scratch_samples_real(&self, workers: usize) -> u128 {
        let packed = 2 * self.packed_samples();
        let scratch = 2 * ((self.fft_nx / 2).max(self.fft_ny).max(1)) as u128;
        let per_worker = self.fft_nx as u128 * self.fft_ny as u128 + packed + scratch;
        workers.max(1) as u128 * per_worker + packed
    }
}

/// Per-axis power-of-two candidates: from the smallest that admits at
/// least one valid output to the smallest that covers the whole axis in
/// one tile.
fn axis_candidates(out_n: usize, k: usize) -> Vec<usize> {
    let lo = k.next_power_of_two();
    let hi = (out_n + k - 1).next_power_of_two().max(lo);
    let mut c = Vec::new();
    let mut n = lo;
    while n <= hi {
        c.push(n);
        n *= 2;
    }
    c
}

/// Chooses the overlap-save tile for an `nx × ny` output under a
/// `kw × kh` kernel by exact evaluation of the modelled transform cost
/// over all power-of-two tile shapes. Deterministic in its arguments, so
/// admission control and the convolve loop agree on the footprint.
pub(crate) fn plan_tiles(nx: usize, ny: usize, kw: usize, kh: usize) -> TileShape {
    let mut best = TileShape { fft_nx: 0, fft_ny: 0 };
    let mut best_cost = f64::INFINITY;
    for &fx in &axis_candidates(nx, kw) {
        let tiles_x = nx.div_ceil(fx - kw + 1) as f64;
        for &fy in &axis_candidates(ny, kh) {
            let tiles_y = ny.div_ceil(fy - kh + 1) as f64;
            let area = (fx * fy) as f64;
            let cost = tiles_x * tiles_y * area * (area.log2() + 1.0);
            if cost < best_cost {
                best_cost = cost;
                best = TileShape { fft_nx: fx, fft_ny: fy };
            }
        }
    }
    best
}

/// The worker count the real-input engine actually dispatches for a
/// request: clamped to the number of tiles (a single-tile request runs
/// serially whatever the configuration). Deterministic, and used by both
/// admission control and the engine so the two agree.
pub(crate) fn effective_workers(shape: TileShape, nx: usize, ny: usize, kw: usize, kh: usize, workers: usize) -> usize {
    let (tx, ty) = shape.tiles(nx, ny, kw, kh);
    workers.max(1).min(tx * ty)
}

/// Whether a kernel's field over a window is split into kernel blocks,
/// and how: when [`plan_tiles`] would pick a lattice side more than 4×
/// `next_pow2` of the window side, the field is computed on the window
/// lattice `L = 2·next_pow2(n)` per axis from kernel blocks of
/// `L − n + 1` per axis — the widest block whose `n` outputs never wrap
/// on that lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Blocks {
    lx: usize,
    ly: usize,
    bx: usize,
    by: usize,
    nbx: usize,
    nby: usize,
}

impl Blocks {
    /// The split of a `kw × kh` kernel over an `nx × ny` window, or
    /// `None` when the cached single-block engine keeps the field.
    fn of(nx: usize, ny: usize, kw: usize, kh: usize) -> Option<Self> {
        let shape = plan_tiles(nx, ny, kw, kh);
        let (px, py) = (nx.next_power_of_two(), ny.next_power_of_two());
        if shape.fft_nx <= 4 * px && shape.fft_ny <= 4 * py {
            return None;
        }
        let (lx, ly) = (2 * px, 2 * py);
        let (bx, by) = (lx - nx + 1, ly - ny + 1);
        Some(Self { lx, ly, bx, by, nbx: kw.div_ceil(bx), nby: kh.div_ceil(by) })
    }

    /// Kernel blocks, hence block products and budget polls, per field.
    fn count(&self) -> usize {
        self.nbx * self.nby
    }

    /// Workspace in f64-equivalents: one real lattice, the segment,
    /// block and summed spectra, and the transform's column scratch.
    /// Nothing outlives the call.
    fn scratch_samples(&self) -> u128 {
        let packed = 2 * ((self.lx / 2 + 1) * self.ly) as u128;
        let scratch = 2 * (self.lx / 2).max(self.ly).max(1) as u128;
        (self.lx * self.ly) as u128 + 3 * packed + scratch
    }
}

/// The two 1-D factors of a rank-one kernel, `w̃[a, b] = row[a]·col[b]`
/// (`a` along x, `b` along y). The paper's Gaussian spectrum (eqns 5–6)
/// is a product of one x and one y factor, so its kernel — the DFT of a
/// separable amplitude array — factorises too, and cropping it keeps the
/// factorisation; exponential, power-law and rotated anisotropic kernels
/// do not.
#[derive(Clone, Debug)]
pub(crate) struct Factors {
    row: Vec<f64>,
    col: Vec<f64>,
}

impl Factors {
    /// Acceptance bound of the rank test, relative to `‖w̃‖₂`.
    ///
    /// A field computed from the factors differs from the kernel's by
    /// `Σ_j (w̃ − c⊗r)[j]·X(n−j)`, at most `Σ|w̃ − c⊗r| · max|X|`. The
    /// noise lattice draws `X = √(−2 ln u)·cos θ` with `u ≥ 2⁻⁵⁴`, so
    /// `|X| < 8.7`, and the output's scale is its standard deviation
    /// `h = ‖w̃‖₂`. Accepting `Σ|w̃ − c⊗r| ≤ 1e-11·‖w̃‖₂` therefore keeps
    /// every output sample within `8.7e-11·h < 1e-10·h` of the unfactored
    /// field (a caller-supplied window scales the bound by its own
    /// `max|X|`). Sampled Gaussian kernels leave a residual near 1e-16 of
    /// their peak per weight, orders of magnitude inside the bound.
    const REL_RESIDUAL: f64 = 1e-11;

    /// The factors of `kernel` when it is rank one within
    /// [`Factors::REL_RESIDUAL`], else `None`. Pivots on the largest
    /// `|w̃|`: the row through it is `r`, and the column through it,
    /// divided by the pivot, is `c`. A zero or non-finite kernel is never
    /// factored.
    pub(crate) fn of(kernel: &ConvolutionKernel) -> Option<Self> {
        let (kw, kh) = kernel.extent();
        let weights = kernel.weights();
        let data = weights.as_slice();
        let (at, &pivot) = data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))?;
        if pivot == 0.0 || !pivot.is_finite() {
            return None;
        }
        let row = weights.row(at / kw).to_vec();
        let col: Vec<f64> = (0..kh).map(|b| data[b * kw + at % kw] / pivot).collect();
        // Both sums run over w̃/pivot, whose terms are at most 1, so
        // neither overflows however large the weights are.
        let norm = data.iter().map(|w| (w / pivot).powi(2)).sum::<f64>().sqrt();
        let bound = Self::REL_RESIDUAL * norm;
        let mut residual = 0.0;
        for (b, &c) in col.iter().enumerate() {
            for (&w, &r) in weights.row(b).iter().zip(&row) {
                residual += (w / pivot - c * (r / pivot)).abs();
            }
            // A NaN weight leaves a NaN residual, which must not pass.
            if residual.is_nan() || residual > bound {
                return None;
            }
        }
        Some(Self { row, col })
    }
}

/// Multiply-adds of the two 1-D passes that take as long as one unit of
/// the FFT cost model (`area · (log2 area + 1)` per tile, half that per
/// transform). `bench_convolution`'s `separable` rows time both engines
/// on both sides of the rule (one worker, 2-vCPU x86-64): the passes ran
/// 1.6–4× faster on 128² windows under 64²–256² Gaussian kernels and
/// 7–9× on Figure 1's 64² windows under its 231² kernel, overlap-save
/// 2.2–2.5× faster for a 512² kernel on a 512² window, and the two
/// stayed within 20% of each other for the 231² kernel on 256² and 1024²
/// windows, where the rule sits near its break-even. The constant is
/// fixed, so the plan, and with it every output bit, depends on neither
/// the host nor the worker count; the rows' gate fails when a pick away
/// from the crossover is more than 10% slower than the other engine.
const MACS_PER_FFT_UNIT: f64 = 6.0;

/// How the FFT rung computes one kernel's field over an `nx × ny`
/// window. One rule serves admission and the engine, so both agree.
#[derive(Clone, Copy, Debug)]
enum FieldPlan<'a> {
    /// Two 1-D passes of a rank-one kernel.
    Separable(&'a Factors),
    /// Overlap-save tiles with the cached single-block kernel spectrum.
    Tiles(TileShape),
    /// Kernel blocks on the window lattice.
    Blocks(Blocks),
}

impl<'a> FieldPlan<'a> {
    /// The plan for a `kw × kh` kernel with its `factors`, if it is rank
    /// one. The FFT plan is [`Blocks`] when the kernel dwarfs the window,
    /// else [`plan_tiles`]; a factored kernel takes the two passes instead
    /// when their `nx·(ny+kh−1)·kw + nx·ny·kh` multiply-adds cost less
    /// than the FFT plan's modelled transforms at [`MACS_PER_FFT_UNIT`].
    /// A small window favours the passes, since an FFT plan pays for a
    /// lattice much larger than the window; on a large one the passes
    /// cost `kw + kh` per sample and overlap-save about the log of its
    /// tile area, so large kernels keep overlap-save.
    fn of(nx: usize, ny: usize, kw: usize, kh: usize, factors: Option<&'a Factors>) -> Self {
        let (fft, units) = match Blocks::of(nx, ny, kw, kh) {
            Some(blocks) => {
                let area = (blocks.lx * blocks.ly) as f64;
                // Two forward transforms per block, one inverse per field.
                let transforms = (2 * blocks.count() + 1) as f64;
                (
                    FieldPlan::Blocks(blocks),
                    transforms * area * (area.log2() + 1.0) / 2.0,
                )
            }
            None => {
                let shape = plan_tiles(nx, ny, kw, kh);
                let (tx, ty) = shape.tiles(nx, ny, kw, kh);
                let area = (shape.fft_nx * shape.fft_ny) as f64;
                (
                    FieldPlan::Tiles(shape),
                    (tx * ty) as f64 * area * (area.log2() + 1.0),
                )
            }
        };
        let (nxf, nyf) = (nx as f64, ny as f64);
        let macs = nxf * (nyf + kh as f64 - 1.0) * kw as f64 + nxf * nyf * kh as f64;
        match factors {
            Some(f) if macs < MACS_PER_FFT_UNIT * units => FieldPlan::Separable(f),
            _ => fft,
        }
    }

    /// Workspace in f64-equivalents beyond the noise window, the output
    /// and any field buffer.
    fn scratch_samples(&self, nx: usize, ny: usize, kw: usize, kh: usize, workers: usize) -> u128 {
        match *self {
            // The row pass's (ny+kh−1) × nx buffer.
            FieldPlan::Separable(_) => nx as u128 * (ny + kh - 1) as u128,
            FieldPlan::Tiles(shape) => {
                shape.scratch_samples_real(effective_workers(shape, nx, ny, kw, kh, workers))
            }
            FieldPlan::Blocks(blocks) => blocks.scratch_samples(),
        }
    }
}

/// The FFT rung's engine workspace beyond the noise window, the output
/// and any field buffer, in f64-equivalents: the largest per-kernel
/// field workspace. `factors` is indexed by kernel id. Deterministic in
/// its arguments, so admission control and the engine agree.
pub(crate) fn fields_scratch(
    kernels: &[(usize, &ConvolutionKernel)],
    factors: &[Option<Factors>],
    nx: usize,
    ny: usize,
    workers: usize,
) -> u128 {
    kernels
        .iter()
        .map(|&(id, kernel)| {
            let (kw, kh) = kernel.extent();
            FieldPlan::of(nx, ny, kw, kh, factors[id].as_ref())
                .scratch_samples(nx, ny, kw, kh, workers)
        })
        .max()
        .unwrap_or(0)
}

/// A `w × h` region of a row-major noise window with row stride
/// `stride`, starting at column `x0` and row `y0`: one kernel's window,
/// read in place from the window that covers every kernel of a request.
#[derive(Clone, Copy)]
struct WinView<'a> {
    data: &'a [f64],
    stride: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
}

impl WinView<'_> {
    /// Row `y` of the view.
    fn row(&self, y: usize) -> &[f64] {
        &self.data[(self.y0 + y) * self.stride + self.x0..][..self.w]
    }

    /// Loads the `fx × fy` segment at `(ox, oy)` into `real`, zero-padded
    /// past the view's right and top edges.
    fn gather(&self, ox: usize, oy: usize, fx: usize, real: &mut [f64]) {
        let cols = (self.w - ox).min(fx);
        for (ty, trow) in real.chunks_exact_mut(fx).enumerate() {
            let wy = oy + ty;
            if wy < self.h {
                let at = (self.y0 + wy) * self.stride + self.x0 + ox;
                trow[..cols].copy_from_slice(&self.data[at..at + cols]);
                trow[cols..].fill(0.0);
            } else {
                trow.fill(0.0);
            }
        }
    }
}

/// The geometry one convolution request tiles over, bundled so the tile
/// loop's helpers stay readable.
#[derive(Clone, Copy)]
struct TileGeom {
    nx: usize,
    ny: usize,
    kw: usize,
    kh: usize,
    fx: usize,
    vx: usize,
    vy: usize,
    tiles_x: usize,
}

/// One worker's private workspace: every buffer the per-tile pipeline
/// touches, sized once at dispatch so the tile loop allocates nothing.
struct TileArena {
    real: Vec<f64>,
    spec: Vec<Complex64>,
    scratch: Vec<Complex64>,
}

impl TileArena {
    fn new(rfft: &RealFft2d) -> Self {
        Self {
            real: vec![0.0; rfft.real_len()],
            spec: vec![Complex64::ZERO; rfft.packed_len()],
            scratch: vec![Complex64::ZERO; rfft.scratch_len()],
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: workers write strictly disjoint output regions of the pointee
// (each tile's valid-output rectangle belongs to exactly one tile, and
// each tile to exactly one worker).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// The overlap-save engine: an [`FftPlanCache`] shared through the owning
/// window engine plus the packed-real forward transforms of its kernels,
/// cached per `(kernel id, tile shape)`, so repeated windows and strip
/// tiles never re-transform a kernel.
pub(crate) struct FftEngine {
    plans: Arc<FftPlanCache>,
    kernel_rffts: Mutex<HashMap<(usize, usize, usize), Arc<Vec<Complex64>>>>,
}

/// Locks a kernel-spectrum cache, recovering from poisoning by
/// rebuilding from empty: cached spectra are pure functions of
/// `(kernel id, tile shape)`, so clearing trades a re-transform for
/// never propagating the poison. Each recovery ticks
/// [`stage::FFT_PLAN_POISONED`].
fn lock_spectra<'a>(
    cache: &'a Mutex<HashMap<(usize, usize, usize), Arc<Vec<Complex64>>>>,
    obs: &Recorder,
) -> MutexGuard<'a, HashMap<(usize, usize, usize), Arc<Vec<Complex64>>>> {
    cache.lock().unwrap_or_else(|poisoned| {
        // Un-poison first: the rebuild makes the map coherent again, and
        // without this every later lock would re-clear it.
        cache.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.clear();
        obs.add_counter(stage::FFT_PLAN_POISONED, 1);
        guard
    })
}

impl FftEngine {
    /// Builds an engine drawing 2-D transforms from `plans`.
    pub(crate) fn new(plans: Arc<FftPlanCache>) -> Self {
        Self { plans, kernel_rffts: Mutex::new(HashMap::new()) }
    }

    /// The plan cache this engine draws 2-D transforms from.
    pub(crate) fn plans(&self) -> &Arc<FftPlanCache> {
        &self.plans
    }

    /// The packed-real kernel spectrum on the `tile` lattice: the kernel
    /// weights zero-padded at the tile origin, transformed once with the
    /// shared serial real plan and cached under `kernel_id`, the kernel's
    /// index in the window engine.
    fn kernel_spectrum_real(
        &self,
        kernel_id: usize,
        kernel: &ConvolutionKernel,
        tile: TileShape,
        obs: &Recorder,
    ) -> Arc<Vec<Complex64>> {
        let key = (kernel_id, tile.fft_nx, tile.fft_ny);
        if let Some(cached) = lock_spectra(&self.kernel_rffts, obs).get(&key) {
            return cached.clone();
        }
        let (kw, kh) = kernel.extent();
        let weights = kernel.weights();
        let mut buf = vec![0.0; tile.fft_nx * tile.fft_ny];
        for b in 0..kh {
            let krow = weights.row(b);
            buf[b * tile.fft_nx..b * tile.fft_nx + kw].copy_from_slice(&krow[..kw]);
        }
        let spec = self.plans.plan_real_observed(tile.fft_nx, tile.fft_ny, 1, obs).forward_real(&buf);
        let arc = Arc::new(spec);
        lock_spectra(&self.kernel_rffts, obs).entry(key).or_insert(arc).clone()
    }

    /// The ladder's FFT rung: `out(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)` over
    /// `kernels` (`(cache id, kernel)` pairs, `factors` indexed by id),
    /// read from `win`, the row-major noise window of their union
    /// [`Reach`] around the `nx × ny` output. Each kernel's own window is
    /// read in place, and its field computed as [`FieldPlan::of`] says:
    /// by [`convolve_separable`], the cached single-block
    /// engine, or [`FftEngine::convolve_partitioned`]. With
    /// `weights = None` the one kernel's field is the output; with a
    /// [`WeightTable`] each field lands in one reused buffer and is added
    /// to the output with its weights.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn convolve_fields(
        &self,
        kernels: &[(usize, &ConvolutionKernel)],
        factors: &[Option<Factors>],
        weights: Option<&WeightTable>,
        win: &[f64],
        nx: usize,
        ny: usize,
        workers: usize,
        obs: &Recorder,
        budget: &Budget,
        chaos: &ChaosInjector,
    ) -> Result<Grid2<f64>, RrsError> {
        debug_assert!(weights.is_some() || kernels.len() == 1);
        let reach = Reach::of(kernels.iter().map(|&(_, k)| k));
        let ww = nx + (reach.left + reach.right) as usize;
        debug_assert_eq!(win.len(), ww * (ny + (reach.down + reach.up) as usize));
        let mut out = Grid2::zeros(nx, ny);
        let mut field = if weights.is_some() { vec![0.0; nx * ny] } else { Vec::new() };
        for &(id, kernel) in kernels {
            let (kw, kh) = kernel.extent();
            let (x0, y0) = reach.offset_of(kernel);
            let view = WinView { data: win, stride: ww, x0, y0, w: nx + kw - 1, h: ny + kh - 1 };
            let dst = if weights.is_some() { &mut field[..] } else { out.as_mut_slice() };
            match FieldPlan::of(nx, ny, kw, kh, factors[id].as_ref()) {
                FieldPlan::Separable(f) => {
                    convolve_separable(f, view, nx, dst, workers, obs, budget, chaos)?
                }
                FieldPlan::Blocks(blocks) => self.convolve_partitioned(
                    kernel, blocks, view, dst, workers, obs, budget, chaos,
                )?,
                FieldPlan::Tiles(_) => self.convolve_rfft(
                    id, kernel, view, nx, ny, dst, workers, obs, budget, chaos,
                )?,
            }
            if let Some(table) = weights {
                table.accumulate(id, &field, out.as_mut_slice());
            }
        }
        Ok(out)
    }

    /// Convolves a kernel's `(nx+kw−1) × (ny+kh−1)` noise window with
    /// `kernel`, writing the `nx × ny` field to `out` — the exact sum the
    /// direct loop computes
    /// (`out[ix,iy] = Σ w̃[a,b]·win[ix+kw−1−a, iy+kh−1−b]`) — through the
    /// **real-input** overlap-save pipeline, with tiles dispatched across
    /// up to `workers` threads. The attached budget is polled once per
    /// tile (ticking [`stage::BUDGET_POLLS`]), so deadlines and
    /// cancellation take effect at tile granularity on every worker; a
    /// panicking worker is contained and reported as
    /// [`RrsError::WorkerPanicked`]. Output is bit-identical for every
    /// worker count: tiles own disjoint output regions and per-tile
    /// arithmetic never depends on the partition.
    #[allow(clippy::too_many_arguments)]
    fn convolve_rfft(
        &self,
        kernel_id: usize,
        kernel: &ConvolutionKernel,
        win: WinView<'_>,
        nx: usize,
        ny: usize,
        out: &mut [f64],
        workers: usize,
        obs: &Recorder,
        budget: &Budget,
        chaos: &ChaosInjector,
    ) -> Result<(), RrsError> {
        let (kw, kh) = kernel.extent();
        debug_assert_eq!(out.len(), nx * ny);
        debug_assert_eq!((win.w, win.h), (nx + kw - 1, ny + kh - 1));
        let tile_shape = plan_tiles(nx, ny, kw, kh);
        let (tiles_x, tiles_y) = tile_shape.tiles(nx, ny, kw, kh);
        let total = tiles_x * tiles_y;
        let workers = effective_workers(tile_shape, nx, ny, kw, kh, workers);
        let fx = tile_shape.fft_nx;
        let (vx, vy) = tile_shape.valid(kw, kh);
        let geom = TileGeom { nx, ny, kw, kh, fx, vx, vy, tiles_x };
        // Per-worker transforms are serial (workers = 1): parallelism
        // lives at the tile level, and the serial plan is shared by every
        // arena (plans are immutable).
        chaos.poll(FaultSite::PlanCacheLookup)?;
        let rfft = self.plans.plan_real_observed(fx, tile_shape.fft_ny, 1, obs);
        let kspec = self.kernel_spectrum_real(kernel_id, kernel, tile_shape, obs);
        let polling = budget.needs_polling();

        let out_ptr = SendPtr(out.as_mut_ptr());
        let span = obs.start(stage::CORRELATE);
        if workers == 1 {
            let mut arena = TileArena::new(&rfft);
            let mut shard = obs.shard();
            let result = run_tile_range(
                0, total, geom, win, &rfft, &kspec, out_ptr, &mut arena, &mut shard, budget,
                polling, chaos,
            );
            obs.absorb(shard);
            result?;
        } else {
            let ranges = rrs_par::split_range(total, workers);
            let bands = ranges.len() as u64;
            let results: Vec<Result<Shard, RrsError>> = rrs_par::scope(|s| {
                let handles: Vec<_> = ranges
                    .iter()
                    .enumerate()
                    .map(|(band, &(t0, t1))| {
                        let (rfft, kspec) = (&rfft, &kspec);
                        s.spawn(move || {
                            // Rebind the Send wrapper, not its pointer field.
                            #[allow(clippy::redundant_locals)]
                            let out_ptr = out_ptr;
                            catch_unwind(AssertUnwindSafe(|| {
                                let mut arena = TileArena::new(rfft);
                                let mut shard = obs.shard();
                                run_tile_range(
                                    t0, t1, geom, win, rfft, kspec, out_ptr, &mut arena,
                                    &mut shard, budget, polling, chaos,
                                )
                                .map(|()| shard)
                            }))
                            .unwrap_or_else(|p| Err(RrsError::worker_panicked(band, p.as_ref())))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker result survives catch_unwind"))
                    .collect()
            });
            obs.add_counter(stage::PAR_BANDS, bands);
            // Lowest failed band wins, matching the `rrs-par` primitives;
            // shards from successful bands are still absorbed so counters
            // reflect the work actually done.
            let mut first: Option<RrsError> = None;
            for result in results {
                match result {
                    Ok(shard) => obs.absorb(shard),
                    Err(e) => {
                        if e.kind() == rrs_error::ErrorKind::WorkerPanicked {
                            obs.add_counter(stage::PAR_WORKER_PANICS, 1);
                        }
                        if first.is_none() {
                            first = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = first {
                // The span is dropped unfinished: a failed correlate
                // records no timing, like every other error path.
                return Err(e);
            }
            obs.add_counter(stage::CONV_TILES_PARALLEL, total as u64);
        }
        obs.finish(span);
        obs.add_counter(stage::CONV_FFT_TILES, total as u64);
        obs.add_counter(stage::CORRELATE_SAMPLES, (nx * ny) as u64);
        Ok(())
    }

    /// The field of a kernel that dwarfs its window, on the window
    /// lattice of `blocks`. Block `(jx, jy)` holds kernel columns
    /// `[kw − (jx+1)·bx, kw − jx·bx)` (rows likewise), placed so that the
    /// noise segment it reads starts at `(jx·bx, jy·by)` of the kernel's
    /// window; its spectrum times the segment's is summed over all blocks
    /// before one inverse transform, and output `(ix, iy)` is lattice
    /// sample `(bx−1+ix, by−1+iy)`. Block spectra are recomputed on every
    /// call and never cached, which is what bounds memory.
    ///
    /// Up to `workers` block products run at once, one per worker arena,
    /// and are summed in block order, so the field is bit-identical for
    /// every worker count. The budget and [`FaultSite::FftTile`] are
    /// polled once per block product, and each block counts as one
    /// [`stage::CONV_FFT_TILES`].
    #[allow(clippy::too_many_arguments)]
    fn convolve_partitioned(
        &self,
        kernel: &ConvolutionKernel,
        blocks: Blocks,
        win: WinView<'_>,
        out: &mut [f64],
        workers: usize,
        obs: &Recorder,
        budget: &Budget,
        chaos: &ChaosInjector,
    ) -> Result<(), RrsError> {
        let Blocks { lx, ly, bx, by, nbx, .. } = blocks;
        let (kw, kh) = kernel.extent();
        let nx = win.w + 1 - kw;
        let weights = kernel.weights();
        chaos.poll(FaultSite::PlanCacheLookup)?;
        let rfft = self.plans.plan_real_observed(lx, ly, 1, obs);
        let polling = budget.needs_polling();
        // Block `j`'s product lands in `arena.spec`.
        let product = |j: usize, arena: &mut TileArena, block: &mut [Complex64]| {
            if polling {
                obs.add_counter(stage::BUDGET_POLLS, 1);
                budget.check()?;
            }
            chaos.poll(FaultSite::FftTile)?;
            let (jx, jy) = (j % nbx, j / nbx);
            // Kernel sample (a, b) of this block sits at lattice
            // (a + (jx+1)·bx − kw, b + (jy+1)·by − kh).
            let (a_lo, a_hi) = ((kw - jx * bx).saturating_sub(bx), kw - jx * bx);
            let (b_lo, b_hi) = ((kh - jy * by).saturating_sub(by), kh - jy * by);
            let col = a_lo + (jx + 1) * bx - kw;
            arena.real.fill(0.0);
            for b in b_lo..b_hi {
                let at = (b + (jy + 1) * by - kh) * lx + col;
                arena.real[at..at + a_hi - a_lo].copy_from_slice(&weights.row(b)[a_lo..a_hi]);
            }
            rfft.forward_into(&arena.real, block, &mut arena.scratch);
            win.gather(jx * bx, jy * by, lx, &mut arena.real);
            rfft.forward_into(&arena.real, &mut arena.spec, &mut arena.scratch);
            for (z, k) in arena.spec.iter_mut().zip(block.iter()) {
                *z = *z * *k;
            }
            Ok(())
        };
        let count = blocks.count();
        let workers = workers.clamp(1, count);
        let mut arenas: Vec<(TileArena, Vec<Complex64>)> = (0..workers)
            .map(|_| (TileArena::new(&rfft), vec![Complex64::ZERO; rfft.packed_len()]))
            .collect();
        let mut sum = vec![Complex64::ZERO; rfft.packed_len()];
        let span = obs.start(stage::CORRELATE);
        for round in (0..count).step_by(workers) {
            let live = workers.min(count - round);
            let (first, rest) = arenas[..live].split_first_mut().expect("at least one arena");
            let product = &product;
            let results: Vec<Result<(), RrsError>> = rrs_par::scope(|s| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .enumerate()
                    .map(|(w, (arena, block))| {
                        let j = round + 1 + w;
                        s.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| product(j, arena, block)))
                                .unwrap_or_else(|p| Err(RrsError::worker_panicked(j, p.as_ref())))
                        })
                    })
                    .collect();
                let mut results = vec![catch_unwind(AssertUnwindSafe(|| {
                    product(round, &mut first.0, &mut first.1)
                }))
                .unwrap_or_else(|p| Err(RrsError::worker_panicked(round, p.as_ref())))];
                results.extend(
                    handles.into_iter().map(|h| h.join().expect("worker result survives catch_unwind")),
                );
                results
            });
            // The lowest failed block wins; a failed field records no timing.
            results.into_iter().collect::<Result<Vec<()>, RrsError>>()?;
            for (arena, _) in &arenas[..live] {
                for (s, p) in sum.iter_mut().zip(&arena.spec) {
                    *s += *p;
                }
            }
        }
        let (arena, _) = &mut arenas[0];
        rfft.inverse_into(&mut sum, &mut arena.real, &mut arena.scratch);
        for (dy, row) in out.chunks_exact_mut(nx).enumerate() {
            row.copy_from_slice(&arena.real[(by - 1 + dy) * lx + bx - 1..][..nx]);
        }
        obs.finish(span);
        obs.add_counter(stage::CONV_FFT_TILES, count as u64);
        obs.add_counter(stage::CORRELATE_SAMPLES, out.len() as u64);
        Ok(())
    }
}

/// The field of a rank-one kernel `w̃ = c ⊗ r` over its window `win`,
/// written to the `nx`-wide `out`, in two 1-D passes: kernel rows into an
/// `(ny+kh−1) × nx` buffer, `t[ix, y] = Σ_a r[a]·win[ix+kw−1−a, y]`, then
/// kernel columns into the field, `out[ix, iy] = Σ_b c[b]·t[ix,
/// iy+kh−1−b]` — the direct loop's sum at `kw + kh` rather than `kw·kh`
/// multiply-adds per sample. Both passes run in row bands through
/// [`rrs_par::try_par_rows`] and compute each row from its index alone,
/// so the field is bit-identical for every worker count.
///
/// On the FFT rung each pass stands in for a tile: it polls the budget
/// and [`FaultSite::FftTile`] before it runs. The field is timed under
/// [`stage::CORRELATE`] and counts one [`stage::CONV_SEPARABLE_FIELDS`];
/// nothing is cached.
#[allow(clippy::too_many_arguments)]
fn convolve_separable(
    factors: &Factors,
    win: WinView<'_>,
    nx: usize,
    out: &mut [f64],
    workers: usize,
    obs: &Recorder,
    budget: &Budget,
    chaos: &ChaosInjector,
) -> Result<(), RrsError> {
    let Factors { row: r, col: c } = factors;
    let (kw, kh) = (r.len(), c.len());
    let poll = || {
        if budget.needs_polling() {
            obs.add_counter(stage::BUDGET_POLLS, 1);
            budget.check()?;
        }
        chaos.poll(FaultSite::FftTile)
    };
    poll()?;
    let span = obs.start(stage::CORRELATE);
    let mut rows = vec![0.0; nx * win.h];
    rrs_par::try_par_rows(&mut rows, nx, workers, obs, budget, chaos, |y0, band| {
        for (dy, t) in band.chunks_mut(nx).enumerate() {
            let wrow = win.row(y0 + dy);
            tap_sum(t, r, |a| &wrow[kw - 1 - a..]);
        }
    })?;
    poll()?;
    rrs_par::try_par_rows(out, nx, workers, obs, budget, chaos, |y0, band| {
        for (dy, o) in band.chunks_mut(nx).enumerate() {
            let iy = y0 + dy;
            tap_sum(o, c, |b| &rows[(iy + kh - 1 - b) * nx..]);
        }
    })?;
    obs.finish(span);
    obs.add_counter(stage::CONV_SEPARABLE_FIELDS, 1);
    obs.add_counter(stage::CORRELATE_SAMPLES, out.len() as u64);
    Ok(())
}

/// The two 1-D passes of `kernel`, when it is rank one, as a function
/// from a row-major `(nx+kw−1) × (ny+kh−1)` noise window and `(nx, ny)`
/// to the `nx × ny` field, at one worker and whatever [`FieldPlan::of`]
/// would pick. It lets a benchmark time the passes on windows where the
/// FFT rung would run overlap-save, to check the cost rule's pick.
pub fn separable_passes(
    kernel: &ConvolutionKernel,
) -> Option<impl Fn(&[f64], usize, usize) -> Vec<f64>> {
    let factors = Factors::of(kernel)?;
    let (kw, kh) = kernel.extent();
    let obs = Recorder::disabled();
    let (budget, chaos) = (Budget::unlimited(), ChaosInjector::disabled());
    Some(move |win: &[f64], nx: usize, ny: usize| {
        let (w, h) = (nx + kw - 1, ny + kh - 1);
        assert_eq!(win.len(), w * h, "window must be (nx+kw-1) x (ny+kh-1)");
        let view = WinView { data: win, stride: w, x0: 0, y0: 0, w, h };
        let mut out = vec![0.0; nx * ny];
        convolve_separable(&factors, view, nx, &mut out, 1, &obs, &budget, &chaos)
            .expect("unbudgeted passes cannot fail");
        out
    })
}

/// `dst[i] = Σ_j taps[j]·src(j)[i]`, summed in ascending `j` for every
/// `i`. Runs of [`TAP_LANES`] outputs keep their sums in registers across
/// the whole tap loop, so each multiply-add costs one load and no store.
/// On `bench_convolution`'s `separable/*/passes` rows with windows up to
/// 256 wide this ran 1.6–1.9× faster than one multiply-add sweep over
/// `dst` per tap (same sums, same order; 2-vCPU x86-64).
#[inline]
fn tap_sum<'a>(dst: &mut [f64], taps: &[f64], src: impl Fn(usize) -> &'a [f64]) {
    let n = dst.len();
    let mut runs = dst.chunks_exact_mut(TAP_LANES);
    for (run, d) in (&mut runs).enumerate() {
        let at = run * TAP_LANES;
        let mut acc = [0.0; TAP_LANES];
        for (j, &tap) in taps.iter().enumerate() {
            for (acc, &x) in acc.iter_mut().zip(&src(j)[at..at + TAP_LANES]) {
                *acc += tap * x;
            }
        }
        d.copy_from_slice(&acc);
    }
    let tail = runs.into_remainder();
    let at = n - tail.len();
    for (i, d) in tail.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &tap) in taps.iter().enumerate() {
            acc += tap * src(j)[at + i];
        }
        *d = acc;
    }
}

/// Outputs per register-resident run of [`tap_sum`].
const TAP_LANES: usize = 16;

/// Processes the flattened tile indices `[t0, t1)` through one arena:
/// gather (zero-padded), forward real transform, packed multiply,
/// inverse, and scatter of the non-wrapped outputs through `out`.
#[allow(clippy::too_many_arguments)]
fn run_tile_range(
    t0: usize,
    t1: usize,
    g: TileGeom,
    win: WinView<'_>,
    rfft: &RealFft2d,
    kspec: &[Complex64],
    out: SendPtr,
    arena: &mut TileArena,
    shard: &mut Shard,
    budget: &Budget,
    polling: bool,
    chaos: &ChaosInjector,
) -> Result<(), RrsError> {
    for t in t0..t1 {
        if polling {
            shard.add(stage::BUDGET_POLLS, 1);
            budget.check()?;
        }
        chaos.poll(FaultSite::FftTile)?;
        let ox = (t % g.tiles_x) * g.vx;
        let oy = (t / g.tiles_x) * g.vy;
        // Gather the segment [ox, ox+fx) × [oy, oy+fy) of the window,
        // zero-padded past its edges.
        win.gather(ox, oy, g.fx, &mut arena.real);
        rfft.forward_into(&arena.real, &mut arena.spec, &mut arena.scratch);
        for (z, k) in arena.spec.iter_mut().zip(kspec) {
            *z = *z * *k;
        }
        rfft.inverse_into(&mut arena.spec, &mut arena.real, &mut arena.scratch);
        // Scatter the non-wrapped outputs.
        let cx = (g.nx - ox).min(g.vx);
        let cy = (g.ny - oy).min(g.vy);
        for dy in 0..cy {
            let src = &arena.real[(g.kh - 1 + dy) * g.fx + (g.kw - 1)..][..cx];
            // SAFETY: rows [oy, oy+cy) × cols [ox, ox+cx) of the output
            // belong to tile t alone; the enclosing scope keeps the
            // allocation alive for every worker.
            unsafe {
                let dst = out.0.add((oy + dy) * g.nx + ox);
                for (dx, &v) in src.iter().enumerate() {
                    *dst.add(dx) = v;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_plan_admits_valid_output_and_covers_kernel() {
        for &(nx, ny, kw, kh) in &[
            (128usize, 128usize, 65usize, 65usize),
            (32, 32, 17, 17),
            (256, 8, 33, 9),
            (5, 5, 3, 7),
            (1, 1, 1, 1),
        ] {
            let t = plan_tiles(nx, ny, kw, kh);
            assert!(t.fft_nx.is_power_of_two() && t.fft_ny.is_power_of_two());
            assert!(t.fft_nx >= kw && t.fft_ny >= kh, "{t:?} vs kernel {kw}x{kh}");
            let (vx, vy) = t.valid(kw, kh);
            assert!(vx >= 1 && vy >= 1);
            // Never larger than one tile covering the whole problem.
            assert!(t.fft_nx <= (nx + kw - 1).next_power_of_two());
            assert!(t.fft_ny <= (ny + kh - 1).next_power_of_two());
            let (tx, ty) = t.tiles(nx, ny, kw, kh);
            assert!(tx * vx >= nx && ty * vy >= ny, "tiles must cover the output");
        }
    }

    #[test]
    fn tile_plan_is_deterministic() {
        assert_eq!(plan_tiles(128, 128, 65, 65), plan_tiles(128, 128, 65, 65));
    }

    #[test]
    fn effective_workers_clamps_to_tile_count() {
        let shape = plan_tiles(128, 128, 65, 65);
        let (tx, ty) = shape.tiles(128, 128, 65, 65);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 1000), tx * ty);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 0), 1);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 1), 1);
    }

    #[test]
    fn real_scratch_footprint_scales_with_workers() {
        let shape = TileShape { fft_nx: 64, fft_ny: 32 };
        let one = shape.scratch_samples_real(1);
        let four = shape.scratch_samples_real(4);
        assert!(four > one);
        // Shared kernel spectrum is counted once, per-worker arena four
        // times.
        let packed = 2 * (64u128 / 2 + 1) * 32;
        assert_eq!(four - packed, 4 * (one - packed));
    }
}
