//! Overlap-save FFT convolution — the engine behind
//! [`ConvBackend::FftOverlapSave`](crate::ConvBackend).
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
//! covers them all. One field rule holds whatever the weights: a kernel
//! whose single-block plan would need a lattice side more than 4×
//! `next_pow2` of the window side takes the **partitioned** path
//! ([`Blocks`]) — the kernel is split into blocks of `L − n + 1` on the
//! window lattice `L = 2·next_pow2(n)`, the block products are summed in
//! the frequency domain before one inverse transform, and block spectra
//! are recomputed per call rather than cached, so a huge kernel never
//! pins a huge cached spectrum — and every other kernel keeps the cached
//! single-block engine. The weights decide only whether a field is the
//! output (one kernel at weight 1) or is accumulated into it through a
//! [`WeightTable`].
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
//! serially regardless of the configured worker count.

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

/// The FFT rung's engine workspace beyond the noise window, the output
/// and any field buffer, in f64-equivalents: the largest per-kernel
/// engine scratch. Deterministic in its arguments, so admission control
/// and the engine agree.
pub(crate) fn fields_scratch(
    kernels: &[(usize, &ConvolutionKernel)],
    nx: usize,
    ny: usize,
    workers: usize,
) -> u128 {
    kernels
        .iter()
        .map(|&(_, kernel)| {
            let (kw, kh) = kernel.extent();
            match Blocks::of(nx, ny, kw, kh) {
                Some(blocks) => blocks.scratch_samples(),
                None => {
                    let shape = plan_tiles(nx, ny, kw, kh);
                    shape.scratch_samples_real(effective_workers(shape, nx, ny, kw, kh, workers))
                }
            }
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
    /// `kernels` (`(cache id, kernel)` pairs), read from `win`, the
    /// row-major noise window of their union [`Reach`] around the
    /// `nx × ny` output. Each kernel's own window is read in place, and
    /// its field computed by the cached single-block engine or, when
    /// [`Blocks::of`] finds the kernel dwarfs the window, by
    /// [`FftEngine::convolve_partitioned`]. With `weights = None` the one
    /// kernel's field is the output; with a [`WeightTable`] each field
    /// lands in one reused buffer and is added to the output with its
    /// weights.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn convolve_fields(
        &self,
        kernels: &[(usize, &ConvolutionKernel)],
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
            match Blocks::of(nx, ny, kw, kh) {
                Some(blocks) => self.convolve_partitioned(
                    kernel, blocks, view, dst, workers, obs, budget, chaos,
                )?,
                None => self.convolve_rfft(
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
