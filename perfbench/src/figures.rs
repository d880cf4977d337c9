//! The figure workloads: a paper figure generated as a grid of 64²
//! windows through `InhomogeneousGenerator::try_generate`.

use crate::stats::{median, percentile, rel_max_diff, Rng};
use crate::trace::{SpanId, Tracer, NONE};
use crate::{Metric, Outcome};
use rrs_grid::{Grid2, Window};
use rrs_inhomo::{InhomogeneousGenerator, PointLayout, RepresentativePoint, WeightMap};
use rrs_obs::{stage, Recorder};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_surface::{ConvBackend, ConvolutionKernel, GenContext, KernelSizing, NoiseField, RrsError};
use std::time::Instant;

const TILE: usize = 64;
/// Kernel truncation ε and sizing of the paper figures (EXPERIMENTS.md).
const TRUNC_EPS: f64 = 0.01;
const SIZING: KernelSizing = KernelSizing::Auto {
    factor: 8.0,
    min: 16,
    max: 2048,
};
/// Generator constructions per run, half before and half after the
/// measured passes so they sample more of the run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 9;
/// Pure and mixed tiles each checked against the Direct backend.
const CHECK_TILES: usize = 3;
/// ROADMAP equivalence bound between the FFT path and the per-sample loop.
const EQUIV_BOUND: f64 = 1e-9;

type Gen = InhomogeneousGenerator<Box<dyn WeightMap>>;

#[derive(Clone, Copy)]
pub enum Figure {
    /// Figure 1 at the paper's scale: 1024², four Gaussian quadrants.
    Plates,
    /// Figure 4 at scale 1/3: 512², a ring of nine points plus a centre.
    Points,
}

impl Figure {
    /// Side of the square output and its origin on the lattice.
    fn extent(self) -> (usize, (i64, i64)) {
        match self {
            Figure::Plates => (1024, (0, 0)),
            Figure::Points => (512, (-256, -256)),
        }
    }

    /// The weight map, with the parameters of `crates/bench/src/figures.rs`.
    fn map(self) -> Box<dyn WeightMap> {
        let g = |h: f64, cl: f64| SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl));
        match self {
            Figure::Plates => {
                let spectra = [g(1.0, 40.0), g(1.5, 60.0), g(2.0, 80.0), g(1.5, 60.0)];
                Box::new(rrs_inhomo::plate::quadrant_layout(
                    1024.0, 1024.0, spectra, 40.0,
                ))
            }
            Figure::Points => {
                let s = 1.0 / 3.0;
                let ring = 500.0 * s;
                let mut points: Vec<RepresentativePoint> = (1..=9usize)
                    .map(|i| {
                        let th = std::f64::consts::TAU * i as f64 / 9.0;
                        let (h, cl) = [(1.0, 50.0), (1.5, 75.0), (2.0, 100.0)][(i - 1) / 3];
                        RepresentativePoint {
                            x: ring * th.cos(),
                            y: ring * th.sin(),
                            spectrum: g(h, cl * s),
                        }
                    })
                    .collect();
                points.push(RepresentativePoint {
                    x: 0.0,
                    y: 0.0,
                    spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.5, 100.0 * s)),
                });
                Box::new(PointLayout::new(points, 100.0 * s))
            }
        }
    }
}

/// Builds the generator: every kernel (build plus truncation), then the
/// generator over them. This is the figure's set-up.
fn build(fig: Figure, ctx: GenContext, tr: &mut Tracer, parent: SpanId) -> Result<Gen, RrsError> {
    let map = fig.map();
    let mut kernels = Vec::new();
    for (i, s) in map.spectra().iter().enumerate() {
        let span = tr.begin("kernel.build", parent, i as u64);
        kernels.push(ConvolutionKernel::build(s, SIZING).try_truncated(TRUNC_EPS)?);
        tr.end(span);
    }
    let span = tr.begin("inhomo.new", parent, 0);
    let gen = InhomogeneousGenerator::try_from_kernels(map, kernels)?.with_context(ctx);
    tr.end(span);
    Ok(gen)
}

/// Sets the generator up once per rep in `reps`, recording each set-up
/// time and the kernel builds' share of it; returns the last generator.
fn set_up(
    fig: Figure,
    workers: usize,
    reps: std::ops::Range<usize>,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
    build_s: &mut Vec<f64>,
) -> Result<Gen, String> {
    let mut gen = None;
    for rep in reps {
        drop(gen.take());
        let t0 = Instant::now();
        let span = tr.begin("setup", NONE, rep as u64);
        let ctx = GenContext::new()
            .with_backend(ConvBackend::Auto)
            .with_workers(workers);
        let g = build(fig, ctx, tr, span).map_err(|e| format!("generator set-up failed: {e}"))?;
        tr.end(span);
        setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push(tr.total_s("kernel.build", Some(span)));
        gen = Some(g);
    }
    gen.ok_or_else(|| "no set-up rep".to_string())
}

struct Tile {
    /// Row-major index in the figure's tile grid; the id of its spans.
    id: u64,
    win: Window,
    mixed: bool,
}

/// Lays the figure out as 64² tiles in a seeded order and classifies
/// each by calling `weights_at` on every sample: a tile is mixed when it
/// touches a transition (a blended sample, or two different kernels).
fn tiles(fig: Figure, gen: &Gen, rng: &mut Rng, tr: &mut Tracer) -> Vec<Tile> {
    let (n, (ox, oy)) = fig.extent();
    let per_side = n / TILE;
    let mut order: Vec<usize> = (0..per_side * per_side).collect();
    rng.shuffle(&mut order);
    let probe = tr.begin("probe.weights", NONE, 0);
    let mut weights = Vec::new();
    let tiles = order
        .iter()
        .map(|&t| {
            let win = Window::new(
                ox + ((t % per_side) * TILE) as i64,
                oy + ((t / per_side) * TILE) as i64,
                TILE,
                TILE,
            );
            let span = tr.begin("inhomo.weights", probe, t as u64);
            let mut first = None;
            let mut mixed = false;
            for iy in 0..TILE {
                for ix in 0..TILE {
                    let (x, y) = ((win.x0 + ix as i64) as f64, (win.y0 + iy as i64) as f64);
                    gen.map().weights_at(x, y, &mut weights);
                    let k = weights[0].0;
                    mixed |= weights.len() > 1 || *first.get_or_insert(k) != k;
                }
            }
            tr.end(span);
            Tile {
                id: t as u64,
                win,
                mixed,
            }
        })
        .collect();
    tr.end(probe);
    tiles
}

struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    failed: u64,
}

/// Generates every tile once, timing each call; keeps the outputs of
/// the tiles in `keep`.
fn pass(
    gen: &Gen,
    noise: &NoiseField,
    tiles: &[Tile],
    keep: &[usize],
    kept: &mut Vec<(usize, Grid2<f64>)>,
    tr: &mut Tracer,
    parent: SpanId,
) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        latencies_ms: Vec::with_capacity(tiles.len()),
        failed: 0,
    };
    let wall = Instant::now();
    for (i, tile) in tiles.iter().enumerate() {
        let name = if tile.mixed {
            "inhomo.mixed_tile"
        } else {
            "inhomo.pure_tile"
        };
        let t0 = Instant::now();
        let span = tr.begin(name, parent, tile.id);
        let out = gen.try_generate(noise, tile.win);
        tr.end(span);
        p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(grid) if keep.contains(&i) => kept.push((i, grid)),
            Ok(_) => {}
            Err(e) => {
                eprintln!("tile {} at {:?} failed: {e}", tile.id, tile.win);
                p.failed += 1;
                *p.latencies_ms.last_mut().expect("pushed above") = f64::INFINITY;
            }
        }
    }
    p.wall_s = wall.elapsed().as_secs_f64();
    p
}

/// Each tile's median latency (ms) over `ps`, in tile order: a burst of
/// load from outside the benchmark during one pass moves a tile's
/// median less than it moves that pass.
fn tile_medians(ps: &[Pass]) -> Vec<f64> {
    (0..ps[0].latencies_ms.len())
        .map(|i| median(&ps.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()))
        .collect()
}

/// Runs passes until `budget_s` would be exceeded by one more (at least
/// one pass).
#[allow(clippy::too_many_arguments)]
fn passes(
    gen: &Gen,
    noise: &NoiseField,
    tiles: &[Tile],
    budget_s: f64,
    keep: &[usize],
    kept: &mut Vec<(usize, Grid2<f64>)>,
    tr: &mut Tracer,
    name: &'static str,
) -> Vec<Pass> {
    let mut out: Vec<Pass> = Vec::new();
    let mut spent = 0.0;
    while out.is_empty() || spent + spent / out.len() as f64 <= budget_s {
        let span = tr.begin(name, NONE, out.len() as u64);
        let keep = if out.is_empty() { keep } else { &[] };
        let p = pass(gen, noise, tiles, keep, kept, tr, span);
        tr.end(span);
        spent += p.wall_s;
        out.push(p);
    }
    out
}

/// Checks the kept tiles against the per-sample Direct loop on the same
/// kernels; returns the number that miss the equivalence bound.
fn check(
    fig: Figure,
    gen: &Gen,
    noise: &NoiseField,
    tiles: &[Tile],
    kept: &[(usize, Grid2<f64>)],
    workers: usize,
) -> u64 {
    let direct = match InhomogeneousGenerator::try_from_kernels(fig.map(), gen.kernels().to_vec()) {
        Ok(g) => g.with_context(
            GenContext::new()
                .with_backend(ConvBackend::Direct)
                .with_workers(workers),
        ),
        Err(e) => {
            eprintln!("cannot build the Direct reference: {e}");
            return kept.len() as u64;
        }
    };
    let mut failed = 0;
    for (i, got) in kept {
        let tile = &tiles[*i];
        let ok = match direct.try_generate(noise, tile.win) {
            Ok(reference) => {
                let d = rel_max_diff(got.as_slice(), reference.as_slice());
                if d > EQUIV_BOUND {
                    eprintln!(
                        "{} tile {} differs from Direct by {d:e} of its scale",
                        if tile.mixed { "mixed" } else { "pure" },
                        tile.id
                    );
                }
                d <= EQUIV_BOUND
            }
            Err(e) => {
                eprintln!("Direct reference for tile {} failed: {e}", tile.id);
                false
            }
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The first `CHECK_TILES` pure and mixed tiles of the seeded order.
fn check_sample(tiles: &[Tile]) -> Vec<usize> {
    let pick = |mixed: bool| {
        tiles
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.mixed == mixed)
            .map(|(i, _)| i)
            .take(CHECK_TILES)
    };
    pick(false).chain(pick(true)).collect()
}

pub fn run(
    fig: Figure,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let noise = NoiseField::new(Rng::stream(seed, 1).next_u64());
    let mut order_rng = Rng::stream(seed, 2);

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let first_reps = 0..SETUP_REPS.div_ceil(2);
    let mut gen = set_up(fig, workers, first_reps, tr, &mut setup_s, &mut build_s)?;
    let extents: Vec<String> = gen
        .kernels()
        .iter()
        .map(|k| format!("{}x{}", k.extent().0, k.extent().1))
        .collect();
    println!("kernel extents: {}", extents.join(" "));

    let tiles = tiles(fig, &gen, &mut order_rng, tr);
    let keep = check_sample(&tiles);
    let mut kept = Vec::new();
    let samples = (tiles.len() * TILE * TILE) as f64;

    // Untraced passes: the end-to-end measurement, or in a traced run
    // the baseline its overhead is taken against.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let plain = passes(
        &gen,
        &noise,
        &tiles,
        budget,
        &keep,
        &mut kept,
        &mut Tracer::disabled(),
        "pass",
    );
    let mut attempted = (plain.len() * tiles.len()) as u64;
    let mut failed: u64 = plain.iter().map(|p| p.failed).sum();

    let mut metrics = if !traced {
        let mut lat = tile_medians(&plain);
        let figure_s = lat.iter().sum::<f64>() / 1e3;
        lat.sort_by(f64::total_cmp);
        failed += check(fig, &gen, &noise, &tiles, &kept, workers);
        println!(
            "{} passes of {} tiles ({} mixed), {:.3?} s each; figure time and tile latency from per-tile medians",
            plain.len(),
            tiles.len(),
            tiles.iter().filter(|t| t.mixed).count(),
            plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        );
        vec![
            Metric::new("msamples_per_s", samples / figure_s / 1e6, "Msamples/s"),
            Metric::new("windows_per_s", tiles.len() as f64 / figure_s, "1/s"),
            Metric::new("p50_ms", percentile(&lat, 0.50), "ms").samples(lat.len()),
            Metric::new("p99_ms", percentile(&lat, 0.99), "ms").samples(lat.len()),
        ]
    } else {
        // Traced passes: spans around every tile, and the generator's
        // own counters through an enabled recorder.
        let obs = Recorder::enabled();
        gen = gen.with_recorder(obs.clone());
        let traced_passes = passes(
            &gen,
            &noise,
            &tiles,
            seconds / 2.0,
            &[],
            &mut Vec::new(),
            tr,
            "pass.traced",
        );
        attempted += (traced_passes.len() * tiles.len()) as u64;
        failed += traced_passes.iter().map(|p| p.failed).sum::<u64>();
        let report = obs.report();
        gen = gen.with_recorder(Recorder::disabled());
        let n_traced = traced_passes.len() as f64;
        let mixed_s = tr.total_s("inhomo.mixed_tile", None) / n_traced;
        let pure_s = tr.total_s("inhomo.pure_tile", None) / n_traced;
        let wall = |ps: &[Pass]| tile_medians(ps).iter().sum::<f64>() / 1e3;

        // Noise materialisation over each tile's reach-padded footprint.
        let (rl, rr, rd, ru) = reach(gen.kernels());
        let probe = tr.begin("probe.noise", NONE, 0);
        for t in &tiles {
            let span = tr.begin("noise.window", probe, t.id);
            std::hint::black_box(noise.window(
                t.win.x0 - rl,
                t.win.y0 - rd,
                TILE + (rl + rr) as usize,
                TILE + (rd + ru) as usize,
            ));
            tr.end(span);
        }
        tr.end(probe);

        // Single-worker baseline on a seeded eighth of the tiles.
        let sample = &tiles[..(tiles.len() / 8).max(1)];
        let timed = |gen: &Gen, tr: &mut Tracer, name: &'static str| {
            let span = tr.begin(name, NONE, 0);
            let p = pass(gen, &noise, sample, &[], &mut Vec::new(), tr, span);
            tr.end(span);
            p
        };
        gen = gen.with_workers(1);
        let serial = timed(&gen, tr, "par.serial");
        gen = gen.with_workers(workers);
        let parallel = timed(&gen, tr, "par.parallel");
        attempted += 2 * sample.len() as u64;
        failed +=
            serial.failed + parallel.failed + check(fig, &gen, &noise, &tiles, &kept, workers);

        let pure = report.counter(stage::INHOMO_PURE_SAMPLES) as f64;
        let blended = report.counter(stage::INHOMO_BLENDED_SAMPLES) as f64;
        let evals = report.counter(stage::INHOMO_KERNEL_EVALS) as f64;
        let plan_hit = report.counter(stage::FFT_PLAN_HIT) as f64;
        let plan_miss = report.counter(stage::FFT_PLAN_MISS) as f64;
        let mixed = tiles.iter().filter(|t| t.mixed).count() as f64;
        println!(
            "traced {} passes; mixed tiles {mixed}/{}; pass wall {:.3} s untraced, {:.3} s traced",
            traced_passes.len(),
            tiles.len(),
            wall(&plain),
            wall(&traced_passes)
        );
        vec![
            Metric::new(
                "inhomo.weights_ns_per_sample",
                tr.total_s("inhomo.weights", None) * 1e9 / samples,
                "ns",
            ),
            Metric::new(
                "inhomo.blended_share",
                blended / (pure + blended).max(1.0),
                "ratio",
            ),
            Metric::new(
                "inhomo.mixed_tile_share",
                mixed / tiles.len() as f64,
                "ratio",
            ),
            Metric::new(
                "inhomo.kernel_evals_per_sample",
                evals / (pure + blended).max(1.0),
                "count",
            ),
            Metric::new("inhomo.mixed_tile_s", mixed_s, "s"),
            Metric::new("inhomo.pure_tile_s", pure_s, "s"),
            Metric::new("noise.window_s", tr.total_s("noise.window", None), "s"),
            Metric::new("par.speedup", serial.wall_s / parallel.wall_s, "ratio"),
            Metric::new("par.available_parallelism", workers as f64, "count"),
            Metric::new(
                "fft.plan_hit_ratio",
                plan_hit / (plan_hit + plan_miss).max(1.0),
                "ratio",
            ),
            Metric::new(
                "trace.overhead",
                wall(&traced_passes) / wall(&plain),
                "ratio",
            ),
        ]
    };

    // The remaining set-up reps, with the measured generator gone so
    // only one generator is alive at a time.
    drop(gen);
    let last_reps = setup_s.len()..SETUP_REPS;
    set_up(fig, workers, last_reps, tr, &mut setup_s, &mut build_s)?;
    println!("set-up reps {setup_s:.3?} s");
    metrics.push(if traced {
        Metric::new("kernel.build_s", median(&build_s), "s")
    } else {
        Metric::new("setup_s", median(&setup_s), "s")
    });
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// How far the widest kernel reaches left, right, down and up of a
/// sample: the padding of the noise window the per-sample loop reads.
fn reach(kernels: &[ConvolutionKernel]) -> (i64, i64, i64, i64) {
    kernels.iter().fold((0, 0, 0, 0), |(l, r, d, u), k| {
        let (w, h) = k.extent();
        let (ox, oy) = k.origin();
        (
            l.max(ox + w as i64 - 1),
            r.max(-ox),
            d.max(oy + h as i64 - 1),
            u.max(-oy),
        )
    })
}
