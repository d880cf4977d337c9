//! End-to-end generation cost of the paper figures, and the gate on the
//! paper's own inhomogeneous workload.
//!
//! * `paper_figures/*`: each whole figure at bench scale 1/8 under the
//!   default Direct backend (the geometry and spectra mix are the paper's;
//!   only linear dimensions shrink). Regenerate the full-size figures with
//!   the `reproduce` binary.
//! * `fig4_tiled/{auto,direct}`: Figure 4 at scale 1/3 — 512², a ring of
//!   nine points plus a centre, ten kernels up to 257², about half the
//!   samples blended — generated as its 64 windows of 64² under
//!   `ConvBackend::Auto` and under `ConvBackend::Direct`, reps
//!   interleaved.
//!
//! **Fails** (exit code 1) if `fig4_tiled/auto` is not at least 5× faster
//! than `fig4_tiled/direct` (ratio of medians).
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_figures`;
//! writes `BENCH_figures.json`.

use rrs_bench::figures::{fig1, fig2, fig3, fig4, Figure};
use rrs_bench::Harness;
use rrs_grid::Window;
use rrs_surface::{ConvBackend, NoiseField};
use std::hint::black_box;

const TILE: usize = 64;
const GATE: f64 = 5.0;

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Figure 4 at scale 1/3 under `backend`.
fn fig4_third(backend: ConvBackend) -> Figure {
    let mut fig = fig4(1.0 / 3.0, 0.01, 1);
    fig.generator = fig.generator.with_backend(backend);
    fig
}

/// Generates every 64² window of `fig`, row by row.
fn tiled(fig: &Figure) {
    let noise = NoiseField::new(fig.seed);
    for ty in 0..fig.ny / TILE {
        for tx in 0..fig.nx / TILE {
            let win = Window::new(
                fig.origin.0 + (tx * TILE) as i64,
                fig.origin.1 + (ty * TILE) as i64,
                TILE,
                TILE,
            );
            black_box(fig.generator.generate(&noise, win));
        }
    }
}

fn main() {
    let mut h = Harness::new("figures");
    let scale = 0.125;
    let eps = 0.01;
    for (name, fig) in [
        ("paper_figures/fig1_quadrants", fig1(scale, eps, 1)),
        ("paper_figures/fig2_spectra", fig2(scale, eps, 1)),
        ("paper_figures/fig3_circle", fig3(scale, eps, 1)),
        ("paper_figures/fig4_points", fig4(scale, eps, 1)),
    ] {
        h.bench(name, || black_box(fig.generate()));
    }

    let mut h = h.with_reps(3);
    let auto = fig4_third(ConvBackend::Auto);
    let direct = fig4_third(ConvBackend::Direct);
    let samples = (auto.nx * auto.ny) as u64;
    let times = h.bench_interleaved(
        samples,
        &mut [
            ("fig4_tiled/auto", &mut || tiled(&auto)),
            ("fig4_tiled/direct", &mut || tiled(&direct)),
        ],
    );
    let (auto_ns, direct_ns) = (median(&times[0]), median(&times[1]));
    let speedup = direct_ns / auto_ns;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fig4 at scale 1/3 in {TILE}² windows: Auto {:.3} s, Direct {:.3} s, {speedup:.2}x \
         (gate: >= {GATE}x) on {workers} available threads",
        auto_ns / 1e9,
        direct_ns / 1e9,
    );
    h.attach_section(
        "gate",
        format!(
            "{{\"workload\": \"fig4_tiled\", \"auto_median_ns\": {auto_ns:.1}, \
             \"direct_median_ns\": {direct_ns:.1}, \"direct_over_auto\": {speedup:.3}, \
             \"min_ratio\": {GATE}, \"available_parallelism\": {workers}}}"
        ),
    );
    h.finish().expect("write BENCH_figures.json");
    if speedup < GATE {
        eprintln!(
            "FAIL: fig4 in {TILE}² windows under Auto is only {speedup:.2}x Direct (gate: >= {GATE}x)"
        );
        std::process::exit(1);
    }
    println!("figure gate passed");
}
