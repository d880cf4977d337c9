//! Runtime-budget and chaos overhead guard.
//!
//! The `Budget` and `ChaosInjector` contract is that callers who never
//! opt in pay nothing: `rrs_par::try_par_rows` with a budget that needs
//! no polling and a disabled injector runs each band once under
//! `catch_unwind`, with no budget or chaos poll anywhere. This suite
//! measures the same row-band workload three ways — a bench-local copy
//! of the plain scoped row-band loop (no containment, no counters, no
//! polling: the floor any primitive pays), `try_par_rows` idle
//! (`Budget::unlimited`, disabled injector), and `try_par_rows` armed (a
//! cancel token + far-future deadline and an enabled injector with an
//! empty schedule, so every slice polls both) — and **fails** with exit
//! code 1 if the idle run is measurably slower than the plain loop, so a
//! regression that sneaks polling into the idle path breaks CI rather
//! than silently taxing every caller.
//!
//! The three variants run with their reps interleaved over one shared
//! buffer (rep `r` starts from variant `r mod 3`), and the gate holds the
//! median of the per-rep idle/plain ratios under 1.05×: the real figure
//! is ~1.01. Each rep pairs two calls that ran back to back, so a slow
//! phase of a shared host cancels out; min-of-reps ratios, which swing
//! ±10% on a 2-vCPU container even between identical code, are
//! reported alongside for information.
//!
//! Armed overhead is reported but not gated — at 8 slices per worker
//! band (a relaxed atomic load, a clock read and a schedule poll each)
//! it should also be ~1.0, but it buys bounded-time cancellation and
//! fault injection and is allowed to cost a little.
//! Full-generator comparisons (unbudgeted vs armed-idle convolution)
//! ride along, also informational.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_runtime`;
//! writes `BENCH_runtime.json`.

use rrs_bench::Harness;
use rrs_chaos::{ChaosInjector, FaultSchedule};
use rrs_error::{Budget, CancelToken};
use rrs_grid::Window;
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, KernelSizing, NoiseField};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 192;
const ROW: usize = 256;
const ROWS: usize = 4096;
const WORKERS: usize = 2;
/// Interleaved reps per primitive variant: each call is ~1 ms, and the
/// minimum needs a few hundred samples to settle on a shared host.
const PRIMITIVE_REPS: u64 = 300;

/// The band closure every variant runs: a cheap, purely row-local fill
/// so the measurement is dominated by the dispatch machinery rather than
/// arithmetic.
fn fill(row0: usize, band: &mut [f64]) {
    for (i, x) in band.iter_mut().enumerate() {
        *x = (row0 * ROW + i) as f64 * 1.0000001;
    }
}

/// The plain scoped row-band loop: the same balanced partition as
/// `try_par_rows`, one scoped thread per band, and nothing else.
fn plain_rows(data: &mut [f64], row_len: usize, workers: usize, f: fn(usize, &mut [f64])) {
    let bands = rrs_par::split_range(data.len() / row_len, workers);
    rrs_par::scope(|s| {
        let mut rest = data;
        for &(r0, r1) in &bands {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
            rest = tail;
            s.spawn(move || f(r0, band));
        }
    });
}

fn main() {
    let mut h = Harness::new("runtime").with_reps(PRIMITIVE_REPS);
    let obs = Recorder::disabled();

    // --- The primitive against the plain loop, reps interleaved over one
    // shared buffer (so page placement cannot favour a variant). ---
    let mut buf = vec![0.0f64; ROW * ROWS];
    let buf = std::cell::RefCell::new(&mut buf[..]);
    let unlimited = Budget::unlimited();
    let disabled = ChaosInjector::disabled();
    let armed = Budget::unlimited()
        .with_cancel_token(CancelToken::new())
        .with_timeout(Duration::from_secs(3600));
    let empty_schedule = ChaosInjector::new(FaultSchedule::new(0));
    let samples = h.bench_interleaved(
        (ROW * ROWS) as u64,
        &mut [
            ("runtime/plain_rows", &mut || plain_rows(&mut buf.borrow_mut(), ROW, WORKERS, fill)),
            ("runtime/par_rows_idle", &mut || {
                let data = &mut buf.borrow_mut();
                rrs_par::try_par_rows(data, ROW, WORKERS, &obs, &unlimited, &disabled, fill).unwrap()
            }),
            ("runtime/par_rows_armed", &mut || {
                let data = &mut buf.borrow_mut();
                rrs_par::try_par_rows(data, ROW, WORKERS, &obs, &armed, &empty_schedule, fill)
                    .unwrap()
            }),
        ],
    );
    black_box(buf.borrow()[0]);
    // Per-rep ratios against the plain loop: both calls of a pair ran
    // back to back, so a slow phase of the host cancels out.
    let paired_median = |variant: usize| {
        let mut ratios: Vec<f64> =
            samples[variant].iter().zip(&samples[0]).map(|(v, plain)| v / plain).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        ratios[ratios.len() / 2]
    };
    let (idle_paired, armed_paired) = (paired_median(1), paired_median(2));
    h.attach_section(
        "par_rows_over_plain",
        format!(
            "{{\"idle_paired_median\": {idle_paired:.4}, \"armed_paired_median\": {armed_paired:.4}}}"
        ),
    );
    let mut h = h.with_reps(15);

    // --- Full generator, informational. ---
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(42);
    let win = Window::sized(N, N);

    let plain = ConvolutionGenerator::from_kernel(kernel.clone()).with_workers(1);
    h.bench_elems("runtime/conv_no_budget", (N * N) as u64, || {
        black_box(plain.generate(&noise, win))
    });

    let armed_gen = ConvolutionGenerator::from_kernel(kernel)
        .with_workers(1)
        .with_budget(
            Budget::unlimited()
                .with_cancel_token(CancelToken::new())
                .with_timeout(Duration::from_secs(3600))
                .with_max_bytes(usize::MAX),
        );
    h.bench_elems("runtime/conv_armed_budget", (N * N) as u64, || {
        black_box(armed_gen.try_generate(&noise, win).unwrap())
    });

    // Cross-check while we are here: budgets must never steer output.
    assert_eq!(
        plain.generate(&noise, win),
        armed_gen.try_generate(&noise, win).unwrap(),
        "armed budget changed the surface"
    );

    let records = h.finish().expect("write BENCH_runtime.json");
    let min_of = |name: &str| {
        records
            .iter()
            .find(|r| r.name.ends_with(name))
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let base = min_of("plain_rows");
    let idle_min = min_of("par_rows_idle") / base;
    let armed_min = min_of("par_rows_armed") / base;
    let conv_ratio = min_of("conv_armed_budget") / min_of("conv_no_budget");
    println!("par-rows idle/plain   (paired median): {idle_paired:.3}x  (gate: < 1.05x)");
    println!("par-rows idle/plain   (min-of-reps):   {idle_min:.3}x  (informational)");
    println!("par-rows armed/plain  (paired median): {armed_paired:.3}x  (informational)");
    println!("par-rows armed/plain  (min-of-reps):   {armed_min:.3}x  (informational)");
    println!("conv armed/no-budget  (min-of-reps):   {conv_ratio:.3}x  (informational)");

    if idle_paired >= 1.05 {
        eprintln!(
            "FAIL: idle try_par_rows costs {idle_paired:.3}x the plain scoped row-band \
             loop (median of paired reps) — the no-budget, chaos-off path is no longer free"
        );
        std::process::exit(1);
    }
    println!("runtime budget overhead gate passed");
}
