//! Minimal data-parallel substrate built on `std::thread::scope`.
//!
//! The workspace's hot loops (2-D FFT rows, convolution output rows) are
//! embarrassingly parallel over disjoint row bands. Rather than pull in a
//! full work-stealing runtime, this crate provides what those loops need,
//! with a fixed, caller-controllable worker count so generation remains
//! deterministic:
//!
//! * [`scope`] and [`split_range`] — scoped threads over a static
//!   partition of an index range (the FFT crates' column and tile loops);
//! * [`try_par_rows`] — the one row-band primitive: split a row-major
//!   buffer into balanced bands of whole rows and run a closure on each
//!   band, with panic containment, `par/*` counters, cooperative
//!   [`Budget`] polling and [`FaultSite::ParBandSlice`] fault injection;
//! * [`default_workers`] — the worker count to use when none is given.
//!
//! Determinism note: every partition is *static*; outputs never depend on
//! scheduling, only on the partition, which itself depends only on
//! `(rows, workers)`.

#![warn(missing_docs)]

use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, ErrorKind, RrsError};
use rrs_obs::{stage, ObsSink, Recorder};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use std::thread::Scope;

/// Runs `f` inside a `std::thread::scope`, propagating panics from worker
/// threads as a panic on the caller (the scope joins every spawned thread
/// before returning and re-raises the first panic it observed).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    std::thread::scope(f)
}

/// Returns the number of worker threads to use: the `RRS_THREADS`
/// environment variable if set and positive, otherwise the machine's
/// available parallelism, otherwise 1.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RRS_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Poll slices per worker band when the budget needs polling or chaos is
/// armed: each worker polls this many times across its band, so a
/// mid-run cancel or an expired deadline stops the worker within
/// `rows_per_band / 8` rows of work instead of only between bands.
const BUDGET_POLL_SLICES: usize = 8;

/// Splits a row-major `row_len`-wide buffer into `min(workers, rows)`
/// bands of whole rows — heights differ by at most one row, as
/// [`split_range`] makes them — and runs `f(first_row, rows)` over each
/// band, one scoped thread per band (a single band runs on the caller's
/// thread). A row is never split across workers.
///
/// # Panic containment and counters
///
/// Every call of `f` runs under `catch_unwind`. A panic surfaces as
/// [`RrsError::WorkerPanicked`] naming the band ordinal; when several
/// bands fail, the lowest-indexed band's error is returned, and every
/// band still runs to completion (or its own failure) before the call
/// returns. Each band counts one [`stage::PAR_BANDS`] and each panicking
/// band one [`stage::PAR_WORKER_PANICS`]. A `row_len` of zero or a buffer
/// that is not whole rows is a typed error, not a panic.
///
/// # Budget and chaos
///
/// With a budget that needs no polling ([`Budget::needs_polling`] false,
/// as for [`Budget::unlimited`]) and a disabled [`ChaosInjector`], `f`
/// runs once per band and nothing else is polled. Otherwise each band is
/// cut into up to [`BUDGET_POLL_SLICES`] whole-row slices:
///
/// * with a polling budget, [`Budget::check`] runs before each slice
///   (counting [`stage::BUDGET_POLLS`]), and a trip surfaces as
///   [`RrsError::Cancelled`] / [`RrsError::DeadlineExceeded`] with no
///   later slice of that band run;
/// * with an enabled injector, each slice polls
///   [`FaultSite::ParBandSlice`] *inside* the slice's panic containment,
///   so an injected panic takes exactly the path a real worker panic
///   takes, and an injected error, cancellation or deadline surfaces
///   typed.
///
/// # Determinism contract
///
/// `f` must be *row-decomposable*: running it over any partition of the
/// same whole rows must produce the same bytes (every workspace band
/// closure computes each row purely from its global row index). That is
/// what makes a sliced run bit-identical to an unsliced one.
pub fn try_par_rows<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    obs: &Recorder,
    budget: &Budget,
    chaos: &ChaosInjector,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 {
        return Err(RrsError::invalid_param("row_len", "row_len must be positive, got 0"));
    }
    if data.len() % row_len != 0 {
        return Err(RrsError::shape_mismatch(
            "buffer is not whole rows",
            format!("a multiple of {row_len}"),
            data.len(),
        ));
    }
    let rows = data.len() / row_len;
    if rows == 0 {
        return Ok(());
    }
    let band_ranges = split_range(rows, workers.max(1).min(rows));
    let polling = budget.needs_polling();
    let injecting = chaos.is_enabled();
    // Slice height derived from the tallest band, so every band polls at
    // most BUDGET_POLL_SLICES times regardless of the balanced split; the
    // idle path takes each band as one slice.
    let max_band_rows = band_ranges.iter().map(|&(a, b)| b - a).max().unwrap_or(rows);
    let slice_rows = if polling || injecting {
        max_band_rows.div_ceil(BUDGET_POLL_SLICES).max(1)
    } else {
        max_band_rows
    };

    // One band, slice by slice: the budget poll outside the containment,
    // the chaos poll and the band closure inside it. Returns the polls
    // taken alongside the outcome so counters merge after the join.
    let run_band = |band: usize, band_start_row: usize, band_data: &mut [T]| {
        let mut polls = 0u64;
        let mut row = 0usize;
        for slice in band_data.chunks_mut(slice_rows * row_len) {
            if polling {
                polls += 1;
                if let Err(e) = budget.check() {
                    return (polls, Err(e));
                }
            }
            let start_row = band_start_row + row;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if injecting {
                    chaos.poll(FaultSite::ParBandSlice)?;
                }
                f(start_row, slice);
                Ok(())
            }))
            .unwrap_or_else(|p| Err(RrsError::worker_panicked(band, p.as_ref())));
            if let Err(e) = caught {
                return (polls, Err(e));
            }
            row += slice.len() / row_len;
        }
        (polls, Ok(()))
    };

    // Each band writes its outcome into its own slot; the scope's exit
    // joins every thread, so no per-handle join sits on the hot path.
    let mut outcomes: Vec<(u64, Result<(), RrsError>)> = Vec::with_capacity(band_ranges.len());
    outcomes.resize_with(band_ranges.len(), || (0, Ok(())));
    if let [only] = outcomes.as_mut_slice() {
        *only = run_band(0, 0, data);
    } else {
        scope(|s| {
            let mut rest = data;
            for ((i, &(r0, r1)), slot) in band_ranges.iter().enumerate().zip(&mut outcomes) {
                let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
                rest = tail;
                let run_band = &run_band;
                s.spawn(move || *slot = run_band(i, r0, band));
            }
        });
    }
    // Merged in band order: the first error seen is the lowest-indexed
    // failed band.
    let mut first: Option<RrsError> = None;
    let mut polls = 0u64;
    let mut panics = 0u64;
    for (band_polls, r) in outcomes {
        polls += band_polls;
        if let Err(e) = r {
            if e.kind() == ErrorKind::WorkerPanicked {
                panics += 1;
            }
            first.get_or_insert(e);
        }
    }
    obs.add_counter(stage::PAR_BANDS, band_ranges.len() as u64);
    if polls > 0 {
        obs.add_counter(stage::BUDGET_POLLS, polls);
    }
    if panics > 0 {
        obs.add_counter(stage::PAR_WORKER_PANICS, panics);
    }
    first.map_or(Ok(()), Err)
}

/// Statically splits the half-open range `[0, n)` into `parts` near-equal
/// sub-ranges; returns `(start, end)` pairs. Empty ranges are omitted.
pub fn split_range(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts.min(n));
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        if len == 0 {
            continue;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_chaos::{FaultKind, FaultSchedule};
    use rrs_error::CancelToken;

    /// [`try_par_rows`] on the idle path: no recorder, no budget, no chaos.
    fn par_rows<T: Send>(
        data: &mut [T],
        row_len: usize,
        workers: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) -> Result<(), RrsError> {
        try_par_rows(
            data,
            row_len,
            workers,
            &Recorder::disabled(),
            &Budget::unlimited(),
            &ChaosInjector::disabled(),
            f,
        )
    }

    fn armed_idle_budget() -> Budget {
        Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600))
    }

    #[test]
    fn split_range_covers_exactly() {
        for n in [0usize, 1, 7, 64, 1001] {
            for parts in [1usize, 2, 3, 8, 100] {
                let rs = split_range(n, parts);
                let total: usize = rs.iter().map(|&(a, b)| b - a).sum();
                assert_eq!(total, n);
                let mut prev = 0;
                for &(a, b) in &rs {
                    assert_eq!(a, prev);
                    assert!(b > a);
                    prev = b;
                }
                if let (Some(min), Some(max)) = (
                    rs.iter().map(|&(a, b)| b - a).min(),
                    rs.iter().map(|&(a, b)| b - a).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn scope_propagates_results() {
        let data = [1, 2, 3];
        let sum = scope(|s| {
            let h = s.spawn(|| data.iter().sum::<i32>());
            h.join().unwrap()
        });
        assert_eq!(sum, 6);
    }

    #[test]
    fn row_bands_never_split_rows() {
        let nx = 7;
        let ny = 13;
        let mut v = vec![0usize; nx * ny];
        par_rows(&mut v, nx, 4, |row0, band| {
            assert_eq!(band.len() % nx, 0, "band must be whole rows");
            for (i, x) in band.iter_mut().enumerate() {
                *x = (row0 * nx) + i;
            }
        })
        .unwrap();
        let expect: Vec<usize> = (0..nx * ny).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn single_worker_and_empty_buffers() {
        let mut v = vec![1u8; 12];
        par_rows(&mut v, 4, 1, |row0, band| {
            assert_eq!(row0, 0);
            assert_eq!(band.len(), 12);
        })
        .unwrap();
        let mut empty: Vec<u8> = vec![];
        par_rows(&mut empty, 4, 3, |_, _| panic!("must not run")).unwrap();
    }

    #[test]
    fn more_workers_than_rows() {
        let nx = 5;
        let mut v = vec![0u8; nx * 2];
        par_rows(&mut v, nx, 64, |_, band| {
            for x in band {
                *x += 1;
            }
        })
        .unwrap();
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn geometry_is_validated_without_panicking() {
        let mut v = vec![0u8; 10];
        let err = par_rows(&mut v, 3, 2, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ShapeMismatch);
        assert!(err.to_string().contains("whole rows"));
        let err = par_rows(&mut v, 0, 2, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParam);
    }

    #[test]
    fn panics_name_the_failed_band_serial_and_parallel() {
        for workers in [1usize, 3] {
            let nx = 4;
            let mut v = vec![0u8; nx * 9];
            let err = par_rows(&mut v, nx, workers, |row0, _| {
                if row0 == 0 {
                    panic!("first band down");
                }
            })
            .unwrap_err();
            match err {
                RrsError::WorkerPanicked { band, payload } => {
                    assert_eq!(band, 0);
                    assert!(payload.contains("first band down"));
                }
                other => panic!("workers={workers}: wrong variant {other}"),
            }
        }
    }

    #[test]
    fn row_bands_are_balanced_and_use_all_workers() {
        // 9 rows on 8 workers: ceiling-height banding would make five
        // bands and leave three workers idle; the balanced split hands
        // every worker a band and bounds the height spread at one row.
        // On the idle path `f` runs exactly once per band.
        let nx = 3;
        let rec = Recorder::enabled();
        let heights = std::sync::Mutex::new(Vec::new());
        let mut v = vec![0u8; nx * 9];
        try_par_rows(&mut v, nx, 8, &rec, &Budget::unlimited(), &ChaosInjector::disabled(),
            |_, band| heights.lock().unwrap().push(band.len() / nx))
        .unwrap();
        assert_eq!(rec.report().counter(stage::PAR_BANDS), 8);
        assert_eq!(rec.report().counter(stage::BUDGET_POLLS), 0, "the idle path never polls");
        let heights = heights.into_inner().unwrap();
        assert_eq!(heights.len(), 8, "one call per band");
        let (min, max) = (heights.iter().min().unwrap(), heights.iter().max().unwrap());
        assert!(max - min <= 1, "band heights {heights:?}");
        assert_eq!(heights.iter().sum::<usize>(), 9);
    }

    #[test]
    fn balanced_partition_output_matches_serial() {
        // Row-decomposable closures produce byte-identical output at
        // every worker count.
        let nx = 5;
        let fill = |r0: usize, band: &mut [u64]| {
            for (j, x) in band.iter_mut().enumerate() {
                *x = ((r0 * nx + j) as u64).wrapping_mul(0x9E3779B97F4A7C15);
            }
        };
        let mut want = vec![0u64; nx * 31];
        par_rows(&mut want, nx, 1, fill).unwrap();
        for workers in [2usize, 3, 7, 8, 31, 64] {
            let mut got = vec![0u64; nx * 31];
            par_rows(&mut got, nx, workers, fill).unwrap();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn counters_track_bands_and_panics() {
        let rec = Recorder::enabled();
        let run = |v: &mut [u8], f: &(dyn Fn(usize, &mut [u8]) + Sync)| {
            try_par_rows(v, 4, 4, &rec, &Budget::unlimited(), &ChaosInjector::disabled(), f)
        };
        let mut v = vec![0u8; 4 * 8];
        run(&mut v, &|_, _| {}).unwrap();
        assert_eq!(rec.report().counter(stage::PAR_BANDS), 4);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 0);

        let err = run(&mut v, &|row0, _| {
            if row0 >= 4 {
                panic!("upper bands down");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
        let report = rec.report();
        assert_eq!(report.counter(stage::PAR_BANDS), 8);
        assert_eq!(report.counter(stage::PAR_WORKER_PANICS), 2, "both failed bands counted");
    }

    #[test]
    fn armed_idle_budget_and_empty_chaos_are_bit_identical_and_poll() {
        let fill = |r: usize, band: &mut [u64]| {
            band.iter_mut().enumerate().for_each(|(i, x)| *x = (r * 5 + i) as u64 ^ 0xA5)
        };
        let budget = armed_idle_budget();
        for workers in [1usize, 4] {
            let mut want = vec![0u64; 5 * 32];
            par_rows(&mut want, 5, workers, fill).unwrap();

            let rec = Recorder::enabled();
            let mut got = vec![0u64; 5 * 32];
            try_par_rows(&mut got, 5, workers, &rec, &budget, &ChaosInjector::disabled(), fill)
                .unwrap();
            assert_eq!(got, want, "armed budget, workers={workers}");
            let report = rec.report();
            assert_eq!(report.counter(stage::PAR_BANDS), workers as u64);
            assert!(
                report.counter(stage::BUDGET_POLLS) >= workers as u64,
                "each band polls at least once"
            );

            let chaos = ChaosInjector::new(FaultSchedule::new(7));
            let mut got = vec![0u64; 5 * 32];
            try_par_rows(&mut got, 5, workers, &Recorder::disabled(), &Budget::unlimited(),
                &chaos, fill)
            .unwrap();
            assert_eq!(got, want, "empty chaos schedule, workers={workers}");
            assert!(chaos.visits(FaultSite::ParBandSlice) >= workers as u64);
        }
    }

    #[test]
    fn pre_cancelled_budget_leaves_data_untouched() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        for workers in [1usize, 4] {
            let mut v = vec![9u64; 6 * 16];
            let err = try_par_rows(&mut v, 6, workers, &Recorder::disabled(), &budget,
                &ChaosInjector::disabled(), |_, band| band.iter_mut().for_each(|x| *x = 0))
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Cancelled);
            assert!(v.iter().all(|&x| x == 9), "no slice ran after a pre-tripped poll");
        }
    }

    #[test]
    fn past_deadline_is_deadline_exceeded() {
        let budget = Budget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        for workers in [1usize, 3] {
            let mut v = vec![1u8; 4 * 8];
            let err = try_par_rows(&mut v, 4, workers, &Recorder::disabled(), &budget,
                &ChaosInjector::disabled(), |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "workers={workers}");
        }
    }

    #[test]
    fn mid_run_cancel_stops_between_slices() {
        // Serial (workers=1) so slice order is deterministic: the closure
        // trips the token while processing the first slice; the poll before
        // the second slice must observe it and stop.
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        let rec = Recorder::enabled();
        let mut v = vec![0u64; 4 * 64]; // 64 rows, 1 band, 8-row poll slices
        let err = try_par_rows(&mut v, 4, 1, &rec, &budget, &ChaosInjector::disabled(),
            |row0, band| {
                band.iter_mut().for_each(|x| *x = 1);
                if row0 == 0 {
                    token.cancel();
                }
            })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled);
        let written: u64 = v.iter().sum();
        assert_eq!(written, 4 * 8, "exactly one 8-row poll slice ran before the cancel");
        assert_eq!(rec.report().counter(stage::BUDGET_POLLS), 2, "poll, run, poll, stop");
    }

    #[test]
    fn polling_budget_validates_geometry_and_contains_panics() {
        let budget = armed_idle_budget();
        let mut v = vec![0u8; 10];
        let err = try_par_rows(&mut v, 3, 2, &Recorder::disabled(), &budget,
            &ChaosInjector::disabled(), |_, _| {})
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ShapeMismatch);

        let rec = Recorder::enabled();
        let mut v = vec![0u8; 4 * 8];
        let err = try_par_rows(&mut v, 4, 2, &rec, &budget, &ChaosInjector::disabled(),
            |row0, _| {
                if row0 >= 4 {
                    panic!("upper band down");
                }
            })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
    }

    #[test]
    fn chaos_error_fault_fires_at_the_exact_slice_index() {
        // Serial: 64 rows in one band, 8-row poll slices → 8 ParBandSlice
        // visits. A fault at index 3 lets exactly three slices run.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(11).with_fault(FaultSite::ParBandSlice, FaultKind::Error, 3),
        );
        let mut v = vec![0u64; 4 * 64];
        let err = try_par_rows(&mut v, 4, 1, &Recorder::disabled(), &Budget::unlimited(),
            &chaos, |_, band| band.iter_mut().for_each(|x| *x = 1))
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::FaultInjected);
        assert!(err.to_string().contains("par_band_slice[3]"), "{err}");
        assert_eq!(v.iter().sum::<u64>(), 4 * 8 * 3, "exactly three slices written");
        assert_eq!(chaos.visits(FaultSite::ParBandSlice), 4, "three clean polls + the fault");
    }

    #[test]
    fn chaos_panic_fault_is_contained_and_counted() {
        for workers in [1usize, 3] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(13).with_fault(FaultSite::ParBandSlice, FaultKind::Panic, 0),
            );
            let rec = Recorder::enabled();
            let mut v = vec![0u64; 4 * 9];
            let err = try_par_rows(&mut v, 4, workers, &rec, &Budget::unlimited(), &chaos,
                |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::WorkerPanicked, "workers={workers}");
            assert!(err.to_string().contains("chaos: injected panic"), "{err}");
            assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
            assert_eq!(chaos.injected(), 1);
        }
    }

    #[test]
    fn chaos_cancel_and_deadline_faults_surface_typed() {
        for (kind, want) in [
            (FaultKind::Cancel, ErrorKind::Cancelled),
            (FaultKind::Deadline, ErrorKind::DeadlineExceeded),
        ] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(17).with_fault(FaultSite::ParBandSlice, kind, 0),
            );
            let mut v = vec![0u8; 4 * 8];
            let err = try_par_rows(&mut v, 4, 2, &Recorder::disabled(), &Budget::unlimited(),
                &chaos, |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), want, "{kind:?}");
        }
    }
}
