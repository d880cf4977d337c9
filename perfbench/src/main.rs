//! Seeded benchmark of the paper's inhomogeneous figures and of served
//! windows, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1_plates|fig4_points|serve_hot|serve_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed derives every input: the noise seed, tile order, spectrum-key
//! order, window origins and tenants. With `--trace 0` the run measures
//! the end-to-end metrics with tracing off; with `--trace 1` it records
//! spans around its own calls into each layer, reads the program's
//! `rrs-obs` counters, and reports the per-layer metrics. Outputs are
//! checked outside the timed region. A report goes to stdout, and its
//! last line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod figures;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, reported with tracing off on every workload. On
/// the figure workloads a window is one 64² tile and latency is one
/// `try_generate` call; on the serve workloads latency is client-observed.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("msamples_per_s", "Msamples/s"),
    ("windows_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0 there (the serve workloads bypass `rrs-inhomo`; the figure
/// workloads run no server and no codec).
const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.build_s", "s"),
    ("inhomo.weights_ns_per_sample", "ns"),
    ("inhomo.blended_share", "ratio"),
    ("inhomo.mixed_tile_share", "ratio"),
    ("inhomo.kernel_evals_per_sample", "count"),
    ("inhomo.mixed_tile_s", "s"),
    ("inhomo.pure_tile_s", "s"),
    ("noise.window_s", "s"),
    ("par.speedup", "ratio"),
    ("par.available_parallelism", "count"),
    ("fft.plan_hit_ratio", "ratio"),
    ("server.materialise_ms_per_req", "ms"),
    ("server.correlate_ms_per_req", "ms"),
    ("server.kernel_build_ms_per_req", "ms"),
    ("serve.kernel_hit_ratio", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("wire.request_encode_us", "us"),
    ("wire.request_decode_us", "us"),
    ("wire.response_encode_us", "us"),
    ("wire.response_decode_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("serve.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
];

const WATCHDOG_S: u64 = 150;

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind a percentile.
    samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

/// What a workload run measured: operations attempted, operations that
/// errored, were refused or failed the output check, and its metrics.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    use figures::Figure;
    use serve::Mix;
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "fig1_plates" => figures::run(Figure::Plates, seed, secs, traced, tr),
        "fig4_points" => figures::run(Figure::Points, seed, secs, traced, tr),
        "serve_hot" => serve::run(Mix::Hot, seed, secs, traced, tr),
        "serve_sweep" => serve::run(Mix::Sweep, seed, secs, traced, tr),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Orders the workload's metrics as `wanted` lists them; a per-layer
/// metric the workload does not produce is 0.
fn select(
    mut have: Vec<Metric>,
    wanted: &[(&'static str, &'static str)],
    absent_is_zero: bool,
) -> Result<Vec<Metric>, String> {
    wanted
        .iter()
        .map(
            |&(name, unit)| match have.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = have.swap_remove(i);
                    assert_eq!(m.unit, unit, "{name} is declared in {unit}");
                    Ok(m)
                }
                None if absent_is_zero => Ok(Metric::new(name, 0.0, unit)),
                None => Err(format!("workload did not measure {name}")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // A stalled program (a lost response, a deadlocked worker) must not
    // hang the benchmark: give up without a result well inside the
    // 180 s a run may take.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("error: no result after {WATCHDOG_S} s");
        std::process::exit(3);
    });
    let mut tr = Tracer::new(args.trace);
    let outcome = run(&args, &mut tr).and_then(|mut o| {
        let ok = 1.0 - o.failed as f64 / o.attempted.max(1) as f64;
        o.metrics.push(Metric::new("ok_frac", ok, "ratio"));
        o.metrics
            .push(Metric::new("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
        let wanted = if args.trace { PER_LAYER } else { END_TO_END };
        o.metrics = select(std::mem::take(&mut o.metrics), wanted, args.trace)?;
        Ok(o)
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{} seed {}: attempted {}, failed {} (failed_frac {})",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        let n = m
            .samples
            .map(|n| format!("  (n = {n})"))
            .unwrap_or_default();
        println!("  {:<34} {:>14.6} {}{n}", m.name, m.value, m.unit);
    }
    if args.trace {
        println!("  spans: name, count, total s, self s");
        for (name, t) in tr.totals() {
            println!(
                "    {name:<28} {:>8} {:>12.6} {:>12.6}",
                t.count, t.total_s, t.self_s
            );
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("error: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  spans written to {}", path.display());
    }

    let mut json = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        // A failed request has infinite latency; JSON has no infinity.
        let v = if m.value.is_finite() {
            m.value
        } else {
            f64::MAX
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
