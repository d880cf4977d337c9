//! The serve workloads: an in-process `rrs-serve` server on loopback,
//! driven closed-loop by pipelining connections, because callers wait
//! for their windows.

use crate::stats::{median, percentile, Rng};
use crate::trace::{SpanId, Tracer, NONE};
use crate::{Metric, Outcome};
use rrs_grid::{Grid2, Window};
use rrs_obs::report::ObsReport;
use rrs_obs::stage;
use rrs_serve::{serve, Client, GenerateOk, GenerateRequest, ServeConfig, ServerHandle};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_surface::{ConvBackend, ConvolutionGenerator, ConvolutionKernel, KernelSizing, NoiseField};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

const WINDOW: usize = 64;
/// Requests each connection keeps in flight.
const DEPTH: usize = 8;
const TRUNC_EPS: f64 = 1e-3;
/// Server start-ups per run, half before and half after the measured
/// load so they sample more of the run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// About one request in this many is checked against the library call.
const CHECK_EVERY: u64 = 64;
const CHECK_CAP: usize = 24;
/// Codec calls timed per checked frame.
const CODEC_REPS: usize = 50;
/// Length of the intervals the end-to-end figures are medians over; at
/// the serve rates each holds well over 1000 requests, so its p99 has
/// at least ten samples beyond it.
const INTERVAL_S: f64 = 2.0;

#[derive(Clone, Copy)]
pub enum Mix {
    /// 4 spectrum keys, fewer than the kernel LRU's 8.
    Hot,
    /// 32 spectrum keys, more than the LRU holds.
    Sweep,
}

/// The sweep's 32 `(h, cl)` spectra; the hot mix uses 4 of them.
fn keys(mix: Mix) -> Vec<SpectrumModel> {
    let all: Vec<SpectrumModel> = [0.5, 1.0, 1.5, 2.0]
        .iter()
        .flat_map(|&h| {
            (0..8).map(move |i| {
                SpectrumModel::gaussian(SurfaceParams::isotropic(h, 4.0 + 2.0 * i as f64))
            })
        })
        .collect();
    match mix {
        Mix::Hot => vec![all[1], all[11], all[21], all[31]],
        Mix::Sweep => all,
    }
}

fn request(
    id: u64,
    tenant: u64,
    seed: u64,
    spectrum: SpectrumModel,
    x0: i64,
    y0: i64,
) -> GenerateRequest {
    GenerateRequest::new(
        id,
        tenant,
        seed,
        spectrum,
        Window::new(x0, y0, WINDOW, WINDOW),
    )
    .with_truncation(TRUNC_EPS)
    .with_backend(ConvBackend::FftOverlapSave)
    // The server's workers already use every core.
    .with_workers(1)
}

/// One connection's seeded request stream.
struct Requests {
    rng: Rng,
    keys: Vec<SpectrumModel>,
    tenant: u64,
    conn: u64,
    next: u64,
}

impl Requests {
    fn new(seed: u64, conn: u64, keys: Vec<SpectrumModel>) -> Self {
        let mut rng = Rng::stream(seed, 100 + conn);
        let tenant = rng.next_u64() >> 16;
        Self {
            rng,
            keys,
            tenant,
            conn,
            next: 0,
        }
    }

    /// The next request and whether its output is checked.
    fn next(&mut self) -> (GenerateRequest, bool) {
        let key = self.keys[self.rng.below(self.keys.len() as u64) as usize];
        let seed = self.rng.next_u64();
        let x0 = self.rng.below(1 << 20) as i64 - (1 << 19);
        let y0 = self.rng.below(1 << 20) as i64 - (1 << 19);
        let check = self.rng.below(CHECK_EVERY) == 0;
        let id = (self.conn << 40) | self.next;
        self.next += 1;
        (request(id, self.tenant, seed, key, x0, y0), check)
    }
}

#[derive(Default)]
struct Load {
    /// Completion time (s since the load started) and client-observed
    /// latency (ms) of every attempted request. A failed or refused
    /// request has infinite latency, so it misses any limit.
    done: Vec<(f64, f64)>,
    failed: u64,
    wall_s: f64,
    kept: Vec<(GenerateRequest, Grid2<f64>)>,
}

impl Load {
    fn completed(&self) -> u64 {
        self.done.len() as u64 - self.failed
    }

    /// Windows per second, p50 and p99 latency of each whole
    /// `INTERVAL_S` of the load, and the fewest requests in one. The
    /// last, partial interval holds the drain and is left out.
    fn intervals(&self) -> (Vec<[f64; 3]>, usize) {
        let len = INTERVAL_S.min(self.wall_s);
        let mut buckets = vec![Vec::new(); (self.wall_s / len) as usize];
        for &(t, lat) in &self.done {
            if let Some(b) = buckets.get_mut((t / len) as usize) {
                b.push(lat);
            }
        }
        let fewest = buckets.iter().map(Vec::len).min().unwrap_or(0);
        let stats = buckets
            .iter_mut()
            .map(|b| {
                b.sort_by(f64::total_cmp);
                let ok = b.iter().filter(|v| v.is_finite()).count();
                [ok as f64 / len, percentile(b, 0.50), percentile(b, 0.99)]
            })
            .collect();
        (stats, fewest)
    }
}

/// Drives one connection until `deadline`, then drains its pipeline.
fn drive(
    client: &mut Client,
    reqs: &mut Requests,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
    parent: SpanId,
) -> Load {
    let mut load = Load::default();
    let fail = |load: &mut Load, n: usize| {
        load.failed += n as u64;
        load.done.extend(std::iter::repeat_n(
            (start.elapsed().as_secs_f64(), f64::INFINITY),
            n,
        ));
    };
    let mut in_flight: HashMap<u64, (Instant, SpanId, Option<GenerateRequest>)> = HashMap::new();
    loop {
        while in_flight.len() < DEPTH && Instant::now() < deadline {
            let (req, check) = reqs.next();
            let span = tr.begin("serve.request", parent, req.request_id);
            let sent = Instant::now();
            if let Err(e) = client.send(&req) {
                eprintln!("send failed: {e}");
                fail(&mut load, 1 + in_flight.len());
                return load;
            }
            in_flight.insert(req.request_id, (sent, span, check.then_some(req)));
        }
        if in_flight.is_empty() {
            return load;
        }
        match client.recv() {
            Ok((id, outcome)) => {
                let Some((sent, span, check)) = in_flight.remove(&id) else {
                    eprintln!("response to unknown request {id}");
                    fail(&mut load, 1);
                    continue;
                };
                tr.end(span);
                match outcome {
                    Ok(grid) => {
                        let now = Instant::now();
                        load.done.push((
                            (now - start).as_secs_f64(),
                            (now - sent).as_secs_f64() * 1e3,
                        ));
                        if let Some(req) = check.filter(|_| load.kept.len() < CHECK_CAP) {
                            load.kept.push((req, grid));
                        }
                    }
                    Err(e) => {
                        eprintln!("request {id} failed: {e}");
                        fail(&mut load, 1);
                    }
                }
            }
            Err(e) => {
                eprintln!("receive failed: {e}");
                fail(&mut load, in_flight.len());
                return load;
            }
        }
    }
}

/// Runs every connection on its own thread for `seconds`.
fn run_load(
    clients: &mut [Client],
    streams: &mut [Requests],
    seconds: f64,
    tr: &mut Tracer,
    name: &'static str,
) -> Load {
    let span = tr.begin(name, NONE, 0);
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<(Load, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(c, (client, reqs))| {
                let mut t = tr.fork();
                s.spawn(move || {
                    let conn = t.begin("serve.conn", NONE, c as u64);
                    let load = drive(client, reqs, start, deadline, &mut t, conn);
                    t.end(conn);
                    (load, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut total = Load {
        wall_s: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for (load, t) in results {
        total.failed += load.failed;
        total.done.extend(load.done);
        total.kept.extend(load.kept);
        tr.join(t, span);
    }
    tr.end(span);
    total
}

/// Starts the server, connects every client and builds each key's
/// kernel once, so the measured load starts warm.
fn start(
    workers: usize,
    keys: &[SpectrumModel],
    seed: u64,
) -> Result<(ServerHandle, Vec<Client>), String> {
    let server = serve(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr: SocketAddr = server.addr();
    let mut clients = (0..workers)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect failed: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::stream(seed, 4);
    for (i, key) in keys.iter().enumerate() {
        let req = request(u64::MAX - i as u64, 0, rng.next_u64(), *key, 0, 0);
        clients[0]
            .try_generate(&req)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok((server, clients))
}

/// Starts the server once per rep in `reps`, each stopped before the
/// next so only one runs at a time, recording each start-up time;
/// returns the last server.
fn set_up(
    workers: usize,
    keys: &[SpectrumModel],
    seed: u64,
    reps: std::ops::Range<usize>,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<(ServerHandle, Vec<Client>), String> {
    let mut running = None;
    for rep in reps {
        drop(running.take());
        let t0 = Instant::now();
        let span = tr.begin("setup", NONE, rep as u64);
        running = Some(start(workers, keys, seed)?);
        tr.end(span);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    running.ok_or_else(|| "no set-up rep".to_string())
}

/// Compares kept windows bit for bit with the direct library call;
/// returns how many differ.
fn check(kept: &[(GenerateRequest, Grid2<f64>)]) -> u64 {
    let mut generators: HashMap<u64, ConvolutionGenerator> = HashMap::new();
    let mut failed = 0;
    for (req, served) in kept {
        let g = generators.entry(req.shard_key()).or_insert_with(|| {
            let sizing = KernelSizing::Auto {
                factor: req.sizing_factor,
                min: req.sizing_min as usize,
                max: req.sizing_max as usize,
            };
            let kernel = ConvolutionKernel::build(&req.spectrum, sizing).truncated(TRUNC_EPS);
            ConvolutionGenerator::from_kernel(kernel).with_backend(ConvBackend::FftOverlapSave)
        });
        let same = g
            .try_generate(&NoiseField::new(req.seed), req.window)
            .is_ok_and(|r| r == *served);
        if !same {
            eprintln!(
                "served window {} differs from the library call",
                req.request_id
            );
        }
        failed += u64::from(!same);
    }
    failed
}

/// Times the codec's public calls on the workload's own frames:
/// microseconds per request encode, request decode, response encode,
/// response decode, and the mean response size in bytes.
fn codec(kept: &[(GenerateRequest, Grid2<f64>)], tr: &mut Tracer) -> [f64; 5] {
    let probe = tr.begin("probe.wire", NONE, 0);
    let mut bytes = 0usize;
    for (req, grid) in kept {
        let ok = GenerateOk {
            request_id: req.request_id,
            grid: grid.clone(),
        };
        let id = req.request_id;
        let mut payload = Vec::new();
        let span = tr.begin("wire.request_encode", probe, id);
        for _ in 0..CODEC_REPS {
            payload = std::hint::black_box(req).encode();
        }
        tr.end(span);
        let span = tr.begin("wire.request_decode", probe, id);
        for _ in 0..CODEC_REPS {
            let _ = std::hint::black_box(GenerateRequest::decode(std::hint::black_box(&payload)));
        }
        tr.end(span);
        let span = tr.begin("wire.response_encode", probe, id);
        for _ in 0..CODEC_REPS {
            payload = std::hint::black_box(&ok).encode();
        }
        tr.end(span);
        let span = tr.begin("wire.response_decode", probe, id);
        for _ in 0..CODEC_REPS {
            let _ = std::hint::black_box(GenerateOk::decode(std::hint::black_box(&payload)));
        }
        tr.end(span);
        bytes += payload.len();
    }
    tr.end(probe);
    let calls = (kept.len() * CODEC_REPS).max(1) as f64;
    let us = |name| tr.total_s(name, None) * 1e6 / calls;
    [
        us("wire.request_encode"),
        us("wire.request_decode"),
        us("wire.response_encode"),
        us("wire.response_decode"),
        bytes as f64 / kept.len().max(1) as f64,
    ]
}

/// Total nanoseconds the server spent building kernels.
fn kernel_build_ns(report: &ObsReport) -> u64 {
    [
        stage::KERNEL_AMPLITUDE,
        stage::KERNEL_DFT,
        stage::KERNEL_PERMUTE,
        stage::KERNEL_TRUNCATE,
    ]
    .iter()
    .map(|s| report.total_ns(s))
    .sum()
}

pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keys = keys(mix);

    let mut setup_s = Vec::new();
    let first_reps = 0..SETUP_REPS.div_ceil(2);
    let (server, mut clients) = set_up(workers, &keys, seed, first_reps, tr, &mut setup_s)?;
    let mut streams: Vec<Requests> = (0..workers as u64)
        .map(|c| Requests::new(seed, c, keys.clone()))
        .collect();

    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut plain = run_load(
        &mut clients,
        &mut streams,
        budget,
        &mut Tracer::disabled(),
        "load",
    );
    let mut attempted = plain.done.len() as u64;
    let mut failed = plain.failed;
    let mut kept = std::mem::take(&mut plain.kept);

    let mut metrics = if !traced {
        // Medians over fixed intervals, so a burst of load from outside
        // the benchmark moves one interval rather than the run.
        let (stats, fewest) = plain.intervals();
        let col = |i: usize| median(&stats.iter().map(|s| s[i]).collect::<Vec<_>>());
        println!(
            "{} windows over {workers} connections in {:.3} s; medians over {} intervals of {INTERVAL_S} s, n >= {fewest} requests each; windows/s {:.0?}",
            plain.completed(),
            plain.wall_s,
            stats.len(),
            stats.iter().map(|s| s[0]).collect::<Vec<_>>(),
        );
        vec![
            Metric::new(
                "msamples_per_s",
                col(0) * (WINDOW * WINDOW) as f64 / 1e6,
                "Msamples/s",
            ),
            Metric::new("windows_per_s", col(0), "1/s"),
            Metric::new("p50_ms", col(1), "ms").samples(fewest),
            Metric::new("p99_ms", col(2), "ms").samples(fewest),
        ]
    } else {
        let mut traced_load =
            run_load(&mut clients, &mut streams, seconds / 2.0, tr, "load.traced");
        attempted += traced_load.done.len() as u64;
        failed += traced_load.failed;
        kept.append(&mut traced_load.kept);
        let lat: Vec<f64> = plain
            .done
            .iter()
            .chain(&traced_load.done)
            .map(|d| d.1)
            .collect();
        let per_window = |l: &Load| l.wall_s / l.completed().max(1) as f64;
        let overhead = per_window(&traced_load) / per_window(&plain);

        // The server's stage times per served request over its life
        // (warm-up and measured load), in milliseconds.
        let report = server.report();
        let c = |name| report.counter(name) as f64;
        let served = c(stage::SERVE_GENERATE).max(1.0);
        let per_req_ms = |ns: u64| ns as f64 / served / 1e6;
        let materialise = per_req_ms(report.total_ns(stage::WINDOW_MATERIALISE));
        let correlate = per_req_ms(report.total_ns(stage::CORRELATE));
        let build = per_req_ms(kernel_build_ns(&report));
        let [req_enc, req_dec, resp_enc, resp_dec, resp_bytes] = codec(&kept, tr);
        let finite: Vec<f64> = lat.iter().copied().filter(|v| v.is_finite()).collect();
        let mean_ms = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
        let codec_ms = (req_enc + req_dec + resp_enc + resp_dec) / 1e3;
        let kernel_lookups = (c(stage::SERVE_KERNEL_HIT) + c(stage::SERVE_KERNEL_MISS)).max(1.0);
        let plan_lookups = (c(stage::FFT_PLAN_HIT) + c(stage::FFT_PLAN_MISS)).max(1.0);
        println!(
            "server: {served} served in {} batches, kernel {}H/{}M, plans {}H/{}M; mean latency {mean_ms:.3} ms over n = {}",
            c(stage::SERVE_BATCHES),
            c(stage::SERVE_KERNEL_HIT),
            c(stage::SERVE_KERNEL_MISS),
            c(stage::FFT_PLAN_HIT),
            c(stage::FFT_PLAN_MISS),
            finite.len()
        );
        vec![
            Metric::new(
                "kernel.build_s",
                kernel_build_ns(&report) as f64 * 1e-9,
                "s",
            ),
            Metric::new(
                "fft.plan_hit_ratio",
                c(stage::FFT_PLAN_HIT) / plan_lookups,
                "ratio",
            ),
            Metric::new("par.available_parallelism", workers as f64, "count"),
            Metric::new("server.materialise_ms_per_req", materialise, "ms"),
            Metric::new("server.correlate_ms_per_req", correlate, "ms"),
            Metric::new("server.kernel_build_ms_per_req", build, "ms"),
            Metric::new(
                "serve.kernel_hit_ratio",
                c(stage::SERVE_KERNEL_HIT) / kernel_lookups,
                "ratio",
            ),
            Metric::new(
                "serve.coalesced_share",
                c(stage::SERVE_COALESCED) / served,
                "ratio",
            ),
            Metric::new(
                "serve.batch_mean",
                served / c(stage::SERVE_BATCHES).max(1.0),
                "count",
            ),
            Metric::new(
                "serve.rejected",
                c(stage::SERVE_OVERLOADED) + c(stage::SERVE_DRAINING_REJECT),
                "count",
            ),
            Metric::new("wire.request_encode_us", req_enc, "us"),
            Metric::new("wire.request_decode_us", req_dec, "us"),
            Metric::new("wire.response_encode_us", resp_enc, "us"),
            Metric::new("wire.response_decode_us", resp_dec, "us"),
            Metric::new("wire.response_bytes", resp_bytes, "bytes"),
            Metric::new(
                "serve.unattributed_ms",
                mean_ms - materialise - correlate - build - codec_ms,
                "ms",
            ),
            Metric::new("trace.overhead", overhead, "ratio"),
        ]
    };
    server.shutdown();
    let last_reps = setup_s.len()..SETUP_REPS;
    drop(set_up(workers, &keys, seed, last_reps, tr, &mut setup_s)?);
    if !traced {
        metrics.push(Metric::new("setup_s", median(&setup_s), "s"));
    }
    failed += check(&kept);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
