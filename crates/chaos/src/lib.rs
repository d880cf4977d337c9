//! Deterministic whole-pipeline fault injection.
//!
//! PR 2's failpoints proved the I/O layer fails closed; this crate
//! generalises the idea to the *compute* pipeline. Every cooperative
//! poll point in the workspace — parallel band slices, FFT tile loops,
//! strip-tile boundaries, plan-cache lookups, retry sleeps, checkpoint
//! writes — is registered as a numbered [`FaultSite`], and a
//! [`FaultSchedule`] decides, purely from `(site, visit index)`, whether
//! that visit panics, returns an injected [`RrsError`], trips a
//! cancellation, or expires a deadline. Because the decision depends
//! only on the per-site visit counter, a schedule replays bit-for-bit:
//! the same seed (or explicit plan) on the same workload injects the
//! same faults at the same sites, which is what lets the torture suite
//! assert byte-identical degraded output across runs.
//!
//! # Zero cost when disabled
//!
//! The handle threaded through the pipeline is [`ChaosInjector`], a
//! clone of the `rrs-obs` `Recorder` shape: an `Option<Arc<FaultSchedule>>`
//! whose disabled form ([`ChaosInjector::disabled`]) makes every poll a
//! single `Option` discriminant test. The `bench_runtime` CI gate holds
//! the disabled-injector overhead under 1.05x.
//!
//! # Containment contract
//!
//! [`ChaosInjector::poll`] genuinely panics for [`FaultKind::Panic`]
//! plans, so it may only be called where an existing `catch_unwind`
//! boundary contains worker panics (rrs-par band closures, fftconv tile
//! bands, the convolution dispatcher). Sites without such a boundary —
//! strip-tile checks, retry sleeps, checkpoint writes — call
//! [`ChaosInjector::poll_contained`], which catches its own injected
//! panic and surfaces it as [`RrsError::WorkerPanicked`], exercising the
//! unwind machinery without ever letting a panic escape.

#![warn(missing_docs)]

use rrs_error::RrsError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A numbered cooperative poll point in the pipeline.
///
/// `#[non_exhaustive]`: new sites are added as the pipeline grows; match
/// with a wildcard arm outside this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// One row-slice of a worker band in `rrs-par` (`try_par_rows`).
    /// Polled inside the slice's panic containment, so `Panic` plans are
    /// caught per band.
    ParBandSlice,
    /// One overlap-save tile in the FFT convolution engine
    /// (`FftEngine::convolve_rfft`). Contained by the degradation
    /// ladder's `catch_unwind`.
    FftTile,
    /// One strip emitted by `StripGenerator::try_strip_at`. Polled with
    /// [`ChaosInjector::poll_contained`].
    StripTile,
    /// One plan-cache / kernel-spectrum lookup in the FFT convolution
    /// path. Contained by the degradation ladder.
    PlanCacheLookup,
    /// One backoff sleep inside `RetryPolicy`. Polled with
    /// [`ChaosInjector::poll_contained`].
    RetrySleep,
    /// One durable checkpoint write. Polled with
    /// [`ChaosInjector::poll_contained`].
    CheckpointWrite,
    /// One accepted TCP connection in the serving accept loop. A fault
    /// drops the connection before a reader thread ever spawns, as if
    /// the endpoint died during the handshake. Polled with
    /// [`ChaosInjector::poll_contained`].
    ConnAccept,
    /// One frame read through the serving codec's chaos seam
    /// (`rrs_serve::wire::read_frame_chaos`). Faults surface as a reset
    /// connection, a clean peer hang-up, or a stall past the read
    /// deadline. Polled with [`ChaosInjector::poll_contained`].
    FrameRead,
    /// One frame write through the serving codec's chaos seam
    /// (`rrs_serve::wire::write_frame_chaos`). An injected error writes
    /// a *truncated prefix* of the frame before failing, so the peer
    /// observes a genuine mid-frame disconnect. Polled with
    /// [`ChaosInjector::poll_contained`].
    FrameWrite,
    /// One outbound client connect to a serving endpoint. A fault makes
    /// the endpoint unreachable at exactly that attempt, driving the
    /// sharded client's failover path. Polled with
    /// [`ChaosInjector::poll_contained`].
    EndpointConnect,
}

/// Number of distinct [`FaultSite`]s (length of [`FaultSite::ALL`]).
pub const N_SITES: usize = 10;

/// Number of compute-pipeline sites (length of [`FaultSite::PIPELINE`]).
pub const N_PIPELINE_SITES: usize = 6;

/// Number of network/serving sites (length of [`FaultSite::NETWORK`]).
pub const N_NETWORK_SITES: usize = 4;

impl FaultSite {
    /// Every registered site, in stable order:
    /// [`FaultSite::PIPELINE`] followed by [`FaultSite::NETWORK`].
    pub const ALL: [FaultSite; N_SITES] = [
        FaultSite::ParBandSlice,
        FaultSite::FftTile,
        FaultSite::StripTile,
        FaultSite::PlanCacheLookup,
        FaultSite::RetrySleep,
        FaultSite::CheckpointWrite,
        FaultSite::ConnAccept,
        FaultSite::FrameRead,
        FaultSite::FrameWrite,
        FaultSite::EndpointConnect,
    ];

    /// The compute-pipeline sites every in-process generation visits.
    /// The chaos torture suite iterates this subset when it asserts
    /// whole-pipeline visit coverage — network sites are only reached
    /// when `rrs-serve` is in the loop.
    pub const PIPELINE: [FaultSite; N_PIPELINE_SITES] = [
        FaultSite::ParBandSlice,
        FaultSite::FftTile,
        FaultSite::StripTile,
        FaultSite::PlanCacheLookup,
        FaultSite::RetrySleep,
        FaultSite::CheckpointWrite,
    ];

    /// The wire-level sites injected through the serving transport seam.
    pub const NETWORK: [FaultSite; N_NETWORK_SITES] = [
        FaultSite::ConnAccept,
        FaultSite::FrameRead,
        FaultSite::FrameWrite,
        FaultSite::EndpointConnect,
    ];

    /// Stable human-readable name, used in error messages and reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::ParBandSlice => "par_band_slice",
            FaultSite::FftTile => "fft_tile",
            FaultSite::StripTile => "strip_tile",
            FaultSite::PlanCacheLookup => "plan_cache_lookup",
            FaultSite::RetrySleep => "retry_sleep",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::ConnAccept => "conn_accept",
            FaultSite::FrameRead => "frame_read",
            FaultSite::FrameWrite => "frame_write",
            FaultSite::EndpointConnect => "endpoint_connect",
        }
    }

    const fn slot(self) -> usize {
        match self {
            FaultSite::ParBandSlice => 0,
            FaultSite::FftTile => 1,
            FaultSite::StripTile => 2,
            FaultSite::PlanCacheLookup => 3,
            FaultSite::RetrySleep => 4,
            FaultSite::CheckpointWrite => 5,
            FaultSite::ConnAccept => 6,
            FaultSite::FrameRead => 7,
            FaultSite::FrameWrite => 8,
            FaultSite::EndpointConnect => 9,
        }
    }
}

/// What an armed plan does when its site reaches its visit index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic with a chaos-tagged payload (contained per the site's
    /// containment contract — see the [crate docs](self)).
    Panic,
    /// Return [`RrsError::FaultInjected`] naming the site and index.
    Error,
    /// Return [`RrsError::Cancelled`], as if the request's cancel token
    /// tripped at exactly this poll.
    Cancel,
    /// Return [`RrsError::DeadlineExceeded`], as if the wall-clock
    /// deadline expired at exactly this poll.
    Deadline,
}

impl FaultKind {
    /// Every kind, in stable order.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::Panic, FaultKind::Error, FaultKind::Cancel, FaultKind::Deadline];
}

/// One scheduled fault: fire `kind` on the `at_index`-th visit
/// (zero-based) to `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which poll point fires.
    pub site: FaultSite,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Zero-based visit index at which it fires.
    pub at_index: u64,
}

/// SplitMix64 — the same finalizer `rrs-rng` builds on, re-derived here
/// so this crate depends only on `rrs-error`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A replayable fault schedule: an explicit (or seed-derived) list of
/// [`FaultPlan`]s plus per-site visit counters.
///
/// The visit counters are the whole determinism story: whether a poll
/// fires depends only on how many times its site has been polled, never
/// on wall-clock time or thread interleaving of *other* sites. Within
/// one site, concurrent polls claim distinct indices via `fetch_add`, so
/// exactly one visit observes each armed index.
#[derive(Debug)]
pub struct FaultSchedule {
    seed: u64,
    plan: Vec<FaultPlan>,
    visits: [AtomicU64; N_SITES],
    injected: AtomicU64,
}

impl FaultSchedule {
    /// An empty schedule (no faults armed) carrying `seed` for
    /// reproducibility bookkeeping.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            plan: Vec::new(),
            visits: Default::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// Derives `n` pseudo-random plans from `seed` via SplitMix64: site,
    /// kind and visit index (`< max_index`) are all seed-determined, so
    /// the same seed always produces the same schedule.
    pub fn seeded(seed: u64, n: usize, max_index: u64) -> Self {
        let mut state = seed;
        let plan = (0..n)
            .map(|_| {
                let site = FaultSite::ALL[(splitmix64(&mut state) % N_SITES as u64) as usize];
                let kind = FaultKind::ALL[(splitmix64(&mut state) % 4) as usize];
                let at_index = splitmix64(&mut state) % max_index.max(1);
                FaultPlan { site, kind, at_index }
            })
            .collect();
        Self { plan, ..Self::new(seed) }
    }

    /// Adds one explicit plan (builder style).
    pub fn with_fault(mut self, site: FaultSite, kind: FaultKind, at_index: u64) -> Self {
        self.plan.push(FaultPlan { site, kind, at_index });
        self
    }

    /// The seed this schedule was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed plans, in insertion/derivation order.
    pub fn plan(&self) -> &[FaultPlan] {
        &self.plan
    }

    /// How many times `site` has been polled so far.
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.visits[site.slot()].load(Ordering::Relaxed)
    }

    /// How many faults have actually fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Claims the next visit index for `site` and fires any armed plan.
    fn poll(&self, site: FaultSite) -> Result<(), RrsError> {
        let index = self.visits[site.slot()].fetch_add(1, Ordering::Relaxed);
        for p in &self.plan {
            if p.site == site && p.at_index == index {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return match p.kind {
                    FaultKind::Panic => {
                        panic!("chaos: injected panic at {}[{index}]", site.name())
                    }
                    FaultKind::Error => Err(RrsError::fault_injected(site.name(), index)),
                    FaultKind::Cancel => Err(RrsError::Cancelled),
                    FaultKind::Deadline => Err(RrsError::DeadlineExceeded),
                };
            }
        }
        Ok(())
    }
}

/// The handle threaded through generators and primitives: either
/// disabled (one branch per poll, no allocation, no atomics) or armed
/// with a shared [`FaultSchedule`].
///
/// Clones share the schedule — and therefore the visit counters — so a
/// generator and the primitives it calls into count against one
/// deterministic sequence.
#[derive(Clone, Debug, Default)]
pub struct ChaosInjector {
    inner: Option<Arc<FaultSchedule>>,
}

impl ChaosInjector {
    /// The free, never-firing injector every pipeline stage defaults to.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Arms `schedule`; clones of the returned injector share it.
    pub fn new(schedule: FaultSchedule) -> Self {
        Self { inner: Some(Arc::new(schedule)) }
    }

    /// True when a schedule is armed. Primitives use this to delegate to
    /// their chaos-free path before any per-item machinery runs.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Polls `site`: claims the next visit index and fires any armed
    /// plan. [`FaultKind::Panic`] plans genuinely panic — call this only
    /// under an existing `catch_unwind` containment boundary (see the
    /// [crate docs](self)); use [`ChaosInjector::poll_contained`]
    /// elsewhere.
    #[inline]
    pub fn poll(&self, site: FaultSite) -> Result<(), RrsError> {
        match &self.inner {
            None => Ok(()),
            Some(s) => s.poll(site),
        }
    }

    /// Polls `site`, containing any injected panic locally: a
    /// [`FaultKind::Panic`] plan unwinds into this frame's
    /// `catch_unwind` and surfaces as [`RrsError::WorkerPanicked`]
    /// (band = the visit index), so the caller needs no containment of
    /// its own.
    pub fn poll_contained(&self, site: FaultSite) -> Result<(), RrsError> {
        let Some(s) = &self.inner else { return Ok(()) };
        let index = s.visits(site);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.poll(site)))
            .unwrap_or_else(|payload| {
                Err(RrsError::worker_panicked(index as usize, payload.as_ref()))
            })
    }

    /// How many times `site` has been polled (0 when disabled).
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.visits(site))
    }

    /// How many faults have fired (0 when disabled).
    pub fn injected(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.injected())
    }

    /// The armed schedule, if any.
    pub fn schedule(&self) -> Option<&FaultSchedule> {
        self.inner.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_error::ErrorKind;

    /// Replaces the panic hook with a silent one for the duration of a
    /// closure that intentionally panics, so `cargo test` output stays
    /// readable. Serialised because the hook is process-global.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn disabled_injector_is_inert() {
        let chaos = ChaosInjector::disabled();
        assert!(!chaos.is_enabled());
        for site in FaultSite::ALL {
            assert!(chaos.poll(site).is_ok());
            assert!(chaos.poll_contained(site).is_ok());
            assert_eq!(chaos.visits(site), 0, "disabled injector must not count");
        }
        assert_eq!(chaos.injected(), 0);
    }

    #[test]
    fn error_fires_at_exact_index_only() {
        let chaos = ChaosInjector::new(
            FaultSchedule::new(1).with_fault(FaultSite::FftTile, FaultKind::Error, 2),
        );
        assert!(chaos.poll(FaultSite::FftTile).is_ok()); // visit 0
        assert!(chaos.poll(FaultSite::ParBandSlice).is_ok()); // other site
        assert!(chaos.poll(FaultSite::FftTile).is_ok()); // visit 1
        let err = chaos.poll(FaultSite::FftTile).unwrap_err(); // visit 2
        assert_eq!(err.kind(), ErrorKind::FaultInjected);
        assert_eq!(err.to_string(), "injected fault at fft_tile[2]");
        assert!(chaos.poll(FaultSite::FftTile).is_ok()); // visit 3: already fired
        assert_eq!(chaos.visits(FaultSite::FftTile), 4);
        assert_eq!(chaos.visits(FaultSite::ParBandSlice), 1);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn cancel_and_deadline_map_to_budget_kinds() {
        let chaos = ChaosInjector::new(
            FaultSchedule::new(2)
                .with_fault(FaultSite::StripTile, FaultKind::Cancel, 0)
                .with_fault(FaultSite::RetrySleep, FaultKind::Deadline, 0),
        );
        assert_eq!(chaos.poll(FaultSite::StripTile).unwrap_err().kind(), ErrorKind::Cancelled);
        assert_eq!(
            chaos.poll(FaultSite::RetrySleep).unwrap_err().kind(),
            ErrorKind::DeadlineExceeded
        );
    }

    #[test]
    fn poll_panics_for_panic_kind() {
        quiet_panics(|| {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(3).with_fault(FaultSite::ParBandSlice, FaultKind::Panic, 0),
            );
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos.poll(FaultSite::ParBandSlice)
            }))
            .unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, "chaos: injected panic at par_band_slice[0]");
            assert_eq!(chaos.injected(), 1);
        });
    }

    #[test]
    fn poll_contained_converts_panic_to_worker_panicked() {
        quiet_panics(|| {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(4).with_fault(FaultSite::CheckpointWrite, FaultKind::Panic, 1),
            );
            assert!(chaos.poll_contained(FaultSite::CheckpointWrite).is_ok());
            let err = chaos.poll_contained(FaultSite::CheckpointWrite).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
            assert!(err.to_string().contains("checkpoint_write[1]"), "{err}");
            // Non-panic kinds pass through untouched.
            let chaos = ChaosInjector::new(
                FaultSchedule::new(4).with_fault(FaultSite::CheckpointWrite, FaultKind::Error, 0),
            );
            let err = chaos.poll_contained(FaultSite::CheckpointWrite).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::FaultInjected);
        });
    }

    #[test]
    fn seeded_schedules_replay_bit_for_bit() {
        let a = FaultSchedule::seeded(0xDEAD_BEEF, 8, 100);
        let b = FaultSchedule::seeded(0xDEAD_BEEF, 8, 100);
        assert_eq!(a.plan(), b.plan(), "same seed must derive the same plan");
        assert_eq!(a.seed(), 0xDEAD_BEEF);
        let c = FaultSchedule::seeded(0xDEAD_BEEF + 1, 8, 100);
        assert_ne!(a.plan(), c.plan(), "different seeds should differ");
        // Replaying the same poll sequence injects identically.
        let run = |schedule: FaultSchedule| {
            let chaos = ChaosInjector::new(schedule);
            let mut outcomes = Vec::new();
            for _ in 0..100 {
                for site in FaultSite::ALL {
                    outcomes.push(chaos.poll_contained(site).map_err(|e| e.to_string()));
                }
            }
            (outcomes, chaos.injected())
        };
        quiet_panics(|| {
            let (oa, ia) = run(FaultSchedule::seeded(7, 8, 100));
            let (ob, ib) = run(FaultSchedule::seeded(7, 8, 100));
            assert_eq!(oa, ob, "replay must be bit-for-bit identical");
            assert_eq!(ia, ib);
            assert!(ia > 0, "a 8-fault schedule over 100 visits should fire");
        });
    }

    #[test]
    fn clones_share_visit_counters() {
        let chaos = ChaosInjector::new(
            FaultSchedule::new(5).with_fault(FaultSite::FftTile, FaultKind::Error, 1),
        );
        let clone = chaos.clone();
        assert!(clone.poll(FaultSite::FftTile).is_ok()); // visit 0 via clone
        assert!(chaos.poll(FaultSite::FftTile).is_err()); // visit 1 via original
        assert_eq!(chaos.visits(FaultSite::FftTile), 2);
        assert_eq!(clone.injected(), 1);
    }

    #[test]
    fn site_names_are_stable_and_distinct() {
        let mut names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_SITES, "site names must be distinct");
        assert_eq!(FaultSite::FftTile.name(), "fft_tile");
        assert_eq!(FaultSite::FrameWrite.name(), "frame_write");
    }

    #[test]
    fn pipeline_and_network_partition_all_sites() {
        let mut combined: Vec<FaultSite> = FaultSite::PIPELINE.to_vec();
        combined.extend_from_slice(&FaultSite::NETWORK);
        assert_eq!(combined, FaultSite::ALL.to_vec(), "ALL must be PIPELINE ++ NETWORK");
        assert_eq!(N_PIPELINE_SITES + N_NETWORK_SITES, N_SITES);
        // Each site claims a distinct visit-counter slot.
        let mut slots: Vec<usize> = FaultSite::ALL.iter().map(|s| s.slot()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..N_SITES).collect::<Vec<_>>());
    }
}
