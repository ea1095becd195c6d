//! # pimtree-telemetry — the engine flight recorder
//!
//! Low-overhead observability primitives shared by the join engines and the
//! benchmark harness:
//!
//! * [`LatencyHistogram`] — the fixed-footprint log-bucketed histogram
//!   (promoted out of `pimtree-common` so every layer can record
//!   distributions without a dependency on the engine crates);
//! * [`TelemetryMode`] — the `off | counters | full` switch: `off` costs one
//!   relaxed counter increment per instrumentation point, `counters` adds
//!   per-phase time/count accumulation, `full` adds per-worker latency
//!   histograms and per-cause stall histograms;
//! * [`TelemetryRegistry`] / [`WorkerRecorder`] — allocation-free per-worker
//!   phase recorders backed by relaxed atomics, snapshot-able from a sampler
//!   thread while workers record;
//! * [`StallCause`] / [`StallBreakdown`] / [`StallLap`] — attribution of a
//!   migration quiesce interval to named causes (gate close, in-flight
//!   drain, window snapshot, rebuild, index swap, router swap) such that the
//!   per-cause sum equals the measured stall by construction;
//! * [`GaugeSample`] / [`JsonlSink`] — periodic engine gauge snapshots
//!   (ring occupancy, in-flight count, window sizes, steal traffic, drift
//!   imbalance) appended as JSON Lines, plus a
//!   Prometheus-style text rendering of the final [`TelemetryReport`].
//!
//! The recorder design keeps the hot path honest: every instrumentation
//! point in a worker costs exactly one `Relaxed` `fetch_add` when telemetry
//! is off, two clock reads plus three relaxed adds in `counters` mode, and
//! one additional histogram bucket increment (a local, unshared array) in
//! `full` mode. Nothing on the worker path takes a lock or allocates.

#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution of [`LatencyHistogram`]: every power-of-two octave
/// is split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantization error at `2^-SUB_BITS` (~6 %).
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Sub-linear region (values below `SUB_BUCKETS` are exact) plus one group of
/// sub-buckets per remaining octave of the `u64` nanosecond range.
const HIST_BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Fixed-footprint log-bucketed latency histogram.
///
/// An exact recorder keeps every sample, which is precise but unbounded — an
/// open-loop run at a sustained arrival rate records one sample per tuple and
/// would grow without limit. The histogram instead spreads nanosecond values
/// over power-of-two octaves with `2^SUB_BITS` linear sub-buckets each
/// (HdrHistogram's bucketing), so recording is O(1), the footprint is a few
/// kilobytes regardless of run length, and quantiles are accurate to ~6 %
/// relative error — plenty for p50/p99/p999 tail reporting. The maximum is
/// tracked exactly so the worst observed latency is never quantized away.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    #[inline]
    fn bucket_of(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS {
            nanos as usize
        } else {
            let exp = 63 - nanos.leading_zeros(); // >= SUB_BITS
            let octave = (exp - SUB_BITS) as u64;
            let sub = (nanos >> octave) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
            (SUB_BUCKETS + octave * SUB_BUCKETS + sub) as usize
        }
    }

    /// Midpoint of a bucket's value interval (the quantile estimate).
    fn bucket_mid(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            idx
        } else {
            let octave = (idx - SUB_BUCKETS) / SUB_BUCKETS;
            let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
            let lo = (SUB_BUCKETS + sub) << octave;
            lo + ((1u64 << octave) >> 1)
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample given in nanoseconds.
    #[inline]
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += nanos as u128;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram's samples into this one.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Mean latency in microseconds.
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64 / 1.0e3
        }
    }

    /// Latency quantile (`q` in `[0, 1]`) in microseconds, estimated at the
    /// covering bucket's midpoint and clamped to the exact maximum.
    pub fn percentile_micros(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested order statistic, matching the exact
        // recorder's nearest-rank convention over the sorted sample.
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_mid(idx).min(self.max_nanos) as f64 / 1.0e3;
            }
        }
        self.max_micros()
    }

    /// Median latency in microseconds.
    pub fn p50_micros(&self) -> f64 {
        self.percentile_micros(0.50)
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_micros(&self) -> f64 {
        self.percentile_micros(0.99)
    }

    /// 99.9th-percentile latency in microseconds.
    pub fn p999_micros(&self) -> f64 {
        self.percentile_micros(0.999)
    }

    /// Maximum observed latency in microseconds (exact, not quantized).
    pub fn max_micros(&self) -> f64 {
        self.max_nanos as f64 / 1.0e3
    }
}

/// How much the engine records about itself while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TelemetryMode {
    /// Instrumentation points cost one relaxed counter increment; nothing
    /// else is recorded. The default.
    #[default]
    Off,
    /// Per-worker, per-phase time and invocation counters (relaxed atomics).
    Counters,
    /// Counters plus per-worker phase histograms and per-cause stall
    /// histograms.
    Full,
}

impl TelemetryMode {
    /// Whether phase timing (clock reads) is enabled.
    #[inline]
    pub fn timing_enabled(self) -> bool {
        self != TelemetryMode::Off
    }

    /// Whether per-worker/per-cause histograms are kept.
    #[inline]
    pub fn histograms_enabled(self) -> bool {
        self == TelemetryMode::Full
    }

    /// Stable lower-case label (`off` / `counters` / `full`).
    pub fn label(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Counters => "counters",
            TelemetryMode::Full => "full",
        }
    }
}

impl fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for TelemetryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "counters" => Ok(TelemetryMode::Counters),
            "full" => Ok(TelemetryMode::Full),
            other => Err(format!(
                "unknown telemetry mode '{other}' (use off|counters|full)"
            )),
        }
    }
}

/// The worker phases the flight recorder distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePhase {
    /// Claiming a task batch from the ring (including the quiesce handshake).
    Claim,
    /// Refilling ring slots from the input stream.
    Ingest,
    /// Probing the opposite window's index and generating results.
    Probe,
    /// Merging the mutable index component into the immutable one.
    Merge,
    /// Window maintenance: inserting new tuples and expiring old ones.
    Expiry,
}

impl EnginePhase {
    /// All phases in reporting order.
    pub const ALL: [EnginePhase; 5] = [
        EnginePhase::Claim,
        EnginePhase::Ingest,
        EnginePhase::Probe,
        EnginePhase::Merge,
        EnginePhase::Expiry,
    ];

    /// Stable array index for the phase.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            EnginePhase::Claim => 0,
            EnginePhase::Ingest => 1,
            EnginePhase::Probe => 2,
            EnginePhase::Merge => 3,
            EnginePhase::Expiry => 4,
        }
    }

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            EnginePhase::Claim => "claim",
            EnginePhase::Ingest => "ingest",
            EnginePhase::Probe => "probe",
            EnginePhase::Merge => "merge",
            EnginePhase::Expiry => "expiry",
        }
    }
}

const PHASE_COUNT: usize = 5;

/// Named causes a migration quiesce interval decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Closing the admission gate (storing the flag, before draining).
    GateClose,
    /// Spinning until in-flight workers retire their current task.
    InFlightDrain,
    /// Snapshotting window contents for redistribution.
    WindowSnapshot,
    /// Rebuilding per-shard indexes over the redistributed entries.
    Rebuild,
    /// Swapping the rebuilt index/window shards into place.
    IndexSwap,
    /// Re-resolving the plan and swapping the router / route overrides.
    RouterSwap,
}

impl StallCause {
    /// All causes in reporting order.
    pub const ALL: [StallCause; 6] = [
        StallCause::GateClose,
        StallCause::InFlightDrain,
        StallCause::WindowSnapshot,
        StallCause::Rebuild,
        StallCause::IndexSwap,
        StallCause::RouterSwap,
    ];

    /// Stable array index for the cause.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StallCause::GateClose => 0,
            StallCause::InFlightDrain => 1,
            StallCause::WindowSnapshot => 2,
            StallCause::Rebuild => 3,
            StallCause::IndexSwap => 4,
            StallCause::RouterSwap => 5,
        }
    }

    /// Stable snake-case label used in JSON and Prometheus output.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::GateClose => "gate_close",
            StallCause::InFlightDrain => "in_flight_drain",
            StallCause::WindowSnapshot => "window_snapshot",
            StallCause::Rebuild => "rebuild",
            StallCause::IndexSwap => "index_swap",
            StallCause::RouterSwap => "router_swap",
        }
    }
}

/// Number of distinct [`StallCause`] values.
pub const STALL_CAUSE_COUNT: usize = 6;

/// Accumulated per-cause stall time and occurrence counts.
///
/// `Copy` on purpose: the join engine embeds one in its `Copy` migration
/// counter block and merges per-epoch breakdowns into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    nanos: [u64; STALL_CAUSE_COUNT],
    counts: [u64; STALL_CAUSE_COUNT],
}

impl StallBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to `cause` and bumps its occurrence count.
    #[inline]
    pub fn record(&mut self, cause: StallCause, nanos: u64) {
        self.nanos[cause.index()] += nanos;
        self.counts[cause.index()] += 1;
    }

    /// Total accumulated nanoseconds for `cause`.
    pub fn nanos(&self, cause: StallCause) -> u64 {
        self.nanos[cause.index()]
    }

    /// Number of times `cause` was recorded.
    pub fn count(&self, cause: StallCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Sum of all causes, in nanoseconds. Because [`StallLap`] partitions a
    /// quiesce interval into consecutive cause segments, this equals the
    /// measured stall total exactly.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Folds another breakdown into this one.
    pub fn merge_from(&mut self, other: &StallBreakdown) {
        for i in 0..STALL_CAUSE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }
}

/// A lap timer that partitions one quiesce interval into consecutive
/// [`StallCause`] segments.
///
/// Each [`StallLap::lap`] call attributes the time since the previous lap
/// (or since [`StallLap::start`]) to one cause and advances the cursor, so
/// the segments tile the interval with no gaps or overlaps: the breakdown's
/// [`StallBreakdown::total_nanos`] equals the elapsed wall-clock time of the
/// interval exactly. [`StallLap::lap_split`] distributes one segment over
/// several causes using externally measured sub-phase timings, attributing
/// any remainder to a designated cause so coverage stays exact.
#[derive(Debug)]
pub struct StallLap {
    last: Instant,
    breakdown: StallBreakdown,
}

impl StallLap {
    /// Starts a lap timer at the current instant.
    pub fn start() -> Self {
        StallLap {
            last: Instant::now(),
            breakdown: StallBreakdown::new(),
        }
    }

    /// Attributes the time since the previous lap to `cause`. Returns the
    /// segment length in nanoseconds.
    pub fn lap(&mut self, cause: StallCause) -> u64 {
        let now = Instant::now();
        let nanos = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.breakdown.record(cause, nanos);
        nanos
    }

    /// Attributes the time since the previous lap to several causes using
    /// externally measured sub-phase nanoseconds; whatever the splits do not
    /// cover goes to `remainder` (splits exceeding the segment are scaled
    /// down proportionally so the total stays exact). Returns the segment
    /// length in nanoseconds.
    pub fn lap_split(&mut self, splits: &[(StallCause, u64)], remainder: StallCause) -> u64 {
        let now = Instant::now();
        let total = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let claimed: u64 = splits.iter().map(|&(_, n)| n).sum();
        if claimed > 0 && claimed <= total {
            for &(cause, n) in splits {
                self.breakdown.record(cause, n);
            }
            self.breakdown.record(remainder, total - claimed);
        } else if claimed > total {
            // Sub-phase clocks overshot the outer segment (scheduling skew);
            // scale them down so the partition still tiles exactly.
            let mut assigned = 0u64;
            for (i, &(cause, n)) in splits.iter().enumerate() {
                let share = if i + 1 == splits.len() {
                    total - assigned
                } else {
                    ((n as u128 * total as u128) / claimed as u128) as u64
                };
                assigned += share;
                self.breakdown.record(cause, share);
            }
            self.breakdown.record(remainder, 0);
        } else {
            self.breakdown.record(remainder, total);
        }
        total
    }

    /// Nanoseconds attributed so far (sum over all recorded segments).
    pub fn total_nanos(&self) -> u64 {
        self.breakdown.total_nanos()
    }

    /// Finishes the lap and returns the per-cause breakdown.
    pub fn finish(self) -> StallBreakdown {
        self.breakdown
    }
}

/// Per-worker shared counter cells, read by the sampler while the worker
/// records. All operations are `Relaxed`: the aggregate is monotone, and
/// consumers only rely on monotonicity within a sampling round.
#[derive(Debug)]
struct WorkerCells {
    events: AtomicU64,
    counts: [AtomicU64; PHASE_COUNT],
    nanos: [AtomicU64; PHASE_COUNT],
}

impl WorkerCells {
    fn new() -> Self {
        WorkerCells {
            events: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn totals(&self) -> PhaseTotals {
        let mut t = PhaseTotals {
            events: self.events.load(Ordering::Relaxed),
            ..PhaseTotals::default()
        };
        for i in 0..PHASE_COUNT {
            t.counts[i] = self.counts[i].load(Ordering::Relaxed);
            t.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
        }
        t
    }
}

/// A point-in-time snapshot of one worker's (or all workers') per-phase
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Instrumentation events observed (incremented in every mode).
    pub events: u64,
    counts: [u64; PHASE_COUNT],
    nanos: [u64; PHASE_COUNT],
}

impl PhaseTotals {
    /// Number of times `phase` was recorded.
    pub fn count(&self, phase: EnginePhase) -> u64 {
        self.counts[phase.index()]
    }

    /// Total nanoseconds recorded for `phase`.
    pub fn nanos(&self, phase: EnginePhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Sum of all phase nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Folds another snapshot into this one.
    pub fn merge_from(&mut self, other: &PhaseTotals) {
        self.events += other.events;
        for i in 0..PHASE_COUNT {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }
}

struct StallState {
    breakdown: StallBreakdown,
    histograms: Option<Vec<LatencyHistogram>>,
}

/// Shared registry of per-worker recorders plus engine-level stall
/// attribution. One registry lives for the duration of a run; the sampler
/// thread snapshots it concurrently via [`TelemetryRegistry::totals`].
pub struct TelemetryRegistry {
    mode: TelemetryMode,
    workers: Vec<WorkerCells>,
    phase_histograms: Mutex<Option<Vec<LatencyHistogram>>>,
    stall: Mutex<StallState>,
}

impl fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("mode", &self.mode)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn empty_histograms(n: usize) -> Vec<LatencyHistogram> {
    (0..n).map(|_| LatencyHistogram::new()).collect()
}

impl TelemetryRegistry {
    /// Creates a registry for `workers` recorder slots in the given mode.
    pub fn new(mode: TelemetryMode, workers: usize) -> Self {
        TelemetryRegistry {
            mode,
            workers: (0..workers).map(|_| WorkerCells::new()).collect(),
            phase_histograms: Mutex::new(
                mode.histograms_enabled()
                    .then(|| empty_histograms(PHASE_COUNT)),
            ),
            stall: Mutex::new(StallState {
                breakdown: StallBreakdown::new(),
                histograms: mode
                    .histograms_enabled()
                    .then(|| empty_histograms(STALL_CAUSE_COUNT)),
            }),
        }
    }

    /// The recording mode the registry was created with.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Number of worker recorder slots.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Creates the recorder for worker `worker`. Each worker must use its
    /// own slot; the recorder is not `Sync`.
    ///
    /// # Panics
    /// If `worker` is out of range.
    pub fn recorder(&self, worker: usize) -> WorkerRecorder<'_> {
        WorkerRecorder {
            mode: self.mode,
            cells: &self.workers[worker],
            registry: self,
            histograms: self
                .mode
                .histograms_enabled()
                .then(|| empty_histograms(PHASE_COUNT)),
        }
    }

    /// Folds one quiesce interval's per-cause breakdown into the run totals
    /// and, in full mode, records each non-empty cause segment into its
    /// per-cause histogram.
    pub fn record_stall(&self, epoch: &StallBreakdown) {
        let mut stall = self.stall.lock().unwrap();
        stall.breakdown.merge_from(epoch);
        if let Some(hists) = stall.histograms.as_mut() {
            for cause in StallCause::ALL {
                if epoch.count(cause) > 0 {
                    hists[cause.index()].record_nanos(epoch.nanos(cause));
                }
            }
        }
    }

    /// Snapshot of the run-total per-cause stall breakdown.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        self.stall.lock().unwrap().breakdown
    }

    /// Snapshot of one worker's counters.
    ///
    /// # Panics
    /// If `worker` is out of range.
    pub fn worker_totals(&self, worker: usize) -> PhaseTotals {
        self.workers[worker].totals()
    }

    /// Snapshot of the aggregate counters across all workers. Computed by
    /// summing the per-worker cells, so it is monotone between two calls
    /// even while workers record concurrently.
    pub fn totals(&self) -> PhaseTotals {
        let mut sum = PhaseTotals::default();
        for cells in &self.workers {
            sum.merge_from(&cells.totals());
        }
        sum
    }

    /// Total instrumentation events across all workers (available in every
    /// mode, including `off`).
    pub fn events(&self) -> u64 {
        self.workers
            .iter()
            .map(|c| c.events.load(Ordering::Relaxed))
            .sum()
    }

    /// Resets all counters, histograms, and stall totals (used between a
    /// warm-up pass and the measured pass).
    pub fn reset(&self) {
        for cells in &self.workers {
            cells.events.store(0, Ordering::Relaxed);
            for i in 0..PHASE_COUNT {
                cells.counts[i].store(0, Ordering::Relaxed);
                cells.nanos[i].store(0, Ordering::Relaxed);
            }
        }
        if let Some(hists) = self.phase_histograms.lock().unwrap().as_mut() {
            *hists = empty_histograms(PHASE_COUNT);
        }
        let mut stall = self.stall.lock().unwrap();
        stall.breakdown = StallBreakdown::new();
        if stall.histograms.is_some() {
            stall.histograms = Some(empty_histograms(STALL_CAUSE_COUNT));
        }
    }

    /// Assembles the end-of-run report: aggregate and per-worker totals,
    /// merged phase histograms, and the stall-cause breakdown.
    pub fn report(&self) -> TelemetryReport {
        let stall = self.stall.lock().unwrap();
        TelemetryReport {
            mode: self.mode,
            totals: self.totals(),
            per_worker: self.workers.iter().map(|c| c.totals()).collect(),
            phase_histograms: self.phase_histograms.lock().unwrap().clone(),
            stall: stall.breakdown,
            stall_histograms: stall.histograms.clone(),
        }
    }
}

/// One worker's recording handle. Cheap to use from the hot path: `off`
/// mode costs a single relaxed increment per instrumentation point, and no
/// mode takes a lock or allocates while recording.
#[derive(Debug)]
pub struct WorkerRecorder<'a> {
    mode: TelemetryMode,
    cells: &'a WorkerCells,
    registry: &'a TelemetryRegistry,
    histograms: Option<Vec<LatencyHistogram>>,
}

impl WorkerRecorder<'_> {
    /// The recording mode.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Reads the clock iff timing is enabled; pass the result to
    /// [`WorkerRecorder::commit`]. In `off` mode this returns `None` and
    /// the matching commit degrades to one relaxed event count.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.mode.timing_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Commits a phase observation started at `clock()`.
    #[inline]
    pub fn commit(&mut self, phase: EnginePhase, started: Option<Instant>) {
        match started {
            Some(t) => self.record_nanos(phase, t.elapsed().as_nanos() as u64),
            None => self.event(),
        }
    }

    /// Records a phase observation whose duration was measured externally.
    #[inline]
    pub fn record_nanos(&mut self, phase: EnginePhase, nanos: u64) {
        self.cells.events.fetch_add(1, Ordering::Relaxed);
        if !self.mode.timing_enabled() {
            return;
        }
        let i = phase.index();
        self.cells.counts[i].fetch_add(1, Ordering::Relaxed);
        self.cells.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        if let Some(hists) = self.histograms.as_mut() {
            hists[i].record_nanos(nanos);
        }
    }

    /// Counts one instrumentation event (the `off`-mode cost floor).
    #[inline]
    pub fn event(&self) {
        self.cells.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Merges the worker's local histograms into the registry. Call once
    /// when the worker exits.
    pub fn finish(self) {
        if let Some(local) = self.histograms {
            if let Some(shared) = self.registry.phase_histograms.lock().unwrap().as_mut() {
                for (mine, theirs) in shared.iter_mut().zip(&local) {
                    mine.merge_from(theirs);
                }
            }
        }
    }
}

/// The assembled end-of-run telemetry: aggregate and per-worker phase
/// totals, merged phase histograms (full mode), and the stall-cause
/// breakdown with per-cause histograms (full mode).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Mode the run recorded under.
    pub mode: TelemetryMode,
    /// Aggregate per-phase totals across all workers.
    pub totals: PhaseTotals,
    /// Per-worker totals, indexed by worker id.
    pub per_worker: Vec<PhaseTotals>,
    /// Merged per-phase histograms (`Some` only in full mode).
    pub phase_histograms: Option<Vec<LatencyHistogram>>,
    /// Run-total per-cause stall breakdown.
    pub stall: StallBreakdown,
    /// Per-cause stall histograms, one sample per quiesce interval (`Some`
    /// only in full mode).
    pub stall_histograms: Option<Vec<LatencyHistogram>>,
}

impl TelemetryReport {
    /// Renders the report in the Prometheus text exposition format
    /// (counters only; dumped once at drain, not scraped live).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE pimtree_telemetry_events_total counter\n");
        out.push_str(&format!(
            "pimtree_telemetry_events_total {}\n",
            self.totals.events
        ));
        out.push_str("# TYPE pimtree_phase_nanos_total counter\n");
        out.push_str("# TYPE pimtree_phase_count_total counter\n");
        for phase in EnginePhase::ALL {
            out.push_str(&format!(
                "pimtree_phase_nanos_total{{phase=\"{}\"}} {}\n",
                phase.label(),
                self.totals.nanos(phase)
            ));
            out.push_str(&format!(
                "pimtree_phase_count_total{{phase=\"{}\"}} {}\n",
                phase.label(),
                self.totals.count(phase)
            ));
        }
        for (w, totals) in self.per_worker.iter().enumerate() {
            for phase in EnginePhase::ALL {
                out.push_str(&format!(
                    "pimtree_worker_phase_nanos_total{{worker=\"{w}\",phase=\"{}\"}} {}\n",
                    phase.label(),
                    totals.nanos(phase)
                ));
            }
        }
        out.push_str("# TYPE pimtree_stall_nanos_total counter\n");
        out.push_str("# TYPE pimtree_stall_count_total counter\n");
        for cause in StallCause::ALL {
            out.push_str(&format!(
                "pimtree_stall_nanos_total{{cause=\"{}\"}} {}\n",
                cause.label(),
                self.stall.nanos(cause)
            ));
            out.push_str(&format!(
                "pimtree_stall_count_total{{cause=\"{}\"}} {}\n",
                cause.label(),
                self.stall.count(cause)
            ));
        }
        if let Some(hists) = &self.stall_histograms {
            out.push_str("# TYPE pimtree_stall_p99_micros gauge\n");
            for cause in StallCause::ALL {
                let h = &hists[cause.index()];
                if !h.is_empty() {
                    out.push_str(&format!(
                        "pimtree_stall_p99_micros{{cause=\"{}\"}} {:.3}\n",
                        cause.label(),
                        h.p99_micros()
                    ));
                }
            }
        }
        out
    }
}

/// One periodic snapshot of the engine's live gauges, serializable as one
/// JSON Lines record (see `docs/telemetry-schema.json`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSample {
    /// Monotone sample sequence number, starting at 0.
    pub seq: u64,
    /// Microseconds since the measured phase started.
    pub elapsed_us: u64,
    /// Tuples currently claimed by workers (quiesce handshake gauge).
    pub in_flight: u64,
    /// Occupied slots per ring shard.
    pub shard_occupancy: Vec<u64>,
    /// R-side tuples inserted but not yet index-visible.
    pub unindexed_r: u64,
    /// S-side tuples inserted but not yet index-visible.
    pub unindexed_s: u64,
    /// Live R-window size (tuples).
    pub window_r: u64,
    /// Live S-window size (tuples).
    pub window_s: u64,
    /// Home-shard claims so far (steal-rate numerator's complement).
    pub local_claims: u64,
    /// Cross-shard (stolen) claims so far.
    pub stolen_claims: u64,
    /// Most recent drift imbalance observed by the monitor (0 when drift
    /// monitoring is off).
    pub drift_imbalance: f64,
    /// Total instrumentation events recorded so far.
    pub events: u64,
}

impl GaugeSample {
    /// Serializes the sample as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let occupancy: Vec<String> = self.shard_occupancy.iter().map(u64::to_string).collect();
        let imbalance = if self.drift_imbalance.is_finite() {
            self.drift_imbalance
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"seq\": {}, \"elapsed_us\": {}, \"in_flight\": {}, ",
                "\"shard_occupancy\": [{}], \"unindexed_r\": {}, \"unindexed_s\": {}, ",
                "\"window_r\": {}, \"window_s\": {}, ",
                "\"local_claims\": {}, \"stolen_claims\": {}, ",
                "\"drift_imbalance\": {:.6}, ",
                "\"events\": {}}}"
            ),
            self.seq,
            self.elapsed_us,
            self.in_flight,
            occupancy.join(", "),
            self.unindexed_r,
            self.unindexed_s,
            self.window_r,
            self.window_s,
            self.local_claims,
            self.stolen_claims,
            imbalance,
            self.events,
        )
    }
}

/// An append-only JSON Lines file sink for [`GaugeSample`] records.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    lines: u64,
}

impl JsonlSink {
    /// Creates (truncating) the sink file at `path`.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            lines: 0,
        })
    }

    /// Appends one sample as a JSON line.
    pub fn append(&mut self, sample: &GaugeSample) -> io::Result<()> {
        self.out.write_all(sample.to_json().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and closes the sink.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_partition_the_value_range() {
        // Every value maps into exactly one bucket whose interval contains
        // it, and bucket indices are monotone in the value.
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for off in [0u64, 1, 7] {
                values.push((1u64 << exp).saturating_add(off << exp.saturating_sub(5)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for &v in &values {
            let idx = LatencyHistogram::bucket_of(v);
            assert!(idx < HIST_BUCKETS, "value {v} -> bucket {idx}");
            assert!(idx >= last, "bucketing must be monotone at {v}");
            last = idx;
        }
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Sub-linear region is exact; midpoints stay within their octave's
        // ~6 % relative error above it.
        for v in [3u64, 100, 1_000, 65_537, 1 << 40] {
            let mid = LatencyHistogram::bucket_mid(LatencyHistogram::bucket_of(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.07, "value {v}: midpoint {mid}, error {err}");
        }
    }

    /// Nearest-rank percentile over the exact sample, the convention the
    /// histogram approximates.
    fn exact_percentile_micros(samples: &[u64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx] as f64 / 1.0e3
    }

    #[test]
    fn histogram_quantiles_track_the_exact_recorder() {
        let mut samples = Vec::new();
        let mut hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.percentile_micros(0.99), 0.0);
        // A long-tailed sample: mostly microseconds, a few milliseconds.
        for i in 1..=1000u64 {
            let nanos = if i % 100 == 0 { i * 10_000 } else { i * 10 };
            samples.push(nanos);
            hist.record_nanos(nanos);
        }
        assert_eq!(hist.len(), 1000);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let e = exact_percentile_micros(&samples, q);
            let h = hist.percentile_micros(q);
            let tolerance = (e * 0.07).max(0.002);
            assert!(
                (e - h).abs() <= tolerance,
                "q={q}: exact {e}, histogram {h}"
            );
        }
        let exact_mean =
            samples.iter().map(|&n| n as f64).sum::<f64>() / samples.len() as f64 / 1.0e3;
        assert!((hist.mean_micros() - exact_mean).abs() < 1e-6);
        let exact_max = *samples.iter().max().unwrap() as f64 / 1.0e3;
        assert_eq!(hist.max_micros(), exact_max, "max is exact");
        assert_eq!(hist.percentile_micros(1.0), hist.max_micros());
        // p-helpers agree with the generic quantile.
        assert_eq!(hist.p50_micros(), hist.percentile_micros(0.5));
        assert_eq!(hist.p99_micros(), hist.percentile_micros(0.99));
        assert_eq!(hist.p999_micros(), hist.percentile_micros(0.999));
    }

    #[test]
    fn histogram_merge_matches_recording_into_one() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..500u64 {
            let nanos = i * 997;
            all.record_nanos(nanos);
            if i % 2 == 0 {
                a.record_nanos(nanos);
            } else {
                b.record_nanos(nanos);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.len(), all.len());
        assert_eq!(a.max_micros(), all.max_micros());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.percentile_micros(q), all.percentile_micros(q));
        }
    }

    #[test]
    fn telemetry_mode_parses_and_displays() {
        for (s, m) in [
            ("off", TelemetryMode::Off),
            ("counters", TelemetryMode::Counters),
            ("full", TelemetryMode::Full),
        ] {
            assert_eq!(s.parse::<TelemetryMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("verbose".parse::<TelemetryMode>().is_err());
        assert_eq!(TelemetryMode::default(), TelemetryMode::Off);
        assert!(!TelemetryMode::Off.timing_enabled());
        assert!(TelemetryMode::Counters.timing_enabled());
        assert!(!TelemetryMode::Counters.histograms_enabled());
        assert!(TelemetryMode::Full.histograms_enabled());
    }

    #[test]
    fn phase_and_cause_indices_are_dense_and_labels_distinct() {
        let mut seen = [false; PHASE_COUNT];
        for p in EnginePhase::ALL {
            assert!(!seen[p.index()], "duplicate index for {p:?}");
            seen[p.index()] = true;
        }
        let labels: std::collections::HashSet<_> =
            EnginePhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PHASE_COUNT);
        let mut seen = [false; STALL_CAUSE_COUNT];
        for c in StallCause::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), STALL_CAUSE_COUNT);
    }

    #[test]
    fn stall_breakdown_records_and_merges() {
        let mut a = StallBreakdown::new();
        assert!(a.is_empty());
        a.record(StallCause::GateClose, 100);
        a.record(StallCause::Rebuild, 400);
        let mut b = StallBreakdown::new();
        b.record(StallCause::GateClose, 50);
        b.record(StallCause::RouterSwap, 25);
        a.merge_from(&b);
        assert_eq!(a.nanos(StallCause::GateClose), 150);
        assert_eq!(a.count(StallCause::GateClose), 2);
        assert_eq!(a.nanos(StallCause::Rebuild), 400);
        assert_eq!(a.nanos(StallCause::RouterSwap), 25);
        assert_eq!(a.total_nanos(), 575);
        assert!(!a.is_empty());
    }

    #[test]
    fn stall_lap_partitions_the_interval_exactly() {
        let started = Instant::now();
        let mut lap = StallLap::start();
        std::hint::black_box((0..1000).sum::<u64>());
        lap.lap(StallCause::GateClose);
        std::hint::black_box((0..1000).sum::<u64>());
        lap.lap_split(
            &[(StallCause::WindowSnapshot, 1), (StallCause::IndexSwap, 1)],
            StallCause::Rebuild,
        );
        lap.lap(StallCause::RouterSwap);
        let upper = started.elapsed().as_nanos() as u64;
        let b = lap.finish();
        // The segments tile the interval: every cause the laps touched is
        // counted once, and the sum is bounded by the outer elapsed time.
        assert_eq!(b.count(StallCause::GateClose), 1);
        assert_eq!(b.count(StallCause::WindowSnapshot), 1);
        assert_eq!(b.count(StallCause::IndexSwap), 1);
        assert_eq!(b.count(StallCause::Rebuild), 1);
        assert_eq!(b.count(StallCause::RouterSwap), 1);
        assert_eq!(b.count(StallCause::InFlightDrain), 0);
        assert!(b.total_nanos() <= upper);
        assert_eq!(
            b.nanos(StallCause::WindowSnapshot) + b.nanos(StallCause::IndexSwap),
            2,
            "externally measured sub-phases pass through verbatim"
        );
    }

    #[test]
    fn stall_lap_split_scales_down_overshooting_subphases() {
        let mut lap = StallLap::start();
        // Claimed sub-phase nanos far exceed any real elapsed segment.
        let seg = lap.lap_split(
            &[
                (StallCause::WindowSnapshot, u64::MAX / 4),
                (StallCause::IndexSwap, u64::MAX / 4),
            ],
            StallCause::Rebuild,
        );
        let b = lap.finish();
        assert_eq!(b.total_nanos(), seg, "scaling preserves the exact total");
    }

    #[test]
    fn recorder_counts_phases_and_report_aggregates_workers() {
        let reg = TelemetryRegistry::new(TelemetryMode::Full, 2);
        let mut r0 = reg.recorder(0);
        let mut r1 = reg.recorder(1);
        r0.record_nanos(EnginePhase::Probe, 100);
        r0.record_nanos(EnginePhase::Probe, 300);
        r0.record_nanos(EnginePhase::Claim, 50);
        r1.record_nanos(EnginePhase::Merge, 1_000);
        r0.finish();
        r1.finish();
        let report = reg.report();
        assert_eq!(report.totals.count(EnginePhase::Probe), 2);
        assert_eq!(report.totals.nanos(EnginePhase::Probe), 400);
        assert_eq!(report.totals.nanos(EnginePhase::Merge), 1_000);
        assert_eq!(report.totals.events, 4);
        assert_eq!(report.per_worker.len(), 2);
        assert_eq!(report.per_worker[0].count(EnginePhase::Probe), 2);
        assert_eq!(report.per_worker[1].count(EnginePhase::Merge), 1);
        let hists = report.phase_histograms.as_ref().unwrap();
        assert_eq!(hists[EnginePhase::Probe.index()].len(), 2);
        assert_eq!(hists[EnginePhase::Merge.index()].len(), 1);
        // Aggregate equals the sum of per-worker snapshots.
        let mut sum = PhaseTotals::default();
        for w in 0..reg.workers() {
            sum.merge_from(&reg.worker_totals(w));
        }
        assert_eq!(sum, reg.totals());
    }

    #[test]
    fn off_mode_records_only_events() {
        let reg = TelemetryRegistry::new(TelemetryMode::Off, 1);
        let mut r = reg.recorder(0);
        assert!(r.clock().is_none());
        r.commit(EnginePhase::Probe, None);
        r.record_nanos(EnginePhase::Merge, 500);
        r.finish();
        assert_eq!(reg.events(), 2);
        let t = reg.totals();
        assert_eq!(t.count(EnginePhase::Probe), 0);
        assert_eq!(t.nanos(EnginePhase::Merge), 0);
        assert!(reg.report().phase_histograms.is_none());
    }

    #[test]
    fn registry_reset_clears_everything() {
        let reg = TelemetryRegistry::new(TelemetryMode::Full, 1);
        let mut r = reg.recorder(0);
        r.record_nanos(EnginePhase::Ingest, 123);
        r.finish();
        let mut epoch = StallBreakdown::new();
        epoch.record(StallCause::GateClose, 77);
        reg.record_stall(&epoch);
        reg.reset();
        assert_eq!(reg.events(), 0);
        assert_eq!(reg.totals(), PhaseTotals::default());
        assert!(reg.stall_breakdown().is_empty());
        let report = reg.report();
        assert!(report.phase_histograms.unwrap()[EnginePhase::Ingest.index()].is_empty());
        assert!(report.stall_histograms.unwrap()[StallCause::GateClose.index()].is_empty());
    }

    #[test]
    fn stall_histograms_record_one_sample_per_epoch() {
        let reg = TelemetryRegistry::new(TelemetryMode::Full, 1);
        for _ in 0..3 {
            let mut epoch = StallBreakdown::new();
            epoch.record(StallCause::GateClose, 1_000);
            epoch.record(StallCause::Rebuild, 9_000);
            reg.record_stall(&epoch);
        }
        let report = reg.report();
        assert_eq!(report.stall.total_nanos(), 30_000);
        let hists = report.stall_histograms.as_ref().unwrap();
        assert_eq!(hists[StallCause::GateClose.index()].len(), 3);
        assert_eq!(hists[StallCause::Rebuild.index()].len(), 3);
        assert_eq!(hists[StallCause::IndexSwap.index()].len(), 0);
    }

    /// The concurrent no-tear property: while workers hammer their
    /// recorders, an aggregate snapshot taken between two fence snapshots
    /// is bounded by them (monotone within a sampling round), and the sum
    /// of per-worker snapshots equals an aggregate taken around them the
    /// same way.
    #[test]
    fn concurrent_snapshots_never_tear() {
        const WORKERS: usize = 4;
        const OPS: u64 = 20_000;
        let reg = TelemetryRegistry::new(TelemetryMode::Counters, WORKERS);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let reg = &reg;
                scope.spawn(move || {
                    let mut r = reg.recorder(w);
                    for i in 0..OPS {
                        r.record_nanos(EnginePhase::ALL[(i % 5) as usize], 10);
                    }
                    r.finish();
                });
            }
            // Sampler: snapshot repeatedly while workers record.
            for _ in 0..200 {
                let before = reg.totals();
                let mut per_worker_sum = PhaseTotals::default();
                for w in 0..WORKERS {
                    per_worker_sum.merge_from(&reg.worker_totals(w));
                }
                let after = reg.totals();
                assert!(
                    before.events <= per_worker_sum.events && per_worker_sum.events <= after.events,
                    "per-worker sum must sit between two aggregate fences: {} <= {} <= {}",
                    before.events,
                    per_worker_sum.events,
                    after.events
                );
                for phase in EnginePhase::ALL {
                    assert!(before.count(phase) <= per_worker_sum.count(phase));
                    assert!(per_worker_sum.count(phase) <= after.count(phase));
                    assert!(before.nanos(phase) <= per_worker_sum.nanos(phase));
                    assert!(per_worker_sum.nanos(phase) <= after.nanos(phase));
                }
            }
        });
        // Quiesced: the aggregate is exact.
        let t = reg.totals();
        assert_eq!(t.events, WORKERS as u64 * OPS);
        assert_eq!(t.total_nanos(), WORKERS as u64 * OPS * 10);
        for phase in EnginePhase::ALL {
            assert_eq!(t.count(phase), WORKERS as u64 * OPS / 5);
        }
    }

    #[test]
    fn gauge_sample_serializes_as_one_json_object() {
        let sample = GaugeSample {
            seq: 7,
            elapsed_us: 1234,
            in_flight: 3,
            shard_occupancy: vec![10, 20, 30],
            unindexed_r: 4,
            unindexed_s: 5,
            window_r: 100,
            window_s: 101,
            local_claims: 50,
            stolen_claims: 2,
            drift_imbalance: 0.25,
            events: 999,
        };
        let json = sample.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seq\": 7"));
        assert!(json.contains("\"shard_occupancy\": [10, 20, 30]"));
        assert!(json.contains("\"drift_imbalance\": 0.250000"));
        assert!(json.contains("\"events\": 999"));
        assert!(!json.contains('\n'));
        // Non-finite gauges must not produce invalid JSON.
        let bad = GaugeSample {
            drift_imbalance: f64::NAN,
            ..GaugeSample::default()
        };
        assert!(bad.to_json().contains("\"drift_imbalance\": 0.000000"));
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let path = std::env::temp_dir().join("pimtree_telemetry_sink_test.jsonl");
        let path = path.to_str().unwrap();
        let mut sink = JsonlSink::create(path).unwrap();
        for seq in 0..3 {
            sink.append(&GaugeSample {
                seq,
                shard_occupancy: vec![seq],
                ..GaugeSample::default()
            })
            .unwrap();
        }
        assert_eq!(sink.lines(), 3);
        sink.finish().unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\": {i}")));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn prometheus_rendering_contains_all_series() {
        let reg = TelemetryRegistry::new(TelemetryMode::Full, 2);
        let mut r = reg.recorder(0);
        r.record_nanos(EnginePhase::Probe, 500);
        r.finish();
        let mut epoch = StallBreakdown::new();
        epoch.record(StallCause::GateClose, 200);
        reg.record_stall(&epoch);
        let text = reg.report().to_prometheus();
        assert!(text.contains("pimtree_telemetry_events_total 1"));
        assert!(text.contains("pimtree_phase_nanos_total{phase=\"probe\"} 500"));
        assert!(text.contains("pimtree_worker_phase_nanos_total{worker=\"0\",phase=\"probe\"} 500"));
        assert!(text.contains("pimtree_worker_phase_nanos_total{worker=\"1\",phase=\"probe\"} 0"));
        assert!(text.contains("pimtree_stall_nanos_total{cause=\"gate_close\"} 200"));
        assert!(text.contains("pimtree_stall_count_total{cause=\"gate_close\"} 1"));
        assert!(text.contains("pimtree_stall_p99_micros{cause=\"gate_close\"}"));
        for phase in EnginePhase::ALL {
            assert!(text.contains(&format!("phase=\"{}\"", phase.label())));
        }
        for cause in StallCause::ALL {
            assert!(text.contains(&format!(
                "pimtree_stall_nanos_total{{cause=\"{}\"}}",
                cause.label()
            )));
        }
    }
}
