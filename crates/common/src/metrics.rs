//! Measurement utilities: per-step cost breakdowns, throughput and latency.
//!
//! Figure 9b of the paper splits the per-tuple cost of index-based window join
//! into *search*, *scan*, *insert*, *delete* and *merge* time. [`CostBreakdown`]
//! accumulates exactly those buckets. [`ThroughputMeter`] and
//! [`LatencyRecorder`] back the throughput/latency series of the remaining
//! figures.

use std::time::{Duration, Instant};

/// The cost buckets distinguished by the paper's step-wise analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Traversing an index from the root to the first matching leaf position.
    Search,
    /// Linearly scanning leaf entries (and the non-indexed window suffix).
    Scan,
    /// Inserting the newly arrived tuple into its window's index.
    Insert,
    /// Removing the expired tuple (incremental deletion approaches only).
    Delete,
    /// Merging the mutable component into the immutable component.
    Merge,
}

impl Step {
    /// All steps in reporting order.
    pub const ALL: [Step; 5] = [
        Step::Search,
        Step::Scan,
        Step::Insert,
        Step::Delete,
        Step::Merge,
    ];

    /// Stable array index for the step.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Step::Search => 0,
            Step::Scan => 1,
            Step::Insert => 2,
            Step::Delete => 3,
            Step::Merge => 4,
        }
    }

    /// Human-readable label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            Step::Search => "search",
            Step::Scan => "scan",
            Step::Insert => "insert",
            Step::Delete => "delete",
            Step::Merge => "merge",
        }
    }
}

/// Accumulated time and invocation counts per [`Step`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostBreakdown {
    nanos: [u64; 5],
    counts: [u64; 5],
    /// Number of tuples processed while this breakdown was recording; used to
    /// report per-tuple averages (the unit of Figure 9b).
    pub tuples: u64,
}

impl CostBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to the bucket of `step` and bumps its invocation count.
    #[inline]
    pub fn record(&mut self, step: Step, d: Duration) {
        self.nanos[step.index()] += d.as_nanos() as u64;
        self.counts[step.index()] += 1;
    }

    /// Adds raw nanoseconds to the bucket of `step` (used when timing is
    /// captured externally, e.g. by a merging thread).
    #[inline]
    pub fn record_nanos(&mut self, step: Step, nanos: u64) {
        self.nanos[step.index()] += nanos;
        self.counts[step.index()] += 1;
    }

    /// Total accumulated time for `step`.
    pub fn total(&self, step: Step) -> Duration {
        Duration::from_nanos(self.nanos[step.index()])
    }

    /// Number of times `step` was recorded.
    pub fn count(&self, step: Step) -> u64 {
        self.counts[step.index()]
    }

    /// Average nanoseconds spent in `step` per processed tuple. Returns zero
    /// when no tuples have been processed.
    pub fn per_tuple_nanos(&self, step: Step) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.nanos[step.index()] as f64 / self.tuples as f64
        }
    }

    /// Sum of all buckets.
    pub fn total_all(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// What was recorded after `earlier`, an older copy of this breakdown.
    pub fn since(&self, earlier: &CostBreakdown) -> CostBreakdown {
        let mut delta = self.clone();
        for i in 0..5 {
            delta.nanos[i] -= earlier.nanos[i];
            delta.counts[i] -= earlier.counts[i];
        }
        delta.tuples -= earlier.tuples;
        delta
    }

    /// Merges another breakdown into this one (used to aggregate per-thread
    /// breakdowns).
    pub fn merge_from(&mut self, other: &CostBreakdown) {
        for i in 0..5 {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
        self.tuples += other.tuples;
    }
}

/// Counters of the batched CSS-Tree group probe (see `pimtree-cssbtree`),
/// recording how much of the result-generation work went through the batched
/// path and how much prefetching it issued. Filled by `PimTree::probe_batch`
/// and absorbed into the join engines' run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Batched probe calls (one per task and probe side).
    pub batches: u64,
    /// Probe keys submitted across all batches (before deduplication).
    pub batched_keys: u64,
    /// Largest single batch submitted.
    pub max_batch: u64,
    /// Keys that shared a descent with an identical earlier key in the same
    /// batch (sort + dedup hits).
    pub dedup_hits: u64,
    /// Node key blocks (inner nodes and leaf groups) software-prefetched
    /// ahead of the group descent.
    pub nodes_prefetched: u64,
    /// Probes answered one range at a time by an index without a group
    /// probe: every backend but the PIM-Tree (Bw-Tree, chained, B+-Tree,
    /// IM-Tree).
    pub scalar_probes: u64,
    /// Mutable-partition (`TI`) locks taken by the batched probe path, which
    /// groups a batch's unique ranges per partition so every overlapping
    /// partition is locked once per batch instead of once per range.
    pub ti_partition_locks: u64,
    /// Range-over-partition probes answered by the batched `TI` path. The
    /// difference to `ti_partition_locks` is the number of lock round-trips
    /// the per-partition grouping saved.
    pub ti_range_visits: u64,
    /// Intra-node lower bounds answered by the runtime-detected SIMD kernel.
    pub simd_node_searches: u64,
    /// Intra-node lower bounds answered by the scalar fallback (counted only
    /// by the group descent, like `simd_node_searches`).
    pub scalar_node_searches: u64,
}

impl ProbeCounters {
    /// Folds another worker's counters into this one. Every field is summed
    /// (except `max_batch`, which is a maximum) so that per-worker counters
    /// aggregate losslessly no matter how many workers report.
    pub fn merge_from(&mut self, other: &ProbeCounters) {
        self.batches += other.batches;
        self.batched_keys += other.batched_keys;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.dedup_hits += other.dedup_hits;
        self.nodes_prefetched += other.nodes_prefetched;
        self.scalar_probes += other.scalar_probes;
        self.ti_partition_locks += other.ti_partition_locks;
        self.ti_range_visits += other.ti_range_visits;
        self.simd_node_searches += other.simd_node_searches;
        self.scalar_node_searches += other.scalar_node_searches;
    }

    /// Fraction of instrumented intra-node searches answered by the SIMD
    /// kernel.
    pub fn simd_search_rate(&self) -> f64 {
        let total = self.simd_node_searches + self.scalar_node_searches;
        if total == 0 {
            0.0
        } else {
            self.simd_node_searches as f64 / total as f64
        }
    }

    /// Mean keys per batched probe call.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_keys as f64 / self.batches as f64
        }
    }

    /// Fraction of batched keys that shared an identical earlier key's
    /// descent.
    pub fn dedup_rate(&self) -> f64 {
        if self.batched_keys == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.batched_keys as f64
        }
    }
}

/// A scoped timer that records into a [`CostBreakdown`] bucket on demand.
///
/// The timer is intentionally explicit (call [`StepTimer::finish`]) rather than
/// RAII-based so that hot paths can skip the clock reads entirely when
/// instrumentation is disabled.
#[derive(Debug)]
pub struct StepTimer {
    start: Instant,
    step: Step,
}

impl StepTimer {
    /// Starts timing `step`.
    #[inline]
    pub fn start(step: Step) -> Self {
        StepTimer {
            start: Instant::now(),
            step,
        }
    }

    /// Stops the timer and records the elapsed time into `breakdown`.
    #[inline]
    pub fn finish(self, breakdown: &mut CostBreakdown) {
        breakdown.record(self.step, self.start.elapsed());
    }

    /// Elapsed time without recording (for callers that aggregate manually).
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Tuples-per-second throughput meter.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    started: Instant,
    tuples: u64,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    /// Starts a meter at the current instant.
    pub fn new() -> Self {
        ThroughputMeter {
            started: Instant::now(),
            tuples: 0,
        }
    }

    /// Adds `n` processed tuples.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.tuples += n;
    }

    /// Total tuples recorded so far.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Elapsed wall-clock time since the meter was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Throughput in million tuples per second — the unit used on the y-axis
    /// of most figures in the paper.
    pub fn million_tuples_per_second(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.tuples as f64 / secs / 1.0e6
        }
    }

    /// Throughput computed against an externally supplied duration (used when
    /// the measured region is narrower than the meter's lifetime).
    pub fn million_tuples_per_second_over(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.tuples as f64 / secs / 1.0e6
        }
    }
}

/// Records per-tuple processing latencies and reports order statistics.
///
/// Latency is defined as in §5 ("task processing time"): the time from a tuple
/// being picked up by a worker until its join results are ready.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_nanos: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder pre-allocated for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder {
            samples_nanos: Vec::with_capacity(n),
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.samples_nanos.push(d.as_nanos() as u64);
    }

    /// Records `n` samples of the same latency (the tuples of one batch).
    #[inline]
    pub fn record_n(&mut self, d: Duration, n: usize) {
        let len = self.samples_nanos.len();
        self.samples_nanos.resize(len + n, d.as_nanos() as u64);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_nanos.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_nanos.is_empty()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge_from(&mut self, other: &LatencyRecorder) {
        self.samples_nanos.extend_from_slice(&other.samples_nanos);
    }

    /// Mean latency in microseconds (the unit of Figure 10d).
    pub fn mean_micros(&self) -> f64 {
        if self.samples_nanos.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.samples_nanos.iter().map(|&n| n as u128).sum();
        sum as f64 / self.samples_nanos.len() as f64 / 1.0e3
    }

    /// Latency percentile (`q` in `[0, 1]`) in microseconds.
    pub fn percentile_micros(&self, q: f64) -> f64 {
        if self.samples_nanos.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_nanos.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64 / 1.0e3
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> f64 {
        self.samples_nanos
            .iter()
            .max()
            .map(|&n| n as f64 / 1.0e3)
            .unwrap_or(0.0)
    }
}

/// Fixed-footprint log-bucketed latency histogram, promoted into
/// `pimtree-telemetry` (the engine flight recorder) and re-exported here so
/// existing `pimtree_common::LatencyHistogram` imports keep working. See the
/// telemetry crate for the bucketing scheme and its pinning tests.
pub use pimtree_telemetry::LatencyHistogram;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_indices_are_unique_and_labels_distinct() {
        let mut seen = [false; 5];
        for s in Step::ALL {
            assert!(!seen[s.index()], "duplicate index for {:?}", s);
            seen[s.index()] = true;
        }
        let labels: std::collections::HashSet<_> = Step::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn breakdown_accumulates_and_averages() {
        let mut b = CostBreakdown::new();
        b.record(Step::Search, Duration::from_nanos(100));
        b.record(Step::Search, Duration::from_nanos(300));
        b.record_nanos(Step::Merge, 1_000);
        b.tuples = 4;
        assert_eq!(b.total(Step::Search), Duration::from_nanos(400));
        assert_eq!(b.count(Step::Search), 2);
        assert_eq!(b.count(Step::Merge), 1);
        assert_eq!(b.count(Step::Insert), 0);
        assert!((b.per_tuple_nanos(Step::Search) - 100.0).abs() < 1e-9);
        assert!((b.per_tuple_nanos(Step::Merge) - 250.0).abs() < 1e-9);
        assert_eq!(b.total_all(), Duration::from_nanos(1_400));
    }

    #[test]
    fn breakdown_per_tuple_is_zero_without_tuples() {
        let mut b = CostBreakdown::new();
        b.record_nanos(Step::Insert, 500);
        assert_eq!(b.per_tuple_nanos(Step::Insert), 0.0);
    }

    #[test]
    fn breakdown_merge_from_adds_everything() {
        let mut a = CostBreakdown::new();
        a.record_nanos(Step::Scan, 10);
        a.tuples = 1;
        let mut b = CostBreakdown::new();
        b.record_nanos(Step::Scan, 30);
        b.record_nanos(Step::Delete, 5);
        b.tuples = 3;
        a.merge_from(&b);
        assert_eq!(a.total(Step::Scan), Duration::from_nanos(40));
        assert_eq!(a.count(Step::Scan), 2);
        assert_eq!(a.count(Step::Delete), 1);
        assert_eq!(a.tuples, 4);
    }

    #[test]
    fn step_timer_records_positive_duration() {
        let mut b = CostBreakdown::new();
        let t = StepTimer::start(Step::Insert);
        std::hint::black_box(1 + 1);
        t.finish(&mut b);
        assert_eq!(b.count(Step::Insert), 1);
    }

    #[test]
    fn throughput_meter_counts_tuples() {
        let mut m = ThroughputMeter::new();
        m.add(500);
        m.add(500);
        assert_eq!(m.tuples(), 1000);
        let mtps = m.million_tuples_per_second_over(Duration::from_millis(1));
        assert!(
            (mtps - 1.0).abs() < 1e-9,
            "1000 tuples in 1ms = 1 Mtps, got {mtps}"
        );
        assert_eq!(m.million_tuples_per_second_over(Duration::ZERO), 0.0);
    }

    #[test]
    fn latency_recorder_percentiles() {
        let mut l = LatencyRecorder::with_capacity(100);
        assert!(l.is_empty());
        assert_eq!(l.mean_micros(), 0.0);
        assert_eq!(l.percentile_micros(0.5), 0.0);
        for i in 1..=100u64 {
            l.record(Duration::from_micros(i));
        }
        assert_eq!(l.len(), 100);
        assert!((l.mean_micros() - 50.5).abs() < 1e-6);
        assert!((l.percentile_micros(0.0) - 1.0).abs() < 1e-6);
        assert!((l.percentile_micros(1.0) - 100.0).abs() < 1e-6);
        let p50 = l.percentile_micros(0.5);
        assert!((49.0..=52.0).contains(&p50), "p50 = {p50}");
        assert!((l.max_micros() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_reexport_still_tracks_the_exact_recorder() {
        // The histogram now lives in pimtree-telemetry (where its bucketing
        // is pinned); this keeps the re-exported type interoperating with
        // the exact recorder it approximates.
        let mut exact = LatencyRecorder::new();
        let mut hist = LatencyHistogram::new();
        for i in 1..=1000u64 {
            let nanos = if i % 100 == 0 { i * 10_000 } else { i * 10 };
            exact.record(Duration::from_nanos(nanos));
            hist.record_nanos(nanos);
        }
        assert_eq!(hist.len(), 1000);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (e, h) = (exact.percentile_micros(q), hist.percentile_micros(q));
            let tolerance = (e * 0.07).max(0.002);
            assert!(
                (e - h).abs() <= tolerance,
                "q={q}: exact {e}, histogram {h}"
            );
        }
        assert_eq!(hist.max_micros(), exact.max_micros(), "max is exact");
    }

    #[test]
    fn latency_recorder_merge() {
        let mut a = LatencyRecorder::new();
        a.record(Duration::from_micros(10));
        let mut b = LatencyRecorder::new();
        b.record(Duration::from_micros(30));
        a.merge_from(&b);
        assert_eq!(a.len(), 2);
        assert!((a.mean_micros() - 20.0).abs() < 1e-6);
    }
}
