//! Measurement utilities: per-step cost breakdowns and latency.
//!
//! Figure 9b of the paper splits the per-tuple cost of index-based window join
//! into *search*, *scan*, *insert*, *delete* and *merge* time. [`CostBreakdown`]
//! accumulates exactly those buckets. [`LatencyHistogram`] backs the latency
//! series (Figure 10d) and the engine's open-loop arrival tail.

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
    /// Probe ranges submitted across all batches.
    pub batched_keys: u64,
    /// Largest single batch submitted.
    pub max_batch: u64,
    /// Node key blocks (inner nodes and leaf groups) software-prefetched
    /// ahead of the group descent.
    pub nodes_prefetched: u64,
    /// Probes answered one range at a time by an index without a group
    /// probe: every backend but the shared PIM-Tree (Bw-Tree, chained,
    /// B+-Tree, IM-Tree, and the single-threaded operator's exclusively
    /// owned PIM-Tree).
    pub scalar_probes: u64,
    /// Mutable-partition (`TI`) locks taken by the batched probe path, which
    /// groups a batch's ranges per partition so every overlapping
    /// partition is locked once per batch instead of once per range.
    pub ti_partition_locks: u64,
    /// Range-over-partition probes answered by the batched `TI` path. The
    /// difference to `ti_partition_locks` is the number of lock round-trips
    /// the per-partition grouping saved.
    pub ti_range_visits: u64,
    /// Intra-node lower bounds taken by the group descent, whichever form
    /// of the node-search kernel the CPU selected.
    pub node_searches: u64,
}

impl ProbeCounters {
    /// Folds another worker's counters into this one. Every field is summed
    /// (except `max_batch`, which is a maximum) so that per-worker counters
    /// aggregate losslessly no matter how many workers report.
    pub fn merge_from(&mut self, other: &ProbeCounters) {
        self.batches += other.batches;
        self.batched_keys += other.batched_keys;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.nodes_prefetched += other.nodes_prefetched;
        self.scalar_probes += other.scalar_probes;
        self.ti_partition_locks += other.ti_partition_locks;
        self.ti_range_visits += other.ti_range_visits;
        self.node_searches += other.node_searches;
    }

    /// Mean keys per batched probe call.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_keys as f64 / self.batches as f64
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
        self.record_n(d, 1);
    }

    /// Records `n` samples of the same latency (the tuples of one batch).
    /// A duration beyond `u64::MAX` nanoseconds saturates.
    #[inline]
    pub fn record_n(&mut self, d: Duration, n: u64) {
        self.add(d.as_nanos().min(u64::MAX as u128) as u64, n);
    }

    /// Records one latency sample given in nanoseconds.
    #[inline]
    pub fn record_nanos(&mut self, nanos: u64) {
        self.add(nanos, 1);
    }

    #[inline]
    fn add(&mut self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(nanos)] += n;
        self.count += n;
        self.sum_nanos += nanos as u128 * n as u128;
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

        // `record_n(d, n)` is `n` calls of `record(d)`.
        let mut batched = LatencyHistogram::new();
        let mut one_by_one = LatencyHistogram::new();
        for (i, n) in [3u64, 1, 64, 7, 1000].into_iter().enumerate() {
            let d = Duration::from_nanos(13 + 7_919 * i as u64 * i as u64);
            batched.record_n(d, n);
            for _ in 0..n {
                one_by_one.record(d);
            }
        }
        assert_eq!(batched.len(), one_by_one.len());
        assert_eq!(batched.mean_micros(), one_by_one.mean_micros());
        assert_eq!(batched.max_micros(), one_by_one.max_micros());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                batched.percentile_micros(q),
                one_by_one.percentile_micros(q)
            );
        }
        let mut empty = LatencyHistogram::new();
        empty.record_n(Duration::from_secs(1), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.max_micros(), 0.0);
        assert_eq!(empty.mean_micros(), 0.0);
        let mut huge = LatencyHistogram::new();
        huge.record_n(Duration::MAX, 2);
        assert_eq!(huge.len(), 2);
        assert_eq!(huge.max_micros(), u64::MAX as f64 / 1.0e3, "saturates");
    }
}
