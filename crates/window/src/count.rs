//! The concurrent count-based sliding window.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use pimtree_common::{Error, Key, KeyRange, Result, Seq};

use crate::bounds::WindowBounds;

const FLAG_OCCUPIED: u8 = 0b01;
const FLAG_INDEXED: u8 = 0b10;

/// A count-based sliding window backed by a fixed-capacity ring buffer.
///
/// * Appends are performed by a single ingest thread (the join operator's
///   tuple-arrival path).
/// * The *live* window at any instant is the last `window_size` appended
///   tuples; older tuples are *expired* but their slots remain readable until
///   the ring wraps, which is what in-flight tasks of a parallel join rely on.
/// * Each slot carries an *indexed* flag; the *edge tuple* is the earliest
///   appended tuple that has not been indexed yet (§4.1). All tuples before
///   the edge are guaranteed to be present in the window's index.
///
/// Keys and flags are stored in two separate arrays: the linear window scan of
/// the parallel join reads long runs of keys while other workers concurrently
/// flip *indexed* flags, and interleaving the two in one slot struct would put
/// every flag write on a cache line that scanning threads are reading (false
/// sharing that flattens multithreaded scaling).
#[derive(Debug)]
pub struct SlidingWindow {
    keys: Vec<AtomicI64>,
    flags: Vec<AtomicU8>,
    capacity: usize,
    window_size: usize,
    /// Number of tuples ever appended == sequence number of the next tuple.
    head: CachePadded<AtomicU64>,
    /// Sequence number of the earliest non-indexed tuple.
    edge: CachePadded<AtomicU64>,
    /// Serialises edge advancement (the paper uses a test-and-set mutex).
    edge_lock: CachePadded<Mutex<()>>,
}

impl SlidingWindow {
    /// Creates a window of `window_size` live tuples with `slack` extra slots
    /// retained past expiry for in-flight readers.
    pub fn new(window_size: usize, slack: usize) -> Self {
        assert!(window_size > 0, "window size must be positive");
        // Power-of-two capacity so that slot addressing is a mask instead of a
        // division — the linear window scan of the parallel join touches many
        // slots per probe and the modulo would dominate it.
        let capacity = (window_size + slack.max(1)).next_power_of_two();
        let keys = (0..capacity).map(|_| AtomicI64::new(0)).collect();
        let flags = (0..capacity).map(|_| AtomicU8::new(0)).collect();
        SlidingWindow {
            keys,
            flags,
            capacity,
            window_size,
            head: CachePadded::new(AtomicU64::new(0)),
            edge: CachePadded::new(AtomicU64::new(0)),
            edge_lock: CachePadded::new(Mutex::new(())),
        }
    }

    /// Creates a window with the default slack used by the single-threaded
    /// operators (a small constant, since nothing outlives its expiry).
    pub fn with_default_slack(window_size: usize) -> Self {
        Self::new(window_size, 64)
    }

    /// Configured number of live tuples (`w`).
    #[inline]
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Ring-buffer capacity (`w` + slack).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn pos(&self, seq: Seq) -> usize {
        debug_assert!(self.capacity.is_power_of_two());
        (seq as usize) & (self.capacity - 1)
    }

    /// Appends a tuple, returning its sequence number.
    ///
    /// Returns [`Error::WindowFull`] if appending would overwrite a slot that
    /// is still inside the live window *and* not yet readable for reuse —
    /// which can only happen if the configured slack is smaller than the
    /// number of tuples the caller keeps in flight.
    pub fn append(&self, key: Key) -> Result<Seq> {
        let seq = self.head.load(Ordering::Relaxed);
        // The slot being reused belonged to `seq - capacity`; it must be
        // outside the live window by a margin of the slack.
        if seq >= self.capacity as u64 {
            let recycled = seq - self.capacity as u64;
            let earliest_live = seq.saturating_sub(self.window_size as u64);
            if recycled >= earliest_live {
                return Err(Error::WindowFull {
                    capacity: self.capacity,
                });
            }
        }
        let pos = self.pos(seq);
        self.keys[pos].store(key, Ordering::Relaxed);
        self.flags[pos].store(FLAG_OCCUPIED, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
        Ok(seq)
    }

    /// Number of tuples ever appended (== the next sequence number).
    #[inline]
    pub fn head(&self) -> Seq {
        self.head.load(Ordering::Acquire)
    }

    /// Sequence number of the most recently appended tuple, if any.
    pub fn latest(&self) -> Option<Seq> {
        let h = self.head();
        if h == 0 {
            None
        } else {
            Some(h - 1)
        }
    }

    /// Sequence number of the earliest *live* (non-expired) tuple.
    #[inline]
    pub fn earliest_live(&self) -> Seq {
        self.head().saturating_sub(self.window_size as u64)
    }

    /// Whether `seq` has expired from the live window.
    #[inline]
    pub fn is_expired(&self, seq: Seq) -> bool {
        seq < self.earliest_live()
    }

    /// Number of live tuples currently in the window.
    pub fn live_len(&self) -> usize {
        (self.head() - self.earliest_live()) as usize
    }

    /// Boundary snapshot `(te, tl]` of the current live window.
    pub fn bounds(&self) -> WindowBounds {
        let head = self.head();
        WindowBounds::new(head.saturating_sub(self.window_size as u64), head)
    }

    /// Key of the tuple with sequence number `seq`.
    ///
    /// The caller must ensure `seq` has been appended and its slot has not
    /// been recycled (i.e. `head() - seq <= capacity()`).
    #[inline]
    pub fn key_of(&self, seq: Seq) -> Key {
        debug_assert!(seq < self.head());
        debug_assert!((self.head() - seq) as usize <= self.capacity);
        self.keys[self.pos(seq)].load(Ordering::Relaxed)
    }

    /// Marks the tuple `seq` as inserted into the window's index.
    ///
    /// A plain `Release` store of the whole flag byte, not a read-modify-
    /// write: between its append and the recycling of its slot, the byte of
    /// `seq` has one writer after [`append`](Self::append) — the task that
    /// indexes the tuple — so there is no concurrent bit to preserve. The caller must have appended `seq`
    /// and not let its slot be recycled.
    #[inline]
    pub fn mark_indexed(&self, seq: Seq) {
        self.flags[self.pos(seq)].store(FLAG_OCCUPIED | FLAG_INDEXED, Ordering::Release);
    }

    /// Whether tuple `seq` has been marked as indexed.
    #[inline]
    pub fn is_indexed(&self, seq: Seq) -> bool {
        self.flags[self.pos(seq)].load(Ordering::Acquire) & FLAG_INDEXED != 0
    }

    /// Current edge tuple: the earliest appended tuple that is not yet
    /// indexed. Every tuple with a smaller sequence number is guaranteed to be
    /// findable through the index.
    #[inline]
    pub fn edge(&self) -> Seq {
        self.edge.load(Ordering::Acquire)
    }

    /// Length of the non-indexed window suffix (`head - edge`).
    ///
    /// This is the admission-control signal of the parallel engine's task
    /// ring: ingestion stalls while the suffix exceeds its bound, because
    /// every probe's linear scan covers the suffix and would otherwise grow
    /// without limit while a merge defers index updates. The two loads are
    /// not one atomic snapshot; the edge can only trail the head, so the
    /// returned length may be momentarily over-estimated (head advanced
    /// in between), which errs on the side of admitting less — never more.
    #[inline]
    pub fn unindexed_len(&self) -> u64 {
        let head = self.head();
        head.saturating_sub(self.edge.load(Ordering::Acquire))
    }

    /// Attempts to advance the edge tuple past consecutively indexed tuples.
    ///
    /// Mirrors the paper's test-and-set scheme: if another thread currently
    /// holds the edge lock the call returns `false` immediately and the caller
    /// simply moves on — the holder will advance the edge for everyone.
    pub fn try_advance_edge(&self) -> bool {
        let Some(_guard) = self.edge_lock.try_lock() else {
            return false;
        };
        let head = self.head();
        let mut edge = self.edge.load(Ordering::Relaxed);
        while edge < head && self.is_indexed(edge) {
            edge += 1;
        }
        self.edge.store(edge, Ordering::Release);
        true
    }

    /// Linearly scans tuples with sequence numbers in `[from, to)` whose keys
    /// fall into `range`, invoking `f(seq, key)` for each. Returns the number
    /// of slots examined (used for memory-traffic accounting).
    ///
    /// This is the "linear search from the edge tuple" of §4.1.
    pub fn scan_linear<F: FnMut(Seq, Key)>(
        &self,
        from: Seq,
        to: Seq,
        range: KeyRange,
        mut f: F,
    ) -> usize {
        let mut examined = 0;
        let mut seq = from;
        while seq < to {
            let key = self.key_of(seq);
            examined += 1;
            if range.contains(key) {
                f(seq, key);
            }
            seq += 1;
        }
        examined
    }

    /// The linear scans of a whole batch of probes taken under one `edge`
    /// snapshot, in one pass over the suffix: probe `j` gets `f(j, seq, key)`
    /// for every tuple of its scan span — `[scan_start, latest_exclusive)` of
    /// `bounds[j]` under `edge` — whose key falls into `ranges[j]`, in
    /// ascending `seq`, exactly what one [`scan_linear`](Self::scan_linear)
    /// per probe reports. Returns what those scans would: the slots examined
    /// summed over the probes' spans — the logical memory traffic, which does
    /// not depend on how the probes were batched (the pass itself loads each
    /// slot of the spans' union once).
    ///
    /// The un-indexed suffix grows with the tuples in flight (threads × batch)
    /// and so does the batch, so per-probe scans cost their product; here each
    /// suffix key is loaded once and binary-searched into the ranges ordered
    /// by `lo`, then walked back over the ranges that can still contain it
    /// (`lo` within the widest range's width of the key). `order` is scratch
    /// the caller keeps to save the allocation.
    pub fn scan_suffix<F: FnMut(usize, Seq, Key)>(
        &self,
        edge: Seq,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
        order: &mut Vec<(Key, usize)>,
        mut f: F,
    ) -> usize {
        debug_assert_eq!(ranges.len(), bounds.len());
        let span = |b: &WindowBounds| (b.scan_start(b.index_horizon(edge)), b.latest_exclusive);
        let (mut from, mut to, mut examined) = (Seq::MAX, 0, 0);
        for (start, end) in bounds.iter().map(span) {
            if start < end {
                from = from.min(start);
                to = to.max(end);
                examined += (end - start) as usize;
            }
        }
        if from >= to {
            return 0;
        }
        order.clear();
        order.extend(ranges.iter().enumerate().map(|(j, r)| (r.lo, j)));
        // Ranges that arrive ordered by `lo` (the engine sorts each batch by
        // key) need no sort; a linear check is all they pay.
        if !order.is_sorted() {
            order.sort_unstable();
        }
        // Widths and key distances are taken as wrapped differences read as
        // `u64`: exact for `lo <= hi` and `lo <= key` over the whole `Key`
        // domain, where `hi - lo` itself overflows for `[Key::MIN, Key::MAX]`.
        let widest = ranges
            .iter()
            .map(|r| r.hi.wrapping_sub(r.lo) as u64)
            .max()
            .unwrap_or(0);
        for seq in from..to {
            let key = self.key_of(seq);
            let mut i = order.partition_point(|&(lo, _)| lo <= key);
            while i > 0 {
                i -= 1;
                let (lo, j) = order[i];
                if key.wrapping_sub(lo) as u64 > widest {
                    break;
                }
                let (start, end) = span(&bounds[j]);
                if key <= ranges[j].hi && start <= seq && seq < end {
                    f(j, seq, key);
                }
            }
        }
        examined
    }

    /// Returns the keys of all live tuples, oldest first (used by NLWJ and by
    /// the merge step to rebuild `TS` from live tuples only).
    pub fn live_tuples(&self) -> Vec<(Seq, Key)> {
        let b = self.bounds();
        (b.earliest..b.latest_exclusive)
            .map(|seq| (seq, self.key_of(seq)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let w = SlidingWindow::new(4, 16);
        for i in 0..4i64 {
            let seq = w.append(i * 10).unwrap();
            assert_eq!(seq, i as u64);
        }
        assert_eq!(w.head(), 4);
        assert_eq!(w.latest(), Some(3));
        assert_eq!(w.earliest_live(), 0);
        assert_eq!(w.live_len(), 4);
        for i in 0..4u64 {
            assert_eq!(w.key_of(i), i as i64 * 10);
        }
    }

    #[test]
    fn expiry_is_count_based() {
        let w = SlidingWindow::new(4, 16);
        for i in 0..10i64 {
            w.append(i).unwrap();
        }
        assert_eq!(w.earliest_live(), 6);
        assert!(w.is_expired(5));
        assert!(!w.is_expired(6));
        assert_eq!(w.live_len(), 4);
        let live = w.live_tuples();
        assert_eq!(live, vec![(6, 6), (7, 7), (8, 8), (9, 9)]);
    }

    #[test]
    fn empty_window_basics() {
        let w = SlidingWindow::new(8, 8);
        assert_eq!(w.latest(), None);
        assert_eq!(w.live_len(), 0);
        assert!(w.bounds().is_empty());
        assert_eq!(w.edge(), 0);
    }

    #[test]
    fn ring_reuse_respects_slack() {
        let w = SlidingWindow::new(4, 4);
        // capacity = 8; we can append indefinitely as long as the recycled
        // slot is already expired.
        for i in 0..100i64 {
            w.append(i).unwrap();
        }
        assert_eq!(w.live_len(), 4);
        // Keys of live tuples are still correct after many wraps.
        assert_eq!(
            w.live_tuples(),
            vec![(96, 96), (97, 97), (98, 98), (99, 99)]
        );
    }

    #[test]
    fn window_full_when_slack_exhausted() {
        // window_size 4, slack 1 -> capacity 5. Appending the 6th tuple would
        // recycle seq 0... which is expired once head = 5 (earliest_live = 1),
        // so appends keep succeeding; WindowFull only triggers if the recycled
        // slot were still live, which requires capacity < window (prevented by
        // construction) — so exercise the guard through the dedicated check.
        let w = SlidingWindow::new(4, 1);
        for i in 0..50i64 {
            assert!(w.append(i).is_ok(), "append {i}");
        }
    }

    #[test]
    fn indexed_flags_and_edge_advance() {
        let w = SlidingWindow::new(8, 8);
        for i in 0..6i64 {
            w.append(i).unwrap();
        }
        assert_eq!(w.edge(), 0);
        // Index tuples 0, 1 and 3 (out of order, as parallel workers would).
        w.mark_indexed(1);
        w.mark_indexed(3);
        assert!(w.try_advance_edge());
        assert_eq!(w.edge(), 0, "tuple 0 not indexed yet, edge cannot move");
        w.mark_indexed(0);
        assert!(w.try_advance_edge());
        assert_eq!(w.edge(), 2, "edge stops at the first non-indexed tuple");
        w.mark_indexed(2);
        assert!(w.try_advance_edge());
        assert_eq!(w.edge(), 4);
        assert!(w.is_indexed(3));
        assert!(!w.is_indexed(4));
    }

    #[test]
    fn unindexed_len_tracks_head_minus_edge() {
        let w = SlidingWindow::new(8, 8);
        assert_eq!(w.unindexed_len(), 0);
        for i in 0..5i64 {
            w.append(i).unwrap();
        }
        assert_eq!(w.unindexed_len(), 5);
        for seq in 0..3u64 {
            w.mark_indexed(seq);
        }
        assert!(w.try_advance_edge());
        assert_eq!(w.unindexed_len(), 2);
        w.mark_indexed(3);
        w.mark_indexed(4);
        assert!(w.try_advance_edge());
        assert_eq!(w.unindexed_len(), 0);
    }

    #[test]
    fn edge_never_passes_head() {
        let w = SlidingWindow::new(8, 8);
        for i in 0..3i64 {
            let s = w.append(i).unwrap();
            w.mark_indexed(s);
        }
        assert!(w.try_advance_edge());
        assert_eq!(w.edge(), 3);
        assert_eq!(w.head(), 3);
    }

    #[test]
    fn scan_linear_filters_by_key_range() {
        let w = SlidingWindow::new(16, 16);
        for i in 0..10i64 {
            w.append(i * 5).unwrap();
        }
        let mut hits = Vec::new();
        let examined = w.scan_linear(2, 8, KeyRange::new(14, 31), |seq, key| {
            hits.push((seq, key))
        });
        assert_eq!(examined, 6);
        assert_eq!(hits, vec![(3, 15), (4, 20), (5, 25), (6, 30)]);
        // Empty scan range.
        assert_eq!(
            w.scan_linear(5, 5, KeyRange::new(0, 100), |_, _| panic!()),
            0
        );
    }

    /// What `scan_suffix` must report: one `scan_linear` per probe over the
    /// probe's own scan span, and the slots those scans examine.
    fn per_probe_scans(
        w: &SlidingWindow,
        edge: Seq,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
    ) -> (Vec<Vec<(Seq, Key)>>, usize) {
        let mut examined = 0;
        let hits = ranges
            .iter()
            .zip(bounds)
            .map(|(&range, b)| {
                let start = b.scan_start(b.index_horizon(edge));
                let mut hits = Vec::new();
                examined += w.scan_linear(start, b.latest_exclusive, range, |seq, key| {
                    hits.push((seq, key))
                });
                hits
            })
            .collect();
        (hits, examined)
    }

    fn suffix_scan(
        w: &SlidingWindow,
        edge: Seq,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
    ) -> (Vec<Vec<(Seq, Key)>>, usize) {
        let mut hits = vec![Vec::new(); ranges.len()];
        // Stale content: the pass must not depend on what the scratch held.
        let mut order = vec![(7, 99)];
        let examined = w.scan_suffix(edge, ranges, bounds, &mut order, |j, seq, key| {
            hits[j].push((seq, key))
        });
        (hits, examined)
    }

    #[test]
    fn scan_suffix_matches_per_probe_scans_at_the_edges() {
        let w = SlidingWindow::new(16, 16);
        let keys = [
            Key::MIN,
            5,
            5,
            Key::MAX,
            -3,
            5,
            Key::MAX - 1,
            0,
            Key::MIN + 1,
            12,
        ];
        for key in keys {
            w.append(key).unwrap();
        }
        let whole = KeyRange::new(Key::MIN, Key::MAX);
        let cases: Vec<(Seq, Vec<KeyRange>, Vec<WindowBounds>)> = vec![
            // Batch of one over the whole key domain (the width must not wrap).
            (2, vec![whole], vec![WindowBounds::new(0, 10)]),
            // Mixed widths, duplicate ranges, a different `latest` per probe.
            (
                3,
                vec![
                    KeyRange::point(5),
                    whole,
                    KeyRange::new(Key::MAX - 1, Key::MAX),
                    KeyRange::point(5),
                    KeyRange::new(Key::MIN, -3),
                    KeyRange::new(-3, 12),
                ],
                vec![
                    WindowBounds::new(0, 10),
                    WindowBounds::new(1, 7),
                    WindowBounds::new(0, 4),
                    WindowBounds::new(4, 6),
                    WindowBounds::new(0, 9),
                    WindowBounds::new(2, 10),
                ],
            ),
            // Edge behind `earliest`: the expired prefix must not match.
            (
                0,
                vec![whole, KeyRange::point(5)],
                vec![WindowBounds::new(4, 10), WindowBounds::new(6, 8)],
            ),
            // Empty suffix: the edge is at or past every `latest`.
            (
                10,
                vec![whole, whole],
                vec![WindowBounds::new(0, 10), WindowBounds::new(3, 6)],
            ),
            // One probe with a suffix, one without.
            (
                6,
                vec![whole, whole],
                vec![WindowBounds::new(0, 5), WindowBounds::new(0, 9)],
            ),
            (4, vec![], vec![]),
        ];
        for (edge, ranges, bounds) in cases {
            assert_eq!(
                suffix_scan(&w, edge, &ranges, &bounds),
                per_probe_scans(&w, edge, &ranges, &bounds),
                "edge {edge}, ranges {ranges:?}, bounds {bounds:?}"
            );
        }
        // Nothing to scan means nothing examined and nothing sorted.
        assert_eq!(
            suffix_scan(&w, 10, &[whole], &[WindowBounds::new(0, 10)]).1,
            0
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Spreads a small draw over the key domain's corners and a dense
        /// middle, so duplicates and `Key::MIN`/`Key::MAX` both come up.
        fn key_of_draw(k: i64) -> Key {
            match k {
                0 => Key::MIN,
                1 => Key::MIN + 1,
                38 => Key::MAX - 1,
                39 => Key::MAX,
                k => (k - 20) * 2,
            }
        }

        proptest! {
            #[test]
            #[cfg_attr(miri, ignore)]
            fn scan_suffix_equals_one_scan_linear_per_probe(
                keys in proptest::collection::vec(0i64..40, 0..60),
                probes in proptest::collection::vec(
                    (0i64..40, 0usize..5, 0u64..101, 0u64..101),
                    1..12,
                ),
                edge_pct in 0u64..121,
            ) {
                let w = SlidingWindow::new(64, 64);
                for &k in &keys {
                    w.append(key_of_draw(k)).unwrap();
                }
                let head = keys.len() as u64;
                let mut ranges = Vec::new();
                let mut bounds = Vec::new();
                for &(lo, width, earliest_pct, len_pct) in &probes {
                    let lo = key_of_draw(lo);
                    ranges.push(match width {
                        0 => KeyRange::point(lo),
                        1 => KeyRange::new(lo, lo.saturating_add(2)),
                        2 => KeyRange::new(lo, lo.saturating_add(10)),
                        3 => KeyRange::new(lo, Key::MAX),
                        _ => KeyRange::new(Key::MIN, Key::MAX),
                    });
                    let earliest = head * earliest_pct / 100;
                    let latest = earliest + (head - earliest) * len_pct / 100;
                    bounds.push(WindowBounds::new(earliest, latest));
                }
                let edge = head * edge_pct / 100;
                prop_assert_eq!(
                    suffix_scan(&w, edge, &ranges, &bounds),
                    per_probe_scans(&w, edge, &ranges, &bounds)
                );
            }
        }
    }

    #[test]
    fn bounds_snapshot_reflects_live_window() {
        let w = SlidingWindow::new(4, 8);
        for i in 0..7i64 {
            w.append(i).unwrap();
        }
        let b = w.bounds();
        assert_eq!(b.earliest, 3);
        assert_eq!(b.latest_exclusive, 7);
        assert_eq!(b.len(), 4);
        assert!(b.contains(3));
        assert!(!b.contains(7));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // eight threads over 1024 slots
    fn concurrent_mark_and_advance() {
        use std::sync::Arc;
        let w = Arc::new(SlidingWindow::new(1024, 1024));
        for i in 0..1024i64 {
            w.append(i).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let w = w.clone();
            handles.push(std::thread::spawn(move || {
                for seq in (t..1024).step_by(8) {
                    w.mark_indexed(seq);
                    w.try_advance_edge();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        w.try_advance_edge();
        assert_eq!(w.edge(), 1024);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_rejected() {
        let _ = SlidingWindow::new(0, 8);
    }
}
