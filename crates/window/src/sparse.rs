//! Per-shard sliding-window slices for the partitioned index store.
//!
//! When the parallel engine partitions its index and window state per shard
//! (the `ShardStore` layer of `pimtree-join`), each shard keeps only the
//! tuples whose keys fall into its key range — a *subsequence* of the side's
//! global arrival order. [`SlidingWindow`](crate::SlidingWindow) cannot hold
//! such a slice: its ring addresses slots by the dense global sequence
//! number. [`ShardWindow`] stores explicit `(seq, key)` pairs instead, in
//! local append order (which is ascending in the global sequence number), and
//! re-implements the window protocol over the sparse slice:
//!
//! * **Expiry stays global.** A tuple expires when `w` newer tuples of its
//!   *side* have arrived, regardless of which shard they were routed to, so
//!   every liveness query takes the global sequence horizon as a parameter
//!   instead of deriving it from the local count.
//! * **The edge tuple is per shard.** All local entries before the shard's
//!   edge are guaranteed to be in the *shard's* index, so a probe of this
//!   shard splits at the shard's own edge: index lookups below it, a linear
//!   scan of the local suffix above it. A stale edge only lengthens the scan
//!   (§4.1), exactly as with the shared window.
//! * **Slots stay readable past expiry.** Like the shared window, the ring
//!   retains `slack` extra slots so in-flight tasks can still scan tuples
//!   that expired after their bounds snapshot was taken. The local slice is
//!   never denser than the global stream, so the same slack budget suffices.
//!
//! Appends are serialised by the store's ingest path (single writer); scans,
//! indexed-flag updates and edge advancement run concurrently from any number
//! of worker threads.

use crossbeam::utils::CachePadded;
use pimtree_common::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use pimtree_common::sync::Mutex;
use pimtree_common::{Error, Key, KeyRange, Result, Seq};

const FLAG_INDEXED: u8 = 0b1;

/// One shard's slice of a sliding window: the `(seq, key)` subsequence routed
/// to the shard, with per-entry *indexed* flags, a shard-local edge tuple and
/// an eager-expiry cursor. See the module documentation for the protocol.
#[derive(Debug)]
pub struct ShardWindow {
    seqs: Vec<AtomicU64>,
    keys: Vec<AtomicI64>,
    flags: Vec<AtomicU8>,
    capacity: usize,
    window_size: usize,
    /// Number of local entries ever appended (the local append cursor).
    len: CachePadded<AtomicU64>,
    /// Local index of the earliest local entry not yet marked indexed.
    edge_idx: CachePadded<AtomicU64>,
    /// Serialises edge advancement (the paper's test-and-set scheme).
    edge_lock: CachePadded<Mutex<()>>,
    /// Local index of the next entry the eager-expiry cursor will report.
    expire_cursor: Mutex<u64>,
}

impl ShardWindow {
    /// Creates a shard slice of a window of `window_size` live tuples with
    /// `slack` extra slots retained past expiry for in-flight readers. The
    /// capacity covers the worst case of every key routing to this shard.
    pub fn new(window_size: usize, slack: usize) -> Self {
        assert!(window_size > 0, "window size must be positive");
        let capacity = (window_size + slack.max(1)).next_power_of_two();
        ShardWindow {
            seqs: (0..capacity).map(|_| AtomicU64::new(u64::MAX)).collect(),
            keys: (0..capacity).map(|_| AtomicI64::new(0)).collect(),
            flags: (0..capacity).map(|_| AtomicU8::new(0)).collect(),
            capacity,
            window_size,
            len: CachePadded::new(AtomicU64::new(0)),
            edge_idx: CachePadded::new(AtomicU64::new(0)),
            edge_lock: CachePadded::new(Mutex::new(())),
            expire_cursor: Mutex::new(0),
        }
    }

    /// Configured number of live tuples (`w`) of the *global* window this
    /// shard holds a slice of.
    #[inline]
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Ring-buffer capacity of the local slice.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn pos(&self, local_idx: u64) -> usize {
        debug_assert!(self.capacity.is_power_of_two());
        (local_idx as usize) & (self.capacity - 1)
    }

    #[inline]
    fn seq_at(&self, local_idx: u64) -> Seq {
        self.seqs[self.pos(local_idx)].load(Ordering::Relaxed)
    }

    /// Appends the tuple `(seq, key)` to the local slice. `seq` is the global
    /// sequence number assigned by the side's ingest path and must be larger
    /// than every previously appended one; `earliest_keep` is the side's
    /// current expiry horizon (the oldest live sequence number). Slots below
    /// it stay readable for up to `slack` further appends — in-flight
    /// readers rely on that — so the caller must not pass anything *below*
    /// the horizon to "reclaim" slots early.
    ///
    /// Returns [`Error::WindowFull`] if appending would recycle a slot whose
    /// entry is at or past `earliest_keep` (i.e. still live) — which can
    /// only happen when the configured slack is smaller than the number of
    /// tuples the caller keeps in flight.
    pub fn append(&self, seq: Seq, key: Key, earliest_keep: Seq) -> Result<()> {
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.capacity as u64 {
            let recycled = self.seq_at(len); // == seq_at(len - capacity)
            if recycled >= earliest_keep {
                return Err(Error::WindowFull {
                    capacity: self.capacity,
                });
            }
        }
        debug_assert!(len == 0 || self.seq_at(len - 1) < seq);
        let pos = self.pos(len);
        self.seqs[pos].store(seq, Ordering::Relaxed);
        self.keys[pos].store(key, Ordering::Relaxed);
        self.flags[pos].store(0, Ordering::Release);
        self.len.store(len + 1, Ordering::Release);
        Ok(())
    }

    /// Number of entries ever appended to the local slice.
    #[inline]
    pub fn local_len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Oldest local index whose slot is guaranteed not to have been recycled.
    #[inline]
    fn floor(&self, len: u64) -> u64 {
        len.saturating_sub(self.capacity as u64)
    }

    /// Smallest local index whose entry has `seq >= from`, found by walking
    /// backwards from the append cursor. Walking backwards (instead of a
    /// binary search) is what makes the lookup safe against concurrent slot
    /// recycling: a recycled slot carries a *newer* sequence number, so the
    /// walk can only over-extend downwards, never skip a live entry, and the
    /// forward consumer re-filters by sequence number anyway.
    fn lower_bound(&self, from: Seq, len: u64) -> u64 {
        let floor = self.floor(len);
        let mut idx = len;
        while idx > floor && self.seq_at(idx - 1) >= from {
            idx -= 1;
        }
        idx
    }

    /// Marks the local entry carrying global sequence number `seq` as
    /// inserted into the shard's index. Returns whether the entry was found
    /// (it always is while the engine's slack budget holds).
    pub fn mark_indexed(&self, seq: Seq) -> bool {
        let len = self.len.load(Ordering::Acquire);
        let floor = self.floor(len);
        // Binary search over the local slice; entries are ascending in `seq`
        // except for slots recycled during the search, which carry *newer*
        // sequence numbers. The exact-match validation below catches any
        // position the corruption may have skewed, falling back to the
        // recycle-safe backward walk.
        let (mut lo, mut hi) = (floor, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seq_at(mid) < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < len && self.seq_at(lo) == seq {
            self.flags[self.pos(lo)].fetch_or(FLAG_INDEXED, Ordering::Release);
            return true;
        }
        let mut idx = len;
        while idx > floor {
            idx -= 1;
            let s = self.seq_at(idx);
            if s == seq {
                self.flags[self.pos(idx)].fetch_or(FLAG_INDEXED, Ordering::Release);
                return true;
            }
            if s < seq {
                break;
            }
        }
        false
    }

    /// Global sequence number of the shard's edge tuple: every local entry
    /// with a smaller sequence number is guaranteed to be in the shard's
    /// index. [`Seq::MAX`] when every local entry is indexed — for this
    /// shard the index covers the entire probe range.
    pub fn edge_seq(&self) -> Seq {
        let len = self.len.load(Ordering::Acquire);
        let edge = self.edge_idx.load(Ordering::Acquire).min(len);
        if edge >= len {
            Seq::MAX
        } else {
            self.seq_at(edge)
        }
    }

    /// Number of local entries in the non-indexed suffix (`local_len` minus
    /// the edge index) — this shard's contribution to the side's
    /// admission-control bound.
    #[inline]
    pub fn unindexed_len(&self) -> u64 {
        let len = self.len.load(Ordering::Acquire);
        len.saturating_sub(self.edge_idx.load(Ordering::Acquire).min(len))
    }

    /// Attempts to advance the shard's edge past consecutively indexed local
    /// entries; returns `false` immediately when another thread holds the
    /// edge lock (the holder advances for everyone).
    pub fn try_advance_edge(&self) -> bool {
        let Some(_guard) = self.edge_lock.try_lock() else {
            return false;
        };
        let len = self.len.load(Ordering::Acquire);
        let mut edge = self.edge_idx.load(Ordering::Relaxed);
        while edge < len && self.flags[self.pos(edge)].load(Ordering::Acquire) & FLAG_INDEXED != 0 {
            edge += 1;
        }
        self.edge_idx.store(edge, Ordering::Release);
        true
    }

    /// Linearly scans local entries with global sequence numbers in
    /// `[from, to)` whose keys fall into `range`, invoking `f(seq, key)` for
    /// each in ascending sequence order. Returns the number of slots
    /// examined (for memory-traffic accounting).
    pub fn scan_linear<F: FnMut(Seq, Key)>(
        &self,
        from: Seq,
        to: Seq,
        range: KeyRange,
        mut f: F,
    ) -> usize {
        if from >= to {
            return 0;
        }
        let len = self.len.load(Ordering::Acquire);
        let start = self.lower_bound(from, len);
        let mut examined = 0;
        for idx in start..len {
            let seq = self.seq_at(idx);
            examined += 1;
            // Entries past `to` were appended after the task's bounds
            // snapshot; entries below `from` can only appear here when their
            // slot was recycled mid-walk (carrying a newer seq at walk time).
            // Filtering instead of breaking keeps both races harmless.
            if seq < from || seq >= to {
                continue;
            }
            let key = self.keys[self.pos(idx)].load(Ordering::Relaxed);
            if range.contains(key) {
                f(seq, key);
            }
        }
        examined
    }

    /// Advances the eager-expiry cursor: reports `f(key, seq)` once for every
    /// local entry with `seq < upto` not reported before, in ascending
    /// sequence order. Backends with eager expiry deletion (the Bw-Tree)
    /// drive their per-shard deletions through this — each shard retires
    /// exactly its own slice, so a tuple is never deleted from (or left
    /// behind in) another shard's index.
    pub fn expire_eager<F: FnMut(Key, Seq)>(&self, upto: Seq, mut f: F) {
        let mut cursor = self.expire_cursor.lock();
        let len = self.len.load(Ordering::Acquire);
        let floor = self.floor(len);
        if *cursor < floor {
            // Slots recycled before the cursor reached them; their entries
            // expired long ago (the slack budget guarantees it).
            *cursor = floor;
        }
        while *cursor < len {
            let seq = self.seq_at(*cursor);
            if seq >= upto {
                break;
            }
            f(self.keys[self.pos(*cursor)].load(Ordering::Relaxed), seq);
            *cursor += 1;
        }
    }

    /// Collects the resident local entries with `seq >= keep` — `(seq, key,
    /// indexed)` ascending in `seq` — found by walking back from the append
    /// cursor, so entries below `keep` are never copied; `keep = 0` takes
    /// every resident entry, including those past the expiry horizon that
    /// the slack budget still keeps readable. This is the migration path's
    /// view of the slice: the caller must hold the engine quiescent (no
    /// concurrent appends, scans or flag updates), so the snapshot is exact.
    pub fn snapshot(&self, keep: Seq) -> Vec<(Seq, Key, bool)> {
        let len = self.len.load(Ordering::Acquire);
        (self.lower_bound(keep, len)..len)
            .map(|idx| {
                let pos = self.pos(idx);
                (
                    self.seqs[pos].load(Ordering::Relaxed),
                    self.keys[pos].load(Ordering::Relaxed),
                    self.flags[pos].load(Ordering::Relaxed) & FLAG_INDEXED != 0,
                )
            })
            .collect()
    }

    /// Builds a fresh shard slice holding `entries` — `(seq, key, indexed)`
    /// strictly ascending in `seq` — the migration path's constructor when a
    /// repartition moves window tuples to a new owner shard. The entries are
    /// written straight into the slots, indexed flags preserved; the edge is
    /// the first non-indexed entry, and the eager-expiry cursor restarts at
    /// the oldest entry: a re-reported already-deleted entry is a harmless
    /// no-op removal, whereas skipping a migrated entry would leak it in an
    /// eager-deletion index.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not fit the capacity implied by
    /// `window_size + slack` (the migration keep-horizon guarantees they do)
    /// or are not strictly ascending.
    pub fn from_entries(window_size: usize, slack: usize, entries: &[(Seq, Key, bool)]) -> Self {
        let mut w = ShardWindow::new(window_size, slack);
        assert!(
            entries.len() <= w.capacity,
            "{} migrated entries exceed the shard window capacity {}",
            entries.len(),
            w.capacity
        );
        assert!(
            entries.windows(2).all(|p| p[0].0 < p[1].0),
            "migrated entries must be strictly ascending in seq"
        );
        for (i, &(seq, key, indexed)) in entries.iter().enumerate() {
            *w.seqs[i].get_mut() = seq;
            *w.keys[i].get_mut() = key;
            *w.flags[i].get_mut() = if indexed { FLAG_INDEXED } else { 0 };
        }
        let edge = entries.iter().position(|&(_, _, indexed)| !indexed);
        *w.len.get_mut() = entries.len() as u64;
        *w.edge_idx.get_mut() = edge.unwrap_or(entries.len()) as u64;
        w
    }

    /// Collects the local entries that are still live under the global expiry
    /// horizon `earliest_live`, oldest first (footprint inspection; not on
    /// the hot path).
    pub fn live_entries(&self, earliest_live: Seq) -> Vec<(Seq, Key)> {
        let len = self.len.load(Ordering::Acquire);
        let start = self.lower_bound(earliest_live, len);
        let mut out = Vec::new();
        for idx in start..len {
            let seq = self.seq_at(idx);
            if seq < earliest_live {
                continue;
            }
            out.push((seq, self.keys[self.pos(idx)].load(Ordering::Relaxed)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(w: usize, slack: usize) -> ShardWindow {
        ShardWindow::new(w, slack)
    }

    #[test]
    fn append_and_scan_sparse_subsequence() {
        let w = window(16, 16);
        // A shard slice: every third global sequence number.
        for i in 0..10u64 {
            w.append(i * 3, (i * 3) as Key, 0).unwrap();
        }
        assert_eq!(w.local_len(), 10);
        let mut hits = Vec::new();
        let examined = w.scan_linear(4, 20, KeyRange::new(0, 100), |seq, key| {
            hits.push((seq, key));
        });
        assert!(examined >= hits.len());
        assert_eq!(hits, vec![(6, 6), (9, 9), (12, 12), (15, 15), (18, 18)]);
        // Key filtering applies on top of the sequence filter.
        let mut filtered = Vec::new();
        w.scan_linear(0, 100, KeyRange::new(9, 12), |seq, key| {
            filtered.push((seq, key));
        });
        assert_eq!(filtered, vec![(9, 9), (12, 12)]);
        // Empty scan ranges examine nothing.
        assert_eq!(
            w.scan_linear(5, 5, KeyRange::new(0, 100), |_, _| panic!()),
            0
        );
    }

    #[test]
    fn edge_tracks_indexed_prefix_of_the_local_slice() {
        let w = window(16, 16);
        for seq in [2u64, 5, 9, 14] {
            w.append(seq, seq as Key, 0).unwrap();
        }
        assert_eq!(w.edge_seq(), 2);
        assert_eq!(w.unindexed_len(), 4);
        // Mark out of order, as parallel workers would.
        assert!(w.mark_indexed(5));
        assert!(w.try_advance_edge());
        assert_eq!(w.edge_seq(), 2, "entry 2 not indexed, edge cannot move");
        assert!(w.mark_indexed(2));
        assert!(w.try_advance_edge());
        assert_eq!(w.edge_seq(), 9);
        assert_eq!(w.unindexed_len(), 2);
        assert!(w.mark_indexed(9));
        assert!(w.mark_indexed(14));
        assert!(w.try_advance_edge());
        assert_eq!(w.edge_seq(), Seq::MAX, "fully indexed slice");
        assert_eq!(w.unindexed_len(), 0);
        // Unknown sequence numbers are reported, not silently marked.
        assert!(!w.mark_indexed(7));
    }

    #[test]
    fn eager_expiry_reports_each_entry_once_in_order() {
        let w = window(8, 8);
        for seq in [1u64, 4, 6, 11, 13] {
            w.append(seq, (seq * 10) as Key, 0).unwrap();
        }
        let mut expired = Vec::new();
        w.expire_eager(6, |key, seq| expired.push((seq, key)));
        assert_eq!(expired, vec![(1, 10), (4, 40)]);
        // A second call with the same horizon reports nothing new.
        w.expire_eager(6, |_, _| panic!("already expired"));
        let mut more = Vec::new();
        w.expire_eager(100, |key, seq| more.push((seq, key)));
        assert_eq!(more, vec![(6, 60), (11, 110), (13, 130)]);
    }

    #[test]
    fn live_entries_honour_the_global_horizon() {
        let w = window(4, 8);
        for seq in [3u64, 7, 8, 12] {
            w.append(seq, seq as Key, 0).unwrap();
        }
        assert_eq!(w.live_entries(0).len(), 4);
        assert_eq!(w.live_entries(8), vec![(8, 8), (12, 12)]);
        assert!(w.live_entries(100).is_empty());
    }

    #[test]
    fn ring_reuse_keeps_recent_entries_readable() {
        let w = window(4, 4); // capacity 8
        for i in 0..100u64 {
            // Recycled entries are far below the keep horizon.
            w.append(i, i as Key, i.saturating_sub(4)).unwrap();
        }
        assert_eq!(
            w.live_entries(96),
            (96..100).map(|s| (s, s as Key)).collect::<Vec<_>>()
        );
        let mut hits = Vec::new();
        w.scan_linear(97, 99, KeyRange::new(0, 1000), |seq, _| hits.push(seq));
        assert_eq!(hits, vec![97, 98]);
    }

    #[test]
    fn append_refuses_to_recycle_kept_entries() {
        let w = window(4, 4); // capacity 8
        for i in 0..8u64 {
            w.append(i, 0, 0).unwrap();
        }
        // Keeping everything from seq 0 on: the ninth append would recycle
        // entry 0, which the caller still wants readable.
        assert!(w.append(8, 0, 0).is_err());
        // Raising the keep horizon past the recycled entry unblocks it.
        w.append(8, 0, 1).unwrap();
    }

    #[test]
    fn snapshot_round_trips_through_from_entries() {
        let w = window(16, 16);
        for seq in [2u64, 5, 9, 14, 21] {
            w.append(seq, (seq * 3) as Key, 0).unwrap();
        }
        w.mark_indexed(2);
        w.mark_indexed(5);
        w.mark_indexed(14); // out-of-order: 9 stays unindexed
        w.try_advance_edge();
        let snap = w.snapshot(0);
        assert_eq!(
            snap,
            vec![
                (2, 6, true),
                (5, 15, true),
                (9, 27, false),
                (14, 42, true),
                (21, 63, false)
            ]
        );
        // A keep horizon drops exactly the entries below it.
        assert_eq!(w.snapshot(9), snap[2..]);
        assert_eq!(w.snapshot(10), snap[3..]);
        assert!(w.snapshot(22).is_empty());
        let rebuilt = ShardWindow::from_entries(16, 16, &snap);
        assert_eq!(rebuilt.snapshot(0), snap, "round trip is lossless");
        assert_eq!(
            rebuilt.edge_seq(),
            9,
            "edge re-derived at first non-indexed"
        );
        assert_eq!(rebuilt.unindexed_len(), 3);
        // Scans over the rebuilt slice behave like the original.
        let mut hits = Vec::new();
        rebuilt.scan_linear(9, 22, KeyRange::new(0, 100), |seq, key| {
            hits.push((seq, key))
        });
        assert_eq!(hits, vec![(9, 27), (14, 42), (21, 63)]);
        // The expiry cursor restarts at the oldest entry.
        let mut expired = Vec::new();
        rebuilt.expire_eager(10, |_, seq| expired.push(seq));
        assert_eq!(expired, vec![2, 5, 9]);
    }

    #[test]
    fn from_entries_accepts_empty_and_full_slices() {
        let empty = ShardWindow::from_entries(8, 8, &[]);
        assert_eq!(empty.local_len(), 0);
        assert_eq!(empty.edge_seq(), Seq::MAX);
        // Exactly capacity entries fit without recycling.
        let cap = ShardWindow::new(4, 4).capacity();
        let entries: Vec<(Seq, Key, bool)> = (0..cap as u64).map(|s| (s, s as Key, true)).collect();
        let full = ShardWindow::from_entries(4, 4, &entries);
        assert_eq!(full.local_len(), cap as u64);
        assert_eq!(full.edge_seq(), Seq::MAX, "all indexed");
        assert_eq!(full.snapshot(0), entries);
    }

    #[test]
    #[should_panic(expected = "exceed the shard window capacity")]
    fn from_entries_rejects_oversized_slices() {
        let cap = ShardWindow::new(4, 4).capacity();
        let entries: Vec<(Seq, Key, bool)> = (0..cap as u64 + 1).map(|s| (s, 0, false)).collect();
        let _ = ShardWindow::from_entries(4, 4, &entries);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_rejected() {
        let _ = ShardWindow::new(0, 8);
    }

    #[test]
    fn concurrent_mark_and_advance_on_a_sparse_slice() {
        use std::sync::Arc;
        let w = Arc::new(ShardWindow::new(1024, 1024));
        let seqs: Vec<Seq> = (0..1024u64).map(|i| i * 5 + 2).collect();
        for &seq in &seqs {
            w.append(seq, seq as Key, 0).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..8usize {
            let w = w.clone();
            let seqs = seqs.clone();
            handles.push(std::thread::spawn(move || {
                for seq in seqs.iter().skip(t).step_by(8) {
                    assert!(w.mark_indexed(*seq));
                    w.try_advance_edge();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        w.try_advance_edge();
        assert_eq!(w.edge_seq(), Seq::MAX);
        assert_eq!(w.unindexed_len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The satellite property: per-shard eager expiry never reports
            /// (and thus never deletes) a tuple that has not expired under
            /// the horizon it was driven with, never reports a tuple twice,
            /// and eventually reports every expired tuple — no matter which
            /// sparse subsequence the shard received or where the horizon
            /// calls land.
            #[test]
            fn per_shard_expiry_never_drops_an_unexpired_tuple(
                gaps in proptest::collection::vec(1u64..6, 1..120),
                cut_percents in proptest::collection::vec(0usize..101, 1..6),
            ) {
                // Build the shard's sparse subsequence from the random gaps.
                let mut seqs = Vec::new();
                let mut seq = 0u64;
                for g in &gaps {
                    seq += g;
                    seqs.push(seq);
                }
                let head = *seqs.last().unwrap() + 1;
                let w = ShardWindow::new(64, seqs.len() + 64);
                let mut reported = Vec::new();
                let mut horizons = Vec::new();
                let mut next = 0usize;
                // Interleave appends with expiry sweeps at increasing
                // horizons (expiry horizons are monotone in a real run
                // because the global head only grows).
                let mut last_upto = 0u64;
                for &pct in &cut_percents {
                    let cut = seqs.len() * pct / 100;
                    while next < cut.max(next) {
                        w.append(seqs[next], seqs[next] as Key, 0).unwrap();
                        next += 1;
                    }
                    let upto = last_upto.max(head * pct as u64 / 100);
                    last_upto = upto;
                    horizons.push(upto);
                    w.expire_eager(upto, |_, s| reported.push((s, upto)));
                }
                while next < seqs.len() {
                    w.append(seqs[next], seqs[next] as Key, 0).unwrap();
                    next += 1;
                }
                w.expire_eager(head, |_, s| reported.push((s, head)));
                // 1. Nothing unexpired was ever reported: each report's seq
                //    is strictly below the horizon that triggered it.
                for &(s, upto) in &reported {
                    prop_assert!(s < upto, "seq {s} reported at horizon {upto}");
                }
                // 2. No tuple was reported twice.
                let mut seen: Vec<Seq> = reported.iter().map(|&(s, _)| s).collect();
                let before = seen.len();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), before, "duplicate expiry reports");
                // 3. Every appended tuple below the final horizon was
                //    eventually reported — expiry drops nothing on the floor.
                prop_assert_eq!(seen, seqs);
            }
        }
    }
}
