//! The per-layer ladder: batches of calls into each layer's public functions,
//! on the workload's own keys, each batch one span.
//!
//! The rungs go from the node search up to the task ring. Each is measured
//! from outside, with the layer in the state the join keeps it in (a tree of
//! one window's entries, a mutable component filling up between merges, a
//! ring of the engine's capacity), so that a rung's cost can be set against
//! the end-to-end cost per tuple.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pimtree_btree::Entry;
use pimtree_common::simd::lower_bound_u64;
use pimtree_common::{Key, KeyRange, Tuple};
use pimtree_core::PimTree;
use pimtree_css::CssTree;
use pimtree_join::{RingCounters, TaskRing};
use pimtree_window::{SlidingWindow, WindowBounds};

use crate::trace::Tracer;
use crate::workloads::{engine_pim, Inputs, Spec, TASK_SIZE};

/// Operations per batch (fewer where the window is smaller): long enough
/// that the two clock reads of a span vanish, short enough for many batches.
const BATCH: usize = 1 << 16;

/// Batches per rung: at least the first, whatever the time budget, and at
/// most the second, so that the trace stays a few hundred spans.
const MIN_BATCHES: usize = 3;
const MAX_BATCHES: usize = 24;

/// Entries a `css.range_scan` range covers: long enough that the scan, not
/// the descent before it, is what is timed.
const SCAN_ENTRIES: usize = 256;

/// Slots one `window.scan` call examines.
const WINDOW_SCAN_SLOTS: u64 = 1024;

/// Capacity of the engine's ring at two threads and task size 8.
const RING_CAPACITY: usize = 4096;

/// Tuples an ingesting worker pushes per token: the engine's ingest target
/// at two threads and task size 8.
const INGEST_BATCH: usize = 2 * TASK_SIZE;

/// Runs `batch` until `budget` is spent, between [`MIN_BATCHES`] and
/// [`MAX_BATCHES`] times.
fn repeat(tracer: &mut Tracer, budget: Duration, mut batch: impl FnMut(&mut Tracer)) {
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_BATCHES || (done < MAX_BATCHES && start.elapsed() < budget) {
        batch(tracer);
        done += 1;
    }
}

/// What the ring rungs counted besides time.
#[derive(Debug, Default, Clone, Copy)]
pub struct RingContention {
    pub claim_retries: u64,
    pub tasks: u64,
}

/// Runs every rung, spending about `budget` in total.
pub fn run(tracer: &mut Tracer, spec: &Spec, inputs: &Inputs, budget: Duration) -> RingContention {
    let w = spec.window;
    let batch = BATCH.min(w);
    // Eight rungs of comparable weight.
    let rung = budget / 8;
    // One window's worth of keys to hold, the next to look up: both from
    // before any drift, as the indexes see them after warm-up.
    let (stored, lookups) = inputs.tuples[..2 * w].split_at(w);
    let stored: Vec<Key> = stored.iter().map(|t| t.key).collect();
    let lookups: Vec<Key> = lookups.iter().map(|t| t.key).collect();
    let mut entries: Vec<Entry> = stored
        .iter()
        .enumerate()
        .map(|(seq, &key)| Entry::new(key, seq as u64))
        .collect();
    entries.sort_unstable();

    // Node search: one inner node's worth of sorted keys.
    let node: Vec<u64> = entries
        .iter()
        .step_by((w / 32).max(1))
        .take(32)
        .map(|e| e.key as u64)
        .collect();
    repeat(tracer, rung / 2, |t| {
        t.span("simd.lower_bound_u64", |_| {
            let mut acc = 0usize;
            for &k in lookups.iter().cycle().take(BATCH) {
                acc += lower_bound_u64(black_box(&node), k as u64);
            }
            (BATCH as u64, black_box(acc))
        });
    });

    // CSS-Tree: bulk build, dependent point lookups, leaf scans.
    let mut tree = CssTree::empty();
    repeat(tracer, rung / 2, |t| {
        // A build of a small window takes microseconds: several per span.
        let copies = vec![entries.clone(); BATCH / batch];
        tree = t.span("css.build", |_| {
            let built_entries = (copies.len() * w) as u64;
            let mut built = CssTree::empty();
            for copy in copies {
                built = CssTree::from_sorted(copy);
            }
            (built_entries, built)
        });
    });
    repeat(tracer, rung, |t| {
        t.span("css.lower_bound", |_| {
            // Each lookup's key is chosen by the previous result, so misses
            // cannot overlap: this is the latency of one descent.
            let (mut i, mut acc) = (0usize, 0usize);
            for _ in 0..BATCH {
                let pos = tree.lower_bound_key(lookups[i]);
                acc += pos;
                i = (i + 1 + (pos & 7)) % lookups.len();
            }
            (BATCH as u64, black_box(acc))
        });
    });
    let scan_len = SCAN_ENTRIES.min(w / 4);
    let ranges: Vec<KeyRange> = lookups
        .iter()
        .take(BATCH / scan_len)
        .map(|&k| {
            let from = tree.lower_bound_key(k).min(w - scan_len);
            KeyRange::new(entries[from].key, entries[from + scan_len - 1].key)
        })
        .collect();
    repeat(tracer, rung, |t| {
        t.span("css.range_scan", |_| {
            let (mut visited, mut acc) = (0u64, 0u64);
            for &range in &ranges {
                visited += tree.range_for_each(range, |e| acc += e.seq) as u64;
            }
            (visited, black_box(acc))
        });
    });

    // PIM-Tree: the cycle the join drives it through. A merged tree of one
    // window takes `batch` inserts into its mutable component, answers
    // `batch` band probes over both components, and merges.
    let pim = PimTree::new(engine_pim(w));
    for e in &entries {
        pim.insert(e.key, e.seq);
    }
    pim.merge(0);
    let mut next_seq = w as u64;
    let mut keys = stored.iter().chain(&lookups).cycle();
    repeat(tracer, 2 * rung, |t| {
        t.span("pim.insert", |_| {
            for &k in keys.by_ref().take(batch) {
                pim.insert(k, next_seq);
                next_seq += 1;
            }
            (batch as u64, ())
        });
        t.span("pim.probe", |_| {
            let mut acc = 0u64;
            for &k in keys.by_ref().take(batch) {
                pim.range_for_each(inputs.predicate.probe_range(k), |e| acc += e.seq);
            }
            (batch as u64, black_box(acc))
        });
        t.span("pim.merge", |_| {
            let report = pim.merge(next_seq - w as u64);
            let read = report.kept_from_ts + report.dropped_expired + report.from_ti;
            (read as u64, ())
        });
    });

    // Sliding window: appends, and the linear scan of the non-indexed suffix.
    let window = SlidingWindow::with_default_slack(w);
    for &k in &stored {
        window
            .append(k)
            .expect("a window with nothing in flight never fills");
    }
    repeat(tracer, rung / 2, |t| {
        t.span("window.append", |_| {
            for &k in lookups.iter().cycle().take(BATCH) {
                window
                    .append(k)
                    .expect("a window with nothing in flight never fills");
            }
            (BATCH as u64, ())
        });
    });
    let scan_slots = WINDOW_SCAN_SLOTS.min(w as u64);
    repeat(tracer, rung / 2, |t| {
        t.span("window.scan", |_| {
            let (mut examined, mut acc) = (0u64, 0u64);
            let to = window.head();
            for &k in lookups.iter().cycle().take(BATCH / scan_slots as usize) {
                let range = inputs.predicate.probe_range(k);
                examined +=
                    window.scan_linear(to - scan_slots, to, range, |seq, _| acc += seq) as u64;
            }
            (examined, black_box(acc))
        });
    });

    // Task ring: ingest, claim, complete, drain per tuple; alone, then with
    // a second thread contending for the same ring.
    let mut contention = RingContention::default();
    for (name, threads) in [("ring.roundtrip", 1), ("ring.roundtrip_2t", 2)] {
        repeat(tracer, rung / 2, |t| {
            t.span(name, |_| {
                let c = ring_roundtrips(&inputs.tuples[..BATCH.min(inputs.tuples.len())], threads);
                if threads > 1 {
                    contention.claim_retries += c.claim_retries;
                    contention.tasks += c.tasks_acquired;
                }
                (BATCH as u64, ())
            });
        });
    }

    // Router: the key-range lookup every ingest and probe of a sharded run
    // makes. The unsharded workloads never call it.
    if let Some(p) = &inputs.partitioner {
        repeat(tracer, rung / 2, |t| {
            t.span("router.node_of", |_| {
                let mut acc = 0usize;
                for &k in lookups.iter().cycle().take(BATCH) {
                    acc += p.node_of(k);
                }
                (BATCH as u64, black_box(acc))
            });
        });
    }
    contention
}

/// Pushes [`BATCH`] tuples through a fresh ring with `threads` workers, each
/// running the engine's loop shape: top the ring up under the ingest token,
/// claim a task, complete its slots, drain the completed prefix.
fn ring_roundtrips(tuples: &[Tuple], threads: usize) -> RingCounters {
    let ring = TaskRing::with_capacity(RING_CAPACITY);
    // Written under the ingest token only, which orders its holders.
    let next = AtomicUsize::new(0);
    let drained = AtomicU64::new(0);
    let worker = || {
        let mut counters = RingCounters::default();
        let mut claimed = Vec::with_capacity(TASK_SIZE);
        while drained.load(Ordering::Relaxed) < BATCH as u64 {
            if ring.available() < TASK_SIZE {
                if let Some(guard) = ring.try_ingest() {
                    let mut pos = next.load(Ordering::Relaxed);
                    let end = (pos + INGEST_BATCH).min(BATCH);
                    while pos < end && guard.can_push() {
                        guard.push(tuples[pos % tuples.len()], WindowBounds::empty());
                        pos += 1;
                    }
                    next.store(pos, Ordering::Relaxed);
                }
            }
            claimed.clear();
            ring.claim(TASK_SIZE, &mut claimed, &mut counters);
            for task in &claimed {
                ring.complete(task.gid, 1, Vec::new());
            }
            match ring.try_drain(false, |_, _| {}) {
                Some(n) => {
                    drained.fetch_add(n, Ordering::Relaxed);
                }
                None => std::hint::spin_loop(),
            }
        }
        counters
    };
    if threads == 1 {
        return worker();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let mut total = RingCounters::default();
        for h in handles {
            total.merge_from(&h.join().expect("ring worker panicked"));
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;

    #[test]
    fn every_rung_leaves_spans_with_operations() {
        let spec = Spec::by_name("drift-migrate").unwrap().truncated();
        let inputs = generate(&spec, 3);
        let mut tracer = Tracer::new(spec.name);
        let contention = run(&mut tracer, &spec, &inputs, Duration::ZERO);
        assert!(contention.tasks > 0);
        for name in [
            "simd.lower_bound_u64",
            "css.build",
            "css.lower_bound",
            "css.range_scan",
            "pim.insert",
            "pim.probe",
            "pim.merge",
            "window.append",
            "window.scan",
            "ring.roundtrip",
            "ring.roundtrip_2t",
            "router.node_of",
        ] {
            let costs = tracer.ns_per_op(name);
            assert_eq!(costs.len(), MIN_BATCHES, "{name}");
            assert!(costs.iter().all(|&c| c > 0.0), "{name}");
        }
    }

    /// A small window is built several times per span; every one of those
    /// builds has to be paid for, or the cost per entry comes out too low by
    /// the number of copies (64 at this size).
    #[test]
    fn build_cost_per_entry_does_not_depend_on_copies_per_span() {
        let cost = |window: usize| {
            let spec = Spec {
                window,
                measured: 1000,
                ..Spec::by_name("steady-l2").unwrap()
            };
            let inputs = generate(&spec, 3);
            let mut tracer = Tracer::new(spec.name);
            run(&mut tracer, &spec, &inputs, Duration::ZERO);
            let costs = tracer.ns_per_op("css.build");
            costs.into_iter().fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (cost(1 << 10), cost(BATCH));
        assert!(
            small > large / 4.0 && small < large * 4.0,
            "{small} ns at 2^10, {large} ns at 2^16"
        );
    }
}
