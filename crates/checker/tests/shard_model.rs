//! Model-checked protocol test for the real [`pimtree_join::ShardedRing`]
//! cross-shard merge cursor.
//!
//! The cursor drains completed tasks across shards in *global arrival-stamp
//! order*: each push stores the slot payload and arrival stamp with Relaxed
//! stores ordered by the shard ring's `Release` tail publish, then advances
//! the global `next_arrival` frontier with a `Release` store; the drainer
//! reads the frontier with `Acquire` and peeks every shard's head stamp. A
//! weaker stamp publication would let the cursor drain a stale (smaller or
//! torn) stamp out of order — the `shard_stamp` double in
//! `mutation_harness.rs` shows the checker catching exactly that.
#![cfg(pimtree_model)]

use std::sync::Arc;

use pimtree_check::{thread, Builder};
use pimtree_common::config::ShardConfig;
use pimtree_common::types::{StreamSide, Tuple};
use pimtree_join::stats::{RingCounters, ShardCounters};
use pimtree_join::ShardedRing;
use pimtree_window::WindowBounds;

/// Two shards, round-robin routing (arrival stamp alternates shards), one
/// worker claiming from home shard 0 with stealing enabled, while the main
/// thread drains. Invariants pinned:
///
/// * the merge cursor emits strictly in global arrival order, even while
///   completions land on both shards from a stealing worker;
/// * no tuple is lost or duplicated across the claim/steal/complete/drain
///   cycle.
#[test]
fn merge_cursor_drains_in_global_arrival_order_under_steals() {
    const N: u64 = 2; // one tuple per shard; arrival stamps 0 and 1
    let report = Builder::default()
        .check_report(|| {
            let cfg = ShardConfig {
                shards: 2,
                steal_batch: 1,
                steal_threshold: 1,
                partition_index: false,
            };
            let ring = Arc::new(ShardedRing::new(&cfg, 1, 4, None));

            // Publish N tuples round-robin before the worker starts; the
            // races explored are claim/steal/complete vs the drain cursor.
            {
                let mut guard = ring.try_ingest().expect("fresh ring: token free");
                for seq in 0..N {
                    let t = Tuple::new(StreamSide::R, seq, seq as i64);
                    let shard = guard.route(t.key);
                    assert!(guard.can_push(shard));
                    guard.push(shard, t, WindowBounds::new(seq, seq + 1));
                }
            }

            // Worker homed on shard 0: claims its local tuple, then steals
            // shard 1's. Completes with result_count = seq so the drain
            // order is observable.
            let worker = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    let mut rc = RingCounters::default();
                    let mut sc = ShardCounters::default();
                    let mut done = 0u64;
                    while done < N {
                        out.clear();
                        match ring.claim(0, 2, &mut out, &mut rc, &mut sc) {
                            Some(claim) => {
                                for task in &out {
                                    ring.complete(
                                        claim.shard,
                                        task.gid,
                                        task.tuple.seq,
                                        Vec::new(),
                                    );
                                }
                                done += claim.tuples as u64;
                            }
                            None => thread::yield_now(),
                        }
                    }
                })
            };

            // Drain concurrently with the worker's claims/steals/completes.
            let mut drained = Vec::new();
            while (drained.len() as u64) < N {
                let got = ring.try_drain(false, |count, _| drained.push(count));
                if got.unwrap_or(0) == 0 {
                    thread::yield_now();
                }
            }
            worker.join().unwrap();

            // Global arrival order, each stamp exactly once.
            assert_eq!(
                drained,
                (0..N).collect::<Vec<_>>(),
                "merge cursor broke global arrival order"
            );
            assert!(ring.is_empty(), "tuples left behind after full drain");
        })
        .expect("sharded merge-cursor protocol violated");

    assert!(report.schedules > 1);
}
