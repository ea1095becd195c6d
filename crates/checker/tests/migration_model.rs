//! Model-checked migration epoch over the real retrofitted components: two
//! [`pimtree_window::ShardWindow`] homes (old and new), the real
//! [`pimtree_join::QuiesceGate`], and a `Release`-published owner — the
//! shape of `ShardStore::adopt_partitioner` behind `maybe_repartition`
//! (`store.rs`, `parallel.rs`). The writer enters the gate and routes each
//! append by the owner of its key; the migrator closes the gate, awaits
//! quiesce, snapshots the old home, rebuilds both homes with
//! [`ShardWindow::from_entries`] (the moved seqs leave the old home),
//! publishes the new owner and reopens.
//!
//! Invariant pinned: every appended seq is live in exactly one home, and
//! that home is the one the final owner routes its key to — a seq in the
//! other home would be missed by every probe (lost), a seq in both would be
//! reported twice (duplicated).
#![cfg(pimtree_model)]

use std::sync::Arc;

use pimtree_check::sync::atomic::{AtomicUsize, Ordering};
use pimtree_check::sync::RwLock;
use pimtree_check::{thread, Builder};
use pimtree_join::QuiesceGate;
use pimtree_window::ShardWindow;

/// Seqs `0..TOTAL` are appended with `key == seq`.
const TOTAL: u64 = 3;
/// Keys at or above this move from home 0 to home 1; key 0 stays.
const MOVE_FROM: i64 = 1;

/// The home owning `key` under the published owner of the moving range.
fn home_of(key: i64, moving_owner: usize) -> usize {
    if key >= MOVE_FROM {
        moving_owner
    } else {
        0
    }
}

#[test]
fn migration_epoch_rehomes_without_loss_or_duplication() {
    let report = Builder::default()
        .check_report(|| {
            let homes = Arc::new(RwLock::new([
                ShardWindow::new(8, 8),
                ShardWindow::new(8, 8),
            ]));
            // Every key starts at home 0; the migrator publishes home 1 for
            // the moving range once its state is in place.
            let moving_owner = Arc::new(AtomicUsize::new(0));
            let gate = Arc::new(QuiesceGate::new());

            let writer = {
                let (homes, moving_owner) = (Arc::clone(&homes), Arc::clone(&moving_owner));
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    for seq in 0..TOTAL {
                        while !gate.try_enter() {
                            thread::yield_now();
                        }
                        let key = seq as i64;
                        let home = home_of(key, moving_owner.load(Ordering::Acquire));
                        homes.read()[home]
                            .append(seq, key, 0)
                            .expect("window not full");
                        gate.exit();
                    }
                })
            };

            // Migrator: quiesce, re-split the old home's snapshot by key,
            // rebuild both homes, publish the new owner, reopen.
            gate.close();
            gate.await_quiesce();
            {
                let mut homes = homes.write();
                let (mut stay, mut moved) = (Vec::new(), homes[1].snapshot(0));
                for entry in homes[0].snapshot(0) {
                    if home_of(entry.1, 1) == 0 {
                        stay.push(entry);
                    } else {
                        moved.push(entry);
                    }
                }
                moved.sort_unstable_by_key(|&(seq, _, _)| seq);
                *homes = [
                    ShardWindow::from_entries(8, 8, &stay),
                    ShardWindow::from_entries(8, 8, &moved),
                ];
            }
            moving_owner.store(1, Ordering::Release);
            gate.open();
            writer.join().unwrap();

            let owner_now = moving_owner.load(Ordering::Acquire);
            let homes = homes.read();
            let mut live: Vec<u64> = Vec::new();
            for (home, window) in homes.iter().enumerate() {
                for (seq, key, _) in window.snapshot(0) {
                    assert_eq!(
                        home,
                        home_of(key, owner_now),
                        "seq {seq} is live in home {home}, which its key no longer routes to"
                    );
                    live.push(seq);
                }
            }
            live.sort_unstable();
            assert_eq!(
                live,
                (0..TOTAL).collect::<Vec<_>>(),
                "the migration lost or duplicated a seq"
            );
        })
        .expect("migration epoch protocol violated");

    assert!(report.schedules > 1);
}
