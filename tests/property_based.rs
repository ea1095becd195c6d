//! Property-based tests over the core data structures: the arena B+-Tree, the
//! immutable CSS-Tree, the Bw-Tree-style concurrent index and the PIM-Tree
//! are all checked against simple model structures under random operation
//! sequences.

use proptest::prelude::*;

use pimtree::prelude::*;
use pimtree_btree::{bulk, BTreeIndex, Entry};
use pimtree_bwtree::BwTreeIndex;
use pimtree_common::simd;

/// A random `(key, seq)` operation sequence: inserts and deletes of previously
/// inserted entries.
fn key_seq_ops() -> impl Strategy<Value = Vec<(i64, bool)>> {
    prop::collection::vec((0i64..200, prop::bool::ANY), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model_under_random_ops(ops in key_seq_ops(), fanout in 4usize..16) {
        let mut tree = BTreeIndex::with_fanout(fanout);
        let mut model: std::collections::BTreeSet<Entry> = Default::default();
        let mut seq = 0u64;
        let mut inserted: Vec<Entry> = Vec::new();
        for (key, is_insert) in ops {
            if is_insert || inserted.is_empty() {
                let e = Entry::new(key, seq);
                seq += 1;
                tree.insert_entry(e);
                model.insert(e);
                inserted.push(e);
            } else {
                let victim = inserted.swap_remove((key as usize) % inserted.len());
                prop_assert_eq!(tree.remove(victim.key, victim.seq), model.remove(&victim));
            }
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), model.len());
        let got = tree.to_sorted_vec();
        let expected: Vec<Entry> = model.iter().copied().collect();
        prop_assert_eq!(got, expected);
        // Range queries agree with the model on a few probes.
        for lo in [-10i64, 0, 50, 150, 250] {
            let range = KeyRange::new(lo, lo + 37);
            let got = tree.range_collect(range);
            let expected: Vec<Entry> = model
                .iter()
                .copied()
                .filter(|e| range.contains(e.key))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn bulk_loaded_btree_equals_incremental(keys in prop::collection::vec(0i64..1000, 0..500), fanout in 4usize..16) {
        let mut entries: Vec<Entry> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Entry::new(k, i as u64))
            .collect();
        entries.sort();
        let bulk_tree = bulk::from_sorted_with_fanout(entries.clone(), fanout);
        bulk_tree.check_invariants();
        let mut incr = BTreeIndex::with_fanout(fanout);
        for e in &entries {
            incr.insert_entry(*e);
        }
        prop_assert_eq!(bulk_tree.to_sorted_vec(), incr.to_sorted_vec());
    }

    #[test]
    fn css_tree_lower_bound_matches_binary_search(keys in prop::collection::vec(0i64..500, 0..600), probes in prop::collection::vec(-10i64..520, 1..50)) {
        let mut entries: Vec<Entry> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Entry::new(k, i as u64))
            .collect();
        entries.sort();
        let tree = pimtree_css::CssBuilder::new().fanout(4).leaf_size(4).build(entries.clone());
        tree.check_invariants();
        for p in probes {
            let expected = entries.partition_point(|e| e.key < p);
            prop_assert_eq!(tree.lower_bound_key(p), expected);
        }
    }

    #[test]
    fn bwtree_matches_model_under_random_ops(ops in key_seq_ops()) {
        let tree = BwTreeIndex::with_parameters(16, 4);
        let mut model: std::collections::BTreeSet<Entry> = Default::default();
        let mut seq = 0u64;
        let mut inserted: Vec<Entry> = Vec::new();
        for (key, is_insert) in ops {
            if is_insert || inserted.is_empty() {
                let e = Entry::new(key, seq);
                seq += 1;
                tree.insert(e.key, e.seq);
                model.insert(e);
                inserted.push(e);
            } else {
                let victim = inserted.swap_remove((key as usize) % inserted.len());
                prop_assert_eq!(tree.remove(victim.key, victim.seq), model.remove(&victim));
            }
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), model.len());
        let mut got = tree.range_collect(KeyRange::new(i64::MIN, i64::MAX));
        got.sort();
        let expected: Vec<Entry> = model.iter().copied().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn pim_tree_window_contents_survive_merges(keys in prop::collection::vec(0i64..10_000, 32..400), window_exp in 3usize..7, merge_ratio in prop::sample::select(vec![0.25f64, 0.5, 1.0])) {
        let w = 1usize << window_exp;
        let mut config = PimConfig::for_window(w)
            .with_merge_ratio(merge_ratio)
            .with_insertion_depth(2);
        config.css_fanout = 4;
        config.css_leaf_size = 4;
        config.btree_fanout = 4;
        let pim = PimTree::new(config);
        for (i, &k) in keys.iter().enumerate() {
            pim.insert(k, i as u64);
            if pim.needs_merge() {
                pim.merge((i + 1).saturating_sub(w) as u64);
            }
        }
        // Every live tuple — and no expired one — must be reachable.
        let earliest = keys.len().saturating_sub(w) as u64;
        let mut live = Vec::new();
        pim.range_for_each(KeyRange::new(i64::MIN, i64::MAX), |e| {
            if e.seq >= earliest {
                live.push(e);
            }
        });
        let mut seqs: Vec<u64> = live.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), live.len(), "no duplicate results");
        let expected: Vec<u64> = (earliest..keys.len() as u64).collect();
        prop_assert_eq!(seqs, expected);
        for e in &live {
            prop_assert_eq!(e.key, keys[e.seq as usize]);
        }
    }

    #[test]
    fn sharded_engine_steals_never_violate_arrival_order(
        keys in prop::collection::vec(0i64..300, 40..250),
        sides in prop::collection::vec(prop::bool::ANY, 40..250),
        shards in 1usize..5,
        threads in 1usize..5,
        task_size in 1usize..5,
        range_routed in prop::bool::ANY,
        window_exp in 3usize..6,
    ) {
        let n = keys.len().min(sides.len());
        let mut seqs = [0u64, 0u64];
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let side = if sides[i] { StreamSide::R } else { StreamSide::S };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, keys[i])
            })
            .collect();
        let w = 1usize << window_exp;
        let predicate = BandPredicate::new(2);
        let expected =
            pimtree_join::canonical(&pimtree_join::reference_join(&tuples, predicate, w, w, false));
        let mut pim = PimConfig::for_window(w).with_merge_ratio(0.5).with_insertion_depth(2);
        pim.css_fanout = 4;
        pim.css_leaf_size = 4;
        pim.btree_fanout = 4;
        let config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(task_size)
            .with_pim(pim)
            .with_shard(ShardConfig::default().with_shards(shards));
        let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        if range_routed {
            let sample: Vec<Key> = tuples.iter().map(|t| t.key).collect();
            op = op.with_partitioner(RangePartitioner::from_key_sample(shards, &sample));
        }
        let (stats, results) = op.run(&tuples);
        // Exactness: the sharded engine is a pure scaling layer.
        prop_assert_eq!(pimtree_join::canonical(&results), expected);
        // Accounting: every tuple claimed exactly once, home or stolen.
        prop_assert_eq!(stats.shard.local_tuples + stats.shard.stolen_tuples, n as u64);
        // Ordering: steals must never reorder the propagated stream — the
        // probing tuples appear in their global arrival order.
        let mut pos_of = std::collections::HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            pos_of.insert((t.side, t.seq), i);
        }
        let positions: Vec<usize> = results
            .iter()
            .map(|r| pos_of[&(r.probe.side, r.probe.seq)])
            .collect();
        prop_assert!(
            positions.windows(2).all(|w| w[0] <= w[1]),
            "arrival-order propagation violated at shards={}, threads={}",
            shards,
            threads
        );
    }

    #[test]
    fn single_threaded_ibwj_matches_reference_on_random_workloads(
        keys in prop::collection::vec(0i64..300, 10..300),
        sides in prop::collection::vec(prop::bool::ANY, 10..300),
        window_exp in 2usize..6,
        diff in 0i64..4,
    ) {
        let n = keys.len().min(sides.len());
        let mut seqs = [0u64, 0u64];
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let side = if sides[i] { StreamSide::R } else { StreamSide::S };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, keys[i])
            })
            .collect();
        let w = 1usize << window_exp;
        let predicate = BandPredicate::new(diff);
        let expected =
            pimtree_join::canonical(&pimtree_join::reference_join(&tuples, predicate, w, w, false));
        for kind in [IndexKind::BTree, IndexKind::PimTree] {
            let mut pim = PimConfig::for_window(w).with_merge_ratio(0.5).with_insertion_depth(1);
            pim.css_fanout = 4;
            pim.css_leaf_size = 4;
            pim.btree_fanout = 4;
            let config = JoinConfig::symmetric(w, kind).with_pim(pim);
            let mut op = build_single_threaded(&config, predicate, false);
            let (_, results) = op.run(&tuples, true);
            prop_assert_eq!(pimtree_join::canonical(&results), expected.clone(), "kind {}", kind);
        }
    }

    /// The SIMD u64 lower bound must equal `partition_point` on arbitrary
    /// sorted contents — including duplicates, extremes and targets probing
    /// past both ends. (`simd::tests::every_form_agrees_on_every_block_shape`
    /// holds the scalar and vector forms to the same oracle side by side.)
    #[test]
    fn simd_u64_lower_bound_matches_partition_point(
        values in prop::collection::vec(any::<u64>(), 0..80),
        extra in prop::collection::vec(any::<u64>(), 0..4),
        target in any::<u64>(),
    ) {
        let mut values = values;
        values.extend([0, u64::MAX]); // always exercise both extremes
        values.extend(extra.iter().copied()); // and some duplicates-to-be
        values.extend(extra);
        values.sort_unstable();
        for t in [target, 0, u64::MAX, values[values.len() / 2]] {
            let expected = values.partition_point(|&v| v < t);
            prop_assert_eq!(simd::lower_bound_u64(&values, t), expected, "target {}", t);
        }
        prop_assert_eq!(simd::lower_bound_u64(&[], target), 0);
    }

    /// The SIMD entry-key count must equal `partition_point` on sorted
    /// `[key, seq]` blocks padded with `i64::MAX` sentinel slots, the exact
    /// shape of a CSS-Tree inner node after bulk load.
    #[test]
    fn simd_key_count_matches_partition_point_with_sentinel_padding(
        keys in prop::collection::vec(-1000i64..1000, 0..64),
        pad in 0usize..9,
        target in -1100i64..1100,
    ) {
        let mut keys = keys;
        keys.sort_unstable();
        let mut pairs: Vec<[i64; 2]> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| [k, i as i64])
            .collect();
        pairs.extend(std::iter::repeat_n([i64::MAX, i64::MAX], pad));
        for t in [target, i64::MIN, i64::MAX] {
            let expected = pairs.partition_point(|p| p[0] < t);
            prop_assert_eq!(simd::count_keys_below(&pairs, t), expected, "target {}", t);
        }
        // Sentinel padding is never counted below a real target.
        prop_assert_eq!(simd::count_keys_below(&pairs, i64::MAX), keys.len());
    }

    /// Every descent of the CSS-Tree — one at a time, routed to a depth and
    /// finished in the leaf, level-wise batched — is
    /// `partition_point` over the leaf array under the `(key, seq)` order,
    /// on shapes that put the node-search kernel at its edges: fan-out 2
    /// over leaves of 4 (every block shorter than a vector), the default 32
    /// over 32, blocks that are no multiple of a vector, sizes that leave the
    /// last node and the last leaf group short, and few distinct keys down to
    /// one, so that equal-key runs span nodes and the `seq` tie-break
    /// decides. (Runs in CI's scalar-fallback leg too: the name says `simd`.)
    #[test]
    fn simd_descents_match_partition_point(
        draws in prop::collection::vec((0usize..12, any::<u64>()), 0..700),
        distinct in prop::sample::select(vec![1usize, 3, 12]),
        shape in prop::sample::select(vec![(2usize, 4usize), (4, 4), (7, 5), (32, 32)]),
        probes in prop::collection::vec((0usize..12, any::<u64>()), 1..40),
    ) {
        const KEYS: [Key; 12] =
            [0, Key::MAX, Key::MIN, 1, 2, 64, -1, 65, 511, 3, Key::MIN + 1, Key::MAX - 1];
        let mut entries: Vec<Entry> = draws
            .iter()
            .map(|&(k, seq)| Entry::new(KEYS[k % distinct], seq))
            .collect();
        entries.sort_unstable();
        let (fanout, leaf) = shape;
        let tree = pimtree_css::CssBuilder::new()
            .fanout(fanout)
            .leaf_size(leaf)
            .build(entries.clone());
        let mut targets: Vec<Entry> = probes.iter().map(|&(k, seq)| Entry::new(KEYS[k], seq)).collect();
        for key in [Key::MIN, 0, Key::MAX] {
            targets.extend([Entry::min_for_key(key), Entry::max_for_key(key)]);
        }
        targets.extend(entries.iter().step_by(37));
        let want: Vec<usize> = targets
            .iter()
            .map(|t| entries.partition_point(|e| e < t))
            .collect();
        let levels = tree.inner_levels();
        let mut want_groups = Vec::new();
        for (&t, &w) in targets.iter().zip(&want) {
            prop_assert_eq!(tree.lower_bound(t), w, "lower_bound {:?}", t);
            // Insert routing: descend, then search only the leaf group reached.
            let group = tree.descend_to_depth(t, levels);
            let start = (group * leaf).min(entries.len());
            let end = (start + leaf).min(entries.len());
            let in_leaf = entries[start..end].partition_point(|e| *e < t);
            prop_assert_eq!(start + in_leaf, w, "descend_to_depth {:?} -> group {}", t, group);
            want_groups.push(group);
        }
        let (mut positions, mut groups) = (Vec::new(), Vec::new());
        let mut counters = pimtree_common::ProbeCounters::default();
        tree.lower_bound_batch(&targets, &mut positions, &mut groups, &mut counters);
        prop_assert_eq!(&positions, &want, "batch");
        prop_assert_eq!(&groups, &want_groups, "batch groups");
    }
}

proptest! {
    // Each case runs six engine configurations; 32 cases keep tier-1 fast.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The parallel engine equals the brute-force oracle on the input shapes
    /// where edge arithmetic and window bookkeeping break first — keys in a
    /// band at `Key::MIN` and at `Key::MAX`, all-duplicate keys, a window of
    /// one, fewer tuples than the window — at 1 and 2 workers, on the shared
    /// store and on a 2-shard partitioned store with and without a migration
    /// epoch forced at a random input position.
    #[test]
    fn parallel_engine_matches_reference_on_domain_edge_shapes(
        shape in 0usize..4,
        offsets in prop::collection::vec(0i64..64, 20..160),
        sides in prop::collection::vec(prop::bool::ANY, 160..161),
        at_pct in 0usize..101,
    ) {
        let n = offsets.len();
        let mut seqs = [0u64, 0u64];
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let side = if sides[i] { StreamSide::R } else { StreamSide::S };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                let key = match shape {
                    // Half the keys hug each end of the domain.
                    0 if i % 2 == 0 => Key::MIN + offsets[i],
                    0 => Key::MAX - offsets[i],
                    1 => 7,
                    _ => offsets[i],
                };
                Tuple::new(side, seq, key)
            })
            .collect();
        let w = match shape {
            2 => 1,
            3 => 256, // more than the 159 tuples an input holds at most
            _ => 16,
        };
        let predicate = BandPredicate::new(4);
        let expected =
            pimtree_join::canonical(&pimtree_join::reference_join(&tuples, predicate, w, w, false));
        let mut pim = PimConfig::for_window(w).with_merge_ratio(0.5).with_insertion_depth(2);
        pim.css_fanout = 4;
        pim.css_leaf_size = 4;
        pim.btree_fanout = 4;
        let at = n * at_pct / 100;
        for threads in [1usize, 2] {
            for (partitioned, forced) in [(false, false), (true, false), (true, true)] {
                let mut config = JoinConfig::symmetric(w, IndexKind::PimTree)
                    .with_threads(threads)
                    .with_task_size(2)
                    .with_pim(pim);
                if partitioned {
                    config = config.with_shard(
                        ShardConfig::default().with_shards(2).with_partition_index(true),
                    );
                }
                let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                if forced {
                    let sample: Vec<Key> = tuples[at.min(n - 1)..].iter().map(|t| t.key).collect();
                    let target = RangePartitioner::from_key_sample(2, &sample);
                    op = op.with_forced_repartition(at, target);
                }
                let (stats, results) = op.run(&tuples);
                prop_assert_eq!(
                    pimtree_join::canonical(&results),
                    expected.clone(),
                    "shape {}, {} workers, partitioned {}, forced {}",
                    shape,
                    threads,
                    partitioned,
                    forced
                );
                if forced {
                    prop_assert_eq!(stats.migration.epochs, 1, "the forced epoch must be adopted");
                }
            }
        }
    }
}
