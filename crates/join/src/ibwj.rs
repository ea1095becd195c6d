//! Single-threaded index-based window join (IBWJ).
//!
//! Processing a tuple `r` arriving on stream `R` follows the three steps of
//! §2.1: (1) probe the index of the opposite window for matches, (2) remove
//! the tuple that expires from `R`'s window (how — eagerly, lazily or in bulk
//! — is the index's business), and (3) insert `r` into `R`'s window and
//! index. [`IbwjOperator`] runs steps 1 and 2–3 through the same two
//! functions as the parallel engine's shared store, `index::probe` and
//! `index::insert`, with a batch of one and nothing in flight. It is
//! generic over the [`WindowIndex`], which is how the paper's
//! single-threaded comparison (Figures 8b, 9, 10a/10b) is produced from one
//! code path.

use std::cell::RefCell;
use std::time::Instant;

use pimtree_btree::BTreeIndex;
use pimtree_bwtree::BwTreeIndex;
use pimtree_chained::{ChainVariant, ChainedIndex};
use pimtree_common::{BandPredicate, IndexKind, JoinConfig, JoinResult, Step, StreamSide, Tuple};
use pimtree_core::{ImTree, PimTree};
use pimtree_window::SlidingWindow;

use crate::index::{self, WindowIndex};
use crate::stats::JoinRunStats;

/// A single-threaded stream-join operator processing one tuple at a time.
///
/// Counting is the per-tuple path: [`SingleThreadJoin::process`] returns the
/// tuple's match count and builds [`JoinResult`]s only when handed a vector
/// to put them in. `run(.., false)` — what the benchmark, the figures and
/// `engine_profile` time as the paper's baseline — hands it none, so the
/// baseline counts its matches the way the parallel engine does, through
/// the same count sink.
pub trait SingleThreadJoin {
    /// Operator name for benchmark output.
    fn name(&self) -> String;

    /// Processes one arriving tuple and returns its match count. With `out`,
    /// its results are also appended there, ordered as the probe emits them;
    /// without, no result is built.
    fn process(&mut self, tuple: Tuple, out: Option<&mut Vec<JoinResult>>) -> u64;

    /// Statistics accumulated so far (merge counts, per-step costs). The
    /// default implementation reports nothing.
    fn stats(&self) -> JoinRunStats {
        JoinRunStats::default()
    }

    /// Runs the operator over a tuple sequence, returning the statistics of
    /// this call and — when `collect` is true — the produced results.
    ///
    /// `tuples`, `elapsed`, `results`, `merges`, `merge_time` and `breakdown`
    /// cover this call only, so a measured call after a warm-up call on the
    /// same operator reports the measured phase; the running totals are
    /// [`SingleThreadJoin::stats`]. The probe counters are running totals
    /// (`max_batch` has no per-call value).
    fn run(&mut self, tuples: &[Tuple], collect: bool) -> (JoinRunStats, Vec<JoinResult>) {
        let before = self.stats();
        let mut kept = Vec::new();
        let mut results = 0u64;
        let start = Instant::now();
        for &t in tuples {
            results += self.process(t, collect.then_some(&mut kept));
        }
        let elapsed = start.elapsed();
        let mut stats = self.stats();
        stats.tuples = tuples.len() as u64;
        stats.elapsed = elapsed;
        stats.results = results;
        stats.merges -= before.merges;
        stats.merge_time -= before.merge_time;
        stats.breakdown = stats.breakdown.since(&before.breakdown);
        (stats, kept)
    }
}

/// The single-threaded IBWJ operator, generic over the window index.
#[derive(Debug)]
pub struct IbwjOperator<A: WindowIndex> {
    windows: [SlidingWindow; 2],
    indexes: [A; 2],
    predicate: BandPredicate,
    self_join: bool,
    instrument: bool,
    /// Running totals: results, merges, merge time, per-step costs and probe
    /// counters.
    stats: JoinRunStats,
}

impl<A: WindowIndex> IbwjOperator<A> {
    /// Creates a two-way IBWJ with one index per window, built by `make_index`.
    pub fn new(
        window_r: usize,
        window_s: usize,
        predicate: BandPredicate,
        make_index: impl FnMut() -> A,
    ) -> Self {
        Self::with_windows([window_r, window_s], predicate, false, make_index)
    }

    /// Creates a self-join IBWJ: a single window and index probed and updated
    /// by every tuple.
    pub fn new_self_join(
        window: usize,
        predicate: BandPredicate,
        make_index: impl FnMut() -> A,
    ) -> Self {
        Self::with_windows([window, 1], predicate, true, make_index)
    }

    fn with_windows(
        sizes: [usize; 2],
        predicate: BandPredicate,
        self_join: bool,
        mut make_index: impl FnMut() -> A,
    ) -> Self {
        IbwjOperator {
            windows: sizes.map(SlidingWindow::with_default_slack),
            indexes: [make_index(), make_index()],
            predicate,
            self_join,
            instrument: false,
            stats: JoinRunStats::default(),
        }
    }

    /// Enables per-step cost instrumentation (Figure 9b). Instrumentation adds
    /// two clock reads per step and is off by default. The instrumented probe
    /// always takes the scalar path (its purpose is the per-step cost split).
    pub fn with_instrumentation(mut self) -> Self {
        self.instrument = true;
        self
    }
}

impl<A: WindowIndex> SingleThreadJoin for IbwjOperator<A> {
    fn name(&self) -> String {
        format!("ibwj/{}", self.indexes[0].name())
    }

    fn stats(&self) -> JoinRunStats {
        self.stats.clone()
    }

    fn process(&mut self, tuple: Tuple, mut out: Option<&mut Vec<JoinResult>>) -> u64 {
        let (probe_idx, own_idx, matched_side) = if self.self_join {
            (0, 0, StreamSide::R)
        } else {
            (
                tuple.side.opposite().index(),
                tuple.side.index(),
                tuple.side.opposite(),
            )
        };
        let stats = &mut self.stats;

        // Step 1: probe the opposite index. Nothing is in flight, so the
        // whole live window is indexed: the edge is the window's head and
        // the suffix scan is empty. Each run's live entries are counted, or
        // materialised when the caller collects.
        let window = &self.windows[probe_idx];
        let bounds = window.bounds();
        let mut matches = 0;
        index::probe(
            &self.indexes[probe_idx],
            window,
            bounds.latest_exclusive,
            &[self.predicate.probe_range(tuple.key)],
            &[bounds],
            &mut stats.probe,
            self.instrument.then_some(&mut stats.breakdown),
            &mut |_, run, live| {
                matches += match out.as_deref_mut() {
                    None => index::count_live(run, live),
                    Some(out) => index::materialise(out, tuple, matched_side, run, live),
                }
            },
        );
        stats.results += matches;

        // Steps 2 and 3: append the new tuple to its window, insert it into
        // the index and expire the tuple it pushes out of the window.
        let window = &self.windows[own_idx];
        let seq = window
            .append(tuple.key)
            .expect("sliding window slack exhausted");
        debug_assert_eq!(
            seq, tuple.seq,
            "input sequence numbers must match arrival order"
        );
        let index = &self.indexes[own_idx];
        let breakdown = self.instrument.then_some(&mut stats.breakdown);
        if index::insert(index, window, &[(tuple.key, seq)], 0, breakdown) {
            let report = index.merge(window.earliest_live());
            stats.merges += 1;
            stats.merge_time += report.duration;
            stats
                .breakdown
                .record_nanos(Step::Merge, report.duration.as_nanos() as u64);
        }
        stats.breakdown.tuples += 1;
        matches
    }
}

/// Builds a boxed single-threaded join operator for the given configuration.
/// This is the factory the benchmark harness uses to sweep index kinds.
pub fn build_single_threaded(
    config: &JoinConfig,
    predicate: BandPredicate,
    self_join: bool,
) -> Box<dyn SingleThreadJoin> {
    let (wr, ws) = (config.window_r, config.window_s);
    let pim = config.pim;
    match config.index {
        IndexKind::None => {
            if self_join {
                Box::new(crate::nlwj::NlwjOperator::new_self_join(wr, predicate))
            } else {
                Box::new(crate::nlwj::NlwjOperator::new(wr, ws, predicate))
            }
        }
        IndexKind::BTree => boxed(wr, ws, predicate, self_join, move || {
            RefCell::new(BTreeIndex::with_fanout(pim.btree_fanout))
        }),
        IndexKind::BChain | IndexKind::IbChain => {
            let variant = if config.index == IndexKind::BChain {
                ChainVariant::BChain
            } else {
                ChainVariant::IbChain
            };
            let chain = config.chain_length;
            boxed(wr, ws, predicate, self_join, move || {
                RefCell::new(ChainedIndex::new(variant, wr, chain))
            })
        }
        IndexKind::ImTree => boxed(wr, ws, predicate, self_join, move || {
            RefCell::new(ImTree::new(pim))
        }),
        IndexKind::PimTree => boxed(wr, ws, predicate, self_join, move || PimTree::new(pim)),
        IndexKind::BwTree => boxed(wr, ws, predicate, self_join, BwTreeIndex::new),
    }
}

fn boxed<A: WindowIndex>(
    wr: usize,
    ws: usize,
    predicate: BandPredicate,
    self_join: bool,
    make_index: impl FnMut() -> A,
) -> Box<dyn SingleThreadJoin> {
    if self_join {
        Box::new(IbwjOperator::new_self_join(wr, predicate, make_index))
    } else {
        Box::new(IbwjOperator::new(wr, ws, predicate, make_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
    use pimtree_common::{Key, PimConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|_| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, rng.gen_range(0..domain))
            })
            .collect()
    }

    fn config_with(index: IndexKind, w: usize) -> JoinConfig {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        JoinConfig::symmetric(w, index)
            .with_chain_length(3)
            .with_pim(pim)
    }

    /// IBWJ on every index, and the nested-loop join (`IndexKind::None`).
    const EVERY_KIND: [IndexKind; 7] = [
        IndexKind::None,
        IndexKind::BTree,
        IndexKind::BChain,
        IndexKind::IbChain,
        IndexKind::ImTree,
        IndexKind::PimTree,
        IndexKind::BwTree,
    ];

    /// The key of a stream's `i`-th tuple.
    type KeyOf = fn(u64) -> Key;

    /// The window of [`edge_inputs`].
    const EDGE_W: usize = 128;

    /// The inputs beside the random one, as the key of the `i`-th tuple of
    /// a stream and the band, for windows of [`EDGE_W`]: keys at the
    /// domain's corners, one repeated key, keys repeating at periods around
    /// the window size (so matches fall on both sides of the expiry edge),
    /// and over 64 live matches in a probe.
    fn edge_inputs() -> [(&'static str, KeyOf, i64); 4] {
        [
            (
                "domain corners",
                |seq| match seq % 5 {
                    0 => Key::MIN,
                    1 => Key::MAX,
                    2 => Key::MIN + 1,
                    3 => Key::MAX - 1,
                    _ => (seq % 16) as Key,
                },
                1,
            ),
            ("all-duplicate", |_| 7, 0),
            ("window edge", |seq| (seq % (127 + seq % 3)) as Key, 0),
            ("wide band", |seq| ((seq * 37) % 64) as Key, 32),
        ]
    }

    /// Every kind of [`EVERY_KIND`] materialises the oracle's matches in
    /// `run(.., true)` and counts as many in `run(.., false)`.
    fn assert_every_kind_matches_the_reference(
        tuples: &[Tuple],
        predicate: BandPredicate,
        w: usize,
        self_join: bool,
        input: &str,
    ) {
        let expected = canonical(&reference_join(tuples, predicate, w, w, self_join));
        assert!(!expected.is_empty(), "{input}");
        for kind in EVERY_KIND {
            let config = config_with(kind, w);
            let (_, collected) =
                build_single_threaded(&config, predicate, self_join).run(tuples, true);
            let (counted, none) =
                build_single_threaded(&config, predicate, self_join).run(tuples, false);
            let what = format!("{input}, index kind {kind}");
            assert_eq!(canonical(&collected), expected, "{what}");
            assert!(none.is_empty(), "{what}");
            assert_eq!(counted.results, expected.len() as u64, "{what}");
        }
    }

    /// At least one probe of `tuples` finds 64 or more live matches.
    fn has_a_long_run(
        tuples: &[Tuple],
        predicate: BandPredicate,
        w: usize,
        self_join: bool,
    ) -> bool {
        let mut per_probe = std::collections::HashMap::new();
        for r in reference_join(tuples, predicate, w, w, self_join) {
            *per_probe.entry((r.probe.side, r.probe.seq)).or_insert(0) += 1;
        }
        per_probe.values().any(|&m| m >= 64)
    }

    #[test]
    fn every_index_kind_matches_the_reference_two_way() {
        let tuples = random_tuples(3000, 400, 10);
        assert_every_kind_matches_the_reference(
            &tuples,
            BandPredicate::new(2),
            128,
            false,
            "random",
        );
        for (input, key_of, band) in edge_inputs() {
            let tuples: Vec<Tuple> = (0..1000u64)
                .map(|i| match i % 2 {
                    0 => Tuple::r(i / 2, key_of(i / 2)),
                    _ => Tuple::s(i / 2, key_of(i / 2)),
                })
                .collect();
            let predicate = BandPredicate::new(band);
            if matches!(input, "all-duplicate" | "wide band") {
                assert!(has_a_long_run(&tuples, predicate, EDGE_W, false), "{input}");
            }
            assert_every_kind_matches_the_reference(&tuples, predicate, EDGE_W, false, input);
        }
    }

    #[test]
    fn every_index_kind_matches_the_reference_self_join() {
        let tuples: Vec<Tuple> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..2000u64)
                .map(|i| Tuple::r(i, rng.gen_range(0..300)))
                .collect()
        };
        assert_every_kind_matches_the_reference(&tuples, BandPredicate::new(1), 96, true, "random");
        for (input, key_of, band) in edge_inputs() {
            let tuples: Vec<Tuple> = (0..1000u64).map(|i| Tuple::r(i, key_of(i))).collect();
            let predicate = BandPredicate::new(band);
            if matches!(input, "all-duplicate" | "wide band") {
                assert!(has_a_long_run(&tuples, predicate, EDGE_W, true), "{input}");
            }
            assert_every_kind_matches_the_reference(&tuples, predicate, EDGE_W, true, input);
        }
    }

    #[test]
    fn asymmetric_window_sizes_are_respected() {
        let tuples = random_tuples(4000, 200, 12);
        let predicate = BandPredicate::new(1);
        let (wr, ws) = (32, 256);
        let expected = canonical(&reference_join(&tuples, predicate, wr, ws, false));
        let mut config = config_with(IndexKind::PimTree, ws);
        config.window_r = wr;
        config.window_s = ws;
        let mut op = build_single_threaded(&config, predicate, false);
        let (_, results) = op.run(&tuples, true);
        assert_eq!(canonical(&results), expected);
    }

    /// Every tuple's probe goes through `probe_runs` as a batch of one: the
    /// PIM-Tree answers it with its group probe's scalar descent, every other
    /// backend with its scalar probe, counted as one. Both agree with the
    /// oracle.
    #[test]
    fn batched_and_scalar_probe_paths_agree_for_every_index_kind() {
        let tuples = random_tuples(2500, 60, 15); // small domain: many dup keys
        let predicate = BandPredicate::new(2);
        let w = 96;
        let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
        assert!(!expected.is_empty());
        for kind in [
            IndexKind::BTree,
            IndexKind::ImTree,
            IndexKind::PimTree,
            IndexKind::BwTree,
        ] {
            let mut batched = build_single_threaded(&config_with(kind, w), predicate, false);
            let (batched_stats, batched_results) = batched.run(&tuples, true);
            assert_eq!(canonical(&batched_results), expected, "batched {kind}");
            match kind {
                IndexKind::PimTree => {
                    assert_eq!(batched_stats.probe.batches, tuples.len() as u64);
                    assert_eq!(batched_stats.probe.scalar_probes, 0);
                }
                _ => assert_eq!(
                    batched_stats.probe.scalar_probes,
                    tuples.len() as u64,
                    "{kind} has no batched path and falls back per probe"
                ),
            }
        }
    }

    #[test]
    fn operator_reports_merges_and_breakdown() {
        let tuples = random_tuples(4000, 10_000, 13);
        let predicate = BandPredicate::new(5);
        let pim = PimConfig::for_window(256)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        let mut op =
            IbwjOperator::new(256, 256, predicate, || PimTree::new(pim)).with_instrumentation();
        let (stats, _) = op.run(&tuples, false);
        assert!(
            stats.merges > 0,
            "merge ratio 0.25 over 4000 tuples must merge"
        );
        assert!(stats.merge_time.as_nanos() > 0);
        assert!(stats.breakdown.count(Step::Insert) > 0);
        assert!(stats.breakdown.count(Step::Search) > 0);
        assert!(stats.breakdown.count(Step::Merge) == stats.merges);
    }

    #[test]
    fn second_run_reports_its_own_call_not_the_running_total() {
        let tuples = random_tuples(4000, 2_000, 16);
        let pim = PimConfig::for_window(128)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        let mut op = IbwjOperator::new(128, 128, BandPredicate::new(20), || PimTree::new(pim));
        let (first, warm) = op.run(&tuples[..1000], true);
        let (second, measured) = op.run(&tuples[1000..], false);
        assert!(measured.is_empty());
        assert!(!warm.is_empty() && first.merges > 0);
        // The same call with results collected is the oracle for the count.
        let mut twin = IbwjOperator::new(128, 128, BandPredicate::new(20), || PimTree::new(pim));
        twin.run(&tuples[..1000], false);
        let (_, collected) = twin.run(&tuples[1000..], true);
        assert_eq!(second.results, collected.len() as u64);
        assert_eq!(second.tuples, 3000);
        assert_eq!(second.breakdown.tuples, 3000);
        let total = op.stats();
        assert_eq!(total.results, first.results + second.results);
        assert_eq!(total.merges, first.merges + second.merges);
        assert_eq!(total.merge_time, first.merge_time + second.merge_time);
        assert_eq!(
            second.breakdown.count(Step::Merge),
            second.merges,
            "the breakdown is per call too"
        );
    }

    #[test]
    fn results_count_matches_collected_results() {
        let tuples = random_tuples(1500, 150, 14);
        let predicate = BandPredicate::new(2);
        let mut op = IbwjOperator::new(64, 64, predicate, || RefCell::new(BTreeIndex::new()));
        let (stats, results) = op.run(&tuples, true);
        assert_eq!(stats.results, results.len() as u64);
        assert!(stats.observed_match_rate() > 0.0);
    }
}
