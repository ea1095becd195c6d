//! Figure 9b: per-tuple cost breakdown (search / scan / insert / delete /
//! merge) of single-threaded IBWJ using the PIM-Tree, IM-Tree and B+-Tree,
//! for a small and a large window. The paper uses 2^17 and 2^23; the defaults
//! here are 2^14 and 2^17 (override with `--min-exp` / `--max-exp`).

use pimtree_bench::harness::*;
use pimtree_common::{BandPredicate, IndexKind, JoinConfig, Step, Tuple};
use pimtree_join::build_single_threaded;
use pimtree_workload::KeyDistribution;

fn breakdown_row(
    kind: IndexKind,
    w: usize,
    tuples: &[Tuple],
    predicate: BandPredicate,
) -> Vec<String> {
    // Instrumented run: build the operator directly so instrumentation can be
    // enabled through the dedicated constructor path.
    let config = JoinConfig::symmetric(w, kind).with_pim(pim_config(w));
    let mut op = instrumented(kind, &config, predicate);
    let warmup = (2 * w).min(tuples.len());
    op.run(&tuples[..warmup], false);
    let (stats, _) = op.run(&tuples[warmup..], false);
    // The breakdown covers the measured call only, its tuple counter
    // included.
    let b = stats.breakdown.clone();
    Step::ALL
        .iter()
        .map(|&s| format!("{:.1}", b.per_tuple_nanos(s)))
        .collect()
}

fn instrumented(
    kind: IndexKind,
    config: &JoinConfig,
    predicate: BandPredicate,
) -> Box<dyn pimtree_join::SingleThreadJoin> {
    use pimtree_join::{BTreeAdapter, IbwjOperator, ImTreeAdapter, PimTreeAdapter};
    let w = config.window_r;
    let pim = config.pim;
    match kind {
        IndexKind::BTree => {
            Box::new(IbwjOperator::new(w, w, predicate, BTreeAdapter::new).with_instrumentation())
        }
        IndexKind::ImTree => Box::new(
            IbwjOperator::new(w, w, predicate, || ImTreeAdapter::new(pim)).with_instrumentation(),
        ),
        IndexKind::PimTree => Box::new(
            IbwjOperator::new(w, w, predicate, || PimTreeAdapter::new(pim)).with_instrumentation(),
        ),
        other => {
            // Fall back to the factory (uninstrumented) for completeness.
            build_single_threaded(&JoinConfig::symmetric(w, other), predicate, false)
        }
    }
}

fn main() {
    let opts = RunOpts::parse(14, 17);
    print_header(
        "fig09b",
        "per-tuple step cost of single-threaded IBWJ (ns/tuple)",
        &[
            "index",
            "window_exp",
            "search",
            "scan",
            "insert",
            "delete",
            "merge",
        ],
    );
    for exp in [opts.min_exp, opts.max_exp] {
        let w = 1usize << exp;
        let n = opts.tuples_for(w);
        let (tuples, predicate) = two_way_workload(
            n + 2 * w,
            w,
            2.0,
            KeyDistribution::uniform(),
            50.0,
            opts.seed,
        );
        for kind in [IndexKind::PimTree, IndexKind::ImTree, IndexKind::BTree] {
            let cols = breakdown_row(kind, w, &tuples, predicate);
            let mut row = vec![kind.to_string(), exp.to_string()];
            row.extend(cols);
            print_row(&row);
        }
    }
}
