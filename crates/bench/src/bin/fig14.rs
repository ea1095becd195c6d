//! Figure 14 (appendix): cost of one PIM-Tree merge operation — merging the
//! live tuples of TS and TI into a new immutable B+-Tree — for varying window
//! sizes. The cost is expected to grow linearly with the window.
//!
//! Each window size runs at merge ratio 1 (the paper's figure) and at 1/8
//! (the single-threaded IBWJ baseline's ratio). `ns_per_entry_read` divides a
//! merge's time by the entries it reads from both components, live or
//! expired: the per-entry cost Equation 7 assumes constant.

use pimtree_bench::harness::*;
use pimtree_core::PimTree;
use pimtree_workload::KeyDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = RunOpts::parse(14, 20);
    print_header(
        "fig14",
        "PIM-Tree merge cost vs window size",
        &[
            "window_exp",
            "merge_ratio",
            "merge_seconds",
            "entries_merged",
            "ns_per_entry_read",
        ],
    );
    let dist = KeyDistribution::uniform();
    for exp in opts.window_exps() {
        let w = 1usize << exp;
        for ratio in [1.0, 0.125] {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let pim = PimTree::new(pim_config(w).with_merge_ratio(ratio));
            // Fill TS with one window, then slide the window in steps of
            // `ratio · w` inserts, each followed by the merge that expires the
            // oldest `ratio · w`. The first step is not measured: its merge is
            // the first whose output has the steady-state size. The window's
            // worth of steps after it (one merge at ratio 1, eight at 1/8) is
            // reported as their mean.
            for i in 0..w as u64 {
                pim.insert(dist.sample(&mut rng), i);
            }
            pim.merge(0);
            let step = pim.config().merge_threshold() as u64;
            let mut seq = w as u64;
            let (mut merges, mut seconds, mut merged, mut read) = (0u32, 0.0, 0usize, 0usize);
            while seq < 2 * w as u64 + step {
                for _ in 0..step {
                    pim.insert(dist.sample(&mut rng), seq);
                    seq += 1;
                }
                let report = pim.merge(seq - w as u64);
                if seq == w as u64 + step {
                    continue;
                }
                merges += 1;
                seconds += report.duration.as_secs_f64();
                merged += report.new_len;
                read += report.kept_from_ts + report.dropped_expired + report.from_ti;
            }
            print_row(&[
                exp.to_string(),
                ratio.to_string(),
                format!("{:.6}", seconds / f64::from(merges)),
                (merged / merges as usize).to_string(),
                format!("{:.2}", seconds * 1e9 / read as f64),
            ]);
        }
    }
}
