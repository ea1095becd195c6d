//! Figure 10c: parallel IBWJ throughput using the PIM-Tree as a function of
//! the task size, for several window sizes.

use pimtree_bench::harness::*;
use pimtree_common::RingConfig;
use pimtree_join::SharedIndexKind;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(14, 17);
    let exps: Vec<u32> = opts.window_exps().into_iter().step_by(2).collect();
    let header: Vec<String> = std::iter::once("task_size".to_string())
        .chain(exps.iter().map(|e| format!("w2e{e}")))
        .collect();
    print_header(
        "fig10c",
        "parallel IBWJ with PIM-Tree: throughput vs task size (Mtps)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for task_size in 1..=10usize {
        let mut row = vec![task_size.to_string()];
        for &exp in &exps {
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
            // A fill target of one task per worker pins every claim to one
            // fixed-size task, which is what the paper's figure sweeps; by
            // default a claim grows with the ring's depth.
            let stats = run_parallel_ring(
                SharedIndexKind::PimTree,
                w,
                w,
                opts.threads,
                task_size,
                pim_config(w),
                RingConfig::default().with_ingest_target(opts.threads * task_size),
                predicate,
                &tuples,
                false,
            );
            row.push(mtps(&stats));
        }
        print_row(&row);
    }
}
