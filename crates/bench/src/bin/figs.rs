//! Regenerates the paper's figures 8–14: `figs [ID…] [--min-exp=N
//! --max-exp=N --tuples=N --threads=N --task-size=N --seed=N
//! --ingest-target=N]`.
//!
//! An id names a figure with or without its `fig` prefix and leading zero
//! (`9a`, `fig09a`); no id runs every figure. Each figure prints a `#`
//! banner, a CSV header and one CSV row per data point.

use pimtree_bench::figures::{select, FIGURES};
use pimtree_bench::harness::RunOpts;

fn main() {
    let opts = RunOpts::parse_figures();
    let figures = select(&opts.ids).unwrap_or_else(|unknown| {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!(
            "error: unknown figure '{unknown}'; valid ids: {}",
            ids.join(" ")
        );
        std::process::exit(2)
    });
    for figure in figures {
        let opts = opts.with_default_exps(figure.default_exps);
        println!("{}", figure.title(&opts));
        figure.run(&opts, &mut |row| println!("{}", row.join(",")));
    }
}
