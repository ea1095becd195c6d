//! The paper's figures 8–14 as one table, [`FIGURES`], run by the `figs`
//! binary.
//!
//! Most figures are a sweep: the rows walk one axis (window exponent, merge
//! ratio, insertion depth, chain length, match rate, task size, S-share,
//! `w_r × w_s`, distribution or threads), the columns are a list of series,
//! and each cell reads one number from one run's [`JoinRunStats`]. The
//! figures whose cells are not one run's number (9b, 11a, 13a, 13b and 14)
//! keep a function of their own.

use std::cell::RefCell;

use pimtree_btree::BTreeIndex;
use pimtree_common::{BandPredicate, IndexKind, JoinConfig, MergePolicy, Step, Tuple};
use pimtree_core::{ImTree, PimTree};
use pimtree_join::{HandshakeMode, IbwjOperator, JoinRunStats, SharedIndexKind, SingleThreadJoin};
use pimtree_workload::{calibrate_diff, KeyDistribution, ShiftingGaussian};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{
    mtps, pim_config, run_engine, run_handshake, run_single, self_join_workload, two_way_workload,
    RunOpts,
};

/// One figure of the paper.
pub struct Figure {
    /// The figure's name, `fig08a` … `fig14`; `figs` also accepts it without
    /// the `fig` prefix and leading zero (`8a`, `14`).
    pub id: &'static str,
    /// One-line description; `{exp}` stands for the largest window exponent.
    pub about: &'static str,
    /// The window exponents swept when no `--min-exp` / `--max-exp` is given.
    pub default_exps: (u32, u32),
    body: Body,
}

/// Receives a figure's CSV header, then each of its rows.
pub type Emit<'a> = &'a mut dyn FnMut(Vec<String>);

enum Body {
    /// Rows × columns, one run per cell; `base` sets what every cell shares.
    Sweep {
        rows: (&'static str, Axis),
        cols: Axis,
        base: fn(&mut Point),
    },
    Custom(fn(&RunOpts, Emit<'_>)),
}

impl Figure {
    /// The `# id: about` banner line.
    pub fn title(&self, opts: &RunOpts) -> String {
        let about = self.about.replace("{exp}", &opts.max_exp.to_string());
        format!("# {}: {about}", self.id)
    }

    /// Runs the figure with `opts` (whose window exponents are already
    /// resolved, see [`RunOpts::with_default_exps`]), handing `emit` the
    /// header and then one row at a time.
    pub fn run(&self, opts: &RunOpts, emit: Emit<'_>) {
        match &self.body {
            Body::Sweep { rows, cols, base } => sweep(opts, emit, *rows, *cols, *base),
            Body::Custom(body) => body(opts, emit),
        }
    }

    /// Whether `arg` names this figure: `fig08a`, `08a` or `8a`.
    fn is(&self, arg: &str) -> bool {
        fn short(id: &str) -> &str {
            id.trim_start_matches("fig").trim_start_matches('0')
        }
        short(self.id) == short(arg)
    }
}

/// The figures `ids` name, in table order, or all of them for no ids; an
/// unknown id is returned as the error.
pub fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(unknown) = ids.iter().find(|id| !FIGURES.iter().any(|f| f.is(id))) {
        return Err(unknown.clone());
    }
    Ok(FIGURES
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| f.is(id)))
        .collect())
}

/// Which operator a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Single(IndexKind),
    Engine(SharedIndexKind),
    Handshake(HandshakeMode),
}

/// The number a cell reads from its run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Metric {
    Mtps,
    MeanLatencyUs,
    LoadGbps,
    StoreGbps,
    StoreShare,
}

impl Metric {
    fn read(self, stats: &JoinRunStats) -> String {
        match self {
            Metric::Mtps => mtps(stats),
            Metric::MeanLatencyUs => format!("{:.2}", stats.latency.mean_micros()),
            Metric::LoadGbps => format!("{:.3}", stats.load_gbps()),
            Metric::StoreGbps => format!("{:.3}", stats.store_gbps()),
            Metric::StoreShare => {
                let total = (stats.bytes_loaded + stats.bytes_stored) as f64;
                let share = if total > 0.0 {
                    stats.bytes_stored as f64 / total
                } else {
                    0.0
                };
                format!("{share:.3}")
            }
        }
    }
}

/// Everything one cell of a sweep depends on. A cell starts from
/// [`Point::new`], then the sweep's `base`, its row and its column set
/// their fields in that order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    op: Op,
    /// Window exponents of `R` and `S`.
    exps: (u32, u32),
    match_rate: f64,
    dist: KeyDistribution,
    s_percent: f64,
    self_join: bool,
    threads: usize,
    task_size: usize,
    ingest_target: usize,
    chain_length: usize,
    merge_ratio: f64,
    insertion_depth: usize,
    merge_policy: MergePolicy,
    metric: Metric,
}

impl Point {
    fn new(opts: &RunOpts) -> Self {
        Point {
            op: Op::Engine(SharedIndexKind::PimTree),
            exps: (opts.max_exp, opts.max_exp),
            match_rate: 2.0,
            dist: KeyDistribution::uniform(),
            s_percent: 50.0,
            self_join: false,
            threads: opts.workers(),
            task_size: opts.task_size,
            ingest_target: opts.ingest_target,
            chain_length: 2,
            merge_ratio: 1.0,
            insertion_depth: 3,
            merge_policy: MergePolicy::default(),
            metric: Metric::Mtps,
        }
    }

    /// The larger window, which sizes and calibrates the input.
    fn w(&self) -> usize {
        1 << self.exps.0.max(self.exps.1)
    }

    /// What the input depends on besides the seed and `--tuples`.
    fn input_key(&self) -> (usize, f64, KeyDistribution, f64, bool) {
        (
            self.w(),
            self.match_rate,
            self.dist,
            self.s_percent,
            self.self_join,
        )
    }

    fn config(&self) -> JoinConfig {
        let index = match self.op {
            Op::Single(kind) => kind,
            _ => IndexKind::PimTree,
        };
        let pim = pim_config(self.w())
            .with_merge_ratio(self.merge_ratio)
            .with_insertion_depth(self.insertion_depth)
            .with_merge_policy(self.merge_policy);
        let mut config = JoinConfig::symmetric(self.w(), index)
            .with_threads(self.threads)
            .with_task_size(self.task_size)
            .with_ingest_target(self.ingest_target)
            .with_chain_length(self.chain_length)
            .with_pim(pim);
        config.window_r = 1 << self.exps.0;
        config.window_s = 1 << self.exps.1;
        config
    }

    /// Runs this cell's operator over `tuples`: the input is `n` measured
    /// tuples after `2w` of warm-up.
    fn run(&self, tuples: &[Tuple], predicate: BandPredicate, n: usize) -> JoinRunStats {
        let config = self.config();
        // NLWJ is O(w) per tuple; keep its input small enough to finish.
        let nlwj_n = ((1 << 24) / self.w()).max(2_000).min(n);
        let head = |len: usize| &tuples[..(2 * self.w() + len).min(tuples.len())];
        match self.op {
            Op::Single(IndexKind::None) => {
                run_single(&config, predicate, head(nlwj_n), self.self_join)
            }
            Op::Single(_) => run_single(&config, predicate, tuples, self.self_join),
            Op::Handshake(HandshakeMode::Nlwj) => run_handshake(
                HandshakeMode::Nlwj,
                &config,
                predicate,
                head(nlwj_n * self.threads),
            ),
            Op::Handshake(mode) => run_handshake(mode, &config, predicate, tuples),
            Op::Engine(kind) => {
                run_engine(config, kind, predicate, tuples, self.self_join, |op| op)
            }
        }
    }
}

/// One row or column of a sweep: its label and what it sets.
struct Tick {
    label: String,
    set: Box<dyn Fn(&mut Point)>,
}

type Axis = fn(&RunOpts) -> Vec<Tick>;
type Series = (&'static str, fn(&mut Point));

fn ticks<T: Copy + 'static>(
    values: impl IntoIterator<Item = T>,
    label: impl Fn(T) -> String,
    set: fn(&mut Point, T),
) -> Vec<Tick> {
    values
        .into_iter()
        .map(|v| Tick {
            label: label(v),
            set: Box::new(move |p| set(p, v)),
        })
        .collect()
}

/// Every `step`-th window exponent of the sweep.
fn exps(
    opts: &RunOpts,
    step: usize,
    label: fn(u32) -> String,
    set: fn(&mut Point, u32),
) -> Vec<Tick> {
    ticks(opts.window_exps().into_iter().step_by(step), label, set)
}

fn series(list: &[Series]) -> Vec<Tick> {
    ticks(
        list.iter().copied(),
        |(name, _)| name.to_string(),
        |p, (_, set)| set(p),
    )
}

fn windows(opts: &RunOpts) -> Vec<Tick> {
    exps(opts, 1, |e| e.to_string(), |p, e| p.exps = (e, e))
}

/// Every other window exponent, as columns.
fn window_cols(opts: &RunOpts) -> Vec<Tick> {
    exps(opts, 2, |e| format!("w2e{e}"), |p, e| p.exps = (e, e))
}

fn insertion_depths(_: &RunOpts) -> Vec<Tick> {
    ticks(
        1..=4usize,
        |d| format!("di{d}"),
        |p, d| p.insertion_depth = d,
    )
}

fn merge_ratios(_: &RunOpts) -> Vec<Tick> {
    ticks(
        (0..=6).rev(),
        |k| format!("-{k}"),
        |p, k| p.merge_ratio = 1.0 / f64::from(1 << k),
    )
}

fn task_sizes(_: &RunOpts) -> Vec<Tick> {
    // A fill target of one task per worker pins every claim to one
    // fixed-size task, which is what the paper's figure sweeps; by default a
    // claim grows with the ring's depth.
    ticks(
        1..=10usize,
        |t| t.to_string(),
        |p, t| {
            p.task_size = t;
            p.ingest_target = p.threads * t;
        },
    )
}

fn thread_counts(opts: &RunOpts) -> Vec<Tick> {
    ticks(1..=opts.workers(), |t| t.to_string(), |p, t| p.threads = t)
}

/// The single-threaded operator over `kind` at merge ratio 1/8, the
/// empirically good ratio of Figures 9c/9d (the multithreaded default of 1
/// is suboptimal there), and with one thread, so that a thread sweep runs it
/// once.
fn single(p: &mut Point, kind: IndexKind) {
    p.op = Op::Single(kind);
    p.merge_ratio = 1.0 / 8.0;
    p.threads = 1;
}

/// Runs a sweep: rows × columns, one run per cell.
fn sweep(opts: &RunOpts, emit: Emit<'_>, rows: (&str, Axis), cols: Axis, base: fn(&mut Point)) {
    let (rows_named, rows) = (rows.0, (rows.1)(opts));
    let cols = cols(opts);
    emit(
        std::iter::once(rows_named.to_string())
            .chain(cols.iter().map(|c| c.label.clone()))
            .collect(),
    );
    // Cells that differ only in the number they read share one run, and
    // consecutive cells on the same input share one generation of it.
    let mut runs: Vec<(Point, JoinRunStats)> = Vec::new();
    let mut input: Option<(_, Vec<Tuple>, BandPredicate)> = None;
    for row in &rows {
        let mut line = vec![row.label.clone()];
        for col in &cols {
            let mut p = Point::new(opts);
            base(&mut p);
            (row.set)(&mut p);
            (col.set)(&mut p);
            let key = Point {
                metric: Metric::Mtps,
                ..p
            };
            let i = match runs.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    let (w, n) = (p.w(), opts.tuples_for(p.w()));
                    if input.as_ref().map(|(k, ..)| *k) != Some(p.input_key()) {
                        let (tuples, predicate) = if p.self_join {
                            self_join_workload(n + 2 * w, w, p.match_rate, p.dist, opts.seed)
                        } else {
                            let (rate, dist, s) = (p.match_rate, p.dist, p.s_percent);
                            two_way_workload(n + 2 * w, w, rate, dist, s, opts.seed)
                        };
                        input = Some((p.input_key(), tuples, predicate));
                    }
                    let (_, tuples, predicate) = input.as_ref().expect("input generated");
                    runs.push((key, p.run(tuples, *predicate, n)));
                    runs.len() - 1
                }
            };
            line.push(p.metric.read(&runs[i].1));
        }
        emit(line);
    }
}

/// The paper's figures 8–14 in order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig08a",
        about: "round-robin partitioning vs single-threaded baselines vs MT Bw-Tree (Mtps)",
        default_exps: (12, 16),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: |_| {
                series(&[
                    ("nlwj_single", |p| p.op = Op::Single(IndexKind::None)),
                    ("nlwj_handshake", |p| {
                        p.op = Op::Handshake(HandshakeMode::Nlwj)
                    }),
                    ("ibwj_single_btree", |p| p.op = Op::Single(IndexKind::BTree)),
                    ("ibwj_handshake", |p| {
                        p.op = Op::Handshake(HandshakeMode::Ibwj)
                    }),
                    ("ibwj_mt_bwtree", |p| {
                        p.op = Op::Engine(SharedIndexKind::BwTree)
                    }),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig08b",
        about: "chained-index throughput vs chain length (w = 2^{exp}, Mtps)",
        default_exps: (16, 16),
        body: Body::Sweep {
            rows: ("chain_length", |_| {
                ticks(2..=16usize, |c| c.to_string(), |p, c| p.chain_length = c)
            }),
            cols: |_| {
                series(&[
                    // One B+-Tree, not a chain: the same run on every row.
                    ("btree", |p| {
                        p.op = Op::Single(IndexKind::BTree);
                        p.chain_length = 2;
                    }),
                    ("b_chain", |p| p.op = Op::Single(IndexKind::BChain)),
                    ("ib_chain", |p| p.op = Op::Single(IndexKind::IbChain)),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig08c",
        about: "single-threaded IBWJ with PIM-Tree vs insertion depth (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: insertion_depths,
            base: |p| p.op = Op::Single(IndexKind::PimTree),
        },
    },
    Figure {
        id: "fig08d",
        about: "parallel IBWJ with PIM-Tree vs insertion depth (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: insertion_depths,
            base: |_| {},
        },
    },
    Figure {
        id: "fig09a",
        about: "parallel IBWJ with PIM-Tree vs merge ratio (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("merge_ratio_exp", merge_ratios),
            cols: window_cols,
            base: |_| {},
        },
    },
    Figure {
        id: "fig09b",
        about: "per-tuple step cost of single-threaded IBWJ (ns/tuple)",
        default_exps: (14, 17),
        body: Body::Custom(fig09b),
    },
    Figure {
        id: "fig09c",
        about: "single-threaded IBWJ with IM-Tree vs merge ratio (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("merge_ratio_exp", merge_ratios),
            cols: |o| exps(o, 1, |e| format!("w2e{e}"), |p, e| p.exps = (e, e)),
            base: |p| p.op = Op::Single(IndexKind::ImTree),
        },
    },
    Figure {
        id: "fig09d",
        about: "single-threaded IBWJ with PIM-Tree vs merge ratio (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("merge_ratio_exp", merge_ratios),
            cols: |o| exps(o, 1, |e| format!("w2e{e}"), |p, e| p.exps = (e, e)),
            base: |p| p.op = Op::Single(IndexKind::PimTree),
        },
    },
    Figure {
        id: "fig10a",
        about: "single-threaded IBWJ throughput by index (Mtps)",
        default_exps: (12, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: |_| {
                series(&[
                    ("btree", |p| single(p, IndexKind::BTree)),
                    ("im_tree", |p| single(p, IndexKind::ImTree)),
                    ("pim_tree", |p| single(p, IndexKind::PimTree)),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig10b",
        about: "IBWJ throughput vs match rate (w = 2^{exp}, Mtps)",
        default_exps: (16, 16),
        body: Body::Sweep {
            rows: ("match_rate_exp", |_| {
                let exps = [-4i32, -2, 0, 2, 4, 6, 8, 10];
                ticks(exps, |e| e.to_string(), |p, e| p.match_rate = 2f64.powi(e))
            }),
            cols: |_| {
                series(&[
                    ("btree", |p| single(p, IndexKind::BTree)),
                    ("im_tree", |p| single(p, IndexKind::ImTree)),
                    ("pim_tree", |p| single(p, IndexKind::PimTree)),
                    ("pim_tree_mt", |_| {}),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig10c",
        about: "parallel IBWJ with PIM-Tree: throughput vs task size (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("task_size", task_sizes),
            cols: window_cols,
            base: |_| {},
        },
    },
    Figure {
        id: "fig10d",
        about: "parallel IBWJ with PIM-Tree: mean latency vs task size (µs)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("task_size", task_sizes),
            cols: |o| exps(o, 2, |e| format!("w2e{e}_us"), |p, e| p.exps = (e, e)),
            base: |p| p.metric = Metric::MeanLatencyUs,
        },
    },
    Figure {
        id: "fig11a",
        about: "memory footprint of PIM-Tree vs B+-Tree (MiB)",
        default_exps: (16, 20),
        body: Body::Custom(fig11a),
    },
    Figure {
        id: "fig11b",
        about: "parallel IBWJ with PIM-Tree under asymmetric input rates (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("s_percent", |_| {
                let shares = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0];
                ticks(shares, |s| format!("{s:.0}"), |p, s| p.s_percent = s)
            }),
            cols: window_cols,
            base: |_| {},
        },
    },
    Figure {
        id: "fig11c",
        about: "parallel IBWJ with PIM-Tree and asymmetric window sizes (Mtps)",
        default_exps: (13, 17),
        body: Body::Sweep {
            rows: ("wr_exp", |o| {
                exps(o, 2, |e| e.to_string(), |p, e| p.exps.0 = e)
            }),
            cols: |o| exps(o, 2, |e| format!("ws2e{e}"), |p, e| p.exps.1 = e),
            base: |_| {},
        },
    },
    Figure {
        id: "fig11d",
        about: "logical memory traffic of parallel IBWJ (w = 2^{exp})",
        default_exps: (16, 16),
        body: Body::Sweep {
            rows: ("threads", thread_counts),
            cols: |_| {
                series(&[
                    ("load_gbps", |p| p.metric = Metric::LoadGbps),
                    ("store_gbps", |p| p.metric = Metric::StoreGbps),
                    ("store_share", |p| p.metric = Metric::StoreShare),
                    ("mtps", |_| {}),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig12a",
        about: "thread scalability of parallel IBWJ with PIM-Tree (w = 2^{exp}, Mtps)",
        default_exps: (16, 16),
        body: Body::Sweep {
            rows: ("threads", thread_counts),
            // "No cc" (without concurrency control): the single-threaded
            // operator.
            cols: |_| {
                series(&[
                    ("two_way_with_cc", |_| {}),
                    ("self_join_with_cc", |p| p.self_join = true),
                    ("two_way_no_cc", |p| single(p, IndexKind::PimTree)),
                    ("self_join_no_cc", |p| {
                        single(p, IndexKind::PimTree);
                        p.self_join = true;
                    }),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig12b",
        about: "parallel IBWJ with PIM-Tree by key distribution (Mtps)",
        default_exps: (14, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: |_| {
                series(&[
                    ("uniform", |p| p.dist = KeyDistribution::uniform()),
                    ("gaussian", |p| p.dist = KeyDistribution::gaussian_paper()),
                    ("gamma_k3_t3", |p| p.dist = KeyDistribution::gamma_3_3()),
                    ("gamma_k1_t5", |p| p.dist = KeyDistribution::gamma_1_5()),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig12c",
        about: "index-based self-join throughput (Mtps)",
        default_exps: (12, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: |_| {
                series(&[
                    ("st_btree", |p| single(p, IndexKind::BTree)),
                    ("st_pim_tree", |p| single(p, IndexKind::PimTree)),
                    ("mt_bw_tree", |p| p.op = Op::Engine(SharedIndexKind::BwTree)),
                    ("mt_pim_tree", |_| {}),
                ])
            },
            base: |p| p.self_join = true,
        },
    },
    Figure {
        id: "fig13a",
        about: "insert skew across PIM-Tree sub-indexes under drift (w = 2^{exp})",
        default_exps: (16, 16),
        body: Body::Custom(fig13a),
    },
    Figure {
        id: "fig13b",
        about: "parallel self-join with PIM-Tree under drifting keys (w = 2^{exp}, Mtps)",
        default_exps: (16, 16),
        body: Body::Custom(fig13b),
    },
    Figure {
        id: "fig13c",
        about: "two-way IBWJ throughput (Mtps)",
        default_exps: (12, 17),
        body: Body::Sweep {
            rows: ("window_exp", windows),
            cols: |_| {
                series(&[
                    ("st_btree", |p| single(p, IndexKind::BTree)),
                    ("st_pim_tree", |p| single(p, IndexKind::PimTree)),
                    ("mt_bw_tree", |p| p.op = Op::Engine(SharedIndexKind::BwTree)),
                    ("mt_pim_tree", |_| {}),
                    ("mt_pim_tree_blocking_merge", |p| {
                        p.merge_policy = MergePolicy::Blocking
                    }),
                ])
            },
            base: |_| {},
        },
    },
    Figure {
        id: "fig14",
        about: "PIM-Tree merge cost vs window size",
        default_exps: (14, 20),
        body: Body::Custom(fig14),
    },
];

/// Emits the header of a custom figure from its comma-separated columns.
fn header(emit: Emit<'_>, columns: &str) {
    emit(columns.split(',').map(str::to_string).collect());
}

/// Figure 9b: per-tuple cost of each step (search / scan / insert / delete /
/// merge) of single-threaded IBWJ over the PIM-Tree, IM-Tree and B+-Tree, at
/// the smallest and the largest window exponent. The paper uses 2^17 and
/// 2^23.
fn fig09b(opts: &RunOpts, emit: Emit<'_>) {
    header(emit, "index,window_exp,search,scan,insert,delete,merge");
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
        let pim = pim_config(w);
        let ops: [(IndexKind, Box<dyn SingleThreadJoin>); 3] = [
            (
                IndexKind::PimTree,
                Box::new(
                    IbwjOperator::new(w, w, predicate, || RefCell::new(PimTree::new(pim)))
                        .with_instrumentation(),
                ),
            ),
            (
                IndexKind::ImTree,
                Box::new(
                    IbwjOperator::new(w, w, predicate, || RefCell::new(ImTree::new(pim)))
                        .with_instrumentation(),
                ),
            ),
            (
                IndexKind::BTree,
                Box::new(
                    IbwjOperator::new(w, w, predicate, || RefCell::new(BTreeIndex::new()))
                        .with_instrumentation(),
                ),
            ),
        ];
        for (kind, mut op) in ops {
            let warmup = (2 * w).min(tuples.len());
            op.run(&tuples[..warmup], false);
            // The breakdown covers the measured call only, its tuple counter
            // included.
            let (stats, _) = op.run(&tuples[warmup..], false);
            let mut row = vec![kind.to_string(), exp.to_string()];
            row.extend(
                Step::ALL
                    .iter()
                    .map(|&s| format!("{:.1}", stats.breakdown.per_tuple_nanos(s))),
            );
            emit(row);
        }
    }
}

/// Figure 11a: memory footprint of the PIM-Tree (TS, TI, merge buffer) and of
/// a plain B+-Tree (inner nodes, leaf nodes) for `2^exp` indexed elements.
/// The merge ratio is 1 so that TI is at its largest.
fn fig11a(opts: &RunOpts, emit: Emit<'_>) {
    header(
        emit,
        "elements_exp,pim_ts,pim_ti,pim_buffer,pim_total,btree_inner,btree_leaf,btree_total",
    );
    let mib = |bytes: usize| format!("{:.2}", bytes as f64 / (1024.0 * 1024.0));
    for exp in opts.window_exps() {
        let n = 1usize << exp;
        // PIM-Tree: half of the elements merged into TS, half kept in TI
        // (merge ratio 1 means TI can grow to a full window).
        let pim = PimTree::new(pim_config(n));
        for i in 0..n as i64 {
            pim.insert(i * 7, i as u64);
        }
        pim.merge(0);
        for i in 0..n as i64 {
            pim.insert(i * 7 + 3, (n as i64 + i) as u64);
        }
        let f = pim.footprint();
        let mut btree = BTreeIndex::new();
        for i in 0..n as i64 {
            btree.insert(i * 7, i as u64);
        }
        let b = btree.stats();
        emit(vec![
            exp.to_string(),
            mib(f.ts_leaf_bytes + f.ts_inner_bytes),
            mib(f.ti_bytes),
            mib(f.merge_buffer_bytes),
            mib(f.total_bytes()),
            mib(b.inner_bytes),
            mib(b.leaf_bytes),
            mib(b.total_bytes()),
        ]);
    }
}

/// Figure 13a: distribution of inserts across the PIM-Tree's sub-indexes
/// while the key distribution drifts (shifting Gaussian with drift speed r).
/// The paper plots the normalised histogram; this prints its summary per
/// drift speed: the hottest sub-index's share of inserts, the normalised
/// maximum, and the fraction of sub-indexes that receive (almost) none.
fn fig13a(opts: &RunOpts, emit: Emit<'_>) {
    header(emit, "r,partitions,top1_share,max_over_mean,zero_fraction");
    let w = 1usize << opts.max_exp;
    for r in [0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0] {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let keys = ShiftingGaussian::scaled(r, w, 4 * w, w).generate(&mut rng);
        let pim = PimTree::new(pim_config(w).with_insertion_depth(4));
        // Phase 1: stationary Gaussian fills the window; merge so the
        // partition ranges adapt to it.
        for (i, &k) in keys[..w].iter().enumerate() {
            pim.insert(k, i as u64);
            if pim.needs_merge() {
                pim.merge((i + 1).saturating_sub(w) as u64);
            }
        }
        pim.reset_insert_histogram();
        // Phase 2: the drifting portion; keep merging as the window slides.
        for (i, &k) in keys[w..w + 4 * w].iter().enumerate() {
            let seq = (w + i) as u64;
            pim.insert(k, seq);
            if pim.needs_merge() {
                pim.merge((seq + 1).saturating_sub(w as u64));
            }
        }
        let hist = pim.insert_histogram();
        let total: u64 = hist.iter().sum();
        let partitions = hist.len().max(1);
        let mean = total as f64 / partitions as f64;
        let max = *hist.iter().max().unwrap_or(&0) as f64;
        let zero = hist.iter().filter(|&&c| (c as f64) < mean * 0.01).count();
        emit(vec![
            format!("{r:.1}"),
            partitions.to_string(),
            format!("{:.3}", if total > 0 { max / total as f64 } else { 0.0 }),
            format!("{:.1}", if mean > 0.0 { max / mean } else { 0.0 }),
            format!("{:.3}", zero as f64 / partitions as f64),
        ]);
    }
}

/// Figure 13b: multithreaded self-join throughput over the PIM-Tree while the
/// key distribution drifts (shifting Gaussian, drift speed r). The paper
/// plots throughput over time; this reports each of the three drift phases
/// (stationary, drifting, re-stationary) per drift speed.
fn fig13b(opts: &RunOpts, emit: Emit<'_>) {
    header(emit, "r,phase1_stationary,phase2_drifting,phase3_recovered");
    let w = 1usize << opts.max_exp;
    let diff = calibrate_diff(KeyDistribution::gaussian_paper(), w, 2.0, opts.seed);
    let predicate = BandPredicate::new(diff);
    let config = JoinConfig::symmetric(w, IndexKind::PimTree)
        .with_threads(opts.workers())
        .with_task_size(opts.task_size)
        .with_ingest_target(opts.ingest_target)
        .with_pim(pim_config(w).with_insertion_depth(4));
    for r in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let keys = ShiftingGaussian::scaled(r, 2 * w, 4 * w, 2 * w).generate(&mut rng);
        // Each phase is a run of its own, numbered from 0, that re-fills its
        // windows during its first w tuples: that understates absolute
        // throughput slightly but keeps the relative effect of the drift.
        let mut row = vec![format!("{r:.1}")];
        for phase in [&keys[..2 * w], &keys[2 * w..6 * w], &keys[6 * w..]] {
            let tuples: Vec<Tuple> = phase
                .iter()
                .enumerate()
                .map(|(i, &k)| Tuple::r(i as u64, k))
                .collect();
            let stats = run_engine(
                config,
                SharedIndexKind::PimTree,
                predicate,
                &tuples,
                true,
                |op| op,
            );
            row.push(mtps(&stats));
        }
        emit(row);
    }
}

/// Figure 14 (appendix): cost of one PIM-Tree merge — merging the live
/// entries of TS and TI into a new immutable tree — per window size, at
/// merge ratio 1 (the paper's figure) and 1/8 (the single-threaded IBWJ
/// baseline's). `ns_per_entry_read` divides a merge's time by the entries it
/// reads from both components, live or expired: the per-entry cost
/// Equation 7 assumes constant.
fn fig14(opts: &RunOpts, emit: Emit<'_>) {
    header(
        emit,
        "window_exp,merge_ratio,merge_seconds,entries_merged,ns_per_entry_read",
    );
    let dist = KeyDistribution::uniform();
    for exp in opts.window_exps() {
        let w = 1usize << exp;
        for ratio in [1.0, 0.125] {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let pim = PimTree::new(pim_config(w).with_merge_ratio(ratio));
            // Fill TS with one window, then slide the window in steps of
            // `ratio · w` inserts, each followed by the merge that expires
            // the oldest `ratio · w`. The first step is not measured: its
            // merge is the first whose output has the steady-state size. The
            // window's worth of steps after it (one merge at ratio 1, eight
            // at 1/8) is reported as their mean.
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
            emit(vec![
                exp.to_string(),
                ratio.to_string(),
                format!("{:.6}", seconds / f64::from(merges)),
                (merged / merges as usize).to_string(),
                format!("{:.2}", seconds * 1e9 / read as f64),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_runs_at_toy_scale() {
        let args: Vec<String> = [
            "--min-exp=10",
            "--max-exp=10",
            "--tuples=2048",
            "--threads=2",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let opts = RunOpts::parse_from(&args, (0, 0), true).unwrap();
        for figure in FIGURES {
            let opts = opts.with_default_exps(figure.default_exps);
            assert!(figure
                .title(&opts)
                .starts_with(&format!("# {}: ", figure.id)));
            // The run goes to a thread of its own so that a hanging figure
            // fails the test instead of stalling the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut lines = Vec::new();
                figure.run(&opts, &mut |line| lines.push(line));
                let _ = tx.send(lines);
            });
            let lines = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("{} did not finish: {e}", figure.id));
            let (header, rows) = lines.split_first().expect("a header");
            assert!(!header.is_empty(), "{}: empty header", figure.id);
            assert!(!rows.is_empty(), "{}: no rows", figure.id);
            for row in rows {
                assert_eq!(row.len(), header.len(), "{}: {row:?}", figure.id);
                for cell in &row[1..] {
                    let value: f64 = cell
                        .parse()
                        .unwrap_or_else(|_| panic!("{}: cell {cell:?} is not a number", figure.id));
                    assert!(value.is_finite(), "{}: {row:?}", figure.id);
                }
            }
        }
    }

    #[test]
    fn figure_ids_select_with_or_without_prefix() {
        let ids = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let chosen: Vec<&str> = select(&ids(&["13c", "fig09a", "08b", "14"]))
            .unwrap()
            .iter()
            .map(|f| f.id)
            .collect();
        assert_eq!(chosen, ["fig08b", "fig09a", "fig13c", "fig14"]);
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        assert_eq!(select(&ids(&["9a", "15"])).err().as_deref(), Some("15"));
        assert_eq!(select(&ids(&["1"])).err().as_deref(), Some("1"));
    }
}
