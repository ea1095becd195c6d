//! The benchmark's metric names, units and directions: the same list
//! `BENCHMARK.json` carries, kept here so that every run reports exactly
//! these and a test can hold the two together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the join sees, with the share of the parent's median by
/// which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer; reported, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_mtps",
        unit: "Mtuples/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "single_thread_mtps",
        unit: "Mtuples/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.2,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 49] = [
    layer("workload.gen_ns_per_tuple", "ns", Lower),
    layer("simd.lower_bound_u64_ns", "ns", Lower),
    layer("css.lower_bound_ns", "ns", Lower),
    layer("css.build_ns_per_entry", "ns", Lower),
    layer("css.range_scan_ns_per_entry", "ns", Lower),
    layer("pim.insert_ns", "ns", Lower),
    layer("pim.probe_ns", "ns", Lower),
    layer("pim.merge_ns_per_entry", "ns", Lower),
    layer("pim.merges", "count", Lower),
    layer("window.append_ns", "ns", Lower),
    layer("window.scan_ns_per_tuple", "ns", Lower),
    layer("ring.roundtrip_ns", "ns", Lower),
    layer("ring.roundtrip_2t_ns", "ns", Lower),
    layer("ring.claim_retries_per_task", "count", Lower),
    layer("router.node_of_ns", "ns", Lower),
    layer("store.mean_probe_fanout", "count", Lower),
    layer("store.remote_fraction", "ratio", Lower),
    layer("shard.steal_fraction", "ratio", Lower),
    layer("migration.epochs", "count", Lower),
    layer("migration.tuples_moved", "count", Lower),
    layer("migration.stall_ms", "ms", Lower),
    layer("migration.max_stall_ms", "ms", Lower),
    layer("engine.acquire_share", "ratio", Lower),
    layer("engine.generate_share", "ratio", Higher),
    layer("engine.update_share", "ratio", Lower),
    layer("engine.propagate_share", "ratio", Lower),
    layer("engine.idle_share", "ratio", Lower),
    layer("engine.merge_share", "ratio", Lower),
    layer("engine.merges", "count", Lower),
    layer("engine.claim_retries_per_task", "count", Lower),
    layer("engine.results_per_tuple", "count", Higher),
    layer("engine.cpu_ns_per_tuple", "ns", Lower),
    layer("engine.speedup_vs_single", "ratio", Higher),
    layer("engine.arrival_p90_us", "us", Lower),
    layer("engine.arrival_p99_us", "us", Lower),
    layer("engine.arrival_p999_us", "us", Lower),
    layer("engine.arrival_max_us", "us", Lower),
    layer("ibwj.ns_per_tuple", "ns", Lower),
    layer("ladder.coverage", "ratio", Higher),
    layer("noise.rounds", "count", Higher),
    layer("noise.throughput_median_mtps", "Mtuples/s", Higher),
    layer("noise.throughput_iqr_rel", "ratio", Lower),
    layer("noise.single_iqr_rel", "ratio", Lower),
    layer("noise.steal_share", "ratio", Lower),
    layer("noise.throughput_raw_mtps", "Mtuples/s", Higher),
    layer("noise.single_raw_mtps", "Mtuples/s", Higher),
    layer("host.speed_one_thread", "ratio", Higher),
    layer("host.speed_all_threads", "ratio", Higher),
    layer("trace.overhead_rel", "ratio", Higher),
];

/// Measured values in the order of one of the lists above.
pub type Values = Vec<(&'static str, f64)>;

/// Name, unit and direction of every metric of both lists.
fn all() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
}

/// The listed name equal to `name`, for values read back from a child's
/// output.
pub fn static_name(name: &str) -> Option<&'static str> {
    all().map(|(n, _, _)| n).find(|n| *n == name)
}

/// Unit and direction of a listed metric.
pub fn describe(name: &str) -> (&'static str, Better) {
    all()
        .find(|(n, _, _)| *n == name)
        .map_or(("", Better::Lower), |(_, unit, better)| (unit, better))
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The driver's grammar for a name: starts with a letter or digit, at
    /// most 64 of letters, digits, `_`, `.` and `-`.
    pub fn is_valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The driver's grammar for a unit: at most 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn is_valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_grammar() {
        for ok in ["a", "9lives", "css.lower_bound_ns", "steady-l2", "A_b.c-d"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "a b",
            "a/b",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        assert!(is_valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "Mtuples/s", "%"] {
            assert!(is_valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!is_valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_is_well_formed_and_named_once() {
        let mut seen = BTreeSet::new();
        for (name, unit, _) in all() {
            assert!(is_valid_name(name), "{name}");
            assert!(is_valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` sits outside this package; where it is present it
    /// must list exactly these metrics, with these units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
