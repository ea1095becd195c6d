//! The engine's live gauge trace: periodic snapshots of ring occupancy,
//! in-flight tasks, window sizes, steal traffic and drift imbalance, appended
//! as JSON Lines while a run is measured (see
//! `ParallelIbwj::with_telemetry_out` and `docs/telemetry-schema.json`).

use std::fs::File;
use std::io::{self, BufWriter, Write};

/// One periodic snapshot of the engine's live gauges, serializable as one
/// JSON Lines record (see `docs/telemetry-schema.json`).
#[derive(Debug, Default)]
pub(crate) struct GaugeSample {
    /// Monotone sample sequence number, starting at 0.
    pub(crate) seq: u64,
    /// Microseconds since the measured phase started.
    pub(crate) elapsed_us: u64,
    /// Tuples currently claimed by workers (quiesce handshake gauge).
    pub(crate) in_flight: u64,
    /// Occupied slots per ring shard.
    pub(crate) shard_occupancy: Vec<u64>,
    /// R-side tuples inserted but not yet index-visible.
    pub(crate) unindexed_r: u64,
    /// S-side tuples inserted but not yet index-visible.
    pub(crate) unindexed_s: u64,
    /// Live R-window size (tuples).
    pub(crate) window_r: u64,
    /// Live S-window size (tuples).
    pub(crate) window_s: u64,
    /// Home-shard claims so far (steal-rate numerator's complement).
    pub(crate) local_claims: u64,
    /// Cross-shard (stolen) claims so far.
    pub(crate) stolen_claims: u64,
    /// Most recent drift imbalance observed by the monitor (0 when drift
    /// monitoring is off).
    pub(crate) drift_imbalance: f64,
}

impl GaugeSample {
    /// Serializes the sample as one JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let occupancy: Vec<String> = self.shard_occupancy.iter().map(u64::to_string).collect();
        let imbalance = if self.drift_imbalance.is_finite() {
            self.drift_imbalance
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"seq\": {}, \"elapsed_us\": {}, \"in_flight\": {}, ",
                "\"shard_occupancy\": [{}], \"unindexed_r\": {}, \"unindexed_s\": {}, ",
                "\"window_r\": {}, \"window_s\": {}, ",
                "\"local_claims\": {}, \"stolen_claims\": {}, ",
                "\"drift_imbalance\": {:.6}}}"
            ),
            self.seq,
            self.elapsed_us,
            self.in_flight,
            occupancy.join(", "),
            self.unindexed_r,
            self.unindexed_s,
            self.window_r,
            self.window_s,
            self.local_claims,
            self.stolen_claims,
            imbalance,
        )
    }
}

/// An append-only JSON Lines file sink for [`GaugeSample`] records.
#[derive(Debug)]
pub(crate) struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the sink file at `path`.
    pub(crate) fn create(path: &str) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Appends one sample as a JSON line.
    pub(crate) fn append(&mut self, sample: &GaugeSample) -> io::Result<()> {
        self.out.write_all(sample.to_json().as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flushes and closes the sink.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_sample_serializes_as_one_json_object() {
        let sample = GaugeSample {
            seq: 7,
            elapsed_us: 1234,
            in_flight: 3,
            shard_occupancy: vec![10, 20, 30],
            unindexed_r: 4,
            unindexed_s: 5,
            window_r: 100,
            window_s: 101,
            local_claims: 50,
            stolen_claims: 2,
            drift_imbalance: 0.25,
        };
        let json = sample.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seq\": 7"));
        assert!(json.contains("\"shard_occupancy\": [10, 20, 30]"));
        assert!(json.contains("\"drift_imbalance\": 0.250000"));
        assert!(!json.contains('\n'));
        // Non-finite gauges must not produce invalid JSON.
        let bad = GaugeSample {
            drift_imbalance: f64::NAN,
            ..GaugeSample::default()
        };
        assert!(bad.to_json().contains("\"drift_imbalance\": 0.000000"));
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let path = std::env::temp_dir().join("pimtree_gauge_sink_test.jsonl");
        let path = path.to_str().unwrap();
        let mut sink = JsonlSink::create(path).unwrap();
        for seq in 0..3 {
            sink.append(&GaugeSample {
                seq,
                shard_occupancy: vec![seq],
                ..GaugeSample::default()
            })
            .unwrap();
        }
        sink.finish().unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\": {i}")));
        }
        std::fs::remove_file(path).ok();
    }
}
