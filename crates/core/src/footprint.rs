//! Memory-footprint reporting for the two-stage trees (Figure 11a).

/// Breakdown of the memory required by an IM-Tree / PIM-Tree instance.
///
/// The paper's Figure 11a splits the PIM-Tree footprint into the
/// search-efficient component `TS`, the insert-efficient component `TI` and
/// the buffer needed while a non-blocking merge builds the next `TS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PimFootprint {
    /// Payload bytes of the immutable component's leaf array.
    pub ts_leaf_bytes: usize,
    /// Payload bytes of the immutable component's inner key array.
    pub ts_inner_bytes: usize,
    /// Payload bytes of the mutable component (all partitions): the entries
    /// of every flat run, plus the inner nodes of runs promoted to a B+-Tree.
    pub ti_bytes: usize,
    /// Bytes of the merge buffer: while a (non-blocking) merge is running, a
    /// second sorted array of up to `(1 + m) · w` entries coexists with the
    /// live tree.
    pub merge_buffer_bytes: usize,
    /// Number of entries currently indexed.
    pub entries: usize,
    /// Number of mutable partitions.
    pub partitions: usize,
}

impl PimFootprint {
    /// Total bytes across all components.
    pub fn total_bytes(&self) -> usize {
        self.ts_leaf_bytes + self.ts_inner_bytes + self.ti_bytes + self.merge_buffer_bytes
    }

    /// Bytes of the immutable component only.
    pub fn ts_bytes(&self) -> usize {
        self.ts_leaf_bytes + self.ts_inner_bytes
    }

    /// Total bytes in mebibytes, the unit used by Figure 11a.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_sums() {
        let f = PimFootprint {
            ts_leaf_bytes: 1000,
            ts_inner_bytes: 100,
            ti_bytes: 500,
            merge_buffer_bytes: 1600,
            entries: 100,
            partitions: 8,
        };
        assert_eq!(f.ts_bytes(), 1100);
        assert_eq!(f.total_bytes(), 3200);
        assert!((f.total_mib() - 3200.0 / 1048576.0).abs() < 1e-12);
    }
}
