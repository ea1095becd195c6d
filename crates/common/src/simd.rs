//! Runtime-detected SIMD lower-bound kernels for intra-node search.
//!
//! A CSS-Tree node is a small sorted block of 16-byte `(key, seq)` entries
//! (or, for plain sorted key arrays, of `u64` values). The hot probe loop
//! answers one lower bound per node visit, so the per-node compare cost sits
//! directly on the critical path once prefetching has hidden the memory
//! latency. These kernels replace the scalar binary search with a
//! branch-free compare-accumulate: because the block is sorted, the number
//! of elements strictly below the target *is* the lower bound, and that
//! count is taken over the **whole** block, four 64-bit lanes a vector, the
//! compare masks summed in a register and added up once at the end. No
//! branch inside a node depends on where the boundary is — a kernel that
//! left the loop at the boundary's vector measured slower than
//! `partition_point` (see [`count_keys_below`]).
//!
//! The AVX2 path is selected at runtime via `is_x86_feature_detected!` and
//! cached process-wide; everything degrades to the scalar
//! `slice::partition_point` on other architectures, on x86-64 parts without
//! AVX2, and when the [`SIMD_ENV`] environment variable force-disables it
//! (used by CI to keep the fallback covered on AVX2-capable runners). Both
//! paths return bit-identical results — the unit tests call the two forms
//! side by side on every block shape, and the property-based tests pin
//! SIMD == scalar on arbitrary sorted blocks, including the
//! `Key::MAX`-padded sentinel slots CSS inner nodes carry.

use std::sync::OnceLock;

/// Environment variable consulted once (first use) to force the scalar
/// fallback: set to `off`, `scalar`, `0` or `false` to disable the SIMD
/// kernels regardless of what the CPU supports. Any other value — or the
/// variable being unset — leaves runtime feature detection in charge.
pub const SIMD_ENV: &str = "PIMTREE_SIMD";

/// The instruction-set level the lower-bound kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar fallback (`slice::partition_point`).
    Scalar,
    /// AVX2 64-bit compare-mask kernels (x86-64 only).
    Avx2,
}

impl SimdLevel {
    /// Stable label for logs and benchmark provenance.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

fn detect_level() -> SimdLevel {
    if let Ok(v) = std::env::var(SIMD_ENV) {
        let v = v.to_ascii_lowercase();
        if v == "off" || v == "scalar" || v == "0" || v == "false" {
            return SimdLevel::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The instruction-set level in effect for this process (detected once,
/// then cached).
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect_level)
}

/// Whether the SIMD kernels (rather than the scalar fallback) answer
/// lower-bound calls in this process.
#[inline]
pub fn simd_active() -> bool {
    active_level() == SimdLevel::Avx2
}

/// Position of the first value `>= target` in a sorted `u64` slice —
/// identical to `values.partition_point(|&v| v < target)`.
///
/// The AVX2 path compares **every** vector of the slice with the target,
/// eight values an iteration, biasing both sides by `1 << 63` so the signed
/// `cmpgt` instruction implements the unsigned order; it never leaves the
/// loop early (see [`count_keys_below`] for why).
#[inline]
pub fn lower_bound_u64(values: &[u64], target: u64) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: `simd_active()` is true only after runtime AVX2
            // detection succeeded.
            return unsafe { lower_bound_u64_avx2(values, target) };
        }
    }
    lower_bound_u64_scalar(values, target)
}

/// Number of leading pairs whose first lane (the key) is `< key`, in a
/// slice of `[key, payload]` pairs sorted by key — identical to
/// `pairs.partition_point(|p| p[0] < key)`.
///
/// This is the strided variant the CSS-Tree node search uses: entries are
/// 16-byte `(key, seq)` records, so each iteration loads four entries as
/// two 256-bit vectors and gathers the four keys with an in-register
/// unpack. The unpack scrambles lane order, which is harmless — only the
/// *count* of keys below the target matters in a sorted block.
///
/// The kernel is a whole-block compare-accumulate: every vector of the
/// block is compared, the all-ones lanes are summed in a vector register
/// (`acc -= cmpgt(target, keys)`) and added up once at the end. It does not
/// stop at the vector that holds the boundary: the trip count of such an
/// exit is the data, the branch predictor misses it about once per node
/// visit, and that miss costs more than comparing the rest of a 32-entry
/// node (26–37 ns a node against 10–13 ns, PR 20). The loop below runs
/// `len / 4` times whatever the keys are.
#[inline]
pub fn count_keys_below(pairs: &[[i64; 2]], key: i64) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: `simd_active()` is true only after runtime AVX2
            // detection succeeded.
            return unsafe { count_keys_below_avx2(pairs, key) };
        }
    }
    count_keys_below_scalar(pairs, key)
}

/// The portable form of [`lower_bound_u64`].
#[inline]
fn lower_bound_u64_scalar(values: &[u64], target: u64) -> usize {
    values.partition_point(|&v| v < target)
}

/// The portable form of [`count_keys_below`].
#[inline]
fn count_keys_below_scalar(pairs: &[[i64; 2]], key: i64) -> usize {
    pairs.partition_point(|p| p[0] < key)
}

/// Sum of the four 64-bit lanes of `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sum_lanes_avx2(acc: core::arch::x86_64::__m256i) -> usize {
    use core::arch::x86_64::*;
    let halves = _mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1),
    );
    (_mm_cvtsi128_si64(halves) + _mm_extract_epi64(halves, 1)) as usize
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lower_bound_u64_avx2(values: &[u64], target: u64) -> usize {
    use core::arch::x86_64::*;
    const BIAS: i64 = i64::MIN; // 1 << 63: maps unsigned order onto signed
    let t = _mm256_set1_epi64x((target as i64) ^ BIAS);
    let bias = _mm256_set1_epi64x(BIAS);
    let blocks = values.len() / 8;
    // Two accumulators, one per vector of the iteration: a lane that is
    // all-ones (-1) iff value < target is subtracted, so each lane counts up.
    let mut below_a = _mm256_setzero_si256();
    let mut below_b = _mm256_setzero_si256();
    for block in 0..blocks {
        let i = 8 * block;
        // SAFETY: `i + 8 <= 8 * blocks <= len`, so both unaligned 4-lane
        // loads stay inside the slice.
        let a = unsafe { _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i) };
        // SAFETY: same bound — lanes `i + 4..i + 8` are still inside the slice.
        let b = unsafe { _mm256_loadu_si256(values.as_ptr().add(i + 4) as *const __m256i) };
        below_a = _mm256_sub_epi64(below_a, _mm256_cmpgt_epi64(t, _mm256_xor_si256(a, bias)));
        below_b = _mm256_sub_epi64(below_b, _mm256_cmpgt_epi64(t, _mm256_xor_si256(b, bias)));
    }
    let count = sum_lanes_avx2(_mm256_add_epi64(below_a, below_b));
    // In a sorted slice the values below the target are a prefix, so the
    // count over the full vectors and the lower bound of the sub-vector
    // tail add up to the lower bound of the whole.
    count + lower_bound_u64_scalar(&values[8 * blocks..], target)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_keys_below_avx2(pairs: &[[i64; 2]], key: i64) -> usize {
    use core::arch::x86_64::*;
    let t = _mm256_set1_epi64x(key);
    let ptr = pairs.as_ptr() as *const i64;
    let vectors = pairs.len() / 4;
    let mut below = _mm256_setzero_si256();
    for v in 0..vectors {
        // SAFETY: `4 * v + 4 <= 4 * vectors <= len`, so the two loads cover
        // exactly pairs `4 * v..4 * v + 4` (eight i64 lanes) inside the slice.
        let a = unsafe { _mm256_loadu_si256(ptr.add(8 * v) as *const __m256i) };
        // SAFETY: same bound — lanes `8 * v + 4..8 * v + 8` are the second
        // half of those four pairs, still inside the slice.
        let b = unsafe { _mm256_loadu_si256(ptr.add(8 * v + 4) as *const __m256i) };
        // a = [k0 s0 k1 s1], b = [k2 s2 k3 s3]; the per-128-bit-lane unpack
        // yields [k0 k2 k1 k3] — scrambled, but counting is order-blind. The
        // compare is signed, so a `Key::MAX` sentinel slot is below nothing.
        let keys = _mm256_unpacklo_epi64(a, b);
        below = _mm256_sub_epi64(below, _mm256_cmpgt_epi64(t, keys));
    }
    let count = sum_lanes_avx2(below);
    count + count_keys_below_scalar(&pairs[4 * vectors..], key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lower bound by definition — a count, no search — against the
    /// scalar form, the dispatcher and (where the CPU has it, whatever
    /// [`SIMD_ENV`] says) the vector form, side by side.
    fn assert_u64_forms_agree(values: &[u64], t: u64) {
        let want = values.iter().filter(|&&v| v < t).count();
        assert_eq!(
            lower_bound_u64_scalar(values, t),
            want,
            "scalar {values:?} {t}"
        );
        assert_eq!(lower_bound_u64(values, t), want, "dispatch {values:?} {t}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            let got = unsafe { lower_bound_u64_avx2(values, t) };
            assert_eq!(got, want, "avx2 {values:?} {t}");
        }
    }

    /// As [`assert_u64_forms_agree`], for the strided kernel. The payload
    /// lane alternates between the two values that would move the count
    /// most if a kernel ever compared it.
    fn assert_key_forms_agree(keys: &[i64], t: i64) {
        let payload = |i: usize| [i64::MIN, i64::MAX][i % 2];
        let pairs: Vec<[i64; 2]> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| [k, payload(i)])
            .collect();
        let want = keys.iter().filter(|&&k| k < t).count();
        assert_eq!(
            count_keys_below_scalar(&pairs, t),
            want,
            "scalar {keys:?} {t}"
        );
        assert_eq!(count_keys_below(&pairs, t), want, "dispatch {keys:?} {t}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            let got = unsafe { count_keys_below_avx2(&pairs, t) };
            assert_eq!(got, want, "avx2 {keys:?} {t}");
        }
    }

    /// Exhaustive over what a node search can meet: every block length to
    /// past two AVX2 iterations of either kernel, the boundary at every
    /// position (between two values and on one), an equal-key run at every
    /// start and end — so straddling each 4-entry / 8-value vector boundary,
    /// the sub-vector tail, and spanning the whole block — the corners of
    /// both domains, and a sentinel-padded inner node under targets of
    /// either sign.
    #[test]
    fn every_form_agrees_on_every_block_shape() {
        for len in 0..=40usize {
            let odd: Vec<i64> = (0..len as i64).map(|i| 2 * i + 1).collect();
            let odd_u64: Vec<u64> = odd.iter().map(|&v| v as u64).collect();
            for t in 0..=2 * len as i64 + 2 {
                assert_key_forms_agree(&odd, t);
                assert_u64_forms_agree(&odd_u64, t as u64);
            }
            for start in 0..=len {
                for end in start..=len {
                    let run = |i: usize| 10 * (1 + (i >= start) as i64 + (i >= end) as i64);
                    let keys: Vec<i64> = (0..len).map(run).collect();
                    let values: Vec<u64> = keys.iter().map(|&k| k as u64).collect();
                    for t in [9, 10, 11, 20, 21, 30, 31] {
                        assert_key_forms_agree(&keys, t);
                        assert_u64_forms_agree(&values, t as u64);
                    }
                }
            }
            // Corners: the block is `len` copies of a corner value between
            // the values just inside it, probed from both sides.
            let mut keys = vec![i64::MIN; len];
            keys.extend([i64::MIN + 1, -1, 0, i64::MAX - 1]);
            keys.extend(vec![i64::MAX; len]);
            for t in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
                assert_key_forms_agree(&keys, t);
            }
            let mut values = vec![0u64; len];
            values.extend([1, i64::MAX as u64, 1 << 63, u64::MAX - 1]);
            values.extend(vec![u64::MAX; len]);
            for t in [
                0,
                1,
                2,
                i64::MAX as u64,
                1 << 63,
                (1 << 63) + 1,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_u64_forms_agree(&values, t);
            }
        }
        // A fan-out-32 inner node with `real` children: `Key::MAX` slots pad
        // it and are below no target, negative targets included.
        for real in 0..=32usize {
            let mut keys: Vec<i64> = (0..real as i64).map(|i| 3 * i - 60).collect();
            keys.resize(32, i64::MAX);
            for t in (-62..40).chain([i64::MIN, i64::MAX - 1, i64::MAX]) {
                assert_key_forms_agree(&keys, t);
            }
        }
    }

    #[test]
    fn active_level_is_cached_and_consistent() {
        let first = active_level();
        assert_eq!(active_level(), first);
        assert_eq!(simd_active(), first == SimdLevel::Avx2);
        assert!(!first.label().is_empty());
    }

    #[test]
    fn u64_lower_bound_matches_partition_point() {
        // Boundary at every index, duplicates, unsigned extremes, and
        // lengths straddling the 8-lane vector width.
        for len in 0..40usize {
            let values: Vec<u64> = (0..len as u64).map(|i| i * 3).collect();
            for t in 0..(len as u64 * 3 + 2) {
                assert_eq!(
                    lower_bound_u64(&values, t),
                    values.partition_point(|&v| v < t),
                    "len={len} target={t}"
                );
            }
        }
        let extremes = [0u64, 1, u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX];
        for t in [0, 1, 2, u64::MAX - 1, u64::MAX] {
            assert_eq!(
                lower_bound_u64(&extremes, t),
                extremes.partition_point(|&v| v < t)
            );
        }
        assert_eq!(lower_bound_u64(&[], 7), 0);
    }

    #[test]
    fn key_count_matches_partition_point_with_sentinel_padding() {
        // A CSS inner node: real keys followed by Key::MAX padding slots.
        for real in 0..20usize {
            let mut pairs: Vec<[i64; 2]> = (0..real as i64).map(|i| [i * 2 - 5, i]).collect();
            while pairs.len() < 24 {
                pairs.push([i64::MAX, u64::MAX as i64]);
            }
            for key in -8..(real as i64 * 2 + 2) {
                assert_eq!(
                    count_keys_below(&pairs, key),
                    pairs.partition_point(|p| p[0] < key),
                    "real={real} key={key}"
                );
            }
            assert_eq!(
                count_keys_below(&pairs, i64::MAX),
                pairs.partition_point(|p| p[0] < i64::MAX)
            );
        }
        assert_eq!(count_keys_below(&[], 0), 0);
    }

    #[test]
    fn negative_keys_order_correctly() {
        let pairs: Vec<[i64; 2]> = vec![[i64::MIN, 0], [-7, 1], [-7, 2], [0, 3], [42, 4]];
        for key in [i64::MIN, -8, -7, -6, 0, 1, 42, 43, i64::MAX] {
            assert_eq!(
                count_keys_below(&pairs, key),
                pairs.partition_point(|p| p[0] < key)
            );
        }
    }
}
