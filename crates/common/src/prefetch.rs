//! Portable software-prefetch shim.
//!
//! The batched CSS-Tree group probe (see `pimtree-cssbtree`) descends the
//! immutable index level by level for a whole task's worth of keys and wants
//! to issue prefetches for every next-level node the group will touch before
//! it gets there — the classic group-probe trick the cache-sensitive layout
//! was designed for. Rust has no stable portable prefetch intrinsic, so this
//! module wraps the x86-64 `PREFETCHT0` instruction and degrades to a no-op
//! on every other architecture: the batch descent stays correct everywhere
//! and merely loses the latency-hiding benefit.
//!
//! Prefetching is a *hint*: it never faults, even on dangling or unmapped
//! addresses, so the helpers take raw slices/pointers without any validity
//! obligation beyond what safe Rust already guarantees for references.

use std::ops::Range;

/// Bytes per cache line assumed when striding prefetches across a block.
///
/// 64 bytes is correct for every x86-64 and almost every AArch64 part this
/// code will run on; a wrong constant only changes how many hint
/// instructions are issued, never correctness.
pub const CACHE_LINE_BYTES: usize = 64;

/// Issues a read prefetch (to all cache levels) for the line holding `p`.
///
/// No-op on architectures other than x86-64, and under Miri (prefetch
/// intrinsics are not modelled there).
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        // SAFETY: PREFETCHT0 is a hint; it cannot fault regardless of the
        // address and has no architectural side effects.
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = p;
    }
}

/// Issues a prefetch with intent to write for the line holding `p`: the line
/// is requested in an exclusive state, so the store (or lock RMW) that
/// follows does not pay a second coherence round trip for ownership. Where
/// the build's target lacks `PREFETCHW` the compiler emits the read hint.
///
/// No-op on architectures other than x86-64, and under Miri.
#[inline(always)]
pub fn prefetch_write<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        // SAFETY: as for the read hint — PREFETCHW/PREFETCHT0 cannot fault
        // regardless of the address and has no architectural side effects
        // (the line's contents are unchanged; only its cache state moves).
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_ET0 }>(p as *const i8);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = p;
    }
}

/// Calls `hint` ([`prefetch_read`] or [`prefetch_write`]) once for every
/// cache line that `range` touches, from the line holding its first byte to
/// the line holding its last, and returns the number of hints issued (the
/// same count on every architecture, so statistics stay comparable across
/// hosts).
///
/// The pointers are never dereferenced, so the range may be stale — a run's
/// location mirrored at an earlier insert, since grown or moved, say; a hint
/// on a freed or unmapped line is merely wasted.
#[inline]
pub fn prefetch_range<T>(range: Range<*const T>, hint: impl Fn(*const u8)) -> u64 {
    let base = range.start as *const u8;
    let bytes = range.end.addr().saturating_sub(base.addr());
    if bytes == 0 {
        return 0;
    }
    // A block that starts `misalign` bytes into a line reaches into
    // `ceil((misalign + bytes) / line)` lines: a 512-byte node 16 bytes into
    // a line spans nine, not eight.
    let misalign = base.addr() % CACHE_LINE_BYTES;
    let lines = (misalign + bytes).div_ceil(CACHE_LINE_BYTES);
    for line in 0..lines {
        // The first hint names the first byte, every later one the first
        // byte of its line: `line * 64 - misalign < bytes`, so each address
        // lies inside the range.
        hint(base.wrapping_add((line * CACHE_LINE_BYTES).saturating_sub(misalign)));
    }
    lines as u64
}

/// Issues read prefetches covering `slice`, one per cache line it touches,
/// and returns the number of hint instructions issued.
#[inline]
pub fn prefetch_slice<T>(slice: &[T]) -> u64 {
    prefetch_range(slice.as_ptr_range(), prefetch_read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn prefetch_is_a_safe_no_op_semantically() {
        let data = [1u64, 2, 3, 4];
        prefetch_read(data.as_ptr());
        prefetch_read(&data[3] as *const u64);
        prefetch_write(data.as_ptr());
        prefetch_write(&data[3] as *const u64);
        // The data is unchanged (prefetch has no architectural effect).
        assert_eq!(data, [1, 2, 3, 4]);
    }

    /// A buffer whose first byte starts a cache line.
    #[repr(align(64))]
    struct Aligned([u64; 96]);

    #[test]
    fn slice_prefetch_counts_cache_lines() {
        let buf = Aligned([0; 96]);
        assert_eq!(prefetch_slice(&buf.0[..0]), 0);
        // 4 * 8 = 32 bytes -> one line.
        assert_eq!(prefetch_slice(&buf.0[..4]), 1);
        // 8 * 8 = 64 bytes -> still one line from a line-aligned start.
        assert_eq!(prefetch_slice(&buf.0[..8]), 1);
        // 9 * 8 = 72 bytes -> two lines.
        assert_eq!(prefetch_slice(&buf.0[..9]), 2);
        // 512 bytes -> eight lines, or nine when they start 16 bytes in.
        assert_eq!(prefetch_slice(&buf.0[..64]), 8);
        assert_eq!(prefetch_slice(&buf.0[2..66]), 9);
    }

    #[test]
    fn every_line_an_unaligned_block_touches_gets_one_hint() {
        let buf = Aligned([0; 96]);
        let base = buf.0.as_ptr() as usize;
        for offset in 0..8 {
            for len in [1usize, 7, 8, 9, 64, 65, 88] {
                let block = &buf.0[offset..offset + len];
                let hinted = RefCell::new(Vec::new());
                let issued = prefetch_range(block.as_ptr_range(), |p| {
                    hinted.borrow_mut().push(p as usize);
                });
                let hinted = hinted.into_inner();
                let first_line = (base + offset * 8) / CACHE_LINE_BYTES;
                let last_line = (base + (offset + len) * 8 - 1) / CACHE_LINE_BYTES;
                let lines: Vec<usize> = hinted.iter().map(|p| p / CACHE_LINE_BYTES).collect();
                assert_eq!(
                    lines,
                    (first_line..=last_line).collect::<Vec<_>>(),
                    "offset {offset}, {len} words: one hint per line, first to last"
                );
                assert_eq!(issued, lines.len() as u64);
                let bytes = base + offset * 8..base + (offset + len) * 8;
                assert!(
                    hinted.iter().all(|p| bytes.contains(p)),
                    "hints stay inside"
                );
                // Both public entry points count the same lines.
                assert_eq!(prefetch_slice(block), issued);
                assert_eq!(prefetch_range(block.as_ptr_range(), prefetch_write), issued);
            }
        }
    }

    #[test]
    fn stale_and_empty_ranges_are_harmless() {
        // What a stale peek hands over: pointers into a buffer that is gone
        // by the time the hints are issued.
        let stale = {
            let gone = vec![0u64; 64];
            gone.as_ptr_range()
        };
        assert!(prefetch_range(stale.clone(), prefetch_write) >= 8);
        assert!(prefetch_range(stale.clone(), prefetch_read) >= 8);
        assert_eq!(prefetch_range(stale.end..stale.start, prefetch_read), 0);
        assert_eq!(prefetch_range(stale.start..stale.start, prefetch_write), 0);
    }
}
