//! Estimators for repeated measurements on a shared host.
//!
//! Interference on this host only ever subtracts speed, and it arrives in
//! bursts of seconds to a minute, so the median of a dozen repeats moves by
//! 8–15 % between identical sets of runs while the mean of the fastest
//! quarter moves by a few percent. A real regression slows every repeat,
//! the fast ones included, so the fastest quarter still sees it. The median
//! and the inter-quartile range are reported next to it (`noise.*`), so a
//! reader sees how disturbed a run was.

/// Which end of the sorted sample is "fast".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fast {
    /// Rates: bigger is faster.
    Largest,
    /// Times: smaller is faster.
    Smallest,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Mean of the fastest quarter of `values`: the `ceil(n / 4)` fastest ones,
/// so fewer than four values give the single fastest. `0.0` for an empty
/// sample.
pub fn fastest_quarter_mean(values: &[f64], fast: Fast) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let k = v.len().div_ceil(4);
    let quarter = match fast {
        Fast::Smallest => &v[..k],
        Fast::Largest => &v[v.len() - k..],
    };
    quarter.iter().sum::<f64>() / k as f64
}

/// Median (mean of the two middle values for an even count); `0.0` for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the driver computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median (`0.0` when undefined).
pub fn iqr_rel(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// Quantile `q` of a bucketed histogram that only reports bucket midpoints,
/// interpolated linearly inside the covering bucket.
///
/// `pct(q)` is the histogram's own quantile function (monotone, piecewise
/// constant). The covering bucket's share of the ranks is found by bisecting
/// `pct` for the `q`-interval over which it answers the same midpoint; the
/// bucket's edges are taken halfway to the neighbouring buckets' midpoints.
/// This needs no knowledge of the bucket layout, and turns a value that would
/// read the same 6 %-wide step on every run into one that moves with the
/// ranks actually observed.
pub fn interpolated_quantile(q: f64, pct: impl Fn(f64) -> f64) -> f64 {
    let mid = pct(q);
    // Largest q' <= q answering a smaller value / smallest q' >= q answering
    // a larger one; 60 halvings resolve far below one rank.
    let (mut below, mut first) = (0.0, q);
    if pct(0.0) == mid {
        first = 0.0;
    } else {
        for _ in 0..60 {
            let m = (below + first) / 2.0;
            if pct(m) == mid {
                first = m;
            } else {
                below = m;
            }
        }
    }
    let (mut last, mut above) = (q, 1.0);
    if pct(1.0) == mid {
        last = 1.0;
    } else {
        for _ in 0..60 {
            let m = (last + above) / 2.0;
            if pct(m) == mid {
                last = m;
            } else {
                above = m;
            }
        }
    }
    if last <= first {
        return mid;
    }
    let lo = if first == 0.0 {
        mid
    } else {
        (pct(below) + mid) / 2.0
    };
    let hi = if last == 1.0 {
        mid
    } else {
        (mid + pct(above)) / 2.0
    };
    lo + (q - first) / (last - first) * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_quarter_takes_ceil_of_a_quarter() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(fastest_quarter_mean(&v, Fast::Largest), 7.5);
        assert_eq!(fastest_quarter_mean(&v, Fast::Smallest), 1.5);
        // Nine values: ceil(9 / 4) = 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(fastest_quarter_mean(&v, Fast::Largest), 8.0);
    }

    #[test]
    fn fastest_quarter_with_fewer_than_four_rounds_is_the_best_one() {
        assert_eq!(fastest_quarter_mean(&[2.0, 3.0, 1.0], Fast::Largest), 3.0);
        assert_eq!(fastest_quarter_mean(&[2.0, 3.0, 1.0], Fast::Smallest), 1.0);
        assert_eq!(fastest_quarter_mean(&[4.5], Fast::Largest), 4.5);
        assert_eq!(fastest_quarter_mean(&[], Fast::Largest), 0.0);
    }

    #[test]
    fn fastest_quarter_with_ties() {
        // The tie straddles the quarter's edge: which of the equal values is
        // taken cannot matter.
        let v = [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(fastest_quarter_mean(&v, Fast::Largest), 2.0);
        assert_eq!(fastest_quarter_mean(&v, Fast::Smallest), 1.0);
        assert_eq!(fastest_quarter_mean(&[3.0; 7], Fast::Largest), 3.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((iqr_rel(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_rel(&[1.0]), 0.0);
    }

    /// A histogram with buckets [0,10), [10,20), [20,30) reporting midpoints.
    fn stepped(counts: [u64; 3]) -> impl Fn(f64) -> f64 {
        move |q: f64| {
            let total: u64 = counts.iter().sum();
            let rank = ((total - 1) as f64 * q).round() as u64;
            let mut seen = 0;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen > rank {
                    return 5.0 + 10.0 * i as f64;
                }
            }
            25.0
        }
    }

    #[test]
    fn interpolation_moves_inside_the_bucket() {
        // Ranks 0..999 in bucket 0, 1000..2999 in bucket 1, rest in bucket 2:
        // the median rank sits halfway through bucket 1.
        let v = interpolated_quantile(0.5, stepped([1000, 2000, 1000]));
        assert!((v - 15.0).abs() < 0.05, "{v}");
        // Shift mass downwards: the median moves towards the bucket's upper
        // edge although the reported midpoint stays 15.
        let v = interpolated_quantile(0.5, stepped([400, 2000, 1600]));
        assert!((v - 18.0).abs() < 0.05, "{v}");
    }

    #[test]
    fn interpolation_degenerates_to_the_midpoint() {
        assert_eq!(interpolated_quantile(0.5, |_| 7.0), 7.0);
    }
}
