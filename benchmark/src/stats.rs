//! The few statistics the harness reports and compares with.

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the pipeline that consumes these results uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, len) = (4usize, data.len());
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    })
}

pub fn median(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [one] => *one,
        _ => quartiles(values)[1],
    }
}

/// Operations per second from equal slices of a measured phase: the rate
/// of the slice at the 95th percentile of speed. Interference from the
/// host only ever slows a slice, and on the shared reference host it slows
/// most of them, for tens of seconds at a time; the fast tail is what a
/// quiet machine would have measured throughout. Over ten runs this
/// estimator spread 2–6 % (q3 − q1 over the median) where the median slice
/// spread 5–21 % and the whole-phase mean more.
pub fn fast_slice_rate(ops: u64, slice_secs: &[f64]) -> f64 {
    let per_slice = ops as f64 / slice_secs.len() as f64;
    let mut secs = slice_secs.to_vec();
    secs.sort_by(f64::total_cmp);
    // Ascending seconds is descending speed: a twentieth of the way in.
    per_slice / secs[secs.len() / 20]
}

/// (slowest slice − fastest slice) ÷ median slice, in percent.
pub fn slice_spread_pct(slice_secs: &[f64]) -> f64 {
    let min = slice_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = slice_secs.iter().copied().fold(0.0, f64::max);
    100.0 * (max - min) / median(slice_secs)
}

/// The `p`-th percentile (0–100) of unsorted samples, nearest rank.
pub fn percentile_u32(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64
}

pub fn fnv1a_hex(text: &str) -> String {
    format!("{:016x}", crate::gen::fnv1a_64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn the_fast_slice_ignores_slow_slices() {
        let mut secs = vec![1.0; 240];
        let steady = fast_slice_rate(24_000, &secs);
        assert_eq!(steady, 100.0);
        for s in secs.iter_mut().take(200) {
            *s = 3.0; // most slices hit interference
        }
        assert_eq!(fast_slice_rate(24_000, &secs), steady);
        secs[239] = 0.5; // one lucky slice does not set the rate
        assert_eq!(fast_slice_rate(24_000, &secs), steady);
        assert_eq!(slice_spread_pct(&secs[..239]), 200.0 / 3.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_u32(&mut v, 50.0), 50.0);
        assert_eq!(percentile_u32(&mut v, 99.0), 99.0);
        assert_eq!(percentile_u32(&mut v, 100.0), 100.0);
        assert_eq!(percentile_u32(&mut [], 50.0), 0.0);
    }
}
