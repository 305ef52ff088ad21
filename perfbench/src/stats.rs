//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, best-of-repeats, and the tail rule (report the highest
//! percentile of a fixed ladder that still has at least [`MIN_BEYOND`]
//! samples beyond it, together with that percentile and the sample
//! count).

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as a tail. At least 10 are needed for a tail to mean
/// anything; 20 keeps every `fleet_soak` run (200 to about 250 rounds)
/// on the same rung, p90, the one that moved less between seeds there.
pub const MIN_BEYOND: usize = 20;

/// Candidate tail percentiles, highest first. The ladder stops at p95:
/// on a shared 2-vCPU VM the p99 of the ~0.3 ms fusion epochs (75,000
/// and more a run) lands among host interruptions and moved from 0.41
/// to 0.53 ms over five seeds, where the p95 stayed within 0.37–0.41 ms.
pub const TAIL_LADDER: [f64; 3] = [95.0, 90.0, 75.0];

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// A reported tail: which percentile, its value, and the sample support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

/// The highest ladder percentile of ascending `sorted` with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the lowest rung
/// lacks that support. Being a percentile of the same sample as the
/// median, it can never fall below it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let beyond = n - rank(p, n);
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank(p, n) - 1],
            beyond,
            samples: n,
        })
    })
}

/// Every batch's quietest timings: `raw` holds every batch time in the
/// order run, `pass_len` batches a pass from the plan's first batch on;
/// of each batch's timings in the whole passes, the fastest `share`
/// (rounded up) are kept. Interference, which only ever adds time, must
/// reach a batch in more than `1 - share` of its passes to move what is
/// kept of it, while a cost the program pays on a batch that often stays
/// in. Empty without a whole pass.
pub fn quietest_share(raw: &[f64], pass_len: usize, share: f64) -> Vec<f64> {
    let passes = raw.len() / pass_len;
    let keep = ((passes as f64 * share).ceil() as usize).min(passes);
    let mut kept = Vec::with_capacity(keep * pass_len);
    for batch in 0..pass_len {
        let mut times: Vec<f64> = raw[..passes * pass_len]
            .iter()
            .skip(batch)
            .step_by(pass_len)
            .copied()
            .collect();
        times.sort_by(f64::total_cmp);
        kept.extend_from_slice(&times[..keep]);
    }
    kept
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Best (lowest) time per unit of repeated work. Interference on a
/// shared host only ever adds time, so a unit's best over many repeats
/// measures the program, while any statistic over the whole run also
/// measures how much of it the host slowed.
#[derive(Debug, Clone)]
pub struct BestOf(Vec<f64>);

impl BestOf {
    pub fn new(units: usize) -> Self {
        BestOf(vec![f64::INFINITY; units])
    }

    /// Records one timing of unit `unit`.
    pub fn record(&mut self, unit: usize, secs: f64) {
        self.0[unit] = self.0[unit].min(secs);
    }

    /// Every unit's best time (infinite for a unit never timed).
    pub fn times(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the best times: the undisturbed time of one pass.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_of_ignores_slow_repeats() {
        // Three units timed over four passes; the host slowed two whole
        // passes to twice the time. Best-of recovers every unit's fast
        // time, where a median over the run is inflated by the slow passes.
        let fast = [1.0, 2.0, 3.0];
        let mut best = BestOf::new(3);
        let mut all = Vec::new();
        for pass in 0..4 {
            let slow = if pass % 2 == 0 { 2.0 } else { 1.0 };
            for (unit, t) in fast.iter().enumerate() {
                best.record(unit, t * slow);
                all.push(t * slow);
            }
        }
        assert_eq!(best.times(), &fast);
        assert_eq!(best.total(), 6.0);
        assert!(median(&all) > median(&fast));
    }

    #[test]
    fn best_of_untimed_unit_is_infinite() {
        let mut best = BestOf::new(2);
        best.record(0, 1.5);
        assert!(best.total().is_infinite());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_twenty_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p95 is the top rung, with 50 beyond.
        let t = tail(&v).expect("supported");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 50);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.samples, 1000);
        // 400 samples: p95 leaves exactly 20.
        let t = tail(&v[..400]).expect("supported");
        assert_eq!((t.percentile, t.beyond), (95.0, 20));
        // 399 samples: p95 leaves 19, so p90 is the highest rung.
        let t = tail(&v[..399]).expect("supported");
        assert_eq!((t.percentile, t.beyond), (90.0, 39));
        // 200 samples (a fleet run's rounds): p90 leaves exactly 20.
        let t = tail(&v[..200]).expect("supported");
        assert_eq!((t.percentile, t.beyond), (90.0, 20));
        // 80 samples: only p75 leaves 20; 79 leave even p75 with 19.
        assert_eq!(tail(&v[..80]).expect("supported").percentile, 75.0);
        assert_eq!(tail(&v[..79]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quietest_share_keeps_recurring_costs_only() {
        // Eight passes of 100 batches at 1.0. The host doubled passes 0-4
        // (five of eight); batch 7 costs 5.0 in every pass; batch 20
        // costs 9.0 once, in pass 6.
        let mut raw = Vec::new();
        for pass in 0..8 {
            let host = if pass < 5 { 2.0 } else { 1.0 };
            for batch in 0..100 {
                let cost = match (pass, batch) {
                    (_, 7) => 5.0,
                    (6, 20) => 9.0,
                    _ => 1.0,
                };
                raw.push(host * cost);
            }
        }
        // A quarter of eight passes: each batch's two fastest timings.
        let kept = quietest_share(&raw, 100, 0.25);
        assert_eq!(kept.len(), 200);
        assert_eq!(kept.iter().filter(|&&t| t == 5.0).count(), 2);
        assert_eq!(kept.iter().filter(|&&t| t == 1.0).count(), 198);
        // A partial last pass is never used; without a whole pass, none.
        assert_eq!(quietest_share(&raw[..799], 100, 0.25).len(), 200);
        assert!(quietest_share(&raw[..99], 100, 0.25).is_empty());
    }

    #[test]
    fn tail_never_below_median() {
        // A tail is a percentile of its sample at p75 or above, so it
        // never falls below that sample's median.
        for n in [80, 200, 999, 1000, 5000] {
            let v: Vec<f64> = (0..n).map(|i| f64::from((i * 7919) % 101)).collect();
            let v = sorted(&v);
            let t = tail(&v).expect("supported");
            assert!(t.value >= percentile(&v, 50.0));
        }
    }
}
