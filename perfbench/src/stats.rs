//! The benchmark's own arithmetic: order statistics, the tail
//! percentile rule, span self-time and failure accounting.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at a percentile (in parts per ten thousand) of an
/// ascending-sorted slice, by the nearest-rank rule: the smallest sample
/// with at least that share of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], per_10k: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(per_10k, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of a percentile given in parts per ten thousand.
fn rank(per_10k: usize, n: usize) -> usize {
    (per_10k * n).div_ceil(10_000)
}

/// Percentiles the tail rule picks from, in parts per ten thousand
/// (p50, p90, p99, p99.9, p99.99), lowest first.
pub const TAIL_LADDER: [usize; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// A timing summary: median, the tail percentile picked by
/// [`tail_percentile`], and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub p50: f64,
    /// Which percentile `tail` is, in parts per ten thousand.
    pub tail_per_10k: usize,
    /// The tail value.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples strictly beyond it, with the median and the sample count
/// (both by nearest rank). Below twenty samples no percentile
/// qualifies and the tail falls back to the median.
pub fn tail_percentile(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_per_10k = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n) + 10)
        .unwrap_or(TAIL_LADDER[0]);
    Summary {
        p50: percentile_sorted(&sorted, TAIL_LADDER[0]),
        tail_per_10k,
        tail: percentile_sorted(&sorted, tail_per_10k),
        n,
    }
}

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the span-name table.
    pub name: u16,
    /// Index of the parent span in the same list, if any.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one input vector (or one
    /// stagnation episode).
    pub trace: u64,
    /// Start, nanoseconds since the drive began.
    pub start: u64,
    /// End, nanoseconds since the drive began.
    pub end: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(s.start, s.end), b.clamp(s.start, s.end));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Failure accounting over campaign runs. A run fails if it panicked,
/// if its construction returned an error, or if its deterministic
/// digest differs from the first run of the same campaign.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// First digest seen per campaign index.
    first: Vec<Option<u64>>,
}

impl Tally {
    /// Counts one run of campaign `index`: `digest` is `None` when the
    /// run panicked or could not be built. Returns whether it passed.
    pub fn note(&mut self, index: usize, digest: Option<u64>) -> bool {
        self.attempted += 1;
        if self.first.len() <= index {
            self.first.resize(index + 1, None);
        }
        let ok = match (digest, self.first[index]) {
            (None, _) => false,
            (Some(d), None) => {
                self.first[index] = Some(d);
                true
            }
            (Some(d), Some(f)) => d == f,
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Failed runs over attempted runs (`0.0` before any run).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first digest recorded for campaign `index`.
    pub fn digest(&self, index: usize) -> Option<u64> {
        self.first.get(index).copied().flatten()
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: derives well-mixed campaign seeds from a workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30), [20,50) overlapping and
        // [60,70); the grandchild [12,18) belongs to the first child.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(1), 12, 18),
        ];
        let st = self_times(&spans);
        // Union of the root's children: [10,50) ∪ [60,70) = 50.
        assert_eq!(st[0], 50);
        assert_eq!(st[1], 20 - 6);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 6);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = tail_percentile(&samples);
        // p99 leaves 10 samples beyond it (991..=1000); p99.9 leaves 1.
        assert_eq!(s.tail_per_10k, 9_900);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.n, 1000);

        let s = tail_percentile(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_per_10k, s.tail), (9_000, 90.0));

        let s = tail_percentile(&(1..=15).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_per_10k, s.tail, s.n), (5_000, 8.0, 15));

        let s = tail_percentile(&(1..=10_000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_per_10k, s.tail), (9_990, 9990.0));
    }

    #[test]
    fn failed_frac_counts_a_forced_determinism_mismatch() {
        let mut t = Tally::default();
        assert!(t.note(0, Some(7)));
        assert!(t.note(1, Some(9)));
        assert!(t.note(0, Some(7)));
        // Same campaign, different deterministic report: a failure.
        assert!(!t.note(1, Some(10)));
        // A panic or construction error is a failure too.
        assert!(!t.note(2, None));
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!((t.failed_frac() - 0.4).abs() < 1e-12);
        assert_eq!(t.digest(1), Some(9));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
