//! Exact percentiles over raw samples.
//!
//! Quantiles come from the sorted samples themselves (nearest rank), never
//! from a bucketed histogram: a power-of-two histogram moves a quantile by
//! up to 2× at a bucket edge, far more than the bounds this benchmark
//! holds changes to.

/// A sorted set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free; a failed operation is `+∞`, so it misses
    /// every latency bound).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`): the smallest sample
    /// with at least `q · n` samples at or below it. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.rank(q) {
            Some(r) => self.sorted[r],
            None => f64::NAN,
        }
    }

    /// How many samples lie strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.rank(q).map_or(0, |r| self.sorted.len() - 1 - r)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The first-to-third quartile distance.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let r = (q * n as f64).ceil() as usize;
        Some(r.clamp(1, n) - 1)
    }

    /// A one-line description of the `q`-quantile with its sample count,
    /// flagged when fewer than ten samples lie beyond it.
    pub fn describe(&self, q: f64, scale: f64, unit: &str) -> String {
        let beyond = self.beyond(q);
        let flag = if beyond < 10 {
            " (fewer than 10 samples beyond it)"
        } else {
            ""
        };
        format!(
            "p{} = {:.6} {unit} over {} samples, {beyond} beyond{flag}",
            q * 100.0,
            self.quantile(q) * scale,
            self.len()
        )
    }
}

/// Width of the blocks a count window is split into, unless that leaves
/// fewer than [`MIN_BLOCK_SAMPLES`] samples per block on average.
pub const BLOCK_SECONDS: f64 = 0.25;

/// Average samples per block, so a block's 99th percentile has ten
/// samples beyond it.
pub const MIN_BLOCK_SAMPLES: usize = 1_000;

/// Count-loop figures taken per block of a timed window. Work from
/// outside the benchmark on a shared host only ever slows a block down,
/// so figures are taken over blocks rather than over the whole window:
/// the median latency and the rate are medians over blocks, and the 99th
/// percentile is the first quartile over blocks of each block's exact
/// 99th percentile (the tail of the quieter blocks, which tracks the
/// program rather than its neighbours).
#[derive(Debug, Clone)]
pub struct Blocked {
    /// Median over blocks of the block median latency.
    pub p50: f64,
    /// First quartile over blocks of the block 99th-percentile latency.
    pub p99: f64,
    /// Median over blocks of completions per second.
    pub rate: f64,
    /// Number of blocks.
    pub blocks: usize,
    /// Block width in seconds.
    pub width: f64,
    /// The fewest samples any block holds.
    pub min_block_samples: usize,
}

impl Blocked {
    /// Splits `(completed_at, latency)` samples of a `window`-second loop
    /// into blocks of [`BLOCK_SECONDS`] by completion time (at least one).
    /// Samples completing after the window (the requests in flight at the
    /// deadline) join the last block.
    pub fn new(samples: &[(f64, f64)], window: f64) -> Self {
        let blocks = ((window / BLOCK_SECONDS) as usize)
            .min(samples.len() / MIN_BLOCK_SAMPLES)
            .max(1);
        let width = window / blocks as f64;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); blocks];
        for &(at, latency) in samples {
            let b = ((at / width) as usize).min(blocks - 1);
            per[b].push(latency);
        }
        let per: Vec<Samples> = per.into_iter().map(Samples::new).collect();
        let over = |q: f64, f: &dyn Fn(&Samples) -> f64| {
            Samples::new(per.iter().map(f).collect()).quantile(q)
        };
        Blocked {
            p50: over(0.5, &|s| s.median()),
            p99: over(0.25, &|s| s.quantile(0.99)),
            rate: over(0.5, &|s| s.len() as f64 / width),
            blocks,
            width,
            min_block_samples: per.iter().map(Samples::len).min().unwrap_or(0),
        }
    }

    /// A one-line description, flagged when a block's 99th percentile
    /// has fewer than ten samples beyond it.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let flag = if self.min_block_samples < MIN_BLOCK_SAMPLES {
            " (fewer than 10 samples beyond p99 in some block)"
        } else {
            ""
        };
        format!(
            "p50 = {:.6} {unit}, p99 = {:.6} {unit}, {:.1}/s over {} blocks of {:.3} s \
             holding at least {} samples{flag}",
            self.p50 * scale,
            self.p99 * scale,
            self.rate,
            self.blocks,
            self.width,
            self.min_block_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_moves_one_block_not_the_figures() {
        // Four blocks of 1000 requests; the third is slowed by a burst.
        let mut samples = Vec::new();
        for b in 0..4 {
            for i in 0..1000 {
                let latency = if b == 2 { 9.0 } else { 1.0 + i as f64 / 10_000.0 };
                let at = (b as f64 + i as f64 / 1000.0) * BLOCK_SECONDS;
                samples.push((at, latency));
            }
        }
        let blocked = Blocked::new(&samples, 4.0 * BLOCK_SECONDS);
        assert_eq!(blocked.blocks, 4);
        assert_eq!(blocked.rate, 1000.0 / BLOCK_SECONDS);
        assert!(blocked.p50 < 1.2 && blocked.p99 < 1.2, "{blocked:?}");
        assert_eq!(blocked.min_block_samples, 1000);
        // Too few samples for 0.25 s blocks: wider blocks instead.
        let sparse = Blocked::new(&samples[..2000], 4.0 * BLOCK_SECONDS);
        assert_eq!(sparse.blocks, 2);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.iqr(), 50.0);
    }

    #[test]
    fn quantiles_do_not_jump_at_powers_of_two() {
        // A log-bucketed histogram reports 1024 for both; exact ranks do not.
        let s = Samples::new(vec![600.0, 700.0, 1000.0]);
        assert_eq!(s.median(), 700.0);
    }

    #[test]
    fn failures_sort_last_and_empty_is_nan() {
        let s = Samples::new(vec![f64::INFINITY, 1.0, 2.0]);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert_eq!(s.median(), 2.0);
        assert!(Samples::default().median().is_nan());
    }
}
