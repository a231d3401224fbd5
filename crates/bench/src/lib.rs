//! # betalike-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`) plus Criterion micro-benchmarks (see `benches/`). This
//! library holds what they share: a dependency-free CLI parser, aligned
//! text-table output, timing, the three Mondrian adaptations as one-call
//! wrappers, and the binary searches Figure 4 needs (β ↔ t ↔ AIL
//! calibration).
//!
//! Every binary accepts `--rows N --seed S` (default 100 000 / 42; pass
//! `--rows 500000` for the paper's full scale) and prints the same
//! rows/series the paper reports. `EXPERIMENTS.md` records paper-vs-measured
//! values.

#![warn(missing_docs)]

pub mod algos;
pub mod cli;
pub mod search;
pub mod tablefmt;

use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::Table;
use std::time::{Duration, Instant};

/// Runs `f`, returning its output and wall-clock duration.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Generates the CENSUS table per the common arguments.
pub fn load_census(args: &cli::ExpArgs) -> Table {
    census::generate(&CensusConfig::new(args.rows, args.seed))
}

/// The first `n` QI attributes in Table 3 order (age, gender, education,
/// marital, work class).
pub fn qi_set(n: usize) -> Vec<usize> {
    assert!((1..=5).contains(&n), "Table 3 has 5 candidate QIs");
    (0..n).collect()
}

/// The SA index of the CENSUS schema (salary class).
pub const SA: usize = census::attr::SALARY;

/// Formats a duration as fractional seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_value() {
        let (v, d) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }
}
