//! # betalike-hilbert
//!
//! A self-contained Hilbert space-filling-curve implementation used by the
//! BUREL anonymizer (Section 4.5 of *Publishing Microdata with a Robust
//! Privacy Guarantee*, VLDB 2012): tuples are mapped from the
//! multidimensional QI space to one-dimensional Hilbert values, so that
//! tuples close in QI space are likely to receive nearby Hilbert values and
//! the greedy EC-filling procedure picks tuples with small bounding boxes.
//!
//! The implementation follows John Skilling's transpose algorithm
//! (*Programming the Hilbert curve*, AIP Conf. Proc. 707, 2004): coordinates
//! are transformed in place between axes form and "transpose" form, and the
//! transpose form is bit-interleaved into a single `u128` key.
//!
//! **Limits.** A curve needs `dims ≥ 1` and `bits` in `1..=32`, and the key
//! must fit its `u128` carrier: `dims × bits ≤ 128`. So 16 dimensions are
//! possible at up to 8 bits each, and the full 32 bits are possible up to 4
//! dimensions ([`HilbertCurve::new`] returns [`HilbertError::BadBits`] /
//! [`HilbertError::KeyOverflow`] otherwise).
//!
//! ```
//! use betalike_hilbert::HilbertCurve;
//!
//! let curve = HilbertCurve::new(2, 4).unwrap();
//! let key = curve.index(&[3, 5]);
//! assert_eq!(curve.point(key), vec![3, 5]);
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Errors raised by [`HilbertCurve::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HilbertError {
    /// `dims` was zero.
    ZeroDims,
    /// `bits` was zero or above 32.
    BadBits(u32),
    /// `dims * bits` exceeded 128, the key width.
    KeyOverflow {
        /// Requested dimensions.
        dims: usize,
        /// Requested bits per dimension.
        bits: u32,
    },
}

impl fmt::Display for HilbertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HilbertError::ZeroDims => write!(f, "hilbert curve needs at least one dimension"),
            HilbertError::BadBits(b) => write!(f, "bits per dimension must be in 1..=32, got {b}"),
            HilbertError::KeyOverflow { dims, bits } => write!(
                f,
                "dims * bits = {} exceeds the 128-bit key width",
                *dims as u64 * *bits as u64
            ),
        }
    }
}

impl std::error::Error for HilbertError {}

/// A Hilbert curve over a `dims`-dimensional grid of side `2^bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Creates a curve over `dims` dimensions with `bits` bits each.
    ///
    /// # Errors
    ///
    /// See [`HilbertError`].
    pub fn new(dims: usize, bits: u32) -> Result<Self, HilbertError> {
        if dims == 0 {
            return Err(HilbertError::ZeroDims);
        }
        if bits == 0 || bits > 32 {
            return Err(HilbertError::BadBits(bits));
        }
        if dims as u64 * bits as u64 > 128 {
            return Err(HilbertError::KeyOverflow { dims, bits });
        }
        Ok(HilbertCurve { dims, bits })
    }

    /// Smallest number of bits so a domain of `cardinality` codes fits on the
    /// grid side (at least 1).
    pub fn bits_for_cardinality(cardinality: usize) -> u32 {
        let c = cardinality.max(2) as u64;
        64 - (c - 1).leading_zeros()
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits per dimension.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest valid coordinate (`2^bits − 1`).
    #[inline]
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Largest index on the curve (`2^(dims·bits) − 1`).
    #[inline]
    pub fn max_index(&self) -> u128 {
        let total = self.dims as u32 * self.bits;
        if total == 128 {
            u128::MAX
        } else {
            (1u128 << total) - 1
        }
    }

    /// Maps a point to its position along the Hilbert curve.
    ///
    /// Allocates a scratch copy of `point` per call; bulk callers should
    /// prefer [`Self::index_in_place`], which reuses the caller's buffer.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims` or any coordinate exceeds
    /// [`Self::max_coord`].
    pub fn index(&self, point: &[u32]) -> u128 {
        let mut x: Vec<u32> = point.to_vec();
        self.index_in_place(&mut x)
    }

    /// Like [`Self::index`], but transforms `point` in place instead of
    /// allocating a scratch copy — the zero-allocation path for bulk key
    /// computation (BUREL maps every table row through this).
    ///
    /// On return `point` holds the curve's internal transpose form, not the
    /// original coordinates; callers are expected to refill it before the
    /// next use.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims` or any coordinate exceeds
    /// [`Self::max_coord`].
    pub fn index_in_place(&self, point: &mut [u32]) -> u128 {
        assert_eq!(point.len(), self.dims, "point has wrong dimensionality");
        let max = self.max_coord();
        assert!(
            point.iter().all(|&c| c <= max),
            "coordinate exceeds the grid side"
        );
        self.axes_to_transpose(point);
        self.interleave(point)
    }

    /// Maps a curve position back to its point.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Self::max_index`].
    pub fn point(&self, index: u128) -> Vec<u32> {
        let mut out = vec![0u32; self.dims];
        self.point_into(index, &mut out);
        out
    }

    /// Like [`Self::point`] but writes into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Self::max_index`] or the buffer length is
    /// not `dims`.
    pub fn point_into(&self, index: u128, out: &mut [u32]) {
        assert_eq!(
            out.len(),
            self.dims,
            "output buffer has wrong dimensionality"
        );
        assert!(index <= self.max_index(), "index beyond the curve");
        self.deinterleave(index, out);
        self.transpose_to_axes(out);
    }

    /// Skilling's AxestoTranspose: converts coordinates into the transpose
    /// representation of the Hilbert index.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = x.len();
        if self.bits < 2 && n == 1 {
            return;
        }
        // With one bit per dimension only the Gray-code step applies;
        // fall through: the loop below is skipped since m == 1.
        let m = 1u32 << (self.bits - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Skilling's TransposetoAxes: inverse of [`Self::axes_to_transpose`].
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = x.len();
        if self.bits < 2 && n == 1 {
            return;
        }
        let top = 2u64 << (self.bits - 1);
        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != top {
            let p = (q - 1) as u32;
            let qb = q as u32;
            for i in (0..n).rev() {
                if x[i] & qb != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Packs the transpose form into a single key, most significant bit
    /// first: bit `b-1` of `x[0]`, bit `b-1` of `x[1]`, …, bit `0` of
    /// `x[n-1]`.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut key = 0u128;
        for pos in (0..self.bits).rev() {
            for &xi in x {
                key = (key << 1) | u128::from((xi >> pos) & 1);
            }
        }
        key
    }

    /// Inverse of [`Self::interleave`].
    fn deinterleave(&self, key: u128, x: &mut [u32]) {
        x.fill(0);
        let total = self.bits * self.dims as u32;
        let mut shift = total;
        for pos in (0..self.bits).rev() {
            for xi in x.iter_mut() {
                shift -= 1;
                *xi |= (((key >> shift) & 1) as u32) << pos;
            }
        }
    }
}

/// Sorts `items` by the Hilbert index of the point produced by `coords`.
///
/// Convenience used by BUREL's `Retrieve`: `coords` maps an item to its
/// (already grid-scaled) QI coordinates; the sort is stable so equal keys
/// preserve input order, keeping results deterministic.
pub fn sort_by_hilbert<T, F>(curve: &HilbertCurve, items: &mut [T], mut coords: F)
where
    F: FnMut(&T) -> Vec<u32>,
{
    let mut keyed: Vec<(u128, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, it)| (curve.index(&coords(it)), i))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let order: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
    apply_permutation(items, &order);
}

/// Reorders `items` so that `items[k] = old_items[order[k]]`.
fn apply_permutation<T>(items: &mut [T], order: &[usize]) {
    debug_assert_eq!(items.len(), order.len());
    let mut visited = vec![false; items.len()];
    for start in 0..items.len() {
        if visited[start] || order[start] == start {
            visited[start] = true;
            continue;
        }
        // Rotate the cycle containing `start`: repeatedly swap the target
        // slot with the slot its content should come from.
        let mut cur = start;
        loop {
            let src = order[cur];
            visited[cur] = true;
            if visited[src] {
                break;
            }
            items.swap(cur, src);
            cur = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validation() {
        assert_eq!(HilbertCurve::new(0, 4), Err(HilbertError::ZeroDims));
        assert_eq!(HilbertCurve::new(2, 0), Err(HilbertError::BadBits(0)));
        assert_eq!(HilbertCurve::new(2, 33), Err(HilbertError::BadBits(33)));
        assert_eq!(
            HilbertCurve::new(5, 32),
            Err(HilbertError::KeyOverflow { dims: 5, bits: 32 })
        );
        assert!(HilbertCurve::new(4, 32).is_ok());
        assert!(HilbertCurve::new(16, 8).is_ok());
    }

    /// The documented contract exactly: `bits` in `1..=32`, `dims ≥ 1`,
    /// `dims × bits ≤ 128` — probed at each boundary.
    #[test]
    fn constructor_boundaries() {
        // bits boundaries.
        assert!(HilbertCurve::new(1, 1).is_ok());
        assert!(HilbertCurve::new(1, 32).is_ok());
        assert_eq!(HilbertCurve::new(1, 33), Err(HilbertError::BadBits(33)));
        // Key-width boundary: 128 bits exactly is fine, 129 is not.
        assert!(HilbertCurve::new(128, 1).is_ok());
        assert_eq!(
            HilbertCurve::new(129, 1),
            Err(HilbertError::KeyOverflow { dims: 129, bits: 1 })
        );
        assert!(HilbertCurve::new(8, 16).is_ok());
        assert_eq!(
            HilbertCurve::new(9, 15),
            Err(HilbertError::KeyOverflow { dims: 9, bits: 15 })
        );
        // BadBits is reported before KeyOverflow when both would apply.
        assert_eq!(HilbertCurve::new(100, 0), Err(HilbertError::BadBits(0)));
        assert_eq!(HilbertCurve::new(100, 40), Err(HilbertError::BadBits(40)));
        // A maximal curve round-trips.
        let curve = HilbertCurve::new(128, 1).unwrap();
        let p: Vec<u32> = (0..128).map(|i| (i % 2) as u32).collect();
        assert_eq!(curve.point(curve.index(&p)), p);
    }

    #[test]
    fn bits_for_cardinality() {
        assert_eq!(HilbertCurve::bits_for_cardinality(0), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(1), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(2), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(3), 2);
        assert_eq!(HilbertCurve::bits_for_cardinality(4), 2);
        assert_eq!(HilbertCurve::bits_for_cardinality(79), 7);
        assert_eq!(HilbertCurve::bits_for_cardinality(128), 7);
        assert_eq!(HilbertCurve::bits_for_cardinality(129), 8);
    }

    #[test]
    fn canonical_2d_order_2_curve() {
        // The order-2 2D Hilbert curve visits these 16 cells; a classic
        // reference sequence (x, y).
        let curve = HilbertCurve::new(2, 2).unwrap();
        let expected = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 0),
            (2, 0),
            (3, 0),
            (3, 1),
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
            (2, 3),
            (1, 3),
            (1, 2),
            (0, 2),
            (0, 3),
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<(u32, u32)> = None;
        for (h, _) in expected.iter().enumerate() {
            let p = curve.point(h as u128);
            let cell = (p[0], p[1]);
            assert!(seen.insert(cell), "cell revisited at {h}");
            if let Some((px, py)) = prev {
                let dist = cell.0.abs_diff(px) + cell.1.abs_diff(py);
                assert_eq!(dist, 1, "non-adjacent step at {h}");
            }
            prev = Some(cell);
            assert_eq!(curve.index(&[cell.0, cell.1]), h as u128);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn full_coverage_and_adjacency_3d() {
        let curve = HilbertCurve::new(3, 2).unwrap();
        let total = curve.max_index() + 1;
        assert_eq!(total, 64);
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<Vec<u32>> = None;
        for h in 0..total {
            let p = curve.point(h);
            assert!(seen.insert(p.clone()), "cell visited twice");
            if let Some(q) = prev {
                // Consecutive curve positions must be grid neighbors
                // (Manhattan distance exactly 1) — the defining Hilbert
                // property.
                let dist: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(dist, 1, "non-adjacent step at {h}");
            }
            prev = Some(p);
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn one_dimension_is_identity() {
        let curve = HilbertCurve::new(1, 8).unwrap();
        for v in [0u32, 1, 2, 100, 255] {
            assert_eq!(curve.index(&[v]), v as u128);
            assert_eq!(curve.point(v as u128), vec![v]);
        }
    }

    #[test]
    fn one_bit_two_dims_covers_grid() {
        let curve = HilbertCurve::new(2, 1).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..4u128 {
            let p = curve.point(h);
            assert_eq!(curve.index(&p), h);
            seen.insert(p);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn index_wrong_dims_panics() {
        HilbertCurve::new(2, 2).unwrap().index(&[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the grid side")]
    fn index_out_of_grid_panics() {
        HilbertCurve::new(2, 2).unwrap().index(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "beyond the curve")]
    fn point_out_of_curve_panics() {
        HilbertCurve::new(2, 2).unwrap().point(16);
    }

    #[test]
    fn locality_beats_row_major_on_average() {
        // Average index-distance of horizontal grid neighbors should be far
        // smaller for Hilbert than the row-major stride; a coarse locality
        // check of the property BUREL relies on.
        let curve = HilbertCurve::new(2, 5).unwrap();
        let side = 32u32;
        let mut hilbert_sum: f64 = 0.0;
        let mut count = 0.0;
        for x in 0..side - 1 {
            for y in 0..side {
                let a = curve.index(&[x, y]);
                let b = curve.index(&[x + 1, y]);
                hilbert_sum += a.abs_diff(b) as f64;
                count += 1.0;
            }
        }
        let rowmajor_avg = side as f64;
        assert!(hilbert_sum / count < rowmajor_avg * 0.9);
    }

    #[test]
    fn sort_by_hilbert_orders_points() {
        let curve = HilbertCurve::new(2, 2).unwrap();
        let mut pts = vec![[3u32, 0], [0, 0], [1, 1], [0, 1]];
        sort_by_hilbert(&curve, &mut pts, |p| p.to_vec());
        // In Skilling's convention the first axis moves first:
        // (0,0)=0, (1,0)=1, (1,1)=2, (0,1)=3, … so the order is below.
        assert_eq!(pts, vec![[0, 0], [1, 1], [0, 1], [3, 0]]);
    }

    #[test]
    fn index_in_place_matches_index() {
        let curve = HilbertCurve::new(3, 5).unwrap();
        let mut scratch = vec![0u32; 3];
        for p in [[0u32, 0, 0], [31, 31, 31], [13, 1, 9], [7, 30, 2]] {
            scratch.copy_from_slice(&p);
            assert_eq!(curve.index_in_place(&mut scratch), curve.index(&p));
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn index_in_place_wrong_dims_panics() {
        let mut p = [0u32; 3];
        HilbertCurve::new(2, 2).unwrap().index_in_place(&mut p);
    }

    #[test]
    fn apply_permutation_cycles() {
        let mut v = vec!["a", "b", "c", "d", "e"];
        apply_permutation(&mut v, &[4, 3, 2, 1, 0]);
        assert_eq!(v, vec!["e", "d", "c", "b", "a"]);
        let mut w = vec![10, 20, 30];
        apply_permutation(&mut w, &[1, 2, 0]);
        assert_eq!(w, vec![20, 30, 10]);
        let mut x = vec![1, 2];
        apply_permutation(&mut x, &[0, 1]);
        assert_eq!(x, vec![1, 2]);
    }

    proptest! {
        #[test]
        fn roundtrip_2d(x in 0u32..256, y in 0u32..256) {
            let curve = HilbertCurve::new(2, 8).unwrap();
            let h = curve.index(&[x, y]);
            prop_assert_eq!(curve.point(h), vec![x, y]);
        }

        #[test]
        fn roundtrip_5d(p in proptest::collection::vec(0u32..16, 5)) {
            let curve = HilbertCurve::new(5, 4).unwrap();
            let h = curve.index(&p);
            prop_assert_eq!(curve.point(h), p);
        }

        #[test]
        fn roundtrip_high_dims(p in proptest::collection::vec(0u32..4, 16)) {
            let curve = HilbertCurve::new(16, 2).unwrap();
            let h = curve.index(&p);
            prop_assert_eq!(curve.point(h), p);
        }

        #[test]
        fn index_is_injective(a in proptest::collection::vec(0u32..32, 3),
                              b in proptest::collection::vec(0u32..32, 3)) {
            let curve = HilbertCurve::new(3, 5).unwrap();
            let ha = curve.index(&a);
            let hb = curve.index(&b);
            prop_assert_eq!(ha == hb, a == b);
        }

        #[test]
        fn adjacent_indices_are_grid_neighbors(h in 0u128..4095) {
            let curve = HilbertCurve::new(2, 6).unwrap();
            let p = curve.point(h);
            let q = curve.point(h + 1);
            let dist: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
            prop_assert_eq!(dist, 1);
        }

        #[test]
        fn sorted_permutation_matches_naive(keys in proptest::collection::vec(0u32..64, 0..40)) {
            let curve = HilbertCurve::new(2, 6).unwrap();
            let mut items: Vec<(u32, u32)> =
                keys.iter().map(|&k| (k % 8, k / 8)).collect();
            let mut expected = items.clone();
            expected.sort_by_key(|&(x, y)| curve.index(&[x, y]));
            sort_by_hilbert(&curve, &mut items, |&(x, y)| vec![x, y]);
            prop_assert_eq!(items, expected);
        }
    }
}
