//! Contiguous dimension-strided point storage (`SeedBlock`).
//!
//! The hot loops of this workspace — the matrix-ordered candidate scan of
//! the pruned engine, the k-d tree build, the OPTICS bubble-distance pass —
//! all iterate point coordinates. Storing each point in its own `Vec<f64>`
//! would make those loops pointer-chase through the allocator's layout;
//! [`SeedBlock`] instead keeps all points in one flat `Vec<f64>` with row
//! stride `dim` (a structure-of-arrays façade: point `i` is the slice
//! `flat[i*dim .. (i+1)*dim]`), so a scan over candidates walks linear
//! memory and the 4-lane kernels of [`crate::metric`] stream it.
//!
//! The block is deliberately dumb storage: no distances, no ordering. It is
//! owned by [`NearestSeeds`](crate::NearestSeeds) for seed coordinates and
//! built transiently by the clustering crate for bubble representatives.

/// Flat, dimension-strided storage for a dynamic set of equal-length points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedBlock {
    dim: usize,
    flat: Vec<f64>,
}

impl SeedBlock {
    /// Creates an empty block for points of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "SeedBlock requires dim > 0");
        Self {
            dim,
            flat: Vec::new(),
        }
    }

    /// Creates an empty block with room for `n` points.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "SeedBlock requires dim > 0");
        Self {
            dim,
            flat: Vec::with_capacity(dim * n),
        }
    }

    /// Dimensionality of the stored points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    /// `true` when the block holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Coordinates of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole block as one flat slice (`len() * dim()` values, row
    /// stride `dim`). This is what the k-d tree's dense build path and the
    /// batch drivers consume.
    #[inline]
    #[must_use]
    pub fn as_flat(&self) -> &[f64] {
        &self.flat
    }

    /// Appends a point, returning its index.
    ///
    /// # Panics
    /// Panics if `p.len() != dim`.
    pub fn push(&mut self, p: &[f64]) -> usize {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        self.flat.extend_from_slice(p);
        self.len() - 1
    }

    /// Overwrites point `i` in place.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or `p.len() != dim`.
    pub fn set(&mut self, i: usize, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        self.flat[i * self.dim..(i + 1) * self.dim].copy_from_slice(p);
    }

    /// Drops all points, keeping the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.flat.clear();
    }

    /// Iterator over the stored points in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.flat.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut b = SeedBlock::new(3);
        assert!(b.is_empty());
        assert_eq!(b.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(b.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.get(1), &[4.0, 5.0, 6.0]);
        b.set(0, &[7.0, 8.0, 9.0]);
        assert_eq!(b.get(0), &[7.0, 8.0, 9.0]);
        assert_eq!(b.as_flat(), &[7.0, 8.0, 9.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn iter_visits_points_in_order() {
        let mut b = SeedBlock::with_capacity(1, 4);
        for x in 0..4 {
            b.push(&[f64::from(x)]);
        }
        let seen: Vec<f64> = b.iter().map(|p| p[0]).collect();
        assert_eq!(seen, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn clear_keeps_dim() {
        let mut b = SeedBlock::new(2);
        b.push(&[1.0, 2.0]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 2);
        b.push(&[3.0, 4.0]);
        assert_eq!(b.get(0), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn ragged_push_panics() {
        let mut b = SeedBlock::new(2);
        b.push(&[1.0]);
    }
}
