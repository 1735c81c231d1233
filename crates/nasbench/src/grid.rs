//! Process-grid decompositions used by the NPB kernels.

/// Side of the square process grid required by BT/SP. Panics if `np` is not
/// a perfect square (matching NPB's requirement).
pub(crate) fn square_side(np: usize) -> usize {
    try_square_side(np).unwrap_or_else(|| panic!("BT/SP require a square process count, got {np}"))
}

/// [`square_side`], or `None` when `np` is not a perfect square.
pub(crate) fn try_square_side(np: usize) -> Option<usize> {
    let q = (np as f64).sqrt().round() as usize;
    (q * q == np).then_some(q)
}

/// Near-square 2-D factorization for power-of-two counts (CG/LU style):
/// returns `(rows, cols)` with `cols == rows` or `cols == 2 * rows`.
pub(crate) fn grid2(np: usize) -> (usize, usize) {
    assert!(
        np.is_power_of_two(),
        "CG/LU require a power-of-two count, got {np}"
    );
    let log = np.trailing_zeros();
    let rows = 1usize << (log / 2);
    (rows, np / rows)
}

/// 3-D factorization for power-of-two counts (MG style): splits factors of
/// two across dimensions round-robin; returns `(px, py, pz)`.
pub(crate) fn grid3(np: usize) -> (usize, usize, usize) {
    assert!(
        np.is_power_of_two(),
        "MG requires a power-of-two count, got {np}"
    );
    let mut dims = [1usize; 3];
    let mut remaining = np;
    let mut axis = 0;
    while remaining > 1 {
        dims[axis] *= 2;
        remaining /= 2;
        axis = (axis + 1) % 3;
    }
    (dims[0], dims[1], dims[2])
}

/// Coordinates of `rank` in a `(px, py, pz)` grid, x fastest.
fn coords3(rank: usize, dims: (usize, usize, usize)) -> (usize, usize, usize) {
    let (px, py, _) = dims;
    (rank % px, (rank / px) % py, rank / (px * py))
}

/// Rank of `(x, y, z)` in a `(px, py, pz)` grid, x fastest.
fn rank3(c: (usize, usize, usize), dims: (usize, usize, usize)) -> usize {
    let (px, py, _) = dims;
    c.0 + c.1 * px + c.2 * px * py
}

/// Neighbor of `rank` along `axis` (0..3) in direction `dir` (±1), with
/// periodic wrap.
pub(crate) fn neighbor3(
    rank: usize,
    dims: (usize, usize, usize),
    axis: usize,
    dir: isize,
) -> usize {
    let mut c = [0usize; 3];
    let (cx, cy, cz) = coords3(rank, dims);
    c[0] = cx;
    c[1] = cy;
    c[2] = cz;
    let n = [dims.0, dims.1, dims.2][axis];
    c[axis] = ((c[axis] as isize + dir).rem_euclid(n as isize)) as usize;
    rank3((c[0], c[1], c[2]), dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_sides() {
        assert_eq!(square_side(4), 2);
        assert_eq!(square_side(9), 3);
        assert_eq!(square_side(16), 4);
    }

    #[test]
    #[should_panic(expected = "square process count")]
    fn non_square_panics() {
        square_side(6);
    }

    #[test]
    fn grid2_shapes() {
        assert_eq!(grid2(4), (2, 2));
        assert_eq!(grid2(8), (2, 4));
        assert_eq!(grid2(16), (4, 4));
        assert_eq!(grid2(2), (1, 2));
    }

    #[test]
    fn grid3_shapes() {
        assert_eq!(grid3(8), (2, 2, 2));
        assert_eq!(grid3(4), (2, 2, 1));
        assert_eq!(grid3(16), (4, 2, 2));
    }

    #[test]
    fn coords_rank_roundtrip() {
        let dims = (4, 2, 2);
        for r in 0..16 {
            assert_eq!(rank3(coords3(r, dims), dims), r);
        }
    }

    #[test]
    fn neighbors_wrap() {
        let dims = (2, 2, 2);
        // rank 0 at (0,0,0); +x neighbor is (1,0,0) = rank 1; -x wraps to 1.
        assert_eq!(neighbor3(0, dims, 0, 1), 1);
        assert_eq!(neighbor3(0, dims, 0, -1), 1);
        assert_eq!(neighbor3(0, dims, 2, 1), 4);
    }
}
