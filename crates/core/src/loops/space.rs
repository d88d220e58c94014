//! First-class iteration spaces: the logical shapes `parallel_for`
//! schedules over, and how they lower to flat **scheduling units**.
//!
//! An [`IterSpace`] describes *what* a loop iterates — a 1-D range of
//! u64 indices, a row-major 2-D rectangle, or a lower-triangular space —
//! independently of *how* it is drained. Every space lowers to a dense
//! unit space `[0, units)`:
//!
//! * [`Range1D`](IterSpace::Range1D): one unit = one iteration.
//! * [`Rect2D`](IterSpace::Rect2D): one unit = one `tile_rows ×
//!   tile_cols` tile, row-major over the `⌈rows/tr⌉ × ⌈cols/tc⌉` grid.
//! * [`Triangular`](IterSpace::Triangular): one unit = one tile of the
//!   lower-triangular tile grid — tile `(R, C)` with `C ≤ R` has linear
//!   index `R(R+1)/2 + C`; diagonal tiles are triangular-clipped,
//!   off-diagonal tiles are full rectangles (the diagonal/square block
//!   typing of triangular self-scheduling balancers).
//!
//! Units are what the pools, schedules and range steals move: zone shares
//! are contiguous unit blocks (NUMA-aware because row-major/triangular
//! tile order keeps a zone's tiles in contiguous row bands), chunk sizes
//! are unit counts, and a stolen "tile range" is a unit range. The
//! *element* ↔ unit conversion ([`elems_in`](IterSpace::elems_in)) is
//! closed-form O(1) per space, so abandoning billions of units under
//! cancellation never iterates them.
//!
//! [`LoopSpace`] is the user-facing trait: anything that names a space
//! and can decode a unit range into typed points. Plain `Range<u64>`
//! (and friends) implement it with `Point = u64`, which is what keeps
//! every pre-existing `parallel_for(0..n, …, |i, _| …)` call site
//! compiling unchanged; the 2-D/triangular spaces yield
//! `Point = (row, col)`.

use std::ops::Range;

use super::LoopError;

/// Default tile edge of [`IterSpace::rect`] and
/// [`IterSpace::triangular`] (64×64 = 4096 elements per unit: coarse
/// enough to amortize a claim CAS over a cheap body, fine enough to
/// leave a schedulable tail on test-sized spaces).
pub const DEFAULT_TILE: u32 = 64;

/// Which shape family an [`IterSpace`] is — the telemetry key of the
/// per-space-kind loop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// 1-D u64 range.
    Range1D,
    /// Tiled row-major rectangle (collapse(2)).
    Rect2D,
    /// Tiled lower-triangular space.
    Triangular,
}

impl SpaceKind {
    /// Stable index into the per-space-kind telemetry
    /// ([`xgomp_profiling::LOOP_SPACE_KIND_NAMES`] order).
    pub fn index(self) -> usize {
        match self {
            SpaceKind::Range1D => 0,
            SpaceKind::Rect2D => 1,
            SpaceKind::Triangular => 2,
        }
    }

    /// Human-readable kind name.
    pub fn name(self) -> &'static str {
        xgomp_profiling::LOOP_SPACE_KIND_NAMES[self.index()]
    }
}

/// A logical iteration space: *what* a loop iterates, lowered to a
/// dense range of flat scheduling units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterSpace {
    /// `start .. start + len` of u64 indices.
    Range1D {
        /// First index.
        start: u64,
        /// Iteration count.
        len: u64,
    },
    /// A `rows × cols` rectangle iterated as `(row, col)` pairs,
    /// row-major, scheduled as tiles.
    Rect2D {
        /// Row count.
        rows: u64,
        /// Column count.
        cols: u64,
        /// Tile height (≥ 1).
        tile_rows: u32,
        /// Tile width (≥ 1).
        tile_cols: u32,
    },
    /// The lower triangle `{(row, col) : col ≤ row < n}` — the natural
    /// space of pairwise kernels — scheduled as tiles of the triangular
    /// tile grid.
    Triangular {
        /// Row count (the triangle has `n(n+1)/2` elements).
        n: u64,
        /// Tile edge (≥ 1).
        tile: u32,
    },
}

impl IterSpace {
    /// A 1-D space over `range` (empty if `end ≤ start`).
    pub fn range(range: Range<u64>) -> Self {
        IterSpace::Range1D {
            start: range.start,
            len: range.end.saturating_sub(range.start),
        }
    }

    /// A `rows × cols` collapse(2) space with [`DEFAULT_TILE`] tiles.
    pub fn rect(rows: u64, cols: u64) -> Self {
        Self::rect_tiled(rows, cols, DEFAULT_TILE, DEFAULT_TILE)
    }

    /// A `rows × cols` collapse(2) space with explicit tiling (tile
    /// edges are clamped to ≥ 1).
    pub fn rect_tiled(rows: u64, cols: u64, tile_rows: u32, tile_cols: u32) -> Self {
        IterSpace::Rect2D {
            rows,
            cols,
            tile_rows: tile_rows.max(1),
            tile_cols: tile_cols.max(1),
        }
    }

    /// A lower-triangular space over `n` rows with [`DEFAULT_TILE`]
    /// tiles.
    pub fn triangular(n: u64) -> Self {
        Self::triangular_tiled(n, DEFAULT_TILE)
    }

    /// A lower-triangular space with an explicit tile edge (clamped to
    /// ≥ 1).
    pub fn triangular_tiled(n: u64, tile: u32) -> Self {
        IterSpace::Triangular {
            n,
            tile: tile.max(1),
        }
    }

    /// The space's shape family.
    pub fn kind(&self) -> SpaceKind {
        match self {
            IterSpace::Range1D { .. } => SpaceKind::Range1D,
            IterSpace::Rect2D { .. } => SpaceKind::Rect2D,
            IterSpace::Triangular { .. } => SpaceKind::Triangular,
        }
    }

    /// Scheduling-unit count (iterations / tiles — what the pools and
    /// range steals move).
    pub fn units(&self) -> u64 {
        match *self {
            IterSpace::Range1D { len, .. } => len,
            IterSpace::Rect2D {
                rows,
                cols,
                tile_rows,
                tile_cols,
            } => rows.div_ceil(tile_rows as u64) * cols.div_ceil(tile_cols as u64),
            IterSpace::Triangular { n, tile } => {
                let g = n.div_ceil(tile as u64);
                g * (g + 1) / 2
            }
        }
    }

    /// Logical element count — what
    /// [`LoopReport::iterations`](super::LoopReport::iterations) conserves
    /// against.
    pub fn len(&self) -> u64 {
        match *self {
            IterSpace::Range1D { len, .. } => len,
            IterSpace::Rect2D { rows, cols, .. } => rows * cols,
            IterSpace::Triangular { n, .. } => n * (n + 1) / 2,
        }
    }

    /// Whether the space has no elements.
    pub fn is_empty(&self) -> bool {
        self.units() == 0
    }

    /// Validates the space against the waving layer's bounds: unit and
    /// element counts must fit
    /// ([`MAX_SHARE_UNITS`](xgomp_xqueue::MAX_SHARE_UNITS) units, u64
    /// elements). The single
    /// definition of the rule — `try_parallel_for` and the service
    /// layer's `submit_for` admission both call this.
    pub fn validate(&self) -> Result<(), LoopError> {
        let too_large = |len| Err(LoopError::RangeTooLarge { len });
        match *self {
            IterSpace::Range1D { len, .. } => {
                if len > xgomp_xqueue::MAX_SHARE_UNITS {
                    return too_large(len);
                }
            }
            IterSpace::Rect2D {
                rows,
                cols,
                tile_rows,
                tile_cols,
            } => {
                let Some(elems) = rows.checked_mul(cols) else {
                    return too_large(u64::MAX);
                };
                let units = rows.div_ceil(tile_rows as u64) as u128
                    * cols.div_ceil(tile_cols as u64) as u128;
                if units > xgomp_xqueue::MAX_SHARE_UNITS as u128 {
                    return too_large(elems);
                }
            }
            IterSpace::Triangular { n, tile } => {
                let elems = n as u128 * (n as u128 + 1) / 2;
                if elems > u64::MAX as u128 {
                    return too_large(u64::MAX);
                }
                let g = n.div_ceil(tile as u64) as u128;
                if g * (g + 1) / 2 > xgomp_xqueue::MAX_SHARE_UNITS as u128 {
                    return too_large(elems as u64);
                }
            }
        }
        Ok(())
    }

    /// Elements in the unit prefix `[0, unit)` — closed-form O(1), the
    /// primitive behind [`elems_in`](Self::elems_in).
    pub fn elems_before(&self, unit: u64) -> u64 {
        match *self {
            IterSpace::Range1D { len, .. } => unit.min(len),
            IterSpace::Rect2D {
                rows,
                cols,
                tile_rows,
                tile_cols,
            } => {
                let (tr, tc) = (tile_rows as u64, tile_cols as u64);
                let (gr, gc) = (rows.div_ceil(tr), cols.div_ceil(tc));
                if unit >= gr * gc {
                    return rows * cols;
                }
                // Full tile-rows above, plus the claimed columns of the
                // tile-row the unit sits in.
                let (tile_r, tile_c) = (unit / gc, unit % gc);
                let h = tr.min(rows - tile_r * tr);
                tile_r * tr * cols + h * (tile_c * tc).min(cols)
            }
            IterSpace::Triangular { n, tile } => {
                let t = tile as u64;
                let g = n.div_ceil(t);
                if unit >= g * (g + 1) / 2 {
                    return n * (n + 1) / 2;
                }
                // Tile-rows r < R are full-height (h = t): each holds r
                // off-diagonal t×t tiles plus a t(t+1)/2 diagonal tile.
                let r = tri_row(unit);
                let c = unit - r * (r + 1) / 2;
                let full_rows = (t as u128 * t as u128)
                    * (r as u128 * (r as u128).saturating_sub(1) / 2)
                    + r as u128 * (t as u128 * (t as u128 + 1) / 2);
                // C off-diagonal tiles of the current tile-row, height
                // clipped at the space's ragged bottom edge.
                let h = t.min(n - r * t) as u128;
                (full_rows + c as u128 * t as u128 * h) as u64
            }
        }
    }

    /// Elements covered by the unit range `[lo, hi)` — closed-form
    /// O(1), so cancellation can conserve abandoned unit ranges of any
    /// size without iterating them.
    pub fn elems_in(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        self.elems_before(hi) - self.elems_before(lo)
    }
}

/// Largest `R` with `R(R+1)/2 ≤ k` — the tile-row of triangular unit
/// `k`. f64 seed, integer fix-up (exact for every representable k).
fn tri_row(k: u64) -> u64 {
    let tri = |r: u64| r as u128 * (r as u128 + 1) / 2;
    let mut r = (((8.0 * k as f64 + 1.0).sqrt() - 1.0) / 2.0) as u64;
    while tri(r) > k as u128 {
        r -= 1;
    }
    while tri(r + 1) <= k as u128 {
        r += 1;
    }
    r
}

/// Anything `parallel_for` can schedule: names an [`IterSpace`] and
/// decodes flat unit ranges back into typed points.
///
/// The decode is an associated *function* over the space description —
/// not a method over `self` — so the hot per-element loop monomorphizes
/// per space type while the scheduling machinery stays one shared,
/// unit-typed implementation.
pub trait LoopSpace {
    /// What the loop body receives per element (the range's own element
    /// type for 1-D ranges — keeping integer-literal type inference
    /// working exactly as a concrete `Range` API would — and
    /// `(row, col)` for 2-D and triangular spaces).
    type Point: Copy;

    /// The space this value describes.
    fn to_space(&self) -> IterSpace;

    /// Runs `f` over every element of units `[lo, hi)` of `space`,
    /// returning the element count (= `space.elems_in(lo, hi)`).
    fn run_units<F: FnMut(Self::Point)>(space: &IterSpace, lo: u64, hi: u64, f: F) -> u64;
}

macro_rules! impl_loop_space_for_range {
    ($($ty:ty),*) => {$(
        impl LoopSpace for Range<$ty> {
            // The range's own element type: a body written against
            // `0..4_000` sees the same index type it would from a plain
            // `for` loop, so literal arithmetic/inference is unchanged.
            type Point = $ty;

            fn to_space(&self) -> IterSpace {
                // Negative bounds of signed ranges clamp to 0 — the
                // iteration indices are non-negative by contract.
                let start = if self.start < 0 as $ty { 0 } else { self.start as u64 };
                let end = if self.end < 0 as $ty { 0 } else { self.end as u64 };
                IterSpace::range(start..end)
            }

            fn run_units<F: FnMut($ty)>(space: &IterSpace, lo: u64, hi: u64, mut f: F) -> u64 {
                let IterSpace::Range1D { start, .. } = *space else {
                    unreachable!("1-D range driven with a non-1-D space");
                };
                for u in lo..hi {
                    // In-bounds by construction: units index the
                    // validated `[start, start+len)` of the source range.
                    f((start + u) as $ty);
                }
                hi - lo
            }
        }
    )*};
}

impl_loop_space_for_range!(u64, u32, usize, i32, i64);

impl LoopSpace for IterSpace {
    type Point = (u64, u64);

    fn to_space(&self) -> IterSpace {
        *self
    }

    /// Decodes units to `(row, col)` points. 1-D spaces yield
    /// `(index, 0)` — prefer the `Range` impls for those (typed
    /// `Point = u64`).
    fn run_units<F: FnMut((u64, u64))>(space: &IterSpace, lo: u64, hi: u64, mut f: F) -> u64 {
        match *space {
            IterSpace::Range1D { start, .. } => {
                for u in lo..hi {
                    f((start + u, 0));
                }
                hi - lo
            }
            IterSpace::Rect2D {
                rows,
                cols,
                tile_rows,
                tile_cols,
            } => {
                let (tr, tc) = (tile_rows as u64, tile_cols as u64);
                let gc = cols.div_ceil(tc);
                let mut elems = 0u64;
                for u in lo..hi {
                    let r0 = (u / gc) * tr;
                    let c0 = (u % gc) * tc;
                    let r1 = (r0 + tr).min(rows);
                    let c1 = (c0 + tc).min(cols);
                    for r in r0..r1 {
                        for c in c0..c1 {
                            f((r, c));
                        }
                    }
                    elems += (r1 - r0) * (c1 - c0);
                }
                elems
            }
            IterSpace::Triangular { n, tile } => {
                let t = tile as u64;
                let mut elems = 0u64;
                for u in lo..hi {
                    let tile_r = tri_row(u);
                    let tile_c = u - tile_r * (tile_r + 1) / 2;
                    let r0 = tile_r * t;
                    let r1 = (r0 + t).min(n);
                    let c0 = tile_c * t;
                    for r in r0..r1 {
                        // Diagonal tiles clip at the r=c edge; for
                        // off-diagonal tiles c0+t ≤ r0 ≤ r, so the min
                        // is the full tile width.
                        let c1 = (c0 + t).min(r + 1);
                        for c in c0..c1 {
                            f((r, c));
                        }
                        elems += c1 - c0;
                    }
                }
                elems
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force element count of units `[lo, hi)` via the decoder.
    fn count(space: &IterSpace, lo: u64, hi: u64) -> u64 {
        let mut seen = 0u64;
        let ran = IterSpace::run_units(space, lo, hi, |_| seen += 1);
        assert_eq!(ran, seen, "run_units return value matches calls");
        seen
    }

    #[test]
    fn range1d_units_are_iterations() {
        let s = IterSpace::range(10..25);
        assert_eq!(s.units(), 15);
        assert_eq!(s.len(), 15);
        assert_eq!(s.elems_in(3, 9), 6);
        let mut pts = Vec::new();
        IterSpace::run_units(&s, 0, 3, |p| pts.push(p));
        assert_eq!(pts, vec![(10, 0), (11, 0), (12, 0)]);
    }

    #[test]
    fn rect2d_covers_every_cell_exactly_once() {
        // Ragged in both dimensions: 10×7 with 4×3 tiles → 3×3 grid.
        let s = IterSpace::rect_tiled(10, 7, 4, 3);
        assert_eq!(s.units(), 9);
        assert_eq!(s.len(), 70);
        let mut hits = vec![0u32; 70];
        let ran = IterSpace::run_units(&s, 0, s.units(), |(r, c)| {
            assert!(r < 10 && c < 7);
            hits[(r * 7 + c) as usize] += 1;
        });
        assert_eq!(ran, 70);
        assert!(hits.iter().all(|&h| h == 1), "every cell exactly once");
    }

    #[test]
    fn triangular_covers_the_lower_triangle_exactly_once() {
        // n=11, tile 4 → 3 tile-rows, 6 tiles, ragged bottom edge.
        let s = IterSpace::triangular_tiled(11, 4);
        assert_eq!(s.units(), 6);
        assert_eq!(s.len(), 66);
        let mut hits = std::collections::HashMap::new();
        let ran = IterSpace::run_units(&s, 0, s.units(), |(r, c)| {
            assert!(c <= r && r < 11, "({r},{c}) outside the triangle");
            *hits.entry((r, c)).or_insert(0u32) += 1;
        });
        assert_eq!(ran, 66);
        assert_eq!(hits.len(), 66);
        assert!(hits.values().all(|&h| h == 1));
    }

    #[test]
    fn elems_before_matches_brute_force_on_ragged_spaces() {
        let spaces = [
            IterSpace::rect_tiled(10, 7, 4, 3),
            IterSpace::rect_tiled(1, 100, 8, 8),
            IterSpace::rect_tiled(64, 64, 16, 16),
            IterSpace::triangular_tiled(11, 4),
            IterSpace::triangular_tiled(1, 4),
            IterSpace::triangular_tiled(16, 4),
            IterSpace::triangular_tiled(100, 7),
        ];
        for s in &spaces {
            for u in 0..=s.units() {
                assert_eq!(
                    s.elems_before(u),
                    count(s, 0, u),
                    "{s:?} prefix at unit {u}"
                );
            }
            assert_eq!(s.elems_before(s.units()), s.len(), "{s:?} total");
            assert_eq!(s.elems_before(s.units() + 10), s.len(), "{s:?} clamped");
        }
    }

    #[test]
    fn tri_row_is_exact_at_scale() {
        for r in [0u64, 1, 2, 100, 1 << 20, (1 << 31) - 7] {
            let base = r * (r + 1) / 2;
            assert_eq!(tri_row(base), r);
            assert_eq!(tri_row(base + r), r, "last tile of row {r}");
            if r > 0 {
                assert_eq!(tri_row(base - 1), r - 1);
            }
        }
    }

    #[test]
    fn giant_spaces_validate_and_count_in_o1() {
        // >u32::MAX 1-D: valid now (the waving layer's job).
        let s = IterSpace::range(0..u32::MAX as u64 + 2);
        s.validate().unwrap();
        assert_eq!(s.elems_in(0, u32::MAX as u64 + 2), u32::MAX as u64 + 2);
        // A 2^80-element rect overflows u64 elements: typed error.
        let s = IterSpace::rect(1 << 40, 1 << 40);
        assert!(matches!(s.validate(), Err(LoopError::RangeTooLarge { .. })));
        // Triangular beyond the n(n+1)/2 u64 bound: typed error.
        let s = IterSpace::triangular(1 << 60);
        assert!(matches!(s.validate(), Err(LoopError::RangeTooLarge { .. })));
        // A giant-but-valid triangular space: O(1) prefix math works.
        let s = IterSpace::triangular_tiled(3_000_000_000, 1 << 16);
        s.validate().unwrap();
        assert_eq!(s.elems_before(s.units()), s.len());
        assert_eq!(s.len(), 3_000_000_000u64 * 3_000_000_001 / 2);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted ranges are the point
    fn signed_and_unsigned_ranges_name_the_same_space() {
        assert_eq!((5i32..9).to_space(), (5u64..9).to_space());
        assert_eq!((5usize..9).to_space(), (5u32..9).to_space());
        assert_eq!((-3i32..4).to_space(), IterSpace::range(0..4));
        assert_eq!((7u64..3).to_space().len(), 0, "inverted range is empty");
    }
}
