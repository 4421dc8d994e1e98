//! The [`Neighbor`] type: an index into a dataset plus its distance to a
//! query.

use rbc_metric::Dist;

/// A candidate nearest neighbor: the index of a database item and its
/// distance to the query under consideration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the item in the database it was drawn from.
    pub index: usize,
    /// Distance from the query to that item.
    pub dist: Dist,
}

impl Neighbor {
    /// Creates a neighbor record.
    pub fn new(index: usize, dist: Dist) -> Self {
        Self { index, dist }
    }

    /// A sentinel that is farther than any real neighbor; used to seed
    /// min-reductions.
    pub fn farthest() -> Self {
        Self {
            index: usize::MAX,
            dist: Dist::INFINITY,
        }
    }

    /// Returns whichever of the two neighbors is closer, breaking ties by
    /// the lower index so reductions are deterministic regardless of the
    /// order in which workers finish.
    #[inline]
    pub fn closer(self, other: Self) -> Self {
        if other.dist < self.dist || (other.dist == self.dist && other.index < self.index) {
            other
        } else {
            self
        }
    }

    /// True if this is the [`farthest`](Neighbor::farthest) sentinel.
    pub fn is_sentinel(&self) -> bool {
        self.index == usize::MAX
    }

    /// [`Ord`]'s order as an integer key, for sorting and partitioning
    /// long runs of neighbors: a float comparison's branches are what a
    /// sort mispredicts on every other call, integer keys are not
    /// (selecting the 1 268 smallest of 2 536 neighbors: 33 µs by
    /// `partial_cmp`, 13 µs by key). The distance becomes
    /// [`f64::total_cmp`]'s bit trick, after folding `-0.0` onto `+0.0`
    /// (`partial_cmp` calls them equal) and every NaN, of either sign,
    /// above `+∞`.
    #[inline]
    pub fn sort_key(&self) -> (i64, usize) {
        let key = if self.dist.is_nan() {
            i64::MAX
        } else {
            let bits = (self.dist + 0.0).to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        (key, self.index)
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance, then by index, with every NaN distance after
    /// every number (ties among them by index) — the order
    /// [`closer`](Neighbor::closer) reduces by, so a heap, a sort and a
    /// min-reduction settle a row with some NaN entries on the same
    /// neighbor, and `sort_unstable` / `select_nth_unstable` see a total
    /// order. Float comparisons, no branch before the index: a `TopK` sift
    /// compares on every admission, and [`sort_key`](Neighbor::sort_key)
    /// as `cmp` cost the exact search ≈ 10 % per query, a branch to an
    /// out-of-line NaN arm ≈ 5 %.
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (self.dist, other.dist);
        // Non-short-circuit `&` / `|`: no branch until the index decides.
        let below = (a < b) | (b.is_nan() & !a.is_nan());
        let above = (a > b) | (a.is_nan() & !b.is_nan());
        if below {
            std::cmp::Ordering::Less
        } else if above {
            std::cmp::Ordering::Greater
        } else {
            self.index.cmp(&other.index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closer_prefers_smaller_distance() {
        let a = Neighbor::new(3, 2.0);
        let b = Neighbor::new(9, 1.0);
        assert_eq!(a.closer(b), b);
        assert_eq!(b.closer(a), b);
    }

    #[test]
    fn closer_breaks_ties_by_index() {
        let a = Neighbor::new(7, 1.5);
        let b = Neighbor::new(2, 1.5);
        assert_eq!(a.closer(b), b);
        assert_eq!(b.closer(a), b);
    }

    #[test]
    fn sentinel_loses_to_everything() {
        let s = Neighbor::farthest();
        let a = Neighbor::new(0, 1e30);
        assert!(s.is_sentinel());
        assert!(!a.is_sentinel());
        assert_eq!(s.closer(a), a);
    }

    #[test]
    fn nan_last_order_is_cmp_on_numbers_and_total_with_nans() {
        let numbers = [
            Neighbor::new(4, -0.0),
            Neighbor::new(2, 0.0),
            Neighbor::new(9, 1.5),
            Neighbor::new(1, Dist::INFINITY),
        ];
        for a in &numbers {
            for b in &numbers {
                let by_float = a.dist.partial_cmp(&b.dist).unwrap();
                assert_eq!(a.cmp(b), by_float.then(a.index.cmp(&b.index)));
                assert_eq!(a.sort_key().cmp(&b.sort_key()), a.cmp(b));
            }
        }
        let mut mixed = [
            Neighbor::new(7, Dist::NAN),
            Neighbor::new(1, Dist::INFINITY),
            Neighbor::new(3, -Dist::NAN),
            Neighbor::new(5, 2.0),
        ];
        let mut by_key = mixed;
        mixed.sort_unstable();
        by_key.sort_unstable_by_key(Neighbor::sort_key);
        let order: Vec<usize> = mixed.iter().map(|nb| nb.index).collect();
        assert_eq!(order, [5, 1, 3, 7]);
        assert!(mixed.iter().zip(&by_key).all(|(a, b)| a.index == b.index));
        // The heap's order is the reduction's: a number beats a NaN
        // whatever their indices.
        let (nan, far) = (
            Neighbor::new(0, Dist::NAN),
            Neighbor::new(8, Dist::INFINITY),
        );
        assert!(far < nan);
        assert_eq!(Neighbor::farthest().closer(nan).closer(far), far);
    }

    #[test]
    fn ordering_is_by_distance_then_index() {
        let mut v = vec![
            Neighbor::new(5, 2.0),
            Neighbor::new(1, 1.0),
            Neighbor::new(0, 2.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Neighbor::new(1, 1.0),
                Neighbor::new(0, 2.0),
                Neighbor::new(5, 2.0),
            ]
        );
    }
}
