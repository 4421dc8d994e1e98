//! Representative sampling and ownership lists (paper §4).

use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use rbc_bruteforce::{ListMirror, Neighbor};
use rbc_metric::{Dataset, Dist};

/// Draws the random representative set `R`.
///
/// Exactly as in the paper's analysis, each of the `n` database elements is
/// chosen independently with probability `expected / n`, so the realised
/// number of representatives is binomial with mean `expected` (the theory's
/// `n_r`). If the coin flips come up empty (possible for tiny `expected`),
/// one element is drawn uniformly so the structure is never degenerate.
///
/// Returns the sorted indices of the chosen representatives.
///
/// # Panics
/// Panics if `n == 0` or `expected == 0`.
pub fn sample_representatives(n: usize, expected: usize, seed: u64) -> Vec<usize> {
    assert!(
        n > 0,
        "cannot sample representatives from an empty database"
    );
    assert!(
        expected > 0,
        "expected number of representatives must be positive"
    );
    let p = (expected as f64 / n as f64).min(1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reps: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < p).collect();
    if reps.is_empty() {
        reps.push(rng.gen_range(0..n));
    }
    reps
}

/// The ownership list `L_r` of one representative, with its radius `ψ_r`.
///
/// Members are stored sorted by ascending distance to the representative;
/// the exact search algorithm exploits this ordering to cut list scans
/// short using the triangle inequality (§6.1, footnote 2).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OwnershipList {
    /// Database index of the representative itself.
    pub rep_index: usize,
    /// Database indices of the owned points, sorted by ascending distance
    /// to the representative.
    pub members: Vec<usize>,
    /// Distances `ρ(x, r)` parallel to `members` (ascending).
    pub member_dists: Vec<Dist>,
    /// `ψ_r = max_{x ∈ L_r} ρ(x, r)`; zero for an empty list.
    pub radius: Dist,
}

impl OwnershipList {
    /// Builds a list from unsorted `(index, distance)` pairs. Members are
    /// ordered as [`Neighbor`]s are: ascending `(distance, index)`,
    /// a NaN distance (a database point with a NaN coordinate) after every
    /// number.
    pub fn from_pairs(rep_index: usize, mut pairs: Vec<(usize, Dist)>) -> Self {
        pairs.sort_by_key(|&(i, d)| Neighbor::new(i, d).sort_key());
        let (members, member_dists) = pairs.into_iter().unzip();
        Self::from_sorted(rep_index, members, member_dists)
    }

    /// Builds a list from members already in list order — ascending
    /// `(distance, index)`, NaN distances last — with their distances.
    pub fn from_sorted(rep_index: usize, members: Vec<usize>, member_dists: Vec<Dist>) -> Self {
        debug_assert_eq!(members.len(), member_dists.len());
        debug_assert!(
            (1..members.len()).all(|at| {
                let entry = |at: usize| Neighbor::new(members[at], member_dists[at]);
                entry(at - 1) < entry(at)
            }),
            "members must ascend by (dist, index)"
        );
        let radius = member_dists.last().copied().unwrap_or(0.0);
        Self {
            rep_index,
            members,
            member_dists,
            radius,
        }
    }

    /// Number of points owned.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the representative owns no points.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of leading members with `ρ(x, r) ≤ cutoff` — how much of the
    /// sorted list a scan bounded by `cutoff` must touch. The paper notes
    /// (footnote 2) this can be computed in `O(log |L_r|)` for scheduling
    /// purposes, which is exactly this binary search.
    pub fn prefix_within(&self, cutoff: Dist) -> usize {
        self.member_dists.partition_point(|&d| d <= cutoff)
    }
}

/// How a list's mirror is made: [`ListMirror::gather`] (`f32` lanes) or
/// [`ListMirror::gather_codes`] (`u8` codes), each with its arguments.
pub(crate) type MirrorGather<D> =
    fn(&D, &[usize], Option<&[Dist]>, Option<&[bool]>) -> Option<ListMirror>;

/// Gathers the mirror of every list with `gather`, in list order: the one
/// routine both builds share, each naming the kind of mirror it scans.
/// Each list is gathered on whichever thread claims it (`parallel`) or all
/// of them on the caller. `sorted_cut` lists carry their members' distances
/// into the mirror's run-search summary; members flagged in `skip` are
/// masked out of every scan.
pub(crate) fn gather_mirrors<D: Dataset>(
    db: &D,
    lists: &[OwnershipList],
    gather: MirrorGather<D>,
    sorted_cut: bool,
    skip: Option<&[bool]>,
    parallel: bool,
) -> Vec<Option<ListMirror>> {
    let gather = |list: &OwnershipList| {
        let member_dists = sorted_cut.then_some(&list.member_dists[..]);
        gather(db, &list.members, member_dists, skip)
    };
    if parallel {
        lists.par_iter().map(gather).collect()
    } else {
        lists.iter().map(gather).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_plausible() {
        let a = sample_representatives(10_000, 100, 7);
        let b = sample_representatives(10_000, 100, 7);
        assert_eq!(a, b);
        // Binomial(10000, 0.01): mean 100, std ~10. A 6-sigma band is a
        // safe deterministic check for this fixed seed.
        assert!(a.len() > 40 && a.len() < 160, "got {} reps", a.len());
        // sorted and unique
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn different_seeds_give_different_draws() {
        let a = sample_representatives(1000, 50, 1);
        let b = sample_representatives(1000, 50, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn expected_at_least_n_selects_everything() {
        let reps = sample_representatives(50, 500, 3);
        assert_eq!(reps, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn never_returns_empty() {
        // probability 1/10^6 per point over 10 points: virtually always
        // empty before the fallback kicks in.
        for seed in 0..20 {
            let reps = sample_representatives(10, 1, seed);
            assert!(!reps.is_empty());
            assert!(reps.iter().all(|&r| r < 10));
        }
    }

    #[test]
    fn ownership_list_sorts_and_records_radius() {
        let l = OwnershipList::from_pairs(5, vec![(9, 3.0), (1, 1.0), (4, 2.0)]);
        assert_eq!(l.rep_index, 5);
        assert_eq!(l.members, vec![1, 4, 9]);
        assert_eq!(l.member_dists, vec![1.0, 2.0, 3.0]);
        assert_eq!(l.radius, 3.0);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
    }

    #[test]
    fn from_sorted_keeps_the_order_it_is_given_and_records_radius() {
        let l = OwnershipList::from_sorted(5, vec![1, 4, 9], vec![1.0, 2.0, 2.0]);
        assert_eq!(
            l,
            OwnershipList::from_pairs(5, vec![(9, 2.0), (4, 2.0), (1, 1.0)])
        );
        assert_eq!(l.radius, 2.0);
        assert_eq!(OwnershipList::from_sorted(3, vec![], vec![]).radius, 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "members must ascend")]
    fn from_sorted_checks_the_order_in_debug_builds() {
        let _ = OwnershipList::from_sorted(0, vec![4, 1], vec![2.0, 2.0]);
    }

    #[test]
    fn a_nan_distance_sorts_last_instead_of_panicking() {
        let l = OwnershipList::from_pairs(0, vec![(3, Dist::NAN), (8, 2.0), (1, Dist::INFINITY)]);
        assert_eq!(l.members, vec![8, 1, 3]);
        assert!(l.member_dists[2].is_nan());
        assert_eq!(l.prefix_within(5.0), 1);
    }

    #[test]
    fn empty_ownership_list_has_zero_radius() {
        let l = OwnershipList::from_pairs(0, vec![]);
        assert!(l.is_empty());
        assert_eq!(l.radius, 0.0);
        assert_eq!(l.prefix_within(10.0), 0);
    }

    #[test]
    fn prefix_within_counts_inclusive() {
        let l = OwnershipList::from_pairs(0, vec![(1, 1.0), (2, 2.0), (3, 2.0), (4, 5.0)]);
        assert_eq!(l.prefix_within(0.5), 0);
        assert_eq!(l.prefix_within(2.0), 3);
        assert_eq!(l.prefix_within(100.0), 4);
    }

    #[test]
    fn ties_in_distance_are_ordered_by_index() {
        let l = OwnershipList::from_pairs(0, vec![(7, 1.0), (2, 1.0), (5, 1.0)]);
        assert_eq!(l.members, vec![2, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn sampling_from_empty_database_panics() {
        let _ = sample_representatives(0, 5, 1);
    }
}
