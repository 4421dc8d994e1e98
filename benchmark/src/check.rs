//! Output checking, owned by the benchmark: what "the same answer as brute
//! force" and "recall" mean here, independent of the product's own helpers.

use rbc_bruteforce::Neighbor;

/// Whether `answer` equals the brute-force `truth` neighbour for neighbour,
/// by database index. Positions whose distances are exactly equal are ties:
/// the two sides may order (or, at the k-th place, choose) tied points
/// differently without either being wrong.
pub fn matches_truth(answer: &[Neighbor], truth: &[Neighbor]) -> bool {
    answer.len() == truth.len()
        && answer
            .iter()
            .zip(truth)
            .all(|(a, t)| a.index == t.index || a.dist == t.dist)
}

/// Recall of a set of answers at `k`: the share of the `k` places per query
/// filled by a neighbour whose distance is at most the true k-th distance
/// (`truth[q]` is the brute-force k-NN list of query `q`, ascending). A
/// place left empty counts as a miss, so answering with fewer than `k`
/// neighbours lowers recall.
pub fn recall(answers: &[Vec<Neighbor>], truth: &[Vec<Neighbor>], k: usize) -> f64 {
    assert_eq!(answers.len(), truth.len());
    assert!(k > 0);
    let mut good = 0usize;
    for (answer, t) in answers.iter().zip(truth) {
        let Some(kth) = t.get(k.min(t.len()).saturating_sub(1)) else {
            continue;
        };
        good += answer.iter().take(k).filter(|a| a.dist <= kth.dist).count();
    }
    good as f64 / (k * answers.len()).max(1) as f64
}

/// Running count of operations tried and operations that went wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(pairs: &[(usize, f64)]) -> Vec<Neighbor> {
        pairs.iter().map(|&(i, d)| Neighbor::new(i, d)).collect()
    }

    #[test]
    fn exact_match_is_by_index_with_distance_ties_excepted() {
        let truth = nb(&[(4, 0.1), (9, 0.2), (2, 0.2), (7, 0.5)]);
        assert!(matches_truth(&truth, &truth));
        // The two points at distance 0.2 may swap places.
        assert!(matches_truth(
            &nb(&[(4, 0.1), (2, 0.2), (9, 0.2), (7, 0.5)]),
            &truth
        ));
        // A different point at a different distance is a mismatch.
        assert!(!matches_truth(
            &nb(&[(4, 0.1), (9, 0.2), (2, 0.2), (8, 0.6)]),
            &truth
        ));
        // A short answer is a mismatch.
        assert!(!matches_truth(&truth[..3], &truth));
    }

    #[test]
    fn recall_counts_neighbours_within_the_true_kth_distance() {
        let truth = vec![nb(&[(1, 0.1), (2, 0.2)]), nb(&[(5, 0.3), (6, 0.4)])];
        // Query 0: both within 0.2. Query 1: one within 0.4, one beyond.
        let answers = vec![nb(&[(1, 0.1), (2, 0.2)]), nb(&[(5, 0.3), (9, 0.7)])];
        assert_eq!(recall(&answers, &truth, 2), 0.75);
        // A tie at the k-th distance counts as found.
        let tied = vec![nb(&[(1, 0.1), (3, 0.2)]), nb(&[(5, 0.3), (6, 0.4)])];
        assert_eq!(recall(&tied, &truth, 2), 1.0);
        // An empty place is a miss.
        let short = vec![nb(&[(1, 0.1)]), nb(&[(5, 0.3), (6, 0.4)])];
        assert_eq!(recall(&short, &truth, 2), 0.75);
        // Recall at 1 looks only at the first place and the true 1st distance.
        assert_eq!(recall(&answers, &truth, 1), 1.0);
        let wrong_first = vec![nb(&[(2, 0.2)]), nb(&[(5, 0.3)])];
        assert_eq!(recall(&wrong_first, &truth, 1), 0.5);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (3, 1));
    }
}
