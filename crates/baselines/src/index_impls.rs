//! The [`SearchIndex`] implementation for the cover tree, so the online
//! serving engine (`rbc-serve`) can schedule micro-batches over it exactly
//! as it does over the RBC — which is what makes serving-layer comparisons
//! between the paper's index and its Table 3 competitor apples-to-apples.
//!
//! The tree answers batches by looping its sequential per-query search
//! (its traversals do not share database tiles — the paper's point).

use rbc_core::SearchIndex;
use rbc_metric::{Dataset, Metric, QueryBatch};

use rbc_bruteforce::Neighbor;

use crate::cover_tree::CoverTree;

impl<D, M> SearchIndex for CoverTree<D, M>
where
    D: Dataset,
    M: Metric<D::Item>,
{
    type Query = D::Item;

    fn size(&self) -> usize {
        self.len()
    }

    fn search(&self, query: &D::Item, k: usize) -> (Vec<Neighbor>, u64) {
        self.query_k(query, k)
    }

    fn search_batch(&self, queries: &[&D::Item], k: usize) -> (Vec<Vec<Neighbor>>, u64) {
        self.query_batch_k(&QueryBatch::new(queries), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_bruteforce::BruteForce;
    use rbc_metric::{Euclidean, VectorSet};

    fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 33) as f32 / u32::MAX as f32) * 8.0 - 4.0);
            }
            rows.push(row);
        }
        VectorSet::from_rows(&rows)
    }

    /// The Send/Sync audit for the cover tree: the serving layer shares it
    /// across worker threads behind an `Arc`.
    #[test]
    fn send_sync_audit() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoverTree<VectorSet, Euclidean>>();
    }

    #[test]
    fn exact_baselines_agree_through_the_trait() {
        let db = cloud(250, 4, 1);
        let queries = cloud(8, 4, 2);
        let cover = CoverTree::build(&db, Euclidean);

        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let want = BruteForce::new().knn_single(q, &db, &Euclidean, 3).0;
            let want_idx: Vec<usize> = want.iter().map(|n| n.index).collect();
            let got = SearchIndex::search(&cover, q, 3).0;
            let got_idx: Vec<usize> = got.iter().map(|n| n.index).collect();
            assert_eq!(got_idx, want_idx, "query {qi}");
        }
    }

    #[test]
    fn batch_paths_match_single_paths() {
        let db = cloud(180, 3, 3);
        let queries = cloud(7, 3, 4);
        let refs: Vec<&[f32]> = (0..queries.len()).map(|i| queries.point(i)).collect();

        let cover = CoverTree::build(&db, Euclidean);

        let (batch, batch_work) = cover.search_batch(&refs, 2);
        let mut single_work = 0;
        for (qi, q) in refs.iter().enumerate() {
            let (single, work) = cover.search(q, 2);
            assert_eq!(batch[qi], single);
            single_work += work;
        }
        assert_eq!(batch_work, single_work);
        assert_eq!(SearchIndex::size(&cover), db.len());
    }
}
