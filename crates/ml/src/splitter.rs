//! The splitter arena: one in-place partition layout shared by the CART
//! builder ([`crate::tree`], behind the decision tree, the random forest and
//! AdaBoost) and the GBDT regression-tree builder ([`crate::gbdt`]).
//!
//! A tree build owns one arena, and every node is a `[lo, hi)` range into
//! two buffers:
//!
//! * the **row buffer**: `rows[lo..hi]` is the node's membership in
//!   ascending row order, the order every per-node total is summed in;
//! * the **feature-major index buffer**: feature `f`'s stripe holds the
//!   same membership in the sorted sidecar's order at
//!   `lists[f*m + lo .. f*m + hi]`, where `m` is the number of rows in the
//!   tree — the order every threshold sweep walks.
//!
//! Splitting a node partitions its ranges stably in place: a goes-left
//! mask, indexed by row, marks the left child; left members are compacted
//! to the front of each range and right members pass through one scratch
//! buffer. Stability keeps both orders intact in the children, so every
//! sweep and every sum visits rows in exactly the order per-node `Vec`
//! partitions would, and a tree build allocates its O(d·m) buffers once
//! instead of once per node. A split whose children will both be leaves
//! partitions only the row buffer (the leaves never sweep).

/// Per-tree row and sorted-index buffers; see the [module docs](self).
pub(crate) struct Arena {
    /// Node memberships in ascending row order.
    rows: Vec<u32>,
    /// Feature-major node memberships in sidecar order, `m` per feature.
    lists: Vec<u32>,
    /// Rows in the tree: the stripe length.
    m: usize,
    /// Goes-left flag per matrix row, set by the last row partition.
    goes_left: Vec<bool>,
    /// Right-child staging for the stable partitions.
    scratch: Vec<u32>,
}

impl Arena {
    /// An arena over every row of a matrix whose sorted sidecar is `sorted`.
    pub(crate) fn all_rows(sorted: &[Vec<u32>], n_rows: usize) -> Self {
        Arena {
            rows: (0..n_rows as u32).collect(),
            lists: sorted.concat(),
            m: n_rows,
            goes_left: vec![false; n_rows],
            scratch: Vec::with_capacity(n_rows),
        }
    }

    /// An arena over the rows with a nonzero count, each list being the
    /// sidecar column filtered to those rows. Filtering keeps the sidecar's
    /// order, so a bootstrap tree needs no sort of its own.
    pub(crate) fn drawn(sorted: &[Vec<u32>], counts: &[u32]) -> Self {
        let drawn = |r: &u32| counts[*r as usize] > 0;
        let rows: Vec<u32> = (0..counts.len() as u32).filter(drawn).collect();
        let m = rows.len();
        let mut lists = Vec::with_capacity(sorted.len() * m);
        for col in sorted {
            lists.extend(col.iter().copied().filter(drawn));
        }
        Arena {
            rows,
            lists,
            m,
            goes_left: vec![false; counts.len()],
            scratch: Vec::with_capacity(m),
        }
    }

    /// Rows in the tree; the root node is `[0, n_rows())`.
    pub(crate) fn n_rows(&self) -> usize {
        self.m
    }

    /// The node's rows in ascending order.
    pub(crate) fn rows(&self, lo: usize, hi: usize) -> &[u32] {
        &self.rows[lo..hi]
    }

    /// The node's rows in feature `f`'s sidecar order.
    pub(crate) fn list(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        &self.lists[f * self.m + lo..f * self.m + hi]
    }

    /// Stably partitions the node's rows by `left(row)`, records the
    /// goes-left mask for [`Arena::partition_lists`], and returns the split
    /// point: the left child is `[lo, mid)`, the right `[mid, hi)`.
    pub(crate) fn partition_rows(
        &mut self,
        lo: usize,
        hi: usize,
        left: impl Fn(usize) -> bool,
    ) -> usize {
        for &r in &self.rows[lo..hi] {
            self.goes_left[r as usize] = left(r as usize);
        }
        lo + stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.scratch)
    }

    /// Partitions every feature list of node `[lo, hi)` by the mask of the
    /// preceding [`Arena::partition_rows`], at the same split point.
    pub(crate) fn partition_lists(&mut self, lo: usize, hi: usize) {
        for stripe in self.lists.chunks_exact_mut(self.m) {
            stable_partition(&mut stripe[lo..hi], &self.goes_left, &mut self.scratch);
        }
    }
}

/// Moves the members of `seg` flagged in `goes_left` to its front and the
/// rest behind them, each side keeping its order; returns the left count.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut w = 0;
    for i in 0..seg.len() {
        let x = seg[i];
        if goes_left[x as usize] {
            seg[w] = x;
            w += 1;
        } else {
            scratch.push(x);
        }
    }
    seg[w..].copy_from_slice(scratch);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-node `Vec` partitions, the layout the arena replaces.
    fn split_vec(v: &[u32], left: &[bool]) -> (Vec<u32>, Vec<u32>) {
        v.iter().partition(|&&x| left[x as usize])
    }

    #[test]
    fn partitions_match_per_node_vecs() {
        let sorted = vec![vec![3u32, 0, 4, 1, 2], vec![1, 2, 0, 4, 3]];
        let mut arena = Arena::all_rows(&sorted, 5);
        assert_eq!(arena.list(1, 0, 5), &[1, 2, 0, 4, 3]);
        let root_left = [true, false, true, false, true];
        let mid = arena.partition_rows(0, 5, |r| root_left[r]);
        assert_eq!((mid, arena.rows(0, 5)), (3, &[0, 2, 4, 1, 3][..]));
        arena.partition_lists(0, 5);
        for (f, col) in sorted.iter().enumerate() {
            let (l, r) = split_vec(col, &root_left);
            assert_eq!(arena.list(f, 0, mid), &l[..]);
            assert_eq!(arena.list(f, mid, 5), &r[..]);
        }
        // split the left child [0, 3) = {0, 2, 4} again: 4 goes left
        let mid2 = arena.partition_rows(0, 3, |r| r == 4);
        arena.partition_lists(0, 3);
        assert_eq!((mid2, arena.rows(0, 3)), (1, &[4, 0, 2][..]));
        assert_eq!(arena.list(0, 0, 3), &[4, 0, 2]);
        assert_eq!(arena.list(1, 0, 3), &[4, 2, 0]);
        // the right child is untouched
        assert_eq!(arena.list(0, 3, 5), &[3, 1]);
    }

    #[test]
    fn drawn_arena_filters_the_sidecar() {
        let sorted = vec![vec![3u32, 0, 4, 1, 2]];
        let arena = Arena::drawn(&sorted, &[2, 0, 1, 1, 0]);
        assert_eq!(arena.n_rows(), 3);
        assert_eq!(arena.rows(0, 3), &[0, 2, 3]);
        assert_eq!(arena.list(0, 0, 3), &[3, 0, 2]);
    }
}
