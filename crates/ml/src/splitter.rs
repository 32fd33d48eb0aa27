//! The splitter arena: one in-place partition layout shared by the CART
//! builder ([`crate::tree`], behind the decision tree, the random forest and
//! AdaBoost) and the GBDT regression-tree builder ([`crate::gbdt`]).
//!
//! A tree build owns one arena, and every node is a `[lo, hi)` range into
//! two buffers:
//!
//! * the **row buffer**: `rows[lo..hi]` is the node's membership in
//!   ascending row order, the order every per-node total is summed in;
//! * the **stripe-major index buffer**: each column that is not 0/1 has a
//!   stripe `s` holding the same membership in the sorted sidecar's order
//!   at `lists[s*m + lo .. s*m + hi]`, where `m` is the number of rows in
//!   the tree — the order every threshold sweep walks.
//!
//! A 0/1 column has no stripe: its sidecar list is empty, and the kernels
//! read it through the matrix's one-hot groups and the row buffer instead
//! (its `(value, row)` order is the node's zero rows in row order, then its
//! one rows). On a one-hot-encoded matrix that leaves a few stripes, not
//! one per encoded column, to filter and partition.
//!
//! Splitting a node partitions its ranges stably in place: a goes-left
//! mask, indexed by row, marks the left child; left members are compacted
//! to the front of each range and right members pass through one scratch
//! buffer. Stability keeps both orders intact in the children, so every
//! sweep and every sum visits rows in exactly the order per-node `Vec`
//! partitions would, and a tree build allocates its O(d·m) buffers once
//! instead of once per node. A split whose children will both be leaves
//! partitions only the row buffer (the leaves never sweep).
//!
//! The partition and the bootstrap filter of [`Arena::drawn`] are
//! branchless: each member is stored to every output it could go to, and
//! only the cursor its flag selects advances. A row's goes-left or drawn
//! flag follows no pattern a branch predictor could learn, so a branch on
//! it mispredicts often; the order of every list is the same either way.

/// Per-tree row and sorted-index buffers; see the [module docs](self).
pub(crate) struct Arena {
    /// Node memberships in ascending row order.
    rows: Vec<u32>,
    /// Stripe-major node memberships in sidecar order, `m` per stripe.
    lists: Vec<u32>,
    /// Per column: its stripe, or `None` for a column without a list.
    stripe: Vec<Option<usize>>,
    /// Rows in the tree: the stripe length.
    m: usize,
    /// Goes-left flag per matrix row, set by the last row partition.
    goes_left: Vec<bool>,
    /// Right-child staging for the stable partitions, `m` slots.
    scratch: Vec<u32>,
}

impl Arena {
    /// An arena over every row of a matrix whose sorted sidecar is `sorted`;
    /// a column with an empty list gets no stripe.
    pub(crate) fn all_rows(sorted: &[Vec<u32>], n_rows: usize) -> Self {
        let (stripe, kept) = stripes(sorted);
        Arena {
            rows: (0..n_rows as u32).collect(),
            lists: kept.concat(),
            stripe,
            m: n_rows,
            goes_left: vec![false; n_rows],
            scratch: vec![0; n_rows],
        }
    }

    /// An arena over the rows with a nonzero count, each stripe being the
    /// sidecar list filtered to those rows. Filtering keeps the sidecar's
    /// order, so a bootstrap tree needs no sort of its own.
    pub(crate) fn drawn(sorted: &[Vec<u32>], counts: &[u32]) -> Self {
        let n = counts.len();
        let mut rows = Vec::with_capacity(n);
        push_drawn(&mut rows, 0..n as u32, counts);
        let m = rows.len();
        let (stripe, kept) = stripes(sorted);
        // `push_drawn` grows by a whole list before cutting back, so the
        // last list needs n slots, not m.
        let mut lists = Vec::with_capacity(kept.len() * m + (n - m));
        for col in kept {
            push_drawn(&mut lists, col.iter().copied(), counts);
        }
        Arena { rows, lists, stripe, m, goes_left: vec![false; n], scratch: vec![0; m] }
    }

    /// Rows in the tree; the root node is `[0, n_rows())`.
    pub(crate) fn n_rows(&self) -> usize {
        self.m
    }

    /// The node's rows in ascending order.
    pub(crate) fn rows(&self, lo: usize, hi: usize) -> &[u32] {
        &self.rows[lo..hi]
    }

    /// The node's rows in column `f`'s sidecar order.
    ///
    /// # Panics
    /// Panics if `f` has no stripe (an empty sidecar list).
    pub(crate) fn list(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        let s = self.stripe[f].expect("the column has a sorted list");
        &self.lists[s * self.m + lo..s * self.m + hi]
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

    /// Partitions every stripe of node `[lo, hi)` by the mask of the
    /// preceding [`Arena::partition_rows`], at the same split point.
    pub(crate) fn partition_lists(&mut self, lo: usize, hi: usize) {
        for stripe in self.lists.chunks_exact_mut(self.m) {
            stable_partition(&mut stripe[lo..hi], &self.goes_left, &mut self.scratch);
        }
    }
}

/// Numbers the non-empty lists of `sorted` as stripes: each column's stripe
/// (if any) and the kept lists in stripe order.
fn stripes(sorted: &[Vec<u32>]) -> (Vec<Option<usize>>, Vec<&[u32]>) {
    let mut kept = Vec::new();
    let stripe = sorted
        .iter()
        .map(|list| {
            (!list.is_empty()).then(|| {
                kept.push(list.as_slice());
                kept.len() - 1
            })
        })
        .collect();
    (stripe, kept)
}

/// Moves the members of `seg` flagged in `goes_left` to its front and the
/// rest behind them, each side keeping its order; returns the left count.
///
/// Branchless: every member is stored both at the left cursor `w` in place
/// and at the right cursor `s` in `scratch` (which holds at least
/// `seg.len()` slots), and only the cursor its flag selects advances.
/// `w` never passes the read position, so a left store only overwrites a
/// member already read.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], scratch: &mut [u32]) -> usize {
    let (mut w, mut s) = (0, 0);
    for i in 0..seg.len() {
        let x = seg[i];
        let left = usize::from(goes_left[x as usize]);
        seg[w] = x;
        scratch[s] = x;
        w += left;
        s += 1 - left;
    }
    seg[w..].copy_from_slice(&scratch[..s]);
    w
}

/// Appends the members of `src` with a nonzero count to `out`, in order.
/// Branchless like [`stable_partition`]: `out` grows by all of `src`, every
/// member is stored at the cursor, the cursor moves past the drawn ones
/// only, and `out` is cut back to the cursor.
fn push_drawn(out: &mut Vec<u32>, src: impl ExactSizeIterator<Item = u32>, counts: &[u32]) {
    let mut w = out.len();
    out.resize(w + src.len(), 0);
    for r in src {
        out[w] = r;
        w += usize::from(counts[r as usize] > 0);
    }
    out.truncate(w);
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

    #[test]
    fn columns_without_a_list_get_no_stripe() {
        // columns 0 and 2 are 0/1: the sidecar holds no list for them
        let sorted = vec![vec![], vec![3u32, 0, 4, 1, 2], vec![], vec![1, 2, 0, 4, 3]];
        let mut arena = Arena::all_rows(&sorted, 5);
        assert_eq!(arena.lists.len(), 2 * 5);
        let left = [true, false, true, false, true];
        check_split(&mut arena, 0, 5, &left);
        for f in [1, 3] {
            let (l, r) = split_vec(&sorted[f], &left);
            assert_eq!((arena.list(f, 0, 3), arena.list(f, 3, 5)), (&l[..], &r[..]));
        }
        let drawn = Arena::drawn(&sorted, &[1, 0, 2, 1, 0]);
        assert_eq!(drawn.lists.len(), 2 * 3);
        assert_eq!(drawn.list(1, 0, 3), &[3, 0, 2]);
        assert_eq!(drawn.list(3, 0, 3), &[2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "the column has a sorted list")]
    fn a_column_without_a_list_has_no_stripe_to_read() {
        Arena::all_rows(&[vec![], vec![1, 0]], 2).list(0, 0, 2);
    }

    /// Splits node `[lo, hi)` of `arena` by `left` and checks its rows and
    /// every stripe against per-node `Vec` partitions of the node's members,
    /// and that the rest of every buffer is untouched.
    fn check_split(arena: &mut Arena, lo: usize, hi: usize, left: &[bool]) {
        let before_rows = arena.rows.clone();
        let before_lists = arena.lists.clone();
        let mid = arena.partition_rows(lo, hi, |r| left[r]);
        arena.partition_lists(lo, hi);
        let (l, r) = split_vec(&before_rows[lo..hi], left);
        assert_eq!(mid - lo, l.len());
        assert_eq!((arena.rows(lo, mid), arena.rows(mid, hi)), (&l[..], &r[..]));
        let m = arena.m;
        for s in 0..before_lists.len() / m.max(1) {
            let (l, r) = split_vec(&before_lists[s * m + lo..s * m + hi], left);
            let stripe = &arena.lists[s * m..(s + 1) * m];
            assert_eq!((&stripe[lo..mid], &stripe[mid..hi]), (&l[..], &r[..]));
        }
        for (i, (&a, &b)) in arena.rows.iter().zip(&before_rows).enumerate() {
            assert!((lo..hi).contains(&i) || a == b, "row slot {i} moved");
        }
        for (i, (&a, &b)) in arena.lists.iter().zip(&before_lists).enumerate() {
            assert!((lo..hi).contains(&(i % m)) || a == b, "list slot {i} moved");
        }
    }

    /// Every row left (the left cursor ends at the segment's end), every
    /// row right (so does the right cursor), and exactly one row left or
    /// right in each position, over the root and over an inner node.
    #[test]
    fn boundary_masks_match_per_node_vecs() {
        let sorted = vec![vec![3u32, 0, 4, 1, 2], vec![1, 2, 0, 4, 3], vec![4, 3, 2, 1, 0]];
        let mut masks = vec![[true; 5], [false; 5]];
        for one in 0..5 {
            let mut mask = [false; 5];
            mask[one] = true;
            masks.push(mask);
            masks.push(mask.map(|b| !b));
        }
        for mask in &masks {
            check_split(&mut Arena::all_rows(&sorted, 5), 0, 5, mask);
            // an inner node: split the root, then its right child [2, 5)
            let mut arena = Arena::all_rows(&sorted, 5);
            check_split(&mut arena, 0, 5, &[true, false, false, true, false]);
            check_split(&mut arena, 2, 5, mask);
        }
    }

    /// Every row drawn, counts above 1, a single row drawn (first, last and
    /// inner in row order and in each list), and undrawn rows at the ends
    /// of the lists, where the filter's last store lands past the kept
    /// members; each arena then splits like per-node `Vec`s.
    #[test]
    fn drawn_boundaries_match_a_plain_filter() {
        let sorted = vec![vec![3u32, 0, 4, 1, 2], vec![1, 2, 0, 4, 3]];
        let counts: [[u32; 5]; 8] = [
            [1, 1, 1, 1, 1],
            [2, 3, 1, 4, 5],
            [5, 0, 0, 0, 0],
            [0, 0, 0, 0, 5],
            [0, 0, 0, 2, 0],
            [0, 0, 1, 0, 0],
            [3, 1, 0, 2, 0],
            [0, 2, 1, 0, 1],
        ];
        for counts in &counts {
            let drawn = |r: &u32| counts[*r as usize] > 0;
            let rows: Vec<u32> = (0..5).filter(drawn).collect();
            let m = rows.len();
            let arena = Arena::drawn(&sorted, counts);
            assert_eq!((arena.n_rows(), arena.rows(0, m)), (m, &rows[..]));
            assert_eq!(arena.lists.len(), sorted.len() * m);
            for (f, col) in sorted.iter().enumerate() {
                let want: Vec<u32> = col.iter().copied().filter(drawn).collect();
                assert_eq!(arena.list(f, 0, m), &want[..]);
            }
            for mask in [[true; 5], [false; 5], [false, true, false, true, true]] {
                check_split(&mut Arena::drawn(&sorted, counts), 0, m, &mask);
            }
        }
    }
}
