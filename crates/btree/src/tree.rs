//! The arena-based B+-Tree multimap.

use pimtree_common::{Key, KeyRange, Seq};

use crate::entry::Entry;
use crate::node::{InnerNode, LeafNode, Node, NodeId, NIL};
use crate::stats::BTreeStats;
use crate::DEFAULT_FANOUT;

/// An in-memory B+-Tree multimap over [`Entry`] values.
///
/// See the crate-level documentation for design notes. All operations are
/// single-threaded; concurrent use is coordinated by the owning structure
/// (e.g. the per-partition locks of the PIM-Tree).
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: NodeId,
    free_head: NodeId,
    len: usize,
    fanout: usize,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// Creates an empty tree with the default fan-out.
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// Creates an empty tree whose nodes hold at most `fanout` entries
    /// (leaves) / separator keys (inner nodes). `fanout` must be at least 4.
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4, "B+-Tree fan-out must be at least 4");
        let mut tree = BTreeIndex {
            nodes: Vec::new(),
            root: NIL,
            free_head: NIL,
            len: 0,
            fanout,
        };
        tree.root = tree.alloc(Node::Leaf(LeafNode::new(Vec::new(), NIL)));
        tree
    }

    /// Maximum entries per leaf / keys per inner node.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn min_leaf_len(&self) -> usize {
        self.fanout / 2
    }

    #[inline]
    fn min_inner_keys(&self) -> usize {
        self.fanout / 2
    }

    // ---------------------------------------------------------------- arena

    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free_head != NIL {
            let id = self.free_head;
            match self.nodes[id as usize] {
                Node::Free { next_free } => self.free_head = next_free,
                _ => unreachable!("free list points at a live node"),
            }
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as NodeId;
            assert!(id != NIL, "B+-Tree arena exhausted");
            self.nodes.push(node);
            id
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Free {
            next_free: self.free_head,
        };
        self.free_head = id;
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    // --------------------------------------------------------------- insert

    /// Inserts an entry. Duplicate `(key, seq)` pairs are stored as given.
    pub fn insert(&mut self, key: Key, seq: Seq) {
        self.insert_entry(Entry::new(key, seq));
    }

    /// Inserts a pre-built entry.
    pub fn insert_entry(&mut self, entry: Entry) {
        if let Some((sep, right)) = self.insert_rec(self.root, entry) {
            let old_root = self.root;
            self.root = self.alloc(Node::Inner(InnerNode::new(
                vec![sep],
                vec![old_root, right],
            )));
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, id: NodeId, entry: Entry) -> Option<(Entry, NodeId)> {
        if self.node(id).is_leaf() {
            let fanout = self.fanout;
            let (needs_split, old_next) = {
                let leaf = self.node_mut(id).as_leaf_mut();
                let pos = leaf.entries.partition_point(|&e| e <= entry);
                leaf.entries.insert(pos, entry);
                (leaf.entries.len() > fanout, leaf.next)
            };
            if !needs_split {
                return None;
            }
            let right_entries = {
                let leaf = self.node_mut(id).as_leaf_mut();
                let mid = leaf.entries.len() / 2;
                leaf.entries.split_off(mid)
            };
            let sep = right_entries[0];
            let right_id = self.alloc(Node::Leaf(LeafNode::new(right_entries, old_next)));
            self.node_mut(id).as_leaf_mut().next = right_id;
            Some((sep, right_id))
        } else {
            let (child_idx, child_id) = {
                let inner = self.node(id).as_inner();
                let i = inner.route(entry);
                (i, inner.children[i])
            };
            let split = self.insert_rec(child_id, entry)?;
            let needs_split = {
                let inner = self.node_mut(id).as_inner_mut();
                inner.keys.insert(child_idx, split.0);
                inner.children.insert(child_idx + 1, split.1);
                inner.keys.len() > self.fanout
            };
            if !needs_split {
                return None;
            }
            let (sep_up, right_keys, right_children) = {
                let inner = self.node_mut(id).as_inner_mut();
                let mid = inner.keys.len() / 2;
                let sep_up = inner.keys[mid];
                let right_keys = inner.keys.split_off(mid + 1);
                inner.keys.truncate(mid);
                let right_children = inner.children.split_off(mid + 1);
                (sep_up, right_keys, right_children)
            };
            let right_id = self.alloc(Node::Inner(InnerNode::new(right_keys, right_children)));
            Some((sep_up, right_id))
        }
    }

    // --------------------------------------------------------------- remove

    /// Removes the exact `(key, seq)` entry, returning whether it was present.
    pub fn remove(&mut self, key: Key, seq: Seq) -> bool {
        let target = Entry::new(key, seq);
        let (removed, _) = self.remove_rec(self.root, target);
        if removed {
            self.len -= 1;
            // Shrink the root when it degenerates to a single child.
            if let Node::Inner(inner) = self.node(self.root) {
                if inner.children.len() == 1 {
                    let child = inner.children[0];
                    let old_root = self.root;
                    self.root = child;
                    self.release(old_root);
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, id: NodeId, target: Entry) -> (bool, bool) {
        if self.node(id).is_leaf() {
            let min_len = self.min_leaf_len();
            let leaf = self.node_mut(id).as_leaf_mut();
            match leaf.entries.binary_search(&target) {
                Ok(pos) => {
                    leaf.entries.remove(pos);
                    let under = leaf.entries.len() < min_len;
                    (true, under)
                }
                Err(_) => (false, false),
            }
        } else {
            let (child_idx, child_id) = {
                let inner = self.node(id).as_inner();
                let i = inner.route(target);
                (i, inner.children[i])
            };
            let (removed, child_under) = self.remove_rec(child_id, target);
            if !removed {
                return (false, false);
            }
            if child_under {
                self.rebalance_child(id, child_idx);
            }
            let under = self.node(id).as_inner().keys.len() < self.min_inner_keys();
            (true, under)
        }
    }

    fn rebalance_child(&mut self, parent_id: NodeId, child_idx: usize) {
        let child_count = self.node(parent_id).as_inner().children.len();
        // Try to borrow from the left sibling.
        if child_idx > 0 {
            let left_id = self.node(parent_id).as_inner().children[child_idx - 1];
            if self.has_spare(left_id) {
                self.borrow_from_left(parent_id, child_idx);
                return;
            }
        }
        // Try to borrow from the right sibling.
        if child_idx + 1 < child_count {
            let right_id = self.node(parent_id).as_inner().children[child_idx + 1];
            if self.has_spare(right_id) {
                self.borrow_from_right(parent_id, child_idx);
                return;
            }
        }
        // Merge with a sibling.
        if child_idx > 0 {
            self.merge_children(parent_id, child_idx - 1);
        } else {
            self.merge_children(parent_id, child_idx);
        }
    }

    fn has_spare(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Leaf(l) => l.entries.len() > self.min_leaf_len(),
            Node::Inner(i) => i.keys.len() > self.min_inner_keys(),
            Node::Free { .. } => unreachable!("free node reachable from tree"),
        }
    }

    fn borrow_from_left(&mut self, parent_id: NodeId, child_idx: usize) {
        let (left_id, child_id) = {
            let p = self.node(parent_id).as_inner();
            (p.children[child_idx - 1], p.children[child_idx])
        };
        let sep_idx = child_idx - 1;
        if self.node(child_id).is_leaf() {
            let moved = self
                .node_mut(left_id)
                .as_leaf_mut()
                .entries
                .pop()
                .expect("spare entry");
            self.node_mut(child_id)
                .as_leaf_mut()
                .entries
                .insert(0, moved);
            self.node_mut(parent_id).as_inner_mut().keys[sep_idx] = moved;
        } else {
            let old_sep = self.node(parent_id).as_inner().keys[sep_idx];
            let (moved_child, new_sep) = {
                let left = self.node_mut(left_id).as_inner_mut();
                (
                    left.children.pop().expect("spare child"),
                    left.keys.pop().expect("spare key"),
                )
            };
            {
                let child = self.node_mut(child_id).as_inner_mut();
                child.keys.insert(0, old_sep);
                child.children.insert(0, moved_child);
            }
            self.node_mut(parent_id).as_inner_mut().keys[sep_idx] = new_sep;
        }
    }

    fn borrow_from_right(&mut self, parent_id: NodeId, child_idx: usize) {
        let (child_id, right_id) = {
            let p = self.node(parent_id).as_inner();
            (p.children[child_idx], p.children[child_idx + 1])
        };
        let sep_idx = child_idx;
        if self.node(child_id).is_leaf() {
            let (moved, new_sep) = {
                let right = self.node_mut(right_id).as_leaf_mut();
                let moved = right.entries.remove(0);
                (moved, right.entries[0])
            };
            self.node_mut(child_id).as_leaf_mut().entries.push(moved);
            self.node_mut(parent_id).as_inner_mut().keys[sep_idx] = new_sep;
        } else {
            let old_sep = self.node(parent_id).as_inner().keys[sep_idx];
            let (moved_child, new_sep) = {
                let right = self.node_mut(right_id).as_inner_mut();
                (right.children.remove(0), right.keys.remove(0))
            };
            {
                let child = self.node_mut(child_id).as_inner_mut();
                child.keys.push(old_sep);
                child.children.push(moved_child);
            }
            self.node_mut(parent_id).as_inner_mut().keys[sep_idx] = new_sep;
        }
    }

    fn merge_children(&mut self, parent_id: NodeId, left_idx: usize) {
        let (left_id, right_id, sep) = {
            let p = self.node(parent_id).as_inner();
            (
                p.children[left_idx],
                p.children[left_idx + 1],
                p.keys[left_idx],
            )
        };
        let right = std::mem::replace(self.node_mut(right_id), Node::Free { next_free: NIL });
        match right {
            Node::Leaf(mut r) => {
                let left = self.node_mut(left_id).as_leaf_mut();
                left.entries.append(&mut r.entries);
                left.next = r.next;
            }
            Node::Inner(mut r) => {
                let left = self.node_mut(left_id).as_inner_mut();
                left.keys.push(sep);
                left.keys.append(&mut r.keys);
                left.children.append(&mut r.children);
            }
            Node::Free { .. } => unreachable!("merging a free node"),
        }
        {
            let p = self.node_mut(parent_id).as_inner_mut();
            p.keys.remove(left_idx);
            p.children.remove(left_idx + 1);
        }
        self.release(right_id);
    }

    // --------------------------------------------------------------- lookup

    /// Whether the exact `(key, seq)` entry is present.
    pub fn contains(&self, key: Key, seq: Seq) -> bool {
        let target = Entry::new(key, seq);
        let (leaf_id, pos) = self.seek(target);
        let leaf = self.node(leaf_id).as_leaf();
        leaf.entries.get(pos) == Some(&target)
    }

    /// Descends to the leaf that would hold `target`, returning the leaf id
    /// and the position of the first entry `>= target` inside it (which may be
    /// one past the end).
    fn seek(&self, target: Entry) -> (NodeId, usize) {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Inner(inner) => id = inner.children[inner.route(target)],
                Node::Leaf(leaf) => return (id, leaf.lower_bound(target)),
                Node::Free { .. } => unreachable!("free node reachable from root"),
            }
        }
    }

    /// First entry whose key is `>= key`, if any.
    pub fn first_at_or_after(&self, key: Key) -> Option<Entry> {
        let (mut leaf_id, mut pos) = self.seek(Entry::min_for_key(key));
        loop {
            let leaf = self.node(leaf_id).as_leaf();
            if pos < leaf.entries.len() {
                return Some(leaf.entries[pos]);
            }
            if leaf.next == NIL {
                return None;
            }
            leaf_id = leaf.next;
            pos = 0;
        }
    }

    /// Smallest entry in the tree.
    pub fn min_entry(&self) -> Option<Entry> {
        self.first_at_or_after(Key::MIN)
    }

    /// Largest entry in the tree.
    pub fn max_entry(&self) -> Option<Entry> {
        // Descend along the rightmost spine.
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Inner(inner) => id = *inner.children.last().expect("inner has children"),
                Node::Leaf(leaf) => return leaf.entries.last().copied(),
                Node::Free { .. } => unreachable!("free node reachable from root"),
            }
        }
    }

    /// Calls `f` with the entries whose key lies in `range` (bounds
    /// inclusive) as sorted runs, ascending: one slice per leaf the range
    /// touches, clipped to the range, never empty. The slices borrow the
    /// leaves; nothing is copied.
    pub fn range_runs<F: FnMut(&[Entry])>(&self, range: KeyRange, mut f: F) {
        let (mut leaf_id, pos) = self.seek(Entry::min_for_key(range.lo));
        let mut leaf = self.node(leaf_id).as_leaf();
        let mut tail = &leaf.entries[pos..];
        loop {
            // A leaf whose last key is inside the range is one run to its
            // end; only the leaf the range ends in is searched.
            let inside = match tail.last() {
                Some(last) if last.key <= range.hi => tail.len(),
                _ => tail.iter().take_while(|e| e.key <= range.hi).count(),
            };
            if inside > 0 {
                f(&tail[..inside]);
            }
            if inside < tail.len() || leaf.next == NIL {
                return;
            }
            leaf_id = leaf.next;
            leaf = self.node(leaf_id).as_leaf();
            tail = &leaf.entries;
        }
    }

    /// Calls `f` for every entry whose key lies in `range` (bounds inclusive),
    /// in ascending `(key, seq)` order.
    pub fn range_for_each<F: FnMut(Entry)>(&self, range: KeyRange, mut f: F) {
        self.range_runs(range, |run| run.iter().for_each(|&e| f(e)));
    }

    /// Collects every entry whose key lies in `range`.
    pub fn range_collect(&self, range: KeyRange) -> Vec<Entry> {
        let mut out = Vec::new();
        self.range_runs(range, |run| out.extend_from_slice(run));
        out
    }

    /// Calls `f` for every entry in ascending order.
    pub fn for_each<F: FnMut(Entry)>(&self, mut f: F) {
        let mut id = self.leftmost_leaf();
        loop {
            let leaf = self.node(id).as_leaf();
            for &e in &leaf.entries {
                f(e);
            }
            if leaf.next == NIL {
                return;
            }
            id = leaf.next;
        }
    }

    /// Returns all entries in ascending order.
    pub fn to_sorted_vec(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|e| out.push(e));
        out
    }

    /// Removes and returns all entries in ascending order, leaving the tree
    /// empty. Used by the IM-Tree / PIM-Tree merge step.
    pub fn drain_sorted(&mut self) -> Vec<Entry> {
        let out = self.to_sorted_vec();
        self.clear();
        out
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_head = NIL;
        self.len = 0;
        self.root = self.alloc(Node::Leaf(LeafNode::new(Vec::new(), NIL)));
    }

    fn leftmost_leaf(&self) -> NodeId {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Inner(inner) => id = inner.children[0],
                Node::Leaf(_) => return id,
                Node::Free { .. } => unreachable!("free node reachable from root"),
            }
        }
    }

    // ---------------------------------------------------------------- stats

    /// Height of the tree: number of node levels (a lone leaf root has
    /// height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        while let Node::Inner(inner) = self.node(id) {
            id = inner.children[0];
            h += 1;
        }
        h
    }

    /// Structural statistics (node counts, payload bytes, height).
    pub fn stats(&self) -> BTreeStats {
        let mut stats = BTreeStats {
            entries: self.len,
            height: self.height(),
            ..Default::default()
        };
        for node in &self.nodes {
            match node {
                Node::Inner(i) => {
                    stats.inner_nodes += 1;
                    stats.inner_bytes += i.payload_bytes();
                }
                Node::Leaf(l) => {
                    stats.leaf_nodes += 1;
                    stats.leaf_bytes += l.payload_bytes();
                }
                Node::Free { .. } => {}
            }
        }
        stats
    }

    // ----------------------------------------------------------- validation

    /// Verifies the structural invariants of the tree, panicking with a
    /// description of the first violation. Intended for tests and property
    /// checks.
    pub fn check_invariants(&self) {
        let mut leaf_entries = Vec::new();
        let depth = self.check_node(self.root, None, None, true, &mut leaf_entries);
        let _ = depth;
        assert_eq!(
            leaf_entries.len(),
            self.len,
            "entry count mismatch: counted {} but len() = {}",
            leaf_entries.len(),
            self.len
        );
        let mut sorted = leaf_entries.clone();
        sorted.sort();
        assert_eq!(leaf_entries, sorted, "in-order traversal is not sorted");
        // The leaf chain must visit the same entries in the same order.
        let chained = self.to_sorted_vec();
        assert_eq!(
            chained, leaf_entries,
            "leaf chain disagrees with tree traversal"
        );
    }

    fn check_node(
        &self,
        id: NodeId,
        lo: Option<Entry>,
        hi: Option<Entry>,
        is_root: bool,
        acc: &mut Vec<Entry>,
    ) -> usize {
        match self.node(id) {
            Node::Leaf(leaf) => {
                if !is_root {
                    assert!(
                        leaf.entries.len() >= self.min_leaf_len(),
                        "leaf {id} underfull: {} < {}",
                        leaf.entries.len(),
                        self.min_leaf_len()
                    );
                }
                assert!(leaf.entries.len() <= self.fanout, "leaf {id} overfull");
                for w in leaf.entries.windows(2) {
                    assert!(w[0] <= w[1], "leaf {id} entries out of order");
                }
                for &e in &leaf.entries {
                    if let Some(lo) = lo {
                        assert!(e >= lo, "leaf {id} entry {e:?} below bound {lo:?}");
                    }
                    if let Some(hi) = hi {
                        assert!(e < hi, "leaf {id} entry {e:?} not below bound {hi:?}");
                    }
                    acc.push(e);
                }
                1
            }
            Node::Inner(inner) => {
                assert_eq!(
                    inner.children.len(),
                    inner.keys.len() + 1,
                    "inner {id} arity"
                );
                if !is_root {
                    assert!(
                        inner.keys.len() >= self.min_inner_keys(),
                        "inner {id} underfull: {} < {}",
                        inner.keys.len(),
                        self.min_inner_keys()
                    );
                } else {
                    assert!(!inner.keys.is_empty(), "inner root with no keys");
                }
                assert!(inner.keys.len() <= self.fanout, "inner {id} overfull");
                for w in inner.keys.windows(2) {
                    assert!(w[0] < w[1], "inner {id} separators out of order");
                }
                let mut depth = None;
                for (i, &child) in inner.children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(inner.keys[i - 1]) };
                    let child_hi = if i == inner.keys.len() {
                        hi
                    } else {
                        Some(inner.keys[i])
                    };
                    let d = self.check_node(child, child_lo, child_hi, false, acc);
                    match depth {
                        None => depth = Some(d),
                        Some(prev) => assert_eq!(prev, d, "inner {id} children at unequal depths"),
                    }
                }
                depth.expect("inner node has children") + 1
            }
            Node::Free { .. } => panic!("free node {id} reachable from the tree"),
        }
    }

    // ------------------------------------------------------------- internal

    /// (internal, used by the bulk loader) Installs a fully built arena.
    pub(crate) fn install(nodes: Vec<Node>, root: NodeId, len: usize, fanout: usize) -> Self {
        BTreeIndex {
            nodes,
            root,
            free_head: NIL,
            len,
            fanout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(entries: &[(Key, Seq)], fanout: usize) -> BTreeIndex {
        let mut t = BTreeIndex::with_fanout(fanout);
        for &(k, s) in entries {
            t.insert(k, s);
        }
        t
    }

    #[test]
    fn empty_tree_basics() {
        let t = BTreeIndex::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.min_entry(), None);
        assert_eq!(t.max_entry(), None);
        assert_eq!(t.first_at_or_after(0), None);
        assert!(t.range_collect(KeyRange::new(0, 100)).is_empty());
        t.check_invariants();
    }

    #[test]
    fn insert_and_lookup_small() {
        let t = tree_with(&[(5, 0), (1, 1), (9, 2), (3, 3), (7, 4)], 4);
        assert_eq!(t.len(), 5);
        assert!(t.contains(5, 0));
        assert!(t.contains(1, 1));
        assert!(!t.contains(5, 1));
        assert!(!t.contains(2, 0));
        assert_eq!(t.min_entry(), Some(Entry::new(1, 1)));
        assert_eq!(t.max_entry(), Some(Entry::new(9, 2)));
        t.check_invariants();
    }

    #[test]
    fn insert_many_splits_and_stays_sorted() {
        let mut t = BTreeIndex::with_fanout(4);
        for i in 0..1000i64 {
            t.insert((i * 37) % 1000, i as Seq);
        }
        assert_eq!(t.len(), 1000);
        assert!(
            t.height() > 2,
            "1000 entries at fan-out 4 must be a multi-level tree"
        );
        t.check_invariants();
        let all = t.to_sorted_vec();
        assert_eq!(all.len(), 1000);
        for w in all.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn duplicate_keys_are_kept_and_distinguished_by_seq() {
        let mut t = BTreeIndex::with_fanout(4);
        for seq in 0..50 {
            t.insert(42, seq);
        }
        assert_eq!(t.len(), 50);
        t.check_invariants();
        assert!(t.contains(42, 17));
        assert!(t.remove(42, 17));
        assert!(!t.contains(42, 17));
        assert!(t.contains(42, 18));
        assert_eq!(t.len(), 49);
        t.check_invariants();
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = tree_with(&[(1, 0), (2, 0), (3, 0)], 4);
        assert!(!t.remove(4, 0));
        assert!(!t.remove(1, 99));
        assert_eq!(t.len(), 3);
        t.check_invariants();
    }

    #[test]
    fn remove_everything_in_insertion_order() {
        let mut t = BTreeIndex::with_fanout(4);
        let n = 500i64;
        for i in 0..n {
            t.insert((i * 13) % 97, i as Seq);
        }
        t.check_invariants();
        for i in 0..n {
            assert!(
                t.remove((i * 13) % 97, i as Seq),
                "entry {i} must be removable"
            );
            if i % 50 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn remove_everything_in_reverse_order() {
        let mut t = BTreeIndex::with_fanout(6);
        let n = 300i64;
        for i in 0..n {
            t.insert(i, i as Seq);
        }
        for i in (0..n).rev() {
            assert!(t.remove(i, i as Seq));
        }
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn sliding_window_pattern_keeps_tree_balanced() {
        // Mimics the join workload: insert a new random key, remove the one
        // that expired `w` arrivals ago.
        let w = 256usize;
        let mut t = BTreeIndex::with_fanout(8);
        let key_of = |i: i64| (i * 2654435761u32 as i64) % 4096;
        for i in 0..w as i64 {
            t.insert(key_of(i), i as Seq);
        }
        for i in w as i64..(w as i64 * 10) {
            t.insert(key_of(i), i as Seq);
            let expired = i - w as i64;
            assert!(t.remove(key_of(expired), expired as Seq));
            assert_eq!(t.len(), w);
        }
        t.check_invariants();
    }

    #[test]
    fn range_scan_returns_exactly_the_band() {
        let mut t = BTreeIndex::with_fanout(4);
        for i in 0..200i64 {
            t.insert(i, i as Seq);
        }
        let got = t.range_collect(KeyRange::new(50, 59));
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].key, 50);
        assert_eq!(got[9].key, 59);
        // Range wider than contents.
        assert_eq!(t.range_collect(KeyRange::new(-100, 500)).len(), 200);
        // Empty range outside the key domain.
        assert!(t.range_collect(KeyRange::new(1000, 2000)).is_empty());
    }

    #[test]
    fn range_scan_with_duplicates_counts_all() {
        let mut t = BTreeIndex::with_fanout(4);
        for seq in 0..10 {
            t.insert(5, seq);
            t.insert(6, seq + 100);
        }
        assert_eq!(t.range_collect(KeyRange::point(5)).len(), 10);
        assert_eq!(t.range_collect(KeyRange::new(5, 6)).len(), 20);
    }

    /// Every range over a small key domain with duplicates and both corners
    /// of `Key`: the runs concatenate to the sorted oracle filtered by key,
    /// and each is non-empty, sorted, inside the range and within one leaf.
    #[test]
    fn range_runs_concatenate_to_the_entries_of_the_range() {
        let fanout = 4;
        let keys = [Key::MIN, Key::MIN + 1, -3, 0, 0, 0, 0, 0, 0, 2, 5, 5, 9];
        let mut t = BTreeIndex::with_fanout(fanout);
        let mut oracle = Vec::new();
        for round in 0..3 {
            for (i, &key) in keys.iter().chain(&[Key::MAX - 1, Key::MAX]).enumerate() {
                let e = Entry::new(key, (round * 100 + i) as Seq);
                t.insert_entry(e);
                oracle.push(e);
            }
        }
        oracle.sort_unstable();
        let bounds = [Key::MIN, Key::MIN + 1, -4, -3, 0, 1, 2, 5, 9, 10];
        let bounds = bounds.iter().chain(&[Key::MAX - 1, Key::MAX]);
        for &lo in bounds.clone() {
            for &hi in bounds.clone().filter(|&&hi| hi >= lo) {
                let range = KeyRange::new(lo, hi);
                let mut got = Vec::new();
                t.range_runs(range, |run| {
                    assert!(!run.is_empty() && run.len() <= fanout, "{range:?}: {run:?}");
                    assert!(run.windows(2).all(|w| w[0] < w[1]), "{range:?}: {run:?}");
                    assert!(run.iter().all(|e| range.contains(e.key)), "{range:?}");
                    got.extend_from_slice(run);
                });
                let want: Vec<Entry> = oracle
                    .iter()
                    .copied()
                    .filter(|e| range.contains(e.key))
                    .collect();
                assert_eq!(got, want, "{range:?}");
                let mut entries = Vec::new();
                t.range_for_each(range, |e| entries.push(e));
                assert_eq!(entries, want, "{range:?}");
            }
        }
        let empty = BTreeIndex::with_fanout(fanout);
        empty.range_runs(KeyRange::new(Key::MIN, Key::MAX), |_| {
            panic!("an empty tree has no runs")
        });
    }

    #[test]
    fn first_at_or_after_crosses_leaves() {
        let mut t = BTreeIndex::with_fanout(4);
        for i in (0..100i64).map(|i| i * 10) {
            t.insert(i, 0);
        }
        assert_eq!(t.first_at_or_after(0).unwrap().key, 0);
        assert_eq!(t.first_at_or_after(1).unwrap().key, 10);
        assert_eq!(t.first_at_or_after(985).unwrap().key, 990);
        assert_eq!(t.first_at_or_after(990).unwrap().key, 990);
        assert_eq!(t.first_at_or_after(991), None);
    }

    #[test]
    fn drain_sorted_empties_the_tree() {
        let mut t = tree_with(&[(3, 0), (1, 0), (2, 0)], 4);
        let drained = t.drain_sorted();
        assert_eq!(
            drained,
            vec![Entry::new(1, 0), Entry::new(2, 0), Entry::new(3, 0)]
        );
        assert!(t.is_empty());
        t.check_invariants();
        // The tree is reusable afterwards.
        t.insert(9, 9);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn stats_report_node_counts_and_bytes() {
        let mut t = BTreeIndex::with_fanout(4);
        for i in 0..64i64 {
            t.insert(i, 0);
        }
        let s = t.stats();
        assert_eq!(s.entries, 64);
        assert!(
            s.leaf_nodes >= 16,
            "64 entries at fan-out 4 need >= 16 leaves"
        );
        assert!(s.inner_nodes >= 1);
        assert!(s.leaf_bytes >= 64 * std::mem::size_of::<Entry>());
        assert!(s.inner_bytes > 0);
        assert_eq!(s.height, t.height());
        assert!(s.total_bytes() >= s.leaf_bytes);
    }

    #[test]
    fn node_reuse_via_free_list() {
        let mut t = BTreeIndex::with_fanout(4);
        for i in 0..200i64 {
            t.insert(i, 0);
        }
        let nodes_after_insert = t.nodes.len();
        for i in 0..200i64 {
            t.remove(i, 0);
        }
        for i in 0..200i64 {
            t.insert(i, 0);
        }
        assert!(
            t.nodes.len() <= nodes_after_insert + 2,
            "arena should recycle freed nodes ({} vs {})",
            t.nodes.len(),
            nodes_after_insert
        );
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn fanout_below_four_rejected() {
        let _ = BTreeIndex::with_fanout(3);
    }
}
