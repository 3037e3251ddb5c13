//! A persistent ordered map: the one collection a table's overlay is made
//! of (rows by id, primary keys, secondary-index entries, tombstones).
//!
//! A B+tree whose nodes are [`Arc`]s, mutated through [`Arc::make_mut`].
//! A tree nobody else holds mutates in place — `make_mut` on an unshared
//! node copies nothing — so the writer pays the cost of a plain B-tree.
//! [`PMap::clone`] is one `Arc` clone, and a tree shared with such a clone
//! copies only the root-to-leaf path a write touches: every other node
//! stays pointer-equal in both. That is what makes pinning a snapshot
//! O(1) and a write after it O(changed) instead of O(table): the clone
//! is the snapshot, and it is immutable because every later write moves
//! onto its own copy of the path first.
//!
//! Keys live in the leaves; an inner node holds separators. Iteration is
//! in key order. A node that outgrows [`MAX`] splits — in half, or, when
//! the tree grew at its right end, just before the newcomer, so that keys
//! arriving in ascending order (row ids do) fill their nodes. One that
//! falls under [`MIN`] is merged into a neighbour, and the pair split
//! again if it is too big for one node. So every node holds at least
//! `MIN` entries, bar the root and the nodes along the right edge that
//! appends have yet to fill, and the height is logarithmic.

use std::borrow::Borrow;
use std::sync::Arc;

/// Most entries a leaf, or children an inner node, holds before it splits.
const MAX: usize = 64;
/// Fewest a node off the tree's right edge, the root apart, holds.
const MIN: usize = MAX / 2;

#[derive(Clone)]
enum Node<K, V> {
    /// Entries sorted by key.
    Leaf(Vec<(K, V)>),
    Inner(Inner<K, V>),
}

/// `kids.len() == seps.len() + 1`, and every key under `kids[i]` is
/// `< seps[i]` `<=` every key under `kids[i + 1]`. All leaves are at one
/// depth.
#[derive(Clone)]
struct Inner<K, V> {
    seps: Vec<K>,
    kids: Vec<Arc<Node<K, V>>>,
}

impl<K, V> Node<K, V> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Inner(inner) => inner.kids.len(),
        }
    }
}

impl<K, V> Inner<K, V> {
    /// Index of the child whose key range holds `key`.
    fn child_for<Q: Ord + ?Sized>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
    {
        self.seps.partition_point(|s| s.borrow() <= key)
    }
}

/// A persistent ordered map; see the module docs.
pub(crate) struct PMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap { root: Arc::clone(&self.root), len: self.len }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: Arc::new(Node::Leaf(Vec::new())), len: 0 }
    }
}

impl<K, V> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PMap").field("len", &self.len).finish()
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = entries.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
                    return entries.get(i).map(|(_, v)| v);
                }
                Node::Inner(inner) => node = inner.kids.get(inner.child_for(key))?,
            }
        }
    }

    pub(crate) fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get(key).is_some()
    }

    /// Insert or replace; returns the value replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert_beside(key, value, |_, _| false).0
    }

    /// [`PMap::insert`], which also says, in the same descent, whether
    /// `alike(neighbour, key)` holds for a key next to `key` in key order:
    /// `Some(answer)` when `key`'s leaf settles it — a neighbour there is
    /// alike, or `key` has one on each side (or none, at an end of the
    /// map) and neither is — and `None` when `key` is first or last in its
    /// leaf and the neighbour that may be alike is in the leaf next door.
    /// Meaningless when `key` was present (the value was replaced).
    pub(crate) fn insert_beside(
        &mut self,
        key: K,
        value: V,
        alike: impl Fn(&K, &K) -> bool,
    ) -> (Option<V>, Option<bool>) {
        let (old, split, beside) = insert_into(&mut self.root, key, value, (true, true), &alike);
        if let Some((sep, right)) = split {
            let left = Arc::clone(&self.root);
            self.root = Arc::new(Node::Inner(Inner { seps: vec![sep], kids: vec![left, right] }));
        }
        if old.is_none() {
            self.len += 1;
        }
        (old, beside)
    }

    /// Remove `key`; returns its value. Removing an absent key touches
    /// (and so copies) nothing.
    pub(crate) fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        if !self.contains_key(key) {
            return None;
        }
        let old = remove_from(&mut self.root, key)?;
        self.len -= 1;
        // A root left with one child hands the tree to that child.
        while let Node::Inner(inner) = &*self.root {
            match inner.kids.as_slice() {
                [only] => self.root = Arc::clone(only),
                _ => break,
            }
        }
        Some(old)
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        self.seek(|_| false)
    }

    /// The entries from the first key for which `before` is false, in key
    /// order. `before` must be monotone: true for a (possibly empty)
    /// prefix of the key order and false from there on — the shape of a
    /// lower bound, which lets a caller seek on part of a compound key
    /// without building one.
    pub(crate) fn seek(&self, before: impl Fn(&K) -> bool) -> Iter<'_, K, V> {
        let (leaf, siblings) = leaf_from(&self.root, before);
        Iter { root: &self.root, leaf, siblings, last: None }
    }
}

type Entries<'a, K, V> = std::slice::Iter<'a, (K, V)>;
type Kids<'a, K, V> = std::slice::Iter<'a, Arc<Node<K, V>>>;

/// What is left, from the first key for which `before` (monotone, as for
/// [`PMap::seek`]) is false, of the leaf under `root` that holds that key
/// — empty when there is no such key — and the leaves right of that leaf
/// under its parent.
fn leaf_from<K, V>(
    root: &Node<K, V>,
    before: impl Fn(&K) -> bool,
) -> (Entries<'_, K, V>, Kids<'_, K, V>) {
    let mut node = root;
    // The nearest subtree right of the path taken. A separator is a lower
    // bound of its right child, so the path goes right of every separator
    // still `before` and nothing under `right` is.
    let mut right: Option<&Node<K, V>> = None;
    let mut siblings = Kids::default();
    loop {
        match node {
            Node::Leaf(entries) => {
                let rest = entries.get(entries.partition_point(|(k, _)| before(k))..);
                match (rest, right.take()) {
                    // This leaf ends before the key does: it is in the
                    // first leaf to the right.
                    (Some([]) | None, Some(next)) => {
                        if matches!(next, Node::Leaf(_)) {
                            siblings.next();
                        }
                        node = next;
                    }
                    (rest, _) => return (rest.unwrap_or_default().iter(), siblings),
                }
            }
            Node::Inner(inner) => {
                let i = inner.seps.partition_point(&before);
                siblings = inner.kids.get(i + 1..).unwrap_or_default().iter();
                if let Some(kid) = siblings.as_slice().first() {
                    right = Some(kid);
                }
                match inner.kids.get(i) {
                    Some(kid) => node = kid,
                    None => return Default::default(),
                }
            }
        }
    }
}

/// What a node that split hands its parent: the separator and the new
/// right sibling.
type Split<K, V> = Option<(K, Arc<Node<K, V>>)>;

/// Insert under `node`, which is on the tree's left and right edges as
/// `edges` says; returns the replaced value, what the parent is to adopt
/// when `node` split, and what the leaf said of `alike` (as for
/// [`PMap::insert_beside`]).
fn insert_into<K: Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    value: V,
    edges: (bool, bool),
    alike: &impl Fn(&K, &K) -> bool,
) -> (Option<V>, Split<K, V>, Option<bool>) {
    let node = Arc::make_mut(node);
    // Did the tree grow at its right end?
    let (old, appended, beside) = match node {
        Node::Leaf(entries) => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => {
                let old = entries.get_mut(i).map(|e| std::mem::replace(&mut e.1, value));
                return (old, None, None);
            }
            Err(i) => {
                // A side with no neighbour in the leaf is settled only at
                // an end of the map, where it has none at all.
                let side = |at: Option<usize>, edge: bool| match at.and_then(|j| entries.get(j)) {
                    Some((k, _)) => Some(alike(k, &key)),
                    None => edge.then_some(false),
                };
                let beside = match (side(i.checked_sub(1), edges.0), side(Some(i), edges.1)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                reserve_node(entries);
                entries.insert(i, (key, value));
                (None, edges.1 && i + 1 == entries.len(), beside)
            }
        },
        Node::Inner(inner) => {
            let i = inner.child_for(&key);
            let edges = (edges.0 && i == 0, edges.1 && i + 1 == inner.kids.len());
            let Some(kid) = inner.kids.get_mut(i) else { return (None, None, None) };
            let (old, split, beside) = insert_into(kid, key, value, edges, alike);
            let Some((sep, right)) = split else { return (old, None, beside) };
            reserve_node(&mut inner.seps);
            reserve_node(&mut inner.kids);
            inner.seps.insert(i, sep);
            inner.kids.insert(i + 1, right);
            (old, edges.1, beside)
        }
    };
    if node.len() <= MAX {
        return (old, None, beside);
    }
    // Keys that arrive in ascending order (row ids do) keep landing at the
    // tree's right end: splitting there, not in the middle, leaves full
    // nodes behind instead of half-empty ones nothing will ever fill.
    let at = if appended { node.len() - 1 } else { node.len() / 2 };
    (old, split(node, at), beside)
}

/// Make room in a node's buffer for one more than a node holds, all at
/// once. A buffer that grew by doubling would be reallocated half a dozen
/// times on its way to a full node and leave a hole in the heap each
/// time: thousands of them under a bulk load, which measurably slow the
/// allocation-heavy work that tends to follow one (a checkpoint build).
fn reserve_node<T>(buffer: &mut Vec<T>) {
    if buffer.len() == buffer.capacity() {
        buffer.reserve_exact((MAX + 1).saturating_sub(buffer.len()).max(1));
    }
}

/// The part of a node's buffer from `at` on, in a buffer of its own.
fn split_buffer<T>(buffer: &mut Vec<T>, at: usize) -> Vec<T> {
    let mut right = Vec::with_capacity(MAX + 1);
    right.extend(buffer.drain(at..));
    // A merge can have grown the left part past a node's size.
    buffer.shrink_to(MAX + 1);
    right
}

/// Split `node` so that it keeps its first `at` entries or children.
fn split<K: Clone, V>(node: &mut Node<K, V>, at: usize) -> Split<K, V> {
    match node {
        Node::Leaf(entries) => {
            let right = split_buffer(entries, at);
            let sep = right.first()?.0.clone();
            Some((sep, Arc::new(Node::Leaf(right))))
        }
        Node::Inner(inner) => {
            let kids = split_buffer(&mut inner.kids, at);
            let seps = split_buffer(&mut inner.seps, at);
            // The separator between the halves moves up, not sideways.
            let up = inner.seps.pop()?;
            Some((up, Arc::new(Node::Inner(Inner { seps, kids }))))
        }
    }
}

/// Remove `key`, which the caller has checked is present, from under
/// `node`.
fn remove_from<K: Ord + Clone + Borrow<Q>, V: Clone, Q: Ord + ?Sized>(
    node: &mut Arc<Node<K, V>>,
    key: &Q,
) -> Option<V> {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let i = entries.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
            Some(entries.remove(i).1)
        }
        Node::Inner(inner) => {
            let i = inner.child_for(key);
            let old = remove_from(inner.kids.get_mut(i)?, key)?;
            if inner.kids.get(i).is_some_and(|kid| kid.len() < MIN) {
                rebalance(inner, i.saturating_sub(1));
            }
            Some(old)
        }
    }
}

/// One of `kids[left]` and `kids[left + 1]` is underfull: merge the right
/// one into the left, and split the result again if it is too big for one
/// node (which leaves both halves at least [`MIN`]).
fn rebalance<K: Clone, V: Clone>(inner: &mut Inner<K, V>, left: usize) {
    if left + 1 >= inner.kids.len() {
        return;
    }
    let right = inner.kids.remove(left + 1);
    let sep = inner.seps.remove(left);
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    let Some(kid) = inner.kids.get_mut(left) else { return };
    let kid = Arc::make_mut(kid);
    match (&mut *kid, right) {
        (Node::Leaf(l), Node::Leaf(r)) => l.extend(r),
        (Node::Inner(l), Node::Inner(r)) => {
            l.seps.push(sep);
            l.seps.extend(r.seps);
            l.kids.extend(r.kids);
        }
        // Siblings are at one depth, so always of one kind.
        (Node::Leaf(_), Node::Inner(_)) | (Node::Inner(_), Node::Leaf(_)) => {}
    }
    if kid.len() > MAX {
        if let Some((sep, right)) = split(kid, kid.len() / 2) {
            inner.seps.insert(left, sep);
            inner.kids.insert(left + 1, right);
        }
    }
}

/// In-order iterator over a [`PMap`]. It holds one level of path: when
/// the leaves under one parent run out it finds the next from the root,
/// by the last key it yielded.
pub(crate) struct Iter<'a, K, V> {
    root: &'a Node<K, V>,
    /// What is left of the current leaf.
    leaf: Entries<'a, K, V>,
    /// The leaves right of it under the same parent.
    siblings: Kids<'a, K, V>,
    last: Option<&'a K>,
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.leaf.len() == 0 {
            match self.siblings.next().map(|kid| &**kid) {
                Some(Node::Leaf(entries)) => self.leaf = entries.iter(),
                _ => {
                    let last = self.last?;
                    (self.leaf, self.siblings) = leaf_from(self.root, |k| k <= last);
                }
            }
        }
        let (k, v) = self.leaf.next()?;
        self.last = Some(k);
        Some((k, v))
    }
}

#[cfg(test)]
impl<K, V> PMap<K, V> {
    /// Do the two maps share their whole tree?
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Levels from root to leaf.
    pub(crate) fn height(&self) -> usize {
        let mut node = &*self.root;
        let mut height = 1;
        while let Node::Inner(inner) = node {
            height += 1;
            match inner.kids.first() {
                Some(kid) => node = kid,
                None => break,
            }
        }
        height
    }

    /// The address of every node.
    fn nodes(&self) -> Vec<*const Node<K, V>> {
        let mut found = Vec::new();
        let mut todo = vec![&self.root];
        while let Some(node) = todo.pop() {
            found.push(Arc::as_ptr(node));
            if let Node::Inner(inner) = &**node {
                todo.extend(&inner.kids);
            }
        }
        found
    }

    /// `(nodes of self that are not also nodes of other, nodes of self)`.
    pub(crate) fn unshared_nodes(&self, other: &Self) -> (usize, usize) {
        let theirs: std::collections::HashSet<_> = other.nodes().into_iter().collect();
        let mine = self.nodes();
        (mine.iter().filter(|node| !theirs.contains(*node)).count(), mine.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every structural invariant the module docs state, checked from the
    /// root; returns the entry count.
    fn check<K: Ord + Clone + std::fmt::Debug, V: Clone>(m: &PMap<K, V>) -> usize {
        fn node<K: Ord + Clone + std::fmt::Debug, V>(
            n: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            // On the rightmost path, where an append leaves sparse nodes.
            spine: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            assert!(n.len() <= MAX, "overfull node");
            assert!(spine || n.len() >= MIN, "underfull node");
            match n {
                Node::Leaf(entries) => {
                    assert_eq!(*leaf_depth.get_or_insert(depth), depth, "ragged leaves");
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted leaf");
                    for (k, _) in entries {
                        assert!(lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi), "{k:?}");
                    }
                    entries.len()
                }
                Node::Inner(inner) => {
                    assert_eq!(inner.kids.len(), inner.seps.len() + 1);
                    assert!(spine || inner.kids.len() >= 2, "inner node with one child");
                    let mut total = 0;
                    for (i, kid) in inner.kids.iter().enumerate() {
                        let lo = if i == 0 { lo } else { inner.seps.get(i - 1) };
                        let hi = inner.seps.get(i).or(hi);
                        let spine = spine && i + 1 == inner.kids.len();
                        total += node(kid, lo, hi, spine, depth + 1, leaf_depth);
                    }
                    total
                }
            }
        }
        let n = node(&m.root, None, None, true, 0, &mut None);
        assert_eq!(n, m.len());
        n
    }

    fn entries<K: Ord + Clone, V: Clone>(m: &PMap<K, V>) -> Vec<(K, V)> {
        m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    #[test]
    fn empty_map_reads_as_empty() {
        let mut m: PMap<u64, u64> = PMap::new();
        assert_eq!((m.len(), m.get(&1), m.iter().count()), (0, None, 0));
        assert_eq!(m.seek(|k| *k < 5).count(), 0);
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn grows_and_shrinks_through_every_shape() {
        let mut m = PMap::new();
        // Scrambled order: 7919 is coprime to 5000.
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 7919 % 5000).collect();
        for (n, k) in keys.iter().enumerate() {
            assert_eq!(m.insert(*k, k * 2), None);
            if n % 257 == 0 {
                check(&m);
            }
        }
        assert_eq!(check(&m), 5000);
        assert!(m.height() >= 3);
        assert_eq!(m.insert(17, 0), Some(34), "replace returns the old value");
        assert_eq!(m.len(), 5000);
        let got: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, (0..5000).collect::<Vec<_>>());
        // A lower bound on every key, including both ends and past the end.
        for lo in [0u64, 1, 31, 32, 33, 2500, 4999, 5000, 9999] {
            let got: Vec<u64> = m.seek(|k| *k < lo).map(|(k, _)| *k).collect();
            assert_eq!(got, (lo.min(5000)..5000).collect::<Vec<_>>(), "seek {lo}");
        }
        for (n, k) in keys.iter().enumerate() {
            assert!(m.remove(k).is_some());
            assert_eq!(m.get(k), None);
            if n % 257 == 0 {
                check(&m);
            }
        }
        assert_eq!((check(&m), m.height()), (0, 1), "back to a single empty leaf");
    }

    #[test]
    fn a_clone_is_frozen_and_costs_only_the_paths_written() {
        let mut m = PMap::new();
        for k in 0..2000u64 {
            m.insert(k, k);
        }
        let frozen = m.clone();
        assert!(frozen.ptr_eq(&m));
        assert_eq!(m.remove(&99_999), None);
        assert!(frozen.ptr_eq(&m), "removing an absent key copies nothing");
        m.insert(5, 500);
        m.remove(&1500);
        m.insert(2000, 2000);
        assert_eq!(entries(&frozen), (0..2000).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!((m.get(&5), m.get(&1500), m.len()), (Some(&500), None, 2000));
        let (unshared, total) = m.unshared_nodes(&frozen);
        assert!(unshared <= 3 * (2 * m.height() + 1), "{unshared} of {total} nodes copied");
        // Once the reader is gone the writer owns every node again.
        drop(frozen);
        let before = m.clone();
        drop(before);
        m.insert(6, 600);
        check(&m);
    }

    /// What `insert_beside` settles is what the key's neighbours in the
    /// whole map say, and it leaves unsettled only keys on a leaf edge.
    #[test]
    fn insert_beside_reports_the_neighbours_the_leaf_holds() {
        let alike = |a: &u32, b: &u32| a / 8 == b / 8;
        let mut m = PMap::new();
        let mut model = std::collections::BTreeSet::new();
        let (mut settled, mut unsettled) = (0, 0);
        // Scrambled, then ascending: inserts land inside leaves, on their
        // edges, and at the map's right end.
        let keys = (0..6000u32).map(|i| i * 7919 % 6000 * 2).chain((12_000..12_500).step_by(3));
        for key in keys {
            let (old, beside) = m.insert_beside(key, (), alike);
            assert_eq!(old, None);
            let before = model.range(..key).next_back();
            let after = model.range(key..).next();
            let truth =
                before.is_some_and(|k| alike(k, &key)) || after.is_some_and(|k| alike(k, &key));
            model.insert(key);
            match beside {
                Some(answer) => {
                    assert_eq!(answer, truth, "key {key}");
                    settled += 1;
                }
                None => unsettled += 1,
            }
        }
        check(&m);
        assert_eq!(m.insert_beside(4, (), alike), (Some(()), None), "a present key is replaced");
        assert!(unsettled * 10 < settled, "{unsettled} unsettled against {settled} settled");
    }

    /// One step of the model property.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(u16, u8),
        Remove(u16),
        Seek(u16),
        Clone,
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        // Few enough keys that removals hit, enough steps that the tree
        // splits and merges at two levels.
        let step = (0u8..10, 0u16..700, any::<u8>()).prop_map(|(kind, k, v)| match kind {
            0..=4 => Step::Insert(k, v),
            5..=7 => Step::Remove(k),
            8 => Step::Seek(k),
            _ => Step::Clone,
        });
        proptest::collection::vec(step, 1..1500)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Snapshot isolation at the data-structure level: the map agrees
        /// with `BTreeMap` step by step, and every clone ever taken still
        /// equals the model as it was at that moment.
        #[test]
        fn prop_pmap_matches_btreemap_and_clones_stay_frozen(steps in steps()) {
            let mut map: PMap<u16, u8> = PMap::new();
            let mut model: BTreeMap<u16, u8> = BTreeMap::new();
            let mut clones: Vec<(PMap<u16, u8>, BTreeMap<u16, u8>)> = Vec::new();
            for step in steps {
                match step {
                    Step::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Step::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    Step::Seek(lo) => {
                        let got: Vec<(u16, u8)> =
                            map.seek(|k| *k < lo).map(|(k, v)| (*k, *v)).collect();
                        let want: Vec<(u16, u8)> = model.range(lo..).map(|(k, v)| (*k, *v)).collect();
                        prop_assert_eq!(got, want);
                    }
                    Step::Clone => clones.push((map.clone(), model.clone())),
                }
                prop_assert_eq!(map.len(), model.len());
            }
            check(&map);
            clones.push((map, model));
            for (map, model) in &clones {
                check(map);
                prop_assert_eq!(entries(map), model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
                for (k, v) in model.iter().step_by(7) {
                    prop_assert_eq!(map.get(k), Some(v));
                }
            }
        }
    }

    /// Counts, not clocks: after cloning a 100 000-entry map, k writes
    /// leave all but at most k * (2 * height + 1) nodes shared with the
    /// clone: a write copies its root-to-leaf path, and in this map —
    /// loaded in ascending order, so every node is full — may split each
    /// node of it and add a root.
    #[test]
    #[ignore = "release-only: cargo test --release -p quarry-storage -- --ignored pmap"]
    fn pmap_writes_after_a_clone_copy_o_changed_nodes() {
        let mut m = PMap::new();
        for k in 0..100_000u64 {
            m.insert(k * 2, k);
        }
        let height = m.height();
        for k in [1usize, 10, 100] {
            let frozen = m.clone();
            for i in 0..k as u64 {
                // Spread over the key space: a new odd key, a replaced
                // even one, a removed even one.
                let at = i * 1_999 % 100_000 * 2;
                match i % 3 {
                    0 => drop(m.insert(at + 1, i)),
                    1 => drop(m.insert(at, i)),
                    _ => drop(m.remove(&at)),
                }
            }
            let (unshared, total) = m.unshared_nodes(&frozen);
            assert!(total > 1_000, "{total} nodes");
            assert!(
                unshared <= k * (2 * height + 1),
                "{k} writes copied {unshared} of {total} nodes (height {height})"
            );
            assert_eq!(frozen.len(), frozen.iter().count());
            check(&frozen);
        }
        check(&m);
    }
}
