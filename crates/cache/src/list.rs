//! Slab-backed intrusive doubly-linked lists: the O(1) recency
//! bookkeeping under the hot-path caches.
//!
//! A [`Slab`] owns the nodes (payload plus `prev`/`next` links) in one
//! contiguous `Vec`; any number of [`List`] handles thread disjoint
//! chains through it. Every operation — allocate, link, unlink,
//! release — is O(1) with no per-operation allocation: freed nodes go
//! on an internal free chain and are reused. This replaces the
//! `BTreeSet<(stamp, key)>` recency sets the caches started with
//! (O(log n) churn per touch) with the classic constant-time list
//! discipline of LRU/MRU/ARC-style policies.
//!
//! Determinism: a list is a total order maintained explicitly by the
//! caller's `push_front` calls, so recency order — and therefore
//! eviction order — is identical to what a stamp-ordered set yields, as
//! long as stamps were unique (the caches' monotonic clocks guarantee
//! that).
//!
//! # Example
//!
//! ```
//! use forhdc_cache::list::{List, Slab};
//!
//! let mut slab: Slab<&str> = Slab::with_capacity(4);
//! let mut lru = List::new();
//! let a = slab.alloc("a");
//! let b = slab.alloc("b");
//! slab.push_front(&mut lru, a);
//! slab.push_front(&mut lru, b); // b is now most recent
//! assert_eq!(slab.tail(&lru), Some(a));
//! slab.remove(&mut lru, a);
//! slab.release(a);
//! assert_eq!(slab.tail(&lru), Some(b));
//! ```

/// Sentinel index marking "no node".
pub const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    value: T,
}

/// A chain head/tail pair. The nodes live in a [`Slab`]; an empty list
/// is just two [`NIL`]s, so handles are `Copy` and cost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// Creates an empty list.
    pub fn new() -> Self {
        List {
            head: NIL,
            tail: NIL,
        }
    }

    /// Whether no node is linked.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

impl Default for List {
    fn default() -> Self {
        List::new()
    }
}

/// The node arena shared by one structure's lists.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free chain (threaded through `next`).
    free: u32,
}

impl<T> Slab<T> {
    /// Creates an empty slab pre-sized for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    /// Allocates an unlinked node holding `value` and returns its
    /// index, reusing a released node when one exists.
    pub fn alloc(&mut self, value: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.prev = NIL;
            node.next = NIL;
            node.value = value;
            return idx;
        }
        let idx = self.nodes.len() as u32;
        assert!(idx < NIL, "slab full");
        self.nodes.push(Node {
            prev: NIL,
            next: NIL,
            value,
        });
        idx
    }

    /// Returns an unlinked node to the free chain. The caller must have
    /// removed it from its list first; the stale payload stays in place
    /// until the node is reused.
    pub fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert!(
            node.prev == NIL && node.next == NIL,
            "released node still linked"
        );
        node.next = self.free;
        self.free = idx;
    }

    /// The payload of node `idx`.
    pub fn get(&self, idx: u32) -> &T {
        &self.nodes[idx as usize].value
    }

    /// The payload of node `idx`, mutably.
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        &mut self.nodes[idx as usize].value
    }

    /// Links node `idx` at the front (most-recent end) of `list`.
    pub fn push_front(&mut self, list: &mut List, idx: u32) {
        let old_head = list.head;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            list.tail = idx;
        }
        list.head = idx;
    }

    /// Links node `idx` directly behind node `at` of `list`, on its
    /// less-recent side.
    pub fn insert_after(&mut self, list: &mut List, at: u32, idx: u32) {
        let next = self.nodes[at as usize].next;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = at;
            node.next = next;
        }
        self.nodes[at as usize].next = idx;
        if next != NIL {
            self.nodes[next as usize].prev = idx;
        } else {
            debug_assert_eq!(list.tail, at, "node not on this list");
            list.tail = idx;
        }
    }

    /// Unlinks node `idx` from `list` (it stays allocated).
    pub fn remove(&mut self, list: &mut List, idx: u32) {
        let (prev, next) = {
            let node = &mut self.nodes[idx as usize];
            let links = (node.prev, node.next);
            node.prev = NIL;
            node.next = NIL;
            links
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            debug_assert_eq!(list.head, idx, "node not on this list");
            list.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            debug_assert_eq!(list.tail, idx, "node not on this list");
            list.tail = prev;
        }
    }

    /// The most recently pushed node, if any.
    pub fn head(&self, list: &List) -> Option<u32> {
        (list.head != NIL).then_some(list.head)
    }

    /// The least recently pushed node, if any.
    pub fn tail(&self, list: &List) -> Option<u32> {
        (list.tail != NIL).then_some(list.tail)
    }

    /// Iterates node indices front (most recent) to back.
    pub fn iter<'a>(&'a self, list: &List) -> ListIter<'a, T> {
        ListIter {
            slab: self,
            cur: list.head,
        }
    }
}

/// Iterator over a [`List`]'s node indices, front to back.
#[derive(Debug)]
pub struct ListIter<'a, T> {
    slab: &'a Slab<T>,
    cur: u32,
}

impl<T> Iterator for ListIter<'_, T> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let idx = self.cur;
        self.cur = self.slab.nodes[idx as usize].next;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_remove_maintains_order() {
        let mut slab: Slab<u64> = Slab::with_capacity(8);
        let mut list = List::new();
        let ids: Vec<u32> = (0..5u64).map(|v| slab.alloc(v)).collect();
        for &id in &ids {
            slab.push_front(&mut list, id);
        }
        // Front to back = most to least recent = 4,3,2,1,0.
        let order: Vec<u64> = slab.iter(&list).map(|i| *slab.get(i)).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
        assert_eq!(slab.head(&list), Some(ids[4]));
        assert_eq!(slab.tail(&list), Some(ids[0]));

        // Remove the middle, the head, and the tail.
        slab.remove(&mut list, ids[2]);
        slab.remove(&mut list, ids[4]);
        slab.remove(&mut list, ids[0]);
        let order: Vec<u64> = slab.iter(&list).map(|i| *slab.get(i)).collect();
        assert_eq!(order, vec![3, 1]);
        assert_eq!(slab.tail(&list), Some(ids[1]));
    }

    #[test]
    fn insert_after_links_behind_a_node() {
        let mut slab: Slab<u64> = Slab::with_capacity(4);
        let mut list = List::new();
        let a = slab.alloc(0);
        let b = slab.alloc(1);
        slab.push_front(&mut list, a);
        slab.insert_after(&mut list, a, b); // b becomes the tail
        let c = slab.alloc(2);
        slab.insert_after(&mut list, a, c); // c sits between a and b
        let order: Vec<u64> = slab.iter(&list).map(|i| *slab.get(i)).collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(slab.tail(&list), Some(b));
        slab.remove(&mut list, b);
        assert_eq!(slab.tail(&list), Some(c));
    }

    #[test]
    fn release_reuses_nodes() {
        let mut slab: Slab<u32> = Slab::with_capacity(2);
        let mut list = List::new();
        let a = slab.alloc(1);
        slab.push_front(&mut list, a);
        slab.remove(&mut list, a);
        slab.release(a);
        let b = slab.alloc(2);
        assert_eq!(a, b, "released node is reused");
        assert_eq!(*slab.get(b), 2);
        assert_eq!(slab.nodes.len(), 1);
    }

    #[test]
    fn empty_list_accessors() {
        let slab: Slab<u8> = Slab::with_capacity(0);
        let list = List::new();
        assert!(list.is_empty());
        assert_eq!(slab.head(&list), None);
        assert_eq!(slab.tail(&list), None);
        assert_eq!(slab.iter(&list).count(), 0);
    }

    #[test]
    fn two_lists_share_one_slab() {
        let mut slab: Slab<char> = Slab::with_capacity(4);
        let mut used = List::new();
        let mut unused = List::new();
        let a = slab.alloc('a');
        let b = slab.alloc('b');
        slab.push_front(&mut used, a);
        slab.push_front(&mut unused, b);
        // Move b from unused to used.
        slab.remove(&mut unused, b);
        slab.push_front(&mut used, b);
        assert!(unused.is_empty());
        let order: Vec<char> = slab.iter(&used).map(|i| *slab.get(i)).collect();
        assert_eq!(order, vec!['b', 'a']);
    }
}
