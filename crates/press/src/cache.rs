//! Cooperative caching: the per-node LRU file cache and the
//! cluster-wide caching directory each node maintains from broadcasts.

use std::collections::{BTreeMap, HashMap};

use simnet::fabric::NodeId;

use crate::msg::FileId;

/// A least-recently-used cache of equally sized files.
///
/// Capacity is expressed in entries (the trace normalizes all files to
/// the same size, §5.1).
///
/// # Example
///
/// ```
/// use press::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// assert_eq!(cache.insert(1), None);
/// assert_eq!(cache.insert(2), None);
/// cache.touch(1); // 1 is now most recent
/// assert_eq!(cache.insert(3), Some(2)); // 2 was least recent
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    tick: u64,
    by_file: HashMap<FileId, u64>,
    by_age: BTreeMap<u64, FileId>,
}

impl LruCache {
    /// A cache holding up to `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            tick: 0,
            by_file: HashMap::new(),
            by_age: BTreeMap::new(),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.by_file.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.by_file.is_empty()
    }

    /// Whether `file` is cached (does not refresh recency).
    pub fn contains(&self, file: FileId) -> bool {
        self.by_file.contains_key(&file)
    }

    /// Marks `file` most recently used. Returns `false` if absent.
    pub fn touch(&mut self, file: FileId) -> bool {
        let Some(age) = self.by_file.get(&file).copied() else {
            return false;
        };
        self.by_age.remove(&age);
        self.tick += 1;
        self.by_age.insert(self.tick, file);
        self.by_file.insert(file, self.tick);
        true
    }

    /// Inserts `file` as most recently used, returning the evicted file
    /// if the cache was full. Re-inserting refreshes recency and evicts
    /// nothing.
    pub fn insert(&mut self, file: FileId) -> Option<FileId> {
        if self.touch(file) {
            return None;
        }
        let evicted = if self.by_file.len() >= self.capacity {
            let (_, victim) = self.by_age.pop_first().expect("cache is full, so nonempty");
            self.by_file.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.tick += 1;
        self.by_age.insert(self.tick, file);
        self.by_file.insert(file, self.tick);
        evicted
    }

    /// Removes `file`; returns whether it was present.
    pub fn remove(&mut self, file: FileId) -> bool {
        match self.by_file.remove(&file) {
            Some(age) => {
                self.by_age.remove(&age);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the least recently used file.
    pub fn pop_lru(&mut self) -> Option<FileId> {
        let (_, victim) = self.by_age.pop_first()?;
        self.by_file.remove(&victim);
        Some(victim)
    }

    /// All cached files (unspecified order).
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.by_age.values().copied()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.by_file.clear();
        self.by_age.clear();
    }
}

/// Holder ids a directory slot keeps inline before the file spills.
const INLINE: usize = 3;

/// A directory slot: `[count, id, id, id]`; the ids are meaningful only
/// while `count <= INLINE`.
type Slot = [u16; 1 + INLINE];

/// The largest cluster a [`Directory`] can describe. Holder ids and a
/// slot's holder count are stored as `u16`; [`crate::PressNode::new`]
/// rejects a configuration with more nodes.
pub const MAX_NODES: usize = u16::MAX as usize;

/// A node's view of who caches what, maintained from `CacheAdd` /
/// `CacheEvict` broadcasts.
///
/// One fixed 8-byte slot per file: a holder count followed by up to
/// three holder ids. A file with more holders keeps its whole list in a
/// side map and moves back inline when it drops to three. Holders stay
/// in insertion order: routing takes the least-loaded holder and breaks
/// ties by position, so the order is observable.
///
/// # Example
///
/// ```
/// use press::cache::Directory;
/// use simnet::fabric::NodeId;
///
/// let mut d = Directory::new(8);
/// for n in [2, 0, 5, 1] {
///     d.add(3, NodeId(n));
/// }
/// d.remove(3, NodeId(0));
/// let holders: Vec<NodeId> = d.holders(3).collect();
/// assert_eq!(holders, [NodeId(2), NodeId(5), NodeId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    slots: Vec<Slot>,
    /// The ordered holder lists of files with more than `INLINE` holders.
    spill: HashMap<FileId, Vec<NodeId>>,
}

const SPILLED: &str = "a slot over the inline limit has a spilled list";

impl Directory {
    /// An empty directory over `files` file ids.
    pub fn new(files: u32) -> Self {
        Directory {
            slots: vec![[0; 1 + INLINE]; files as usize],
            spill: HashMap::new(),
        }
    }

    /// Records that `node` caches `file`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`MAX_NODES`], so that no id is
    /// ever truncated to fit a slot.
    pub fn add(&mut self, file: FileId, node: NodeId) {
        assert!(
            node.0 < MAX_NODES,
            "node id {} over the directory limit of {MAX_NODES} nodes",
            node.0
        );
        let slot = &mut self.slots[file as usize];
        let len = usize::from(slot[0]);
        if len <= INLINE {
            if slot[1..=len].iter().any(|&h| usize::from(h) == node.0) {
                return;
            }
            if len < INLINE {
                slot[1 + len] = node.0 as u16;
            } else {
                let mut list: Vec<NodeId> =
                    slot[1..].iter().map(|&h| NodeId(usize::from(h))).collect();
                list.push(node);
                self.spill.insert(file, list);
            }
        } else {
            let list = self.spill.get_mut(&file).expect(SPILLED);
            if list.contains(&node) {
                return;
            }
            list.push(node);
        }
        slot[0] += 1;
    }

    /// Records that `node` no longer caches `file`.
    pub fn remove(&mut self, file: FileId, node: NodeId) {
        let slot = &mut self.slots[file as usize];
        if usize::from(slot[0]) <= INLINE {
            remove_inline(slot, node);
        } else if !remove_spilled(slot, self.spill.get_mut(&file).expect(SPILLED), node) {
            self.spill.remove(&file);
        }
    }

    /// Nodes believed to cache `file`, in the order they were added.
    pub fn holders(&self, file: FileId) -> impl Iterator<Item = NodeId> + '_ {
        let slot = &self.slots[file as usize];
        let len = usize::from(slot[0]);
        let (inline, spilled): (&[u16], &[NodeId]) = if len <= INLINE {
            (&slot[1..=len], &[])
        } else {
            (&[], &self.spill[&file])
        };
        inline
            .iter()
            .map(|&h| NodeId(usize::from(h)))
            .chain(spilled.iter().copied())
    }

    /// Forgets everything a departed node cached.
    pub fn drop_node(&mut self, node: NodeId) {
        for slot in &mut self.slots {
            if usize::from(slot[0]) <= INLINE {
                remove_inline(slot, node);
            }
        }
        let slots = &mut self.slots;
        self.spill
            .retain(|&file, list| remove_spilled(&mut slots[file as usize], list, node));
    }

    /// Total (file, holder) entries — diagnostics.
    pub fn entries(&self) -> usize {
        self.slots.iter().map(|s| usize::from(s[0])).sum()
    }
}

/// Removes `node` from a slot whose holders are inline.
fn remove_inline(slot: &mut Slot, node: NodeId) {
    let len = usize::from(slot[0]);
    if let Some(i) = slot[1..=len].iter().position(|&h| usize::from(h) == node.0) {
        slot.copy_within(2 + i..=len, 1 + i);
        slot[0] -= 1;
    }
}

/// Removes `node` from a spilled file's `list`, moving the holders back
/// inline into `slot` once only `INLINE` remain. Returns whether the
/// file stays spilled.
fn remove_spilled(slot: &mut Slot, list: &mut Vec<NodeId>, node: NodeId) -> bool {
    if let Some(i) = list.iter().position(|&n| n == node) {
        list.remove(i);
        slot[0] -= 1;
        if list.len() == INLINE {
            for (h, n) in slot[1..].iter_mut().zip(list.iter()) {
                *h = n.0 as u16;
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(3);
        for f in [1, 2, 3] {
            assert_eq!(c.insert(f), None);
        }
        assert_eq!(c.insert(4), Some(1));
        assert!(c.contains(4) && !c.contains(1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.touch(1));
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn remove_and_pop_lru() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.remove(2));
        assert!(!c.remove(2));
        assert_eq!(c.pop_lru(), Some(1));
        assert_eq!(c.pop_lru(), Some(3));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn touch_on_absent_is_false() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(7));
    }

    #[test]
    fn files_iterates_in_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        let order: Vec<FileId> = c.files().collect();
        assert_eq!(order, [2, 3, 1]);
    }

    #[test]
    fn directory_tracks_holders() {
        let mut d = Directory::new(10);
        d.add(5, NodeId(0));
        d.add(5, NodeId(2));
        d.add(5, NodeId(0)); // duplicate ignored
        assert_eq!(d.holders(5).collect::<Vec<_>>(), [NodeId(0), NodeId(2)]);
        d.remove(5, NodeId(0));
        assert_eq!(d.holders(5).collect::<Vec<_>>(), [NodeId(2)]);
        assert_eq!(d.entries(), 1);
    }

    #[test]
    fn directory_drop_node_clears_all_entries() {
        let mut d = Directory::new(4);
        for f in 0..4 {
            d.add(f, NodeId(1));
            d.add(f, NodeId(3));
        }
        d.drop_node(NodeId(3));
        for f in 0..4 {
            assert_eq!(d.holders(f).collect::<Vec<_>>(), [NodeId(1)]);
        }
    }

    /// Random `add` / `remove` / `drop_node` sequences over up to 64
    /// nodes agree, step by step and in holder order, with a plain
    /// `Vec` of holder lists per file.
    #[test]
    fn directory_matches_a_vec_per_file_model() {
        use proptest::prelude::*;
        const FILES: u32 = 4;
        let (mut spills, mut unspills) = (0, 0);
        proptest::run_cases("directory_matches_a_vec_per_file_model", |rng| {
            let nodes = (1usize..65).sample(rng);
            let ops = prop::collection::vec((0u8..10, 0..FILES, 0..nodes), 1..300).sample(rng);
            let mut d = Directory::new(FILES);
            let mut model = vec![Vec::<NodeId>::new(); FILES as usize];
            for (op, file, node) in ops {
                let (f, node) = (file as usize, NodeId(node));
                let before = model[f].len();
                match op {
                    0..=4 => {
                        d.add(file, node);
                        if !model[f].contains(&node) {
                            model[f].push(node);
                        }
                    }
                    5..=8 => {
                        d.remove(file, node);
                        model[f].retain(|&n| n != node);
                    }
                    _ => {
                        d.drop_node(node);
                        for h in &mut model {
                            h.retain(|&n| n != node);
                        }
                    }
                }
                match (before, model[f].len()) {
                    (INLINE, l) if l > INLINE => spills += 1,
                    (b, INLINE) if b > INLINE => unspills += 1,
                    _ => {}
                }
                for (g, want) in model.iter().enumerate() {
                    prop_assert_eq!(d.holders(g as FileId).collect::<Vec<_>>(), *want);
                }
                prop_assert_eq!(d.entries(), model.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(
                    d.spill.len(),
                    model.iter().filter(|h| h.len() > INLINE).count()
                );
            }
            Ok(())
        });
        assert!(
            spills > 0 && unspills > 0,
            "spills {spills}, unspills {unspills}"
        );
    }

    #[test]
    #[should_panic(expected = "over the directory limit")]
    fn directory_rejects_an_id_that_does_not_fit_a_slot() {
        Directory::new(1).add(0, NodeId(MAX_NODES));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_cache_is_rejected() {
        LruCache::new(0);
    }
}
