//! Cooperative caching: the per-node LRU file cache, the cluster-wide
//! caching directory each node maintains from broadcasts, and the log of
//! caching deltas a node batches into digests.

use std::collections::{HashMap, VecDeque};

use simnet::fabric::NodeId;

use crate::msg::FileId;

/// Slab index standing for "no entry" in the LRU list.
const NIL: u32 = u32::MAX;

/// One cached file and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Link {
    file: FileId,
    older: u32,
    newer: u32,
}

/// A least-recently-used cache of equally sized files.
///
/// Capacity is expressed in entries (the trace normalizes all files to
/// the same size, §5.1). The entries form a doubly linked list, oldest
/// to newest, threaded through a slab whose freed slots are reused; a
/// map from file to slab slot finds an entry.
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
    slab: Vec<Link>,
    free: Vec<u32>,
    oldest: u32,
    newest: u32,
    index: HashMap<FileId, u32>,
}

impl LruCache {
    /// A cache holding up to `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slab index.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "cache capacity {capacity} too large"
        );
        LruCache {
            capacity,
            slab: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            index: HashMap::new(),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `file` is cached (does not refresh recency).
    pub fn contains(&self, file: FileId) -> bool {
        self.index.contains_key(&file)
    }

    /// Marks `file` most recently used. Returns `false` if absent.
    pub fn touch(&mut self, file: FileId) -> bool {
        let Some(&i) = self.index.get(&file) else {
            return false;
        };
        if i != self.newest {
            self.unlink(i);
            self.push_newest(i);
        }
        true
    }

    /// Inserts `file` as most recently used, returning the evicted file
    /// if the cache was full. Re-inserting refreshes recency and evicts
    /// nothing.
    pub fn insert(&mut self, file: FileId) -> Option<FileId> {
        if self.touch(file) {
            return None;
        }
        let evicted = if self.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let link = Link {
            file,
            older: NIL,
            newer: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = link;
                i
            }
            None => {
                self.slab.push(link);
                (self.slab.len() - 1) as u32
            }
        };
        self.push_newest(i);
        self.index.insert(file, i);
        evicted
    }

    /// Removes `file`; returns whether it was present.
    pub fn remove(&mut self, file: FileId) -> bool {
        let Some(i) = self.index.remove(&file) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Removes and returns the least recently used file.
    pub fn pop_lru(&mut self) -> Option<FileId> {
        if self.oldest == NIL {
            return None;
        }
        let victim = self.slab[self.oldest as usize].file;
        self.remove(victim);
        Some(victim)
    }

    /// All cached files, least recently used first.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        let next = |i: u32| (i != NIL).then(|| self.slab[i as usize]);
        std::iter::successors(next(self.oldest), move |l| next(l.newer)).map(|l| l.file)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.index.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Link { older, newer, .. } = self.slab[i as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slab[n as usize].older = older,
        }
    }

    /// Links slot `i` in as the most recently used entry.
    fn push_newest(&mut self, i: u32) {
        let link = &mut self.slab[i as usize];
        link.older = self.newest;
        link.newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slab[n as usize].newer = i,
        }
        self.newest = i;
    }
}

/// One recorded caching delta.
#[derive(Debug, Clone, Copy)]
struct Delta {
    file: FileId,
    cached: bool,
    /// `false` once a newer delta for the same file was recorded.
    live: bool,
}

/// Coalesced caching deltas awaiting digest flushes.
///
/// Each delta gets the next generation and goes at the back, so the
/// delta of generation `g` sits at index `g - front` where `front` is
/// the oldest kept generation. Recording a file again marks its older
/// delta dead: only a file's newest delta is ever sent. Flushes and
/// [`DigestLog::pending`] list files in ascending id order.
///
/// # Example
///
/// ```
/// use press::cache::DigestLog;
///
/// let mut log = DigestLog::default();
/// log.record(7, true);
/// log.record(3, true);
/// log.record(7, false); // coalesces with the add of 7
/// assert_eq!(log.unsent_since(0), (vec![3], vec![7]));
/// assert_eq!(log.unsent_since(2), (vec![], vec![7]));
/// log.gc(2);
/// assert_eq!(log.pending(0), [7]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DigestLog {
    /// Generation of the newest delta (0 before the first).
    gen: u64,
    deltas: VecDeque<Delta>,
    /// The generation of each file's live delta.
    live: HashMap<FileId, u64>,
    /// Flush scratch: two bits per file id, add then evict; all clear
    /// between flushes.
    marks: Vec<u64>,
}

impl DigestLog {
    /// The newest generation recorded.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// `true` when no live delta is kept.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Records that `file` is now cached (`true`) or evicted, under the
    /// next generation.
    pub fn record(&mut self, file: FileId, cached: bool) {
        self.gen += 1;
        self.deltas.push_back(Delta {
            file,
            cached,
            live: true,
        });
        if let Some(old) = self.live.insert(file, self.gen) {
            let i = (old - front(&self.deltas, self.gen)) as usize;
            self.deltas[i].live = false;
        }
    }

    /// The files added and evicted after generation `seen`, each list in
    /// ascending order.
    pub fn unsent_since(&mut self, seen: u64) -> (Vec<FileId>, Vec<FileId>) {
        // Sort by marking each file's bit, then reading the marks back
        // in id order: linear in the deltas sent plus the marked span.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for d in live_after(&self.deltas, self.gen, seen) {
            let bit = 2 * d.file as usize + usize::from(!d.cached);
            let w = bit / 64;
            if w >= self.marks.len() {
                self.marks.resize(w + 1, 0);
            }
            self.marks[w] |= 1 << (bit % 64);
            (lo, hi) = (lo.min(w), hi.max(w));
        }
        let (mut adds, mut evicts) = (Vec::new(), Vec::new());
        for w in lo..=hi {
            let mut bits = std::mem::take(&mut self.marks[w]);
            while bits != 0 {
                let bit = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let list = if bit & 1 == 0 { &mut adds } else { &mut evicts };
                list.push((bit / 2) as FileId);
            }
        }
        (adds, evicts)
    }

    /// Forgets every delta of generation `floor` or older.
    pub fn gc(&mut self, floor: u64) {
        while front(&self.deltas, self.gen) <= floor {
            let Some(d) = self.deltas.pop_front() else {
                break;
            };
            if d.live {
                self.live.remove(&d.file);
            }
        }
    }

    /// Files with a live delta newer than `floor`, ascending.
    pub fn pending(&self, floor: u64) -> Vec<FileId> {
        let mut files: Vec<FileId> = live_after(&self.deltas, self.gen, floor)
            .map(|d| d.file)
            .collect();
        files.sort_unstable();
        files
    }
}

/// Generation of the oldest of `deltas`, the newest being `gen`
/// (`gen + 1` when there are none).
fn front(deltas: &VecDeque<Delta>, gen: u64) -> u64 {
    gen + 1 - deltas.len() as u64
}

/// Live `deltas` of generations after `seen`, oldest first.
fn live_after(deltas: &VecDeque<Delta>, gen: u64, seen: u64) -> impl Iterator<Item = &Delta> {
    let skip = (seen + 1).saturating_sub(front(deltas, gen)) as usize;
    deltas.range(skip.min(deltas.len())..).filter(|d| d.live)
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

    /// Random `insert` / `touch` / `remove` / `pop_lru` sequences at
    /// capacities 1-8 agree, step by step, with a `Vec` kept oldest to
    /// newest: same results, same victims, same `files()` order.
    #[test]
    fn lru_matches_a_vec_model() {
        use proptest::prelude::*;
        const FILES: FileId = 12;
        proptest::run_cases("lru_matches_a_vec_model", |rng| {
            let capacity = (1usize..9).sample(rng);
            let ops = prop::collection::vec((0u8..4, 0..FILES), 1..200).sample(rng);
            let mut c = LruCache::new(capacity);
            let mut model: Vec<FileId> = Vec::new();
            for (op, file) in ops {
                let pos = model.iter().position(|&f| f == file);
                match op {
                    0 => {
                        let want = match pos {
                            Some(i) => {
                                model.remove(i);
                                None
                            }
                            None if model.len() == capacity => Some(model.remove(0)),
                            None => None,
                        };
                        model.push(file);
                        prop_assert_eq!(c.insert(file), want);
                    }
                    1 => {
                        if let Some(i) = pos {
                            model.remove(i);
                            model.push(file);
                        }
                        prop_assert_eq!(c.touch(file), pos.is_some());
                    }
                    2 => {
                        if let Some(i) = pos {
                            model.remove(i);
                        }
                        prop_assert_eq!(c.remove(file), pos.is_some());
                    }
                    _ => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(c.pop_lru(), want);
                    }
                }
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(c.files().collect::<Vec<_>>(), model.clone());
                for f in 0..FILES {
                    prop_assert_eq!(c.contains(f), model.contains(&f));
                }
            }
            Ok(())
        });
    }

    /// Random records, flushes and garbage collections agree with a map
    /// from file to its newest `(cached, generation)`: every flush sends
    /// the same adds and evicts in the same order, and the pending list
    /// matches.
    #[test]
    fn digest_log_matches_a_map_model() {
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        proptest::run_cases("digest_log_matches_a_map_model", |rng| {
            let files = (1u32..40).sample(rng);
            let ops = prop::collection::vec((0u8..10, 0..files, any::<u64>()), 1..300).sample(rng);
            let mut log = DigestLog::default();
            let mut model: BTreeMap<FileId, (bool, u64)> = BTreeMap::new();
            let mut gen = 0;
            for (op, file, pick) in ops {
                // A watermark or floor anywhere in 0..=gen.
                let mark = pick % (gen + 1);
                match op {
                    0..=5 => {
                        gen += 1;
                        model.insert(file, (op < 3, gen));
                        log.record(file, op < 3);
                    }
                    6..=8 => {
                        let (mut adds, mut evicts) = (Vec::new(), Vec::new());
                        for (&f, &(cached, g)) in &model {
                            if g > mark {
                                if cached {
                                    adds.push(f);
                                } else {
                                    evicts.push(f);
                                }
                            }
                        }
                        prop_assert_eq!(log.unsent_since(mark), (adds, evicts));
                    }
                    _ => {
                        model.retain(|_, (_, g)| *g > mark);
                        log.gc(mark);
                    }
                }
                prop_assert_eq!(log.gen(), gen);
                prop_assert_eq!(log.is_empty(), model.is_empty());
                let pending: Vec<FileId> = model
                    .iter()
                    .filter(|(_, (_, g))| *g > mark)
                    .map(|(&f, _)| f)
                    .collect();
                prop_assert_eq!(log.pending(mark), pending);
            }
            Ok(())
        });
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
