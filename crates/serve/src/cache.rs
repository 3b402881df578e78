//! Epoch-keyed LRU cache of materialized sub-views.
//!
//! Keys are `(epoch, canonical request string)`: a cached body can only
//! ever answer the exact epoch it was computed at, so rotation can
//! *never* make the cache serve stale data — eviction is purely a
//! memory-bound concern. Entries from rotated-out epochs are dropped
//! eagerly by [`ViewCache::retain_epochs`] (the server calls it on every
//! refresh) and lazily by LRU pressure otherwise.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::api::ResponseBody;

/// One cached entry: `(epoch, canonical query)` key plus shared body.
type CacheEntry = ((u64, String), Arc<ResponseBody>);

/// A small LRU over `Arc`-shared response bodies.
#[derive(Debug)]
pub struct ViewCache {
    capacity: usize,
    /// Most recently used at the back. O(n) probes — fine at the tens
    /// of entries a serving cache holds.
    entries: Mutex<VecDeque<CacheEntry>>,
}

impl ViewCache {
    /// A cache holding up to `capacity` bodies (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ViewCache {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Look up `(epoch, key)`, refreshing its recency on a hit.
    pub fn lookup(&self, epoch: u64, key: &str) -> Option<Arc<ResponseBody>> {
        let mut q = self.entries.lock().expect("cache poisoned");
        let pos = q.iter().position(|((e, k), _)| *e == epoch && k == key)?;
        let entry = q.remove(pos).expect("position just found");
        let body = Arc::clone(&entry.1);
        q.push_back(entry);
        Some(body)
    }

    /// Insert a freshly computed body, evicting the least recently used
    /// entry past capacity.
    pub fn insert(&self, epoch: u64, key: String, body: Arc<ResponseBody>) {
        if self.capacity == 0 {
            return;
        }
        let mut q = self.entries.lock().expect("cache poisoned");
        if let Some(pos) = q.iter().position(|((e, k), _)| *e == epoch && *k == key) {
            q.remove(pos);
        }
        q.push_back(((epoch, key), body));
        while q.len() > self.capacity {
            q.pop_front();
        }
    }

    /// Drop every entry whose epoch is not in `live` (registry
    /// rotation's eager invalidation).
    pub fn retain_epochs(&self, live: &[u64]) {
        self.entries
            .lock()
            .expect("cache poisoned")
            .retain(|((e, _), _)| live.contains(e));
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(ids: &[&str]) -> Arc<ResponseBody> {
        Arc::new(ResponseBody::Ids(
            ids.iter().map(|s| s.to_string()).collect(),
        ))
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let c = ViewCache::new(2);
        c.insert(1, "a".into(), body(&["x"]));
        c.insert(1, "b".into(), body(&["y"]));
        assert!(c.lookup(1, "a").is_some()); // refresh a → b is now LRU
        c.insert(1, "c".into(), body(&["z"]));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(1, "b").is_none(), "b was least recently used");
        assert!(c.lookup(1, "a").is_some());
        assert!(c.lookup(1, "c").is_some());
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let c = ViewCache::new(8);
        c.insert(1, "q".into(), body(&["old"]));
        c.insert(2, "q".into(), body(&["new"]));
        assert_eq!(c.lookup(1, "q").unwrap().as_ids().unwrap(), ["old"]);
        assert_eq!(c.lookup(2, "q").unwrap().as_ids().unwrap(), ["new"]);
    }

    #[test]
    fn retain_epochs_drops_rotated_entries() {
        let c = ViewCache::new(8);
        c.insert(1, "q".into(), body(&["a"]));
        c.insert(2, "q".into(), body(&["b"]));
        c.insert(3, "q".into(), body(&["c"]));
        c.retain_epochs(&[2, 3]);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(1, "q").is_none());
        assert!(c.lookup(3, "q").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ViewCache::new(0);
        c.insert(1, "q".into(), body(&["a"]));
        assert!(c.is_empty());
        assert!(c.lookup(1, "q").is_none());
    }
}
