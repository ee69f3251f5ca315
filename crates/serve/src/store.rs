//! The fleet's checkpoint cache: latest blob per job, LRU-capped.
//!
//! The store is the serving side of checkpoint streaming — the artifact
//! a client polls while its reconstruction trains. Every write refreshes
//! the entry's recency; once the cap is exceeded the least-recently
//! *written* entry is evicted, which in practice means idle jobs: a
//! retired job stops refreshing, so its blob ages out as active jobs
//! keep checkpointing. (Final checkpoints are returned in each job's
//! [`JobReport`](crate::fleet::JobReport) regardless, so eviction only
//! affects the cache, never the training result.)

use std::collections::VecDeque;
use std::sync::Mutex;

#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "keyed blob store: reads are by key and eviction order comes from `recency`, so the map's order is never observed"
)]
struct StoreInner {
    blobs: std::collections::HashMap<String, Vec<u8>>,
    /// Names from least- to most-recently written.
    recency: VecDeque<String>,
    evicted: u64,
}

/// Thread-safe LRU checkpoint cache, keyed by job name.
#[derive(Debug)]
pub struct CheckpointStore {
    cap: usize,
    inner: Mutex<StoreInner>,
}

impl CheckpointStore {
    /// A store holding at most `cap` checkpoints (`cap == 0` disables
    /// caching entirely — every put is immediately evicted).
    pub fn new(cap: usize) -> Self {
        CheckpointStore {
            cap,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Inserts (or refreshes) `name`'s checkpoint, evicting the least
    /// recently written entries above the cap.
    pub fn put(&self, name: &str, blob: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.blobs.insert(name.to_owned(), blob).is_some() {
            inner.recency.retain(|n| n != name);
        }
        inner.recency.push_back(name.to_owned());
        while inner.blobs.len() > self.cap {
            if let Some(old) = inner.recency.pop_front() {
                inner.blobs.remove(&old);
                inner.evicted += 1;
            } else {
                break;
            }
        }
    }

    /// The latest checkpoint for `name`, if still resident.
    pub fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().blobs.get(name).cloned()
    }

    /// Resident job names, least- to most-recently written.
    pub fn resident(&self) -> Vec<String> {
        self.inner.lock().unwrap().recency.iter().cloned().collect()
    }

    /// Checkpoints evicted so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_written() {
        let store = CheckpointStore::new(2);
        store.put("a", vec![1]);
        store.put("b", vec![2]);
        store.put("a", vec![3]); // refresh: b is now oldest
        store.put("c", vec![4]); // evicts b
        assert_eq!(store.get("a"), Some(vec![3]));
        assert_eq!(store.get("b"), None);
        assert_eq!(store.get("c"), Some(vec![4]));
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.resident(), vec!["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn zero_capacity_store_caches_nothing() {
        let store = CheckpointStore::new(0);
        store.put("a", vec![1]);
        assert_eq!(store.get("a"), None);
        assert_eq!(store.evictions(), 1);
    }
}
