//! The sink's key table: raw node id → shared symmetric key (§2.1).
//!
//! Every node shares a unique secret key with the sink, pre-loaded before
//! deployment. The sink "can maintain a lookup table for all node IDs and
//! keys"; [`KeyStore`] is that table, plus the generation helpers used to
//! provision a simulated deployment.
//!
//! Because the per-node keys are fixed for the deployment lifetime, the
//! sink never needs to re-derive an HMAC key schedule: [`KeyStore::schedule`]
//! lazily builds a [`KeySchedule`] — one precomputed [`HmacKey`] per node,
//! in ascending id order — and caches it behind an `Arc`. Every sink-side
//! hash (mark verification, anonymous-ID resolution, table builds) runs
//! off this schedule, saving two SHA-256 compressions per MAC.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::hmac::HmacKey;
use crate::mac::MacKey;

/// Sink-side table of every deployed node's shared key.
///
/// # Examples
///
/// ```
/// use pnm_crypto::keystore::KeyStore;
///
/// let ks = KeyStore::derive_from_master(b"deployment-master", 100);
/// assert_eq!(ks.len(), 100);
/// assert!(ks.key(42).is_some());
/// assert!(ks.key(100).is_none());
///
/// // The precomputed HMAC schedule is built once and shared.
/// let schedule = ks.schedule();
/// assert_eq!(schedule.len(), 100);
/// assert!(std::sync::Arc::ptr_eq(&schedule, &ks.schedule()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct KeyStore {
    keys: HashMap<u16, MacKey>,
    /// Lazily built precomputed HMAC schedule; reset by every mutation.
    schedule: OnceLock<Arc<KeySchedule>>,
}

impl KeyStore {
    /// Creates an empty key store.
    pub fn new() -> Self {
        KeyStore {
            keys: HashMap::new(),
            schedule: OnceLock::new(),
        }
    }

    /// Provisions `n` nodes (ids `0..n`) with keys derived from a master
    /// secret — deterministic, so simulations are reproducible.
    pub fn derive_from_master(master: &[u8], n: u16) -> Self {
        let mut keys = HashMap::with_capacity(n as usize);
        for id in 0..n {
            keys.insert(id, MacKey::derive(master, id as u64));
        }
        KeyStore {
            keys,
            schedule: OnceLock::new(),
        }
    }

    /// Provisions `n` nodes with keys drawn from a seeded RNG.
    pub fn random(seed: u64, n: u16) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = HashMap::with_capacity(n as usize);
        for id in 0..n {
            let mut k = [0u8; 16];
            rng.fill(&mut k);
            keys.insert(id, MacKey::from_bytes(k));
        }
        KeyStore {
            keys,
            schedule: OnceLock::new(),
        }
    }

    /// Registers (or replaces) the key for `id`, returning the previous key
    /// if one was present. Invalidates the cached [`KeySchedule`].
    pub fn insert(&mut self, id: u16, key: MacKey) -> Option<MacKey> {
        self.schedule = OnceLock::new();
        self.keys.insert(id, key)
    }

    /// Looks up the key shared with node `id`.
    pub fn key(&self, id: u16) -> Option<&MacKey> {
        self.keys.get(&id)
    }

    /// Removes a node's key (e.g., after the node is revoked), returning it.
    /// Invalidates the cached [`KeySchedule`].
    pub fn remove(&mut self, id: u16) -> Option<MacKey> {
        self.schedule = OnceLock::new();
        self.keys.remove(&id)
    }

    /// Number of provisioned nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no node is provisioned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over `(id, key)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &MacKey)> {
        self.keys.iter().map(|(id, k)| (*id, k))
    }

    /// Iterates over all provisioned ids in unspecified order.
    pub fn ids(&self) -> impl Iterator<Item = u16> + '_ {
        self.keys.keys().copied()
    }

    /// The precomputed per-node HMAC schedule, built on first use and
    /// cached until the next mutation.
    ///
    /// Sharing the `KeyStore` behind an `Arc` (as [`SinkEngine`] and the
    /// service shards do) shares the one schedule too: the first caller
    /// pays the build (two compressions per node), everyone else gets the
    /// same `Arc<KeySchedule>` back.
    ///
    /// [`SinkEngine`]: https://docs.rs/pnm-core
    pub fn schedule(&self) -> Arc<KeySchedule> {
        Arc::clone(
            self.schedule
                .get_or_init(|| Arc::new(KeySchedule::build(&self.keys))),
        )
    }
}

impl FromIterator<(u16, MacKey)> for KeyStore {
    fn from_iter<T: IntoIterator<Item = (u16, MacKey)>>(iter: T) -> Self {
        KeyStore {
            keys: iter.into_iter().collect(),
            schedule: OnceLock::new(),
        }
    }
}

impl Extend<(u16, MacKey)> for KeyStore {
    fn extend<T: IntoIterator<Item = (u16, MacKey)>>(&mut self, iter: T) {
        self.schedule = OnceLock::new();
        self.keys.extend(iter);
    }
}

/// Precomputed HMAC key schedules for every provisioned node, in ascending
/// id order.
///
/// One [`HmacKey`] per node: the RFC 2104 inner/outer pad blocks are
/// compressed once here instead of on every MAC. The anon-table build
/// (`pnm-core::verify::AnonTable::build`) hashes the schedule in this
/// ascending order, so collision candidate lists come out ascending.
#[derive(Clone, Debug)]
pub struct KeySchedule {
    /// Provisioned ids, ascending.
    ids: Vec<u16>,
    /// `prepared[i]` is the schedule for `ids[i]`.
    prepared: Vec<HmacKey>,
    /// id → index into `ids`/`prepared`.
    slot: HashMap<u16, u32>,
}

impl KeySchedule {
    fn build(keys: &HashMap<u16, MacKey>) -> Self {
        let mut ids: Vec<u16> = keys.keys().copied().collect();
        ids.sort_unstable();
        // Pad-block compression for all nodes at once, lane-parallel —
        // element-wise equal to per-key `HmacKey::new` (pinned by test).
        let key_bytes: Vec<&[u8]> = ids.iter().map(|id| &keys[id].as_bytes()[..]).collect();
        let prepared: Vec<HmacKey> = HmacKey::new_many(&key_bytes);
        let slot = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i as u32))
            .collect();
        KeySchedule {
            ids,
            prepared,
            slot,
        }
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no node is scheduled.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The precomputed schedule for node `id`.
    pub fn get(&self, id: u16) -> Option<&HmacKey> {
        self.slot.get(&id).map(|&i| &self.prepared[i as usize])
    }

    /// Provisioned ids in ascending order.
    pub fn ids(&self) -> &[u16] {
        &self.ids
    }

    /// Prepared keys, parallel to [`KeySchedule::ids`].
    pub fn prepared(&self) -> &[HmacKey] {
        &self.prepared
    }

    /// Iterates `(id, schedule)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &HmacKey)> {
        self.ids.iter().copied().zip(self.prepared.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::HmacSha256;

    #[test]
    fn derive_is_deterministic() {
        let a = KeyStore::derive_from_master(b"m", 10);
        let b = KeyStore::derive_from_master(b"m", 10);
        for id in 0..10 {
            assert_eq!(a.key(id).unwrap().as_bytes(), b.key(id).unwrap().as_bytes());
        }
    }

    #[test]
    fn random_is_seeded() {
        let a = KeyStore::random(42, 10);
        let b = KeyStore::random(42, 10);
        let c = KeyStore::random(43, 10);
        assert_eq!(a.key(3).unwrap().as_bytes(), b.key(3).unwrap().as_bytes());
        assert_ne!(a.key(3).unwrap().as_bytes(), c.key(3).unwrap().as_bytes());
    }

    #[test]
    fn keys_are_unique_across_nodes() {
        let ks = KeyStore::derive_from_master(b"m", 200);
        let mut seen = std::collections::HashSet::new();
        for (_, k) in ks.iter() {
            assert!(seen.insert(*k.as_bytes()), "duplicate node key");
        }
    }

    #[test]
    fn insert_remove() {
        let mut ks = KeyStore::new();
        assert!(ks.is_empty());
        let k = MacKey::derive(b"m", 1);
        assert!(ks.insert(7, k).is_none());
        assert_eq!(ks.len(), 1);
        assert!(ks.key(7).is_some());
        assert!(ks.remove(7).is_some());
        assert!(ks.remove(7).is_none());
        assert!(ks.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let pairs: Vec<(u16, MacKey)> = (0..5)
            .map(|i| (i, MacKey::derive(b"m", i as u64)))
            .collect();
        let mut ks: KeyStore = pairs.clone().into_iter().collect();
        assert_eq!(ks.len(), 5);
        ks.extend([(9, MacKey::derive(b"m", 9))]);
        assert_eq!(ks.len(), 6);
        assert_eq!(ks.ids().count(), 6);
    }

    #[test]
    fn schedule_is_cached_and_shared() {
        let ks = KeyStore::derive_from_master(b"m", 16);
        let a = ks.schedule();
        let b = ks.schedule();
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cache");
        // Clones share the key material but build their own cache lazily.
        let clone = ks.clone();
        let c = clone.schedule();
        assert_eq!(c.len(), a.len());
    }

    #[test]
    fn schedule_matches_per_key_preparation() {
        let ks = KeyStore::derive_from_master(b"m", 12);
        let schedule = ks.schedule();
        assert_eq!(schedule.len(), ks.len());
        for (id, key) in ks.iter() {
            let prepared = schedule.get(id).expect("scheduled");
            assert_eq!(
                prepared.mac(b"probe"),
                HmacSha256::mac(key.as_bytes(), b"probe"),
                "node {id}"
            );
        }
        assert!(schedule.get(12).is_none());
    }

    #[test]
    fn schedule_ids_ascending() {
        let ks: KeyStore = [5u16, 1, 9, 3]
            .into_iter()
            .map(|i| (i, MacKey::derive(b"m", i as u64)))
            .collect();
        let schedule = ks.schedule();
        assert_eq!(schedule.ids(), &[1, 3, 5, 9]);
        assert_eq!(schedule.prepared().len(), 4);
        let via_iter: Vec<u16> = schedule.iter().map(|(id, _)| id).collect();
        assert_eq!(via_iter, vec![1, 3, 5, 9]);
    }

    #[test]
    fn mutation_invalidates_schedule() {
        let mut ks = KeyStore::derive_from_master(b"m", 4);
        let before = ks.schedule();
        assert_eq!(before.len(), 4);
        ks.insert(100, MacKey::derive(b"m", 100));
        let after = ks.schedule();
        assert_eq!(after.len(), 5);
        assert!(after.get(100).is_some());
        ks.remove(100);
        assert_eq!(ks.schedule().len(), 4);
        assert!(ks.schedule().get(100).is_none());
        // The earlier Arc is a consistent snapshot of the old state.
        assert!(before.get(100).is_none());
    }

    #[test]
    fn empty_schedule() {
        let ks = KeyStore::new();
        let schedule = ks.schedule();
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        assert!(schedule.get(0).is_none());
    }
}
