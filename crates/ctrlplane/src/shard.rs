//! Entity-sharded controller state.
//!
//! The hot mutation under production fanout is `ReportUsage`: thousands
//! of members streaming usage reports between (rare) auction and
//! billing rounds. Sharding the usage ledger by entity lets those
//! reports proceed in parallel — each report takes exactly one shard
//! lock — while the rare global operations (attach, auction, billing,
//! recall, policy review) serialize on the global lock, taking shard
//! locks as needed.
//!
//! The server builds one shard per admissible connection
//! (`ServerConfig::max_connections`). A usage report holds its shard
//! lock across its group-commit wait, so the shard count caps how many
//! reports one fsync can cover. Sized from the connection cap, that
//! bound is never below the number of writers that can be connected.
//!
//! # Lock order
//!
//! `global` < `shards[0]` < `shards[1]` < … — always. A thread holding
//! a shard lock never acquires the global lock or a lower-index shard
//! lock, which makes deadlock impossible by construction.
//! [`ShardedState::lock_all`] is the only multi-lock path and acquires
//! in exactly that order.
//!
//! # Determinism
//!
//! Replay correctness requires that journal sequence order agrees with
//! state application order wherever two events touch the same state.
//! The server guarantees it by journaling *under the same locks* it
//! applies under: a usage report appends and applies inside its shard's
//! critical section; a global mutation appends and applies while
//! holding the global lock (plus every shard lock when it reads or
//! writes usage — billing drains it, attach inserts authorization). Two
//! critical sections on the same lock are totally ordered, so their
//! sequence numbers and their state effects order identically.
//!
//! # Authorization cache
//!
//! `ReportUsage` validation needs `Registry::may_send_traffic`, which
//! lives behind the global lock. That verdict is fixed at attach time
//! (LMPs and direct CSPs sign the ToS as part of attaching; a hosted
//! CSP rides its — already attached and signed — LMP), so each shard
//! caches the authorized entities that hash to it and usage validation
//! never touches the global lock.

use parking_lot::{Mutex, MutexGuard};
use poc_core::entity::EntityId;
use poc_core::poc::Poc;
use poc_traffic::TrafficMatrix;
use std::collections::{BTreeMap, BTreeSet};

/// State owned by the global lock: the POC core (registry, ledger,
/// lease book, fabric, last outcome) and the auction traffic matrix.
pub(crate) struct Global {
    pub poc: Poc,
    /// Upper-bound traffic matrix for auction rounds.
    pub tm: TrafficMatrix,
    /// Summary of the last finished lease transition (in-memory only;
    /// a restart resets it unless recovery itself finishes one).
    pub last_transition: Option<crate::proto::TransitionSummary>,
}

/// One shard of the usage ledger.
#[derive(Default)]
pub(crate) struct UsageShard {
    /// Usage reported since the last billing cycle by entities that
    /// hash to this shard.
    pub usage: BTreeMap<EntityId, f64>,
    /// Entities on this shard allowed to send traffic (see the module
    /// docs for why this cache is sound).
    pub authorized: BTreeSet<EntityId>,
}

/// The sharded controller state. See the module docs for the lock
/// order and the determinism argument.
pub(crate) struct ShardedState {
    pub global: Mutex<Global>,
    shards: Vec<Mutex<UsageShard>>,
}

impl ShardedState {
    /// Build with `n_shards` usage shards (clamped to ≥ 1), seeding the
    /// authorization cache from entities already attached to `poc`.
    pub fn new(poc: Poc, tm: TrafficMatrix, n_shards: usize) -> Self {
        let shards: Vec<Mutex<UsageShard>> =
            (0..n_shards.max(1)).map(|_| Mutex::new(UsageShard::default())).collect();
        let state = Self { global: Mutex::new(Global { poc, tm, last_transition: None }), shards };
        {
            let (g, mut shards) = state.lock_all();
            seed_authorized(&g.poc, &mut shards);
        }
        state
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index an entity's usage lives on.
    pub fn shard_index(&self, entity: EntityId) -> usize {
        shard_of(entity, self.shards.len())
    }

    /// The shard an entity's usage lives on.
    pub fn shard(&self, entity: EntityId) -> &Mutex<UsageShard> {
        &self.shards[self.shard_index(entity)]
    }

    /// Acquire the global lock and every shard lock, in lock order.
    /// Excludes every concurrent mutation: this is the checkpoint /
    /// billing / attach path.
    pub fn lock_all(&self) -> (MutexGuard<'_, Global>, Vec<MutexGuard<'_, UsageShard>>) {
        let global = self.global.lock();
        let shards = self.shards.iter().map(|s| s.lock()).collect();
        (global, shards)
    }
}

/// The index of the shard, of `n`, that `entity`'s usage and
/// authorization live on: the one shard rule.
fn shard_of(entity: EntityId, n: usize) -> usize {
    entity.0 as usize % n
}

/// Rebuild every shard's authorization cache from the entities attached
/// to `poc` (construction, and a snapshot that restored the registry
/// wholesale).
pub(crate) fn seed_authorized(poc: &Poc, shards: &mut [MutexGuard<'_, UsageShard>]) {
    for shard in shards.iter_mut() {
        shard.authorized.clear();
    }
    for entity in poc.registry().iter() {
        authorize(poc, shards, entity.id);
    }
}

/// Cache `entity` as authorized on its shard if `poc` lets it send
/// traffic (the verdict is fixed at attach time — see the module docs).
pub(crate) fn authorize(poc: &Poc, shards: &mut [MutexGuard<'_, UsageShard>], entity: EntityId) {
    if poc.registry().may_send_traffic(entity) {
        let i = shard_of(entity, shards.len());
        shards[i].authorized.insert(entity);
    }
}

/// Merge per-shard usage into one map (shards partition entities, so
/// the union is disjoint). Callers pass the guards from
/// [`ShardedState::lock_all`].
pub(crate) fn merged_usage(shards: &[MutexGuard<'_, UsageShard>]) -> BTreeMap<EntityId, f64> {
    let mut merged = BTreeMap::new();
    for shard in shards {
        merged.extend(shard.usage.iter().map(|(&e, &g)| (e, g)));
    }
    merged
}

/// Scatter a recovered usage map into the shards it partitions onto
/// (snapshot restore).
pub(crate) fn restore_usage(
    shards: &mut [MutexGuard<'_, UsageShard>],
    usage: BTreeMap<EntityId, f64>,
) {
    for (entity, gbps) in usage {
        let i = shard_of(entity, shards.len());
        shards[i].usage.insert(entity, gbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_core::poc::PocConfig;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    fn poc_with_members() -> (Poc, EntityId, EntityId) {
        let mut poc = Poc::new(two_bp_square(), PocConfig::default());
        let lmp = poc.attach_lmp("lmp", RouterId(0)).unwrap();
        let csp = poc.attach_hosted_csp("csp", lmp).unwrap();
        (poc, lmp, csp)
    }

    #[test]
    fn new_seeds_authorization_from_attached_entities() {
        let (poc, lmp, csp) = poc_with_members();
        let tm = TrafficMatrix::zero(poc.topo().n_routers());
        let state = ShardedState::new(poc, tm, 4);
        assert!(state.shard(lmp).lock().authorized.contains(&lmp));
        assert!(state.shard(csp).lock().authorized.contains(&csp), "hosted CSP rides its LMP");
    }

    #[test]
    fn usage_partitions_and_merges_back() {
        let (poc, _, _) = poc_with_members();
        let tm = TrafficMatrix::zero(poc.topo().n_routers());
        let state = ShardedState::new(poc, tm, 3);
        let mut usage = BTreeMap::new();
        for i in 0..10u32 {
            usage.insert(EntityId(i), i as f64);
        }
        {
            let (_g, mut shards) = state.lock_all();
            restore_usage(&mut shards, usage.clone());
            for (i, shard) in shards.iter().enumerate() {
                for e in shard.usage.keys() {
                    assert_eq!(e.0 as usize % 3, i, "usage on the wrong shard");
                }
            }
            assert_eq!(merged_usage(&shards), usage);
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let (poc, _, _) = poc_with_members();
        let tm = TrafficMatrix::zero(poc.topo().n_routers());
        let state = ShardedState::new(poc, tm, 0);
        assert_eq!(state.n_shards(), 1);
    }
}
