//! The compiled-artifact cache: [`CompiledDesign`] handles keyed by
//! `(DesignKind, design_point)`, plus routed workloads keyed by the
//! [`design_point`] alone so the design axis of one request shares a
//! single materialization (the same trick `ExperimentMatrix` plays
//! serially). Distinct design points never share an entry.
//!
//! Compilation happens **outside** the lock — concurrent requests for
//! different keys compile in parallel; concurrent requests for the same
//! key may compile twice, and the second insert wins harmlessly because
//! compilation is a pure function of the key. Eviction is FIFO by first
//! insertion, bounded by `capacity`; a routed workload is evicted with
//! the last cached design built from it.

use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{design_point, CompiledDesign, RoutedWorkload, Workload};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Keyed store state behind one lock.
struct CacheState {
    /// Routed workloads by [`design_point`].
    routed: HashMap<String, Arc<RoutedWorkload>>,
    /// Compiled designs by design kind and [`design_point`].
    designs: HashMap<(DesignKind, String), Arc<CompiledDesign>>,
    /// Design keys in first-insertion order (FIFO eviction queue).
    order: VecDeque<(DesignKind, String)>,
}

/// A bounded, thread-safe cache of compiled design handles.
pub struct DesignCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DesignCache {
    /// An empty cache holding at most `capacity` compiled designs, and
    /// the routed workloads they were built from: a routed form stays
    /// exactly as long as some cached design uses it, so there are never
    /// more than `capacity` of them either.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DesignCache {
            state: Mutex::new(CacheState {
                routed: HashMap::new(),
                designs: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The compiled handle for `(cfg, kind, workload)`, compiling on a
    /// miss. The boolean is `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `Workload::materialize`
    /// (unknown application name, pattern on an incompatible mesh) —
    /// callers validate specs first or wrap in `catch_unwind`.
    pub fn design(
        &self,
        cfg: &NocConfig,
        kind: DesignKind,
        workload: &Workload,
    ) -> (Arc<CompiledDesign>, bool) {
        let key = (kind, design_point(cfg, workload));
        if let Some(found) = self
            .state
            .lock()
            .expect("unpoisoned cache")
            .designs
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(found), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock; share the routed form across kinds.
        let routed = self.routed(&key.1, cfg, workload);
        let compiled = Arc::new(CompiledDesign::from_routed(cfg, kind, routed));
        let mut state = self.state.lock().expect("unpoisoned cache");
        let state = &mut *state;
        if let std::collections::hash_map::Entry::Vacant(slot) = state.designs.entry(key.clone()) {
            slot.insert(Arc::clone(&compiled));
            state.order.push_back(key);
            if state.designs.len() > self.capacity {
                let evicted = state.order.pop_front().expect("a key per design");
                state.designs.remove(&evicted);
                if state.order.iter().all(|(_, point)| *point != evicted.1) {
                    state.routed.remove(&evicted.1);
                }
            }
        }
        (compiled, false)
    }

    /// The routed (placed + routed) form of `workload` on `cfg`, under
    /// its design `point`, materializing on a miss. Shared across the
    /// design axis.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `Workload::materialize`.
    fn routed(&self, point: &str, cfg: &NocConfig, workload: &Workload) -> Arc<RoutedWorkload> {
        if let Some(found) = self
            .state
            .lock()
            .expect("unpoisoned cache")
            .routed
            .get(point)
        {
            return Arc::clone(found);
        }
        let routed = Arc::new(workload.materialize(cfg));
        let mut state = self.state.lock().expect("unpoisoned cache");
        Arc::clone(state.routed.entry(point.to_owned()).or_insert(routed))
    }

    /// Compiled-design lookups that hit.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compiled-design lookups that missed (and compiled).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Compiled designs currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("unpoisoned cache").designs.len()
    }

    /// `true` when no design is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_shares_the_handle() {
        let cache = DesignCache::new(8);
        let cfg = NocConfig::paper_4x4();
        let w = Workload::fig7();
        let (first, hit1) = cache.design(&cfg, DesignKind::Smart, &w);
        let (second, hit2) = cache.design(&cfg, DesignKind::Smart, &w);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn torus_and_mesh_of_equal_size_miss_separately() {
        let cache = DesignCache::new(8);
        let w = Workload::fig7();
        let (mesh_handle, _) = cache.design(&NocConfig::scaled(4), DesignKind::Smart, &w);
        let (torus_handle, hit) = cache.design(&NocConfig::scaled_torus(4), DesignKind::Smart, &w);
        assert!(
            !hit,
            "a torus must never be served the mesh's compiled design"
        );
        assert!(!Arc::ptr_eq(&mesh_handle, &torus_handle));
    }

    #[test]
    fn designs_share_one_routed_workload() {
        let cache = DesignCache::new(8);
        let cfg = NocConfig::paper_4x4();
        let w = Workload::app("PIP");
        let (mesh, _) = cache.design(&cfg, DesignKind::Mesh, &w);
        let (smart, _) = cache.design(&cfg, DesignKind::Smart, &w);
        assert_eq!(mesh.routed().name, "PIP");
        assert!(std::ptr::eq(mesh.routed(), smart.routed()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn routed_forms_leave_with_the_last_design_using_them() {
        let cache = DesignCache::new(8);
        let cfg = NocConfig::paper_4x4();
        let routed = |cache: &DesignCache| cache.state.lock().unwrap().routed.len();
        for seed in 0..2_000 {
            cache.design(&cfg, DesignKind::Mesh, &Workload::uniform(6, 0.02, seed));
        }
        assert_eq!(cache.len(), 8);
        assert!(routed(&cache) <= 8, "{} routed forms", routed(&cache));
        // A routed form shared by two kinds outlives the first eviction.
        let cache = DesignCache::new(2);
        let w = Workload::app("PIP");
        cache.design(&cfg, DesignKind::Mesh, &w);
        cache.design(&cfg, DesignKind::Smart, &w);
        cache.design(&cfg, DesignKind::Mesh, &Workload::fig7());
        assert_eq!(routed(&cache), 2, "PIP still serves the cached SMART");
        cache.design(&cfg, DesignKind::Smart, &Workload::fig7());
        assert_eq!(routed(&cache), 1, "only fig7 is left");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = DesignCache::new(2);
        let cfg = NocConfig::paper_4x4();
        let w = Workload::fig7();
        cache.design(&cfg, DesignKind::Mesh, &w);
        cache.design(&cfg, DesignKind::Smart, &w);
        cache.design(&cfg, DesignKind::Dedicated, &w);
        assert_eq!(cache.len(), 2);
        // Mesh (oldest) was evicted; re-requesting it misses.
        let (_, hit) = cache.design(&cfg, DesignKind::Mesh, &w);
        assert!(!hit);
        // Dedicated is still resident.
        let (_, hit) = cache.design(&cfg, DesignKind::Dedicated, &w);
        assert!(hit);
    }
}
