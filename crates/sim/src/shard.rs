//! The banded session: one simulation, many threads, bit-identical
//! results.
//!
//! [`Network::banded`](crate::Network::banded) partitions the fabric
//! into horizontal **row bands** and this module runs them on scoped
//! threads with a per-cycle barrier. The cycle itself is the one loop in
//! [`crate::network`]; the only thing that changes is the
//! `Seam`: launches claim links in shared atomic planes, and events
//! whose endpoint lies in a foreign band — flit arrivals and credit
//! returns — go to per-pair outboxes, exchanged at the barrier and
//! applied in ascending source-band order.
//!
//! # Why the result is bit-identical to the 1-band engine
//!
//! * **Cross-band events always apply at least one cycle later.** A NIC
//!   injection launched in `step(c)` has `ST = c` and arrives no earlier
//!   than the end of `c` (applied in `step(c+1)`); a router departure has
//!   `ST = c+1` and applies in `step(c+2)` at the earliest; credits apply
//!   at `c+1` (NIC) or `c+3` (router tail). One exchange per cycle is
//!   therefore enough — no event can be needed mid-cycle by another band.
//! * **Order within a ring slot cannot matter.** The flow table's
//!   sender↔endpoint pairing is one-to-one and every sender launches at
//!   most one flit (and frees at most one VC) per cycle, so each endpoint
//!   receives at most one arrival and each sender at most one credit per
//!   cycle. Events for *distinct* endpoints/senders touch disjoint queues
//!   and only commutative accumulators (counter sums, per-flow stats,
//!   histogram buckets), so any interleaving of the per-band streams
//!   produces the same state. (The millimetre counters are `f64` sums of
//!   per-leg link counts times the configured hop pitch; at the paper's
//!   integral 1 mm pitch these sums are exact in any order.)
//! * **Link exclusivity is checked globally.** SMART legs may cross many
//!   bands in one cycle, so the 1-band guard's stamp per link becomes a
//!   pair of shared atomic bitsets, one per `ST`-cycle parity: the
//!   launching band marks every link of the leg with `fetch_or`, and a
//!   second mark of the same link in the same `ST` cycle panics exactly
//!   like the 1-band guard. The coordinator re-zeroes a plane only
//!   between cycles, when no worker is stepping.
//!
//! Packets crossing a band boundary are re-interned: the head flit
//! carries its `PacketMeta` (including the injection timestamp) into the
//! destination band's arena, body flits find the slot through a per-band
//! `PacketId → slot` transfer map, and the tail both removes the map
//! entry on entry and releases the source band's slot on exit.

use crate::counters::ActivityCounters;
use crate::flit::Packet;
use crate::forward::FlowTable;
use crate::network::{Band, BoundaryEvent, Goal, Seam};
use crate::stats::SimStats;
use crate::topology::{NodeId, PORTS};
use crate::traffic::TrafficSource;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What couples the bands of a multi-band network: the owner table, the
/// shared link-guard planes, the mailboxes, and the read models merged
/// from the bands after every mutating call so the borrowing accessors
/// (`counters()`, `stats()`) stay cheap.
#[derive(Debug)]
pub(crate) struct Exchange {
    /// Band owner per node.
    owner: Vec<u8>,
    /// Shared link-exclusivity planes by `ST`-cycle parity.
    planes: [Vec<AtomicU64>; 2],
    /// The `ST` cycle each plane currently describes (`u64::MAX` =
    /// none); maintained by the coordinator between cycles.
    plane_st: [u64; 2],
    /// `k × k` outboxes, `src * k + dst`; each cell is written by one
    /// worker and drained by one worker, never concurrently.
    outbox: Vec<Mutex<Vec<BoundaryEvent>>>,
    /// Per-band packets queued by the coordinator for the next cycle,
    /// each with the source node its flow's plan starts at.
    offer_box: Vec<Mutex<Vec<(Packet, NodeId)>>>,
    /// The merged read models (see [`Exchange::refresh_merged`]).
    pub(crate) counters: ActivityCounters,
    pub(crate) stats: SimStats,
    pub(crate) link_flits: Vec<u64>,
}

/// The multi-band seam of worker `me`: atomic guard planes, owner-table
/// routing, outbox hand-over.
struct Banded<'a> {
    me: usize,
    x: &'a Exchange,
}

impl Seam for Banded<'_> {
    fn try_mark(&mut self, li: usize, st_cycle: u64) -> bool {
        let (w, bit) = (li / 64, 1u64 << (li % 64));
        self.x.planes[(st_cycle & 1) as usize][w].fetch_or(bit, Ordering::SeqCst) & bit == 0
    }

    fn export(&mut self, node: NodeId, ev: impl FnOnce() -> BoundaryEvent) -> bool {
        let (x, dest) = (self.x, self.x.owner(node));
        if dest == self.me {
            return false;
        }
        lock_free_of_poison(&x.outbox[self.me * x.offer_box.len() + dest]).push(ev());
        true
    }
}

/// A sense-reversing spin barrier with a shared panic flag: a worker
/// that panics mid-cycle (e.g. a preset violation) never reaches the
/// barrier, so waiters watch the flag instead of deadlocking. `wait`
/// returns `false` when a peer panicked; callers bail out quietly and
/// the coordinator's join re-raises the original panic.
struct CycleBarrier<'a> {
    count: AtomicUsize,
    generation: AtomicU64,
    parties: usize,
    panicked: &'a AtomicBool,
}

impl<'a> CycleBarrier<'a> {
    fn new(parties: usize, panicked: &'a AtomicBool) -> Self {
        CycleBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parties,
            panicked,
        }
    }

    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(gen + 1, Ordering::SeqCst);
            !self.panicked.load(Ordering::SeqCst)
        } else {
            while self.generation.load(Ordering::SeqCst) == gen {
                if self.panicked.load(Ordering::SeqCst) {
                    return false;
                }
                std::thread::yield_now();
            }
            !self.panicked.load(Ordering::SeqCst)
        }
    }
}

/// Sets the shared panic flag if its thread unwinds, so barrier waiters
/// wake up instead of spinning forever.
struct PanicSentinel<'a>(&'a AtomicBool);

impl Drop for PanicSentinel<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Lock a mutex, ignoring poisoning: a poisoned mailbox only ever means
/// a peer worker panicked mid-cycle, and the panic sentinel already
/// guarantees the session unwinds with the original panic.
fn lock_free_of_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Empty mailbox `m` through `apply`, handing its buffer back afterwards
/// so its capacity is reused.
fn drain_box<T>(m: &Mutex<Vec<T>>, apply: impl FnOnce(&mut Vec<T>)) {
    let mut items = std::mem::take(&mut *lock_free_of_poison(m));
    apply(&mut items);
    *lock_free_of_poison(m) = items;
}

impl Exchange {
    /// The exchange for `bands` (ascending, contiguous) over `n` nodes.
    pub(crate) fn new(bands: &[Band], n: usize) -> Self {
        let k = bands.len();
        let mut owner = vec![(k - 1) as u8; n];
        for (s, pair) in bands.windows(2).enumerate() {
            owner[usize::from(pair[0].start)..usize::from(pair[1].start)].fill(s as u8);
        }
        let plane = || {
            (0..(n * PORTS).div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect()
        };
        Exchange {
            owner,
            planes: [plane(), plane()],
            plane_st: [u64::MAX, u64::MAX],
            outbox: (0..k * k).map(|_| Mutex::new(Vec::new())).collect(),
            offer_box: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            link_flits: vec![0; n * PORTS],
        }
    }

    /// The band owning `node`.
    pub(crate) fn owner(&self, node: NodeId) -> usize {
        usize::from(self.owner[usize::from(node.0)])
    }

    /// Rebuild the merged read models from the bands.
    pub(crate) fn refresh_merged(&mut self, bands: &[Band]) {
        self.counters = ActivityCounters::new();
        self.stats = SimStats::new();
        self.link_flits.fill(0);
        for band in bands {
            self.counters.merge(&band.counters);
            self.stats.merge(&band.stats);
            for (sum, n) in self.link_flits.iter_mut().zip(&band.link_flits) {
                *sum += n;
            }
        }
        // Every band advances in lockstep; merged cycles are the common
        // cycle count, not the k-fold sum.
        self.counters.cycles = bands[0].counters.cycles;
    }

    /// The threaded session behind every multi-band run: spawn one
    /// worker per band, run cycles under a 3-barrier protocol, join,
    /// advance `cycle`, refresh the merged read models.
    ///
    /// Per cycle: the coordinator preps guard planes and fills the
    /// offer boxes, then barrier **A** releases the workers to step;
    /// barrier **B** (all outboxes complete) releases the boundary
    /// exchange, applied in ascending source-band order; each worker
    /// publishes its quiescence flag and barrier **C** hands control
    /// back to the coordinator.
    #[allow(clippy::too_many_arguments)] // the parts of a `Network`, split so `self` can be one of them
    pub(crate) fn run_session(
        &mut self,
        bands: &mut [Band],
        flows: &FlowTable,
        cycle: &mut u64,
        mut traffic: Option<&mut dyn TrafficSource>,
        goal: Goal,
    ) {
        let idle = match goal {
            Goal::Fixed(n) => n == 0,
            Goal::Drain(max) => max == 0 || bands.iter().all(Band::is_quiescent),
        };
        if idle {
            return;
        }
        let k = bands.len();
        let start_cycle = *cycle;
        let panicked = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let quiet: Vec<AtomicBool> = (0..k).map(|_| AtomicBool::new(false)).collect();
        let barrier = CycleBarrier::new(k + 1, &panicked);
        // The coordinator alone touches `plane_st` (between barriers C
        // and A); everything else is shared read-only with the workers.
        let mut plane_st = self.plane_st;
        let x = &*self;
        let mut ran: u64 = 0;

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(k);
            for (i, band) in bands.iter_mut().enumerate() {
                let (barrier, stop, quiet, panicked) = (&barrier, &stop, &quiet, &panicked);
                workers.push(scope.spawn(move || {
                    let _sentinel = PanicSentinel(panicked);
                    let mut seam = Banded { me: i, x };
                    let mut c = start_cycle;
                    loop {
                        if !barrier.wait() || stop.load(Ordering::SeqCst) {
                            return;
                        }
                        drain_box(&x.offer_box[i], |offers| {
                            for (p, src) in offers.drain(..) {
                                band.offer(p, src);
                            }
                        });
                        band.step(c, flows, &mut seam);
                        if !barrier.wait() {
                            return;
                        }
                        for s in 0..k {
                            drain_box(&x.outbox[s * k + i], |evs| band.transfer_in(evs));
                        }
                        quiet[i].store(band.is_quiescent(), Ordering::SeqCst);
                        if !barrier.wait() {
                            return;
                        }
                        c += 1;
                    }
                }));
            }

            // Coordinator.
            let _sentinel = PanicSentinel(&panicked);
            let mut all_quiet = false;
            loop {
                let c = start_cycle + ran;
                let should_stop = match goal {
                    Goal::Fixed(n) => ran == n,
                    Goal::Drain(max) => all_quiet || ran == max,
                };
                if should_stop {
                    stop.store(true, Ordering::SeqCst);
                } else {
                    for cyc in [c, c + 1] {
                        let p = (cyc & 1) as usize;
                        if plane_st[p] != cyc {
                            for w in &x.planes[p] {
                                w.store(0, Ordering::SeqCst);
                            }
                            plane_st[p] = cyc;
                        }
                    }
                    if let Some(t) = traffic.as_deref_mut() {
                        for p in t.generate(c) {
                            let src = flows.source(p.flow);
                            lock_free_of_poison(&x.offer_box[x.owner(src)]).push((p, src));
                        }
                    }
                }
                // Barriers A (which also delivers `stop`), B and C.
                if !barrier.wait() || should_stop || !barrier.wait() || !barrier.wait() {
                    break;
                }
                all_quiet = quiet.iter().all(|q| q.load(Ordering::SeqCst));
                ran += 1;
            }
            // Re-raise a worker's own panic (e.g. a preset violation):
            // left to the scope, it would become a generic "a scoped
            // thread panicked".
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        self.plane_st = plane_st;
        *cycle = start_cycle + ran;
        self.refresh_merged(bands);
    }
}

#[cfg(test)]
mod tests {
    use crate::flit::FlowId;
    use crate::forward::FlowTable;
    use crate::network::{Network, SimConfig};
    use crate::route::SourceRoute;
    use crate::topology::{NodeId, Topology};
    use crate::traffic::{ModulatedTraffic, TemporalModel};

    fn crossing_flows(h: u16) -> (SimConfig, FlowTable, Vec<(FlowId, f64)>) {
        let cfg = SimConfig {
            topology: Topology::mesh(h, h),
            ..SimConfig::paper_4x4()
        };
        // Column flows crossing every band boundary plus row flows
        // staying inside bands.
        let mut routes = Vec::new();
        let mut rates = Vec::new();
        let mut id = 0;
        for x in 0..h {
            let (a, b) = (NodeId(x), NodeId((h - 1) * h + x));
            routes.push((FlowId(id), SourceRoute::xy(cfg.topology, a, b).unwrap()));
            rates.push((FlowId(id), 0.02));
            id += 1;
            let (a, b) = (NodeId(x * h), NodeId(x * h + h - 1));
            routes.push((FlowId(id), SourceRoute::xy(cfg.topology, a, b).unwrap()));
            rates.push((FlowId(id), 0.02));
            id += 1;
        }
        let flows = FlowTable::mesh_baseline(cfg.topology, &routes);
        (cfg, flows, rates)
    }

    fn run(net: &mut Network, cfg: SimConfig, rates: &[(FlowId, f64)], seed: u64) {
        let mut traffic =
            ModulatedTraffic::new(TemporalModel::Steady, rates, cfg.flits_per_packet, seed);
        net.run_with(&mut traffic, 500);
        assert!(net.drain(20_000), "network failed to drain");
    }

    #[test]
    fn banded_matches_solo_smoke() {
        let (cfg, flows, rates) = crossing_flows(8);
        let mut solo = Network::new(cfg, flows.clone());
        run(&mut solo, cfg, &rates, 0xBEEF);
        for k in [2usize, 4] {
            let mut banded = Network::banded(cfg, flows.clone(), k);
            assert_eq!(banded.bands(), k);
            run(&mut banded, cfg, &rates, 0xBEEF);
            assert_eq!(solo.cycle(), banded.cycle(), "k={k}");
            assert_eq!(solo.counters(), banded.counters(), "k={k}");
            assert_eq!(solo.stats(), banded.stats(), "k={k}");
            let a: Vec<_> = solo.link_flit_counts().collect();
            let b: Vec<_> = banded.link_flit_counts().collect();
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn band_count_clamps_to_the_fabric() {
        let (cfg, flows, _) = crossing_flows(4);
        for (asked, got) in [(0usize, 1usize), (1, 1), (3, 3), (4, 4), (64, 4)] {
            assert_eq!(Network::banded(cfg, flows.clone(), asked).bands(), got);
        }
        // Owner ids are `u8`: a fabric taller than 255 rows still builds
        // when asked for a band per row.
        let tall = SimConfig {
            topology: Topology::mesh(1, 300),
            ..SimConfig::paper_4x4()
        };
        let none = FlowTable::mesh_baseline(tall.topology, &[]);
        assert_eq!(Network::banded(tall, none, 300).bands(), 255);
    }
}
