//! Runtime reconfiguration across applications (Fig 1, Section V).
//!
//! "Before each application runs, these registers need to be set
//! properly to suit the application's traffic characteristic. The
//! network needs to be emptied while setting the registers." The cost is
//! one memory store per router — 16 instructions on the 4×4 mesh.

use crate::config::NocConfig;
use crate::noc::SmartNoc;
use crate::preset::StoreOp;
use smart_sim::{FlowId, SourceRoute};
use std::fmt;

/// Why a reconfiguration was refused: the previous application's
/// in-flight traffic did not drain within the budget. Reconfiguring a
/// non-empty network would corrupt in-flight packets, so the swap is
/// not performed — the previous application stays loaded (its network
/// advanced by the failed drain attempt) and the caller may retry with
/// a larger budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigError {
    /// Application whose traffic failed to drain.
    pub current_app: String,
    /// Application that was being loaded.
    pub next_app: String,
    /// The drain budget that was exhausted.
    pub max_drain_cycles: u64,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot reconfigure to {}: {} traffic did not drain within {} cycles",
            self.next_app, self.current_app, self.max_drain_cycles
        )
    }
}

impl std::error::Error for ReconfigError {}

/// Report of one reconfiguration event.
#[derive(Debug, Clone)]
pub struct ReconfigReport {
    /// Application being loaded.
    pub app_name: String,
    /// Cycles spent draining the previous application's in-flight
    /// traffic (0 for the first application).
    pub drain_cycles: u64,
    /// The memory-mapped store sequence that installs the presets.
    pub stores: Vec<StoreOp>,
    /// Runtime cost in instructions (= stores; Section V).
    pub cost_instructions: usize,
}

/// A SMART NoC that can be retargeted to successive applications.
#[derive(Debug)]
pub struct ReconfigurableNoc {
    cfg: NocConfig,
    base_addr: u64,
    current: Option<(String, SmartNoc)>,
    reconfig_count: u64,
}

impl ReconfigurableNoc {
    /// A reconfigurable NoC with preset registers mapped at `base_addr`.
    #[must_use]
    pub fn new(cfg: NocConfig, base_addr: u64) -> Self {
        ReconfigurableNoc {
            cfg,
            base_addr,
            current: None,
            reconfig_count: 0,
        }
    }

    /// The design point.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of reconfigurations performed.
    #[must_use]
    pub fn reconfig_count(&self) -> u64 {
        self.reconfig_count
    }

    /// Name of the application currently loaded.
    #[must_use]
    pub fn current_app(&self) -> Option<&str> {
        self.current.as_ref().map(|(n, _)| n.as_str())
    }

    /// The live network for the current application.
    #[must_use]
    pub fn noc(&self) -> Option<&SmartNoc> {
        self.current.as_ref().map(|(_, n)| n)
    }

    /// Mutable access to the live network.
    pub fn noc_mut(&mut self) -> Option<&mut SmartNoc> {
        self.current.as_mut().map(|(_, n)| n)
    }

    /// Drain the network and load `routes` as application `name`:
    /// compiles presets, emits the store sequence, and swaps the
    /// simulated network.
    ///
    /// # Errors
    ///
    /// Returns a [`ReconfigError`] if the previous application's
    /// traffic cannot drain within `max_drain_cycles` — reconfiguring a
    /// non-empty network corrupts in-flight packets, so the previous
    /// application stays loaded instead.
    pub fn load_app(
        &mut self,
        name: &str,
        routes: &[(FlowId, SourceRoute)],
        max_drain_cycles: u64,
    ) -> Result<ReconfigReport, ReconfigError> {
        let mut drain_cycles = 0;
        if let Some((prev_name, prev)) = self.current.as_mut() {
            let before = prev.network().cycle();
            if !prev.network_mut().drain(max_drain_cycles) {
                return Err(ReconfigError {
                    current_app: prev_name.clone(),
                    next_app: name.to_owned(),
                    max_drain_cycles,
                });
            }
            drain_cycles = prev.network().cycle() - before;
        }
        let noc = SmartNoc::new(&self.cfg, routes);
        let stores = noc.presets().store_sequence(self.base_addr);
        let cost = stores.len();
        self.current = Some((name.to_owned(), noc));
        self.reconfig_count += 1;
        Ok(ReconfigReport {
            app_name: name.to_owned(),
            drain_cycles,
            stores,
            cost_instructions: cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::{NodeId, Packet, PacketId, Topology};

    fn routes_row() -> Vec<(FlowId, SourceRoute)> {
        let m = Topology::paper_4x4();
        vec![(FlowId(0), SourceRoute::xy(m, NodeId(0), NodeId(3)).unwrap())]
    }

    fn routes_col() -> Vec<(FlowId, SourceRoute)> {
        let m = Topology::paper_4x4();
        vec![(
            FlowId(0),
            SourceRoute::xy(m, NodeId(0), NodeId(12)).unwrap(),
        )]
    }

    #[test]
    fn sixteen_stores_per_reconfiguration() {
        let mut noc = ReconfigurableNoc::new(NocConfig::paper_4x4(), 0x4000_0000);
        let rep = noc
            .load_app("wlan", &routes_row(), 1000)
            .expect("first load");
        assert_eq!(rep.cost_instructions, 16, "16 nodes = 16 instructions");
        assert_eq!(rep.drain_cycles, 0, "first app needs no drain");
        assert_eq!(noc.current_app(), Some("wlan"));
    }

    #[test]
    fn presets_change_across_apps() {
        let mut noc = ReconfigurableNoc::new(NocConfig::paper_4x4(), 0);
        let a = noc.load_app("row", &routes_row(), 1000).expect("load row");
        let b = noc.load_app("col", &routes_col(), 1000).expect("load col");
        assert_ne!(
            a.stores, b.stores,
            "different applications must produce different presets"
        );
        assert_eq!(noc.reconfig_count(), 2);
    }

    #[test]
    fn drain_happens_between_apps() {
        let mut noc = ReconfigurableNoc::new(NocConfig::paper_4x4(), 0);
        noc.load_app("row", &routes_row(), 1000).expect("load row");
        let net = noc.noc_mut().expect("loaded").network_mut();
        net.offer(Packet {
            id: PacketId(0),
            flow: FlowId(0),
            gen_cycle: 0,
            num_flits: 8,
        });
        net.step(); // leave traffic in flight
        let rep = noc.load_app("col", &routes_col(), 1000).expect("drains");
        assert!(rep.drain_cycles > 0, "in-flight traffic forced a drain");
    }

    #[test]
    fn refusing_to_reconfigure_live_traffic() {
        let mut noc = ReconfigurableNoc::new(NocConfig::paper_4x4(), 0);
        noc.load_app("row", &routes_row(), 1000).expect("load row");
        let net = noc.noc_mut().expect("loaded").network_mut();
        net.offer(Packet {
            id: PacketId(0),
            flow: FlowId(0),
            gen_cycle: 0,
            num_flits: 8,
        });
        // Zero drain budget: must refuse, keeping the previous app.
        let err = noc.load_app("col", &routes_col(), 0).unwrap_err();
        assert_eq!(err.current_app, "row");
        assert_eq!(err.next_app, "col");
        assert_eq!(err.max_drain_cycles, 0);
        assert!(err.to_string().contains("did not drain"));
        assert_eq!(noc.current_app(), Some("row"), "previous app stays loaded");
        assert_eq!(noc.reconfig_count(), 1);
    }
}
