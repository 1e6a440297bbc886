//! Preset state and configuration registers.
//!
//! Before an application runs, every router's bypass muxes, crossbar
//! select lines and credit-crossbar selects are preset (Section IV), and
//! the presets are encoded "into a double-word configuration register for
//! each router", memory-mapped so reconfiguration is a handful of store
//! instructions (Section V).

use smart_sim::{Direction, NodeId, Topology};
use std::fmt;

/// Per-input bypass mux setting (Fig 6): the crossbar input port is fed
/// either straight from the incoming link (bypass) or from the input
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMux {
    /// Incoming link feeds the crossbar directly — single-cycle bypass.
    Bypass,
    /// Input buffer feeds the crossbar — the flit stops here.
    Buffer,
}

/// Per-output crossbar select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XbarSelect {
    /// Statically connected to one (bypassed) input port.
    FromInput(Direction),
    /// Driven by switch allocation among buffered inputs.
    Arbitrated,
    /// No flow uses this output; it is clock-gated.
    Unused,
}

/// The preset state of one SMART router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterPreset {
    /// Input mux per port (E,S,W,N,C); `None` = port unused (gated).
    pub input_mux: [Option<InputMux>; 5],
    /// Crossbar select per output port (E,S,W,N,C).
    pub xbar: [XbarSelect; 5],
    /// Credit-crossbar select per credit output. Credit flows opposite
    /// to data: the credit output on data-input side `d` is fed from the
    /// credit input on data-output side `credit_xbar[d.index()]`.
    pub credit_xbar: [Option<Direction>; 5],
}

impl Default for RouterPreset {
    fn default() -> Self {
        RouterPreset {
            input_mux: [None; 5],
            xbar: [XbarSelect::Unused; 5],
            credit_xbar: [None; 5],
        }
    }
}

impl RouterPreset {
    /// A fully gated (idle) router.
    #[must_use]
    pub fn idle() -> Self {
        RouterPreset::default()
    }

    /// `true` if no port is in use.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.input_mux.iter().all(Option::is_none)
            && self.xbar.iter().all(|x| *x == XbarSelect::Unused)
    }

    /// Number of clock-enabled ports (inputs with a mux setting plus
    /// outputs not `Unused`) — drives the clock-gating power model.
    #[must_use]
    pub fn enabled_ports(&self) -> usize {
        self.input_mux.iter().filter(|m| m.is_some()).count()
            + self
                .xbar
                .iter()
                .filter(|x| **x != XbarSelect::Unused)
                .count()
    }

    /// Encode into the double-word configuration register.
    ///
    /// Layout (LSB first): 5 × 2 bits input mux (0 = unused, 1 = buffer,
    /// 2 = bypass), then 5 × 3 bits crossbar select (0–4 = input index,
    /// 5 = arbitrated, 7 = unused), then 5 × 3 bits credit select
    /// (0–4 = data-output index, 7 = unused). 40 bits total.
    #[must_use]
    pub fn encode(&self) -> u64 {
        let mut w = 0u64;
        for (i, m) in self.input_mux.iter().enumerate() {
            let f = match m {
                None => 0u64,
                Some(InputMux::Buffer) => 1,
                Some(InputMux::Bypass) => 2,
            };
            w |= f << (2 * i);
        }
        for (i, x) in self.xbar.iter().enumerate() {
            let f = match x {
                XbarSelect::FromInput(d) => d.index() as u64,
                XbarSelect::Arbitrated => 5,
                XbarSelect::Unused => 7,
            };
            w |= f << (10 + 3 * i);
        }
        for (i, c) in self.credit_xbar.iter().enumerate() {
            let f = match c {
                Some(d) => d.index() as u64,
                None => 7,
            };
            w |= f << (25 + 3 * i);
        }
        w
    }

    /// Decode a configuration register written by [`RouterPreset::encode`].
    ///
    /// # Panics
    ///
    /// Panics on malformed field values.
    #[must_use]
    pub fn decode(w: u64) -> Self {
        let mut p = RouterPreset::default();
        for i in 0..5 {
            p.input_mux[i] = match (w >> (2 * i)) & 0b11 {
                0 => None,
                1 => Some(InputMux::Buffer),
                2 => Some(InputMux::Bypass),
                f => panic!("invalid input mux field {f}"),
            };
            p.xbar[i] = match (w >> (10 + 3 * i)) & 0b111 {
                d @ 0..=4 => XbarSelect::FromInput(Direction::from_index(d as usize)),
                5 => XbarSelect::Arbitrated,
                7 => XbarSelect::Unused,
                f => panic!("invalid crossbar select field {f}"),
            };
            p.credit_xbar[i] = match (w >> (25 + 3 * i)) & 0b111 {
                d @ 0..=4 => Some(Direction::from_index(d as usize)),
                7 => None,
                f => panic!("invalid credit select field {f}"),
            };
        }
        p
    }
}

impl fmt::Display for RouterPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in[")?;
        for (i, m) in self.input_mux.iter().enumerate() {
            let c = match m {
                None => '-',
                Some(InputMux::Buffer) => 'B',
                Some(InputMux::Bypass) => 'L',
            };
            write!(f, "{}{c}", Direction::from_index(i))?;
        }
        write!(f, "] out[")?;
        for (i, x) in self.xbar.iter().enumerate() {
            match x {
                XbarSelect::Unused => write!(f, "{}- ", Direction::from_index(i))?,
                XbarSelect::Arbitrated => write!(f, "{}=SA ", Direction::from_index(i))?,
                XbarSelect::FromInput(d) => write!(f, "{}<{d} ", Direction::from_index(i))?,
            }
        }
        write!(f, "]")
    }
}

/// One memory-mapped store operation in the reconfiguration sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOp {
    /// Register address.
    pub addr: u64,
    /// Double-word value.
    pub value: u64,
}

/// The presets of every router in the mesh for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshPresets {
    mesh: Topology,
    routers: Vec<RouterPreset>,
}

impl MeshPresets {
    /// All-idle presets for `mesh`.
    #[must_use]
    pub fn idle(mesh: Topology) -> Self {
        MeshPresets {
            mesh,
            routers: vec![RouterPreset::idle(); mesh.len()],
        }
    }

    /// The topology these presets configure.
    #[must_use]
    pub fn mesh(&self) -> Topology {
        self.mesh
    }

    /// Preset of one router.
    #[must_use]
    pub fn router(&self, node: NodeId) -> &RouterPreset {
        &self.routers[node.0 as usize]
    }

    /// Mutable preset of one router.
    pub fn router_mut(&mut self, node: NodeId) -> &mut RouterPreset {
        &mut self.routers[node.0 as usize]
    }

    /// Total enabled ports across the mesh.
    #[must_use]
    pub fn enabled_ports(&self) -> usize {
        self.routers.iter().map(RouterPreset::enabled_ports).sum()
    }

    /// The memory-mapped store sequence that installs these presets:
    /// one double-word store per router (Section V — "for a 16-node
    /// SMART NoC, there are 16 registers to be set which correspond to
    /// 16 instructions").
    #[must_use]
    pub fn store_sequence(&self, base_addr: u64) -> Vec<StoreOp> {
        self.routers
            .iter()
            .enumerate()
            .map(|(i, p)| StoreOp {
                addr: base_addr + 8 * i as u64,
                value: p.encode(),
            })
            .collect()
    }

    /// Rebuild presets from a store sequence (the hardware's view).
    ///
    /// # Panics
    ///
    /// Panics if the sequence does not cover exactly the mesh's
    /// registers at `base_addr`.
    #[must_use]
    pub fn from_store_sequence(mesh: Topology, base_addr: u64, stores: &[StoreOp]) -> Self {
        assert_eq!(stores.len(), mesh.len(), "one store per router required");
        let mut routers = vec![RouterPreset::idle(); mesh.len()];
        for s in stores {
            let idx = (s.addr - base_addr) / 8;
            assert!(
                s.addr >= base_addr
                    && (idx as usize) < mesh.len()
                    && (s.addr - base_addr).is_multiple_of(8),
                "store address {:#x} outside the register file",
                s.addr
            );
            routers[idx as usize] = RouterPreset::decode(s.value);
        }
        MeshPresets { mesh, routers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RouterPreset {
        RouterPreset {
            input_mux: [
                Some(InputMux::Bypass),
                None,
                Some(InputMux::Buffer),
                None,
                Some(InputMux::Buffer),
            ],
            xbar: [
                XbarSelect::FromInput(Direction::West),
                XbarSelect::Unused,
                XbarSelect::Unused,
                XbarSelect::Arbitrated,
                XbarSelect::Unused,
            ],
            credit_xbar: [None, None, Some(Direction::East), None, None],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        assert_eq!(RouterPreset::decode(p.encode()), p);
        let idle = RouterPreset::idle();
        assert_eq!(RouterPreset::decode(idle.encode()), idle);
    }

    #[test]
    fn register_fits_double_word() {
        // 40 bits used; must fit 64 with headroom.
        let w = sample().encode();
        assert!(w < (1u64 << 40));
    }

    #[test]
    fn enabled_port_counting() {
        let p = sample();
        // 3 inputs in use + 2 outputs (E static, N arbitrated).
        assert_eq!(p.enabled_ports(), 5);
        assert_eq!(RouterPreset::idle().enabled_ports(), 0);
        assert!(RouterPreset::idle().is_idle());
        assert!(!p.is_idle());
    }

    #[test]
    fn store_sequence_is_one_per_router() {
        let mesh = Topology::paper_4x4();
        let mut presets = MeshPresets::idle(mesh);
        *presets.router_mut(NodeId(5)) = sample();
        let stores = presets.store_sequence(0x4000_0000);
        assert_eq!(stores.len(), 16, "16 registers = 16 instructions");
        assert_eq!(stores[5].addr, 0x4000_0000 + 40);
        let back = MeshPresets::from_store_sequence(mesh, 0x4000_0000, &stores);
        assert_eq!(back, presets);
    }

    #[test]
    fn display_is_informative() {
        let s = sample().to_string();
        assert!(s.contains("EL"), "bypass East input shown: {s}");
        assert!(s.contains("E<W"), "static select shown: {s}");
        assert!(s.contains("N=SA"), "arbitrated output shown: {s}");
    }

    #[test]
    #[should_panic(expected = "one store per router")]
    fn short_sequence_rejected() {
        let mesh = Topology::paper_4x4();
        let _ = MeshPresets::from_store_sequence(mesh, 0, &[]);
    }
}
