//! The preset compiler written for reading: Section IV's stop rules over
//! sets and maps, the test oracle for `smart_core::compile::compile`.
//!
//! The product compiler evaluates the same rules over dense per-port
//! bit masks. This one keeps the statement close to the paper: for every
//! `(router, input)` the *set* of outputs its flows take, for every
//! `(router, output)` the *set* of inputs feeding it, and an input is a
//! stop-input iff its set of outputs has more than one member or one of
//! its outputs is fed by more than one input. HPC_max splits are added
//! to fixpoint, then plans and presets are emitted from the stop sets.
//! `tests/compile_reference.rs` holds the two equal on random fabrics,
//! route sets and reaches.

use smart_core::compile::CompiledApp;
use smart_core::preset::{InputMux, MeshPresets, XbarSelect};
use smart_sim::forward::{Endpoint, FlowPlan, Segment, Sender};
use smart_sim::{Direction, FlowId, FlowTable, LinkId, NodeId, SourceRoute, Topology};
use std::collections::{BTreeSet, HashMap};

/// Per-flow port usage at each visited router.
struct FlowUse {
    flow: FlowId,
    routers: Vec<NodeId>,
    /// Input direction at each router (`Core` at the source).
    inputs: Vec<Direction>,
    /// Output direction at each router (`Core` at the destination).
    outputs: Vec<Direction>,
}

fn flow_use(mesh: Topology, flow: FlowId, route: &SourceRoute) -> FlowUse {
    let routers = route.routers(mesh);
    let outputs = route.outputs();
    let mut inputs = Vec::with_capacity(routers.len());
    inputs.push(Direction::Core);
    for o in &outputs[..outputs.len() - 1] {
        inputs.push(o.opposite());
    }
    FlowUse {
        flow,
        routers,
        inputs,
        outputs,
    }
}

/// Compile `routes` for a fabric with single-cycle reach `hpc_max`; the
/// result must equal `smart_core::compile::compile` field for field.
///
/// # Panics
///
/// Panics if `hpc_max` is zero, a flow id repeats, or the presets would
/// be inconsistent.
#[must_use]
pub fn reference_compile(
    mesh: Topology,
    hpc_max: usize,
    routes: &[(FlowId, SourceRoute)],
) -> CompiledApp {
    assert!(hpc_max > 0, "HPC_max must be at least 1");
    let uses: Vec<FlowUse> = routes.iter().map(|(f, r)| flow_use(mesh, *f, r)).collect();

    // --- Conflict-driven stop inputs. ---
    // (router, input) -> set of outputs used through it.
    let mut in_outs: HashMap<(NodeId, Direction), BTreeSet<Direction>> = HashMap::new();
    // (router, output) -> set of inputs feeding it.
    let mut out_ins: HashMap<(NodeId, Direction), BTreeSet<Direction>> = HashMap::new();
    for u in &uses {
        for i in 0..u.routers.len() {
            let r = u.routers[i];
            in_outs
                .entry((r, u.inputs[i]))
                .or_default()
                .insert(u.outputs[i]);
            out_ins
                .entry((r, u.outputs[i]))
                .or_default()
                .insert(u.inputs[i]);
        }
    }
    let mut stop_inputs: HashMap<NodeId, BTreeSet<Direction>> = HashMap::new();
    for ((r, input), outs) in &in_outs {
        if outs.len() > 1 {
            stop_inputs.entry(*r).or_default().insert(*input);
        }
    }
    for ((r, _out), ins) in &out_ins {
        if ins.len() > 1 {
            for i in ins {
                stop_inputs.entry(*r).or_default().insert(*i);
            }
        }
    }

    // --- HPC_max splitting, to fixpoint. ---
    loop {
        let mut changed = false;
        for u in &uses {
            let stops = stop_indices(u, &stop_inputs);
            let mut prev = 0usize; // links consumed up to the last boundary
            for &s in &stops {
                if s - prev > hpc_max {
                    let split = prev + hpc_max;
                    stop_inputs
                        .entry(u.routers[split])
                        .or_default()
                        .insert(u.inputs[split]);
                    changed = true;
                }
                prev = s;
            }
            let last = u.routers.len() - 1;
            if last - prev > hpc_max {
                let split = prev + hpc_max;
                stop_inputs
                    .entry(u.routers[split])
                    .or_default()
                    .insert(u.inputs[split]);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- Plans. ---
    let mut flows = FlowTable::new();
    let mut plans = Vec::new();
    for ((_, route), u) in routes.iter().zip(uses.iter()) {
        let stops = stop_indices(u, &stop_inputs);
        let plan = build_plan(mesh, u, route, &stops);
        flows.insert(mesh, plan.clone());
        plans.push(plan);
    }

    // --- Presets. ---
    let mut presets = MeshPresets::idle(mesh);
    for u in &uses {
        for i in 0..u.routers.len() {
            let r = u.routers[i];
            let is_stop = stop_inputs
                .get(&r)
                .is_some_and(|s| s.contains(&u.inputs[i]));
            let p = presets.router_mut(r);
            let mux = if is_stop {
                InputMux::Buffer
            } else {
                InputMux::Bypass
            };
            let slot = &mut p.input_mux[u.inputs[i].index()];
            match slot {
                None => *slot = Some(mux),
                Some(existing) => assert_eq!(
                    *existing, mux,
                    "{}: input mux conflict at {r} {}",
                    u.flow, u.inputs[i]
                ),
            }
            let want = if is_stop {
                XbarSelect::Arbitrated
            } else {
                XbarSelect::FromInput(u.inputs[i])
            };
            let xslot = &mut p.xbar[u.outputs[i].index()];
            match xslot {
                XbarSelect::Unused => *xslot = want,
                other => assert_eq!(
                    *other, want,
                    "{}: crossbar select conflict at {r} {}",
                    u.flow, u.outputs[i]
                ),
            }
            if !is_stop {
                let cslot = &mut p.credit_xbar[u.inputs[i].index()];
                match cslot {
                    None => *cslot = Some(u.outputs[i]),
                    Some(existing) => assert_eq!(
                        *existing, u.outputs[i],
                        "{}: credit crossbar conflict at {r}",
                        u.flow
                    ),
                }
            }
        }
    }

    // --- Single-cycle link exclusivity. ---
    let mut link_owner: HashMap<LinkId, Sender> = HashMap::new();
    for plan in &plans {
        for leg in &plan.legs {
            for link in &leg.links {
                if let Some(prev) = link_owner.insert(*link, leg.sender) {
                    assert_eq!(
                        prev, leg.sender,
                        "link {link} shared across senders: preset compiler bug"
                    );
                }
            }
        }
    }

    CompiledApp { flows, presets }
}

/// Indices (into the flow's router list) where the flow stops.
fn stop_indices(u: &FlowUse, stop_inputs: &HashMap<NodeId, BTreeSet<Direction>>) -> Vec<usize> {
    (0..u.routers.len())
        .filter(|&i| {
            stop_inputs
                .get(&u.routers[i])
                .is_some_and(|s| s.contains(&u.inputs[i]))
        })
        .collect()
}

/// Build the flow plan given its stop indices.
fn build_plan(mesh: Topology, u: &FlowUse, route: &SourceRoute, stops: &[usize]) -> FlowPlan {
    let links = route.links(mesh);
    let last = u.routers.len() - 1;
    let mut legs = Vec::new();

    // Boundaries: source NIC, each stop, destination NIC.
    let mut from: Option<usize> = None; // None = source NIC
    let mut remaining: Vec<usize> = stops.to_vec();
    remaining.push(usize::MAX); // sentinel for the final leg to the NIC
    for &to in &remaining {
        let (sender, out_dir, start_link) = match from {
            None => (
                Sender::Nic(u.routers[0]),
                if to == 0 {
                    Direction::Core
                } else {
                    u.outputs[0]
                },
                0usize,
            ),
            Some(j) => (
                Sender::RouterOutput(u.routers[j], u.outputs[j]),
                u.outputs[j],
                j,
            ),
        };
        if to == usize::MAX {
            // Final leg to the destination NIC.
            let start = from.map_or(0, |j| j);
            legs.push(Segment {
                sender,
                out_dir,
                links: links[start..].to_vec(),
                end: Endpoint::Nic {
                    node: u.routers[last],
                },
                cycles: 1,
            });
            break;
        }
        legs.push(Segment {
            sender,
            out_dir,
            links: links[start_link..to].to_vec(),
            end: Endpoint::Stop {
                router: u.routers[to],
                in_dir: u.inputs[to],
            },
            cycles: 1,
        });
        from = Some(to);
    }
    FlowPlan {
        flow: u.flow,
        route: route.clone(),
        legs,
    }
}
