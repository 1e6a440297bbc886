//! End-to-end smoke test over a real TCP socket: spawn the server on an
//! ephemeral port, drive the full request vocabulary through the
//! blocking [`Client`], and hold the streamed results to the same
//! bit-exactness bar the in-process service tests use — a served matrix
//! must reproduce a direct `ExperimentMatrix` run line for line, and a
//! resubmission must come entirely from the compiled-design cache
//! without changing a byte.

use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{ExperimentMatrix, RunPlan, Workload};
use smart_server::{
    Client, PlanSpec, Request, ResponseEvent, SearchStrategy, Server, ServiceConfig, TopologySpec,
    WorkloadSpec,
};
use smart_traffic::TraceFile;

const DESIGNS: [DesignKind; 3] = [DesignKind::Mesh, DesignKind::Smart, DesignKind::Dedicated];

fn workload_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Fig7,
        WorkloadSpec::App("PIP".to_owned()),
        WorkloadSpec::Uniform {
            flows: 6,
            rate: 0.02,
            seed: 9,
        },
    ]
}

fn matrix_request(id: &str) -> Request {
    Request::Matrix {
        id: id.to_owned(),
        mesh: 4,
        topology: TopologySpec::Mesh,
        shards: 1,
        designs: DESIGNS.to_vec(),
        workloads: workload_specs(),
        plan: PlanSpec::from(RunPlan::smoke()),
    }
}

/// Cell events of one response, sorted back into matrix order, as
/// `(snapshot_line, cached)` pairs.
fn cells_of(events: &[ResponseEvent]) -> Vec<(String, bool)> {
    let mut cells: Vec<(u64, String, bool)> = events
        .iter()
        .filter_map(|e| match e {
            ResponseEvent::Cell { index, cached, .. } => {
                Some((*index, e.snapshot_line().expect("cell"), *cached))
            }
            _ => None,
        })
        .collect();
    cells.sort_by_key(|(i, _, _)| *i);
    cells
        .into_iter()
        .map(|(_, line, cached)| (line, cached))
        .collect()
}

fn done_hits(events: &[ResponseEvent]) -> u64 {
    match events.last() {
        Some(ResponseEvent::Done { cache_hits, .. }) => *cache_hits,
        other => panic!("stream did not end in a done event: {other:?}"),
    }
}

#[test]
fn served_requests_are_bit_exact_cached_and_searchable() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            threads: 2,
            cache_capacity: 32,
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // 1. A served matrix reproduces the direct serial harness run.
    let cold = client.submit(&matrix_request("cold")).expect("matrix");
    let cold_cells = cells_of(&cold);
    let reference: Vec<String> = ExperimentMatrix::new(NocConfig::paper_4x4())
        .designs(&DESIGNS)
        .workloads(vec![
            Workload::fig7(),
            Workload::app("PIP"),
            Workload::uniform(6, 0.02, 9),
        ])
        .plan(RunPlan::smoke())
        .threads(1)
        .run()
        .iter()
        .map(smart_harness::ExperimentReport::snapshot_line)
        .collect();
    assert_eq!(
        cold_cells
            .iter()
            .map(|(l, _)| l.clone())
            .collect::<Vec<_>>(),
        reference,
        "served matrix diverged from the direct run"
    );
    assert_eq!(done_hits(&cold), 0, "first submission cannot hit cache");

    // 2. Resubmitting is fully cached and does not change a byte.
    let warm = client.submit(&matrix_request("warm")).expect("matrix");
    let warm_cells = cells_of(&warm);
    assert_eq!(
        warm_cells
            .iter()
            .map(|(l, _)| l.clone())
            .collect::<Vec<_>>(),
        reference,
        "cache changed results"
    );
    assert!(
        warm_cells.iter().all(|(_, cached)| *cached),
        "every warm cell should come from the cache"
    );
    assert_eq!(done_hits(&warm), reference.len() as u64);

    // 2b. A torus matrix over the same workloads runs end-to-end,
    // matches the direct torus harness run, and never shares cache
    // entries with the mesh (its cells are all cold despite the warm
    // mesh cache).
    let torus_req = Request::Matrix {
        id: "torus".to_owned(),
        mesh: 4,
        topology: TopologySpec::Torus,
        shards: 1,
        designs: DESIGNS.to_vec(),
        workloads: workload_specs(),
        plan: PlanSpec::from(RunPlan::smoke()),
    };
    let torus = client.submit(&torus_req).expect("torus matrix");
    let torus_cells = cells_of(&torus);
    let torus_reference: Vec<String> = ExperimentMatrix::new(NocConfig::scaled_torus(4))
        .designs(&DESIGNS)
        .workloads(vec![
            Workload::fig7(),
            Workload::app("PIP"),
            Workload::uniform(6, 0.02, 9),
        ])
        .plan(RunPlan::smoke())
        .threads(1)
        .run()
        .iter()
        .map(smart_harness::ExperimentReport::snapshot_line)
        .collect();
    assert_eq!(
        torus_cells
            .iter()
            .map(|(l, _)| l.clone())
            .collect::<Vec<_>>(),
        torus_reference,
        "served torus matrix diverged from the direct run"
    );
    assert_eq!(
        done_hits(&torus),
        0,
        "the torus must not be served mesh cache entries"
    );

    // 3. A search streams one candidate per point plus a winner.
    let search = client
        .submit(&Request::Search {
            id: "search".to_owned(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            strategy: SearchStrategy::Exhaustive,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads: vec![WorkloadSpec::Fig7],
            hpc: vec![1, 8],
            plan: PlanSpec::from(RunPlan::smoke()),
        })
        .expect("search");
    let candidates: Vec<(u64, f64)> = search
        .iter()
        .filter_map(|e| match e {
            ResponseEvent::Candidate { index, score, .. } => Some((*index, *score)),
            _ => None,
        })
        .collect();
    assert_eq!(candidates.len(), 4, "2 designs x 1 workload x 2 hpc");
    let winner = search
        .iter()
        .find_map(|e| match e {
            ResponseEvent::Winner { index, score, .. } => Some((*index, *score)),
            _ => None,
        })
        .expect("winner event");
    let best = candidates
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidates");
    assert_eq!(winner, best, "winner must carry the best streamed score");

    // 4. A trace diff isolates the design change on a shared trace.
    let diff = client
        .submit(&Request::TraceDiff {
            id: "diff".to_owned(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            baseline: DesignKind::Mesh,
            candidate: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: PlanSpec::from(RunPlan::smoke()),
            trace: TraceFile {
                flits_per_packet: 8,
                events: (0..8).map(|i| (i * 40, smart_sim::FlowId(0))).collect(),
            },
        })
        .expect("trace diff");
    let (delivered_delta, latency_delta) = diff
        .iter()
        .find_map(|e| match e {
            ResponseEvent::DiffSummary {
                delivered_delta,
                latency_delta,
                ..
            } => Some((*delivered_delta, *latency_delta)),
            _ => None,
        })
        .expect("diff summary");
    assert_eq!(delivered_delta, 0, "same trace, same deliveries");
    assert!(latency_delta < 0.0, "SMART should beat the mesh");

    // 5. Stats reflect the traffic this connection generated.
    let stats = client
        .submit(&Request::Stats {
            id: "stats".to_owned(),
        })
        .expect("stats");
    let (jobs, hits) = stats
        .iter()
        .find_map(|e| match e {
            ResponseEvent::Stats {
                jobs, cache_hits, ..
            } => Some((*jobs, *cache_hits)),
            _ => None,
        })
        .expect("stats event");
    assert_eq!(jobs, 5, "matrix x2 + torus matrix + search + diff");
    assert!(hits >= reference.len() as u64, "warm matrix hit the cache");

    // 6. A malformed body poisons only its request; the connection and
    // the protocol stream stay usable.
    let events = client
        .submit(&Request::Matrix {
            id: "bad".to_owned(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: vec![DesignKind::Mesh],
            workloads: vec![WorkloadSpec::App("NO_SUCH_APP".to_owned())],
            plan: PlanSpec::from(RunPlan::smoke()),
        })
        .expect("error streams, connection survives");
    assert!(
        matches!(events.last(), Some(ResponseEvent::Error { .. })),
        "unknown app must surface as an error event: {events:?}"
    );
    let after = client.submit(&matrix_request("after")).expect("matrix");
    assert_eq!(done_hits(&after), reference.len() as u64);

    handle.shutdown().expect("shutdown handshake");
}

/// A rate is a per-cycle injection probability. One above 1 used to
/// parse, be accepted, and panic the cell worker that built its traffic;
/// it is refused with one `error` event before anything is accepted,
/// and the connection goes on serving.
#[test]
fn a_rate_above_one_is_refused_before_it_is_accepted() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut hot = matrix_request("hot");
    if let Request::Matrix { workloads, .. } = &mut hot {
        *workloads = vec![WorkloadSpec::Uniform {
            flows: 4,
            rate: 1.5,
            seed: 7,
        }];
    }
    let events = client.submit(&hot).expect("an error event, not a hang-up");
    match events.as_slice() {
        [ResponseEvent::Error { message, .. }] => {
            assert!(message.contains("outside [0, 1]"), "{message}");
        }
        other => panic!("expected exactly one error event: {other:?}"),
    }
    let after = client.submit(&matrix_request("after")).expect("matrix");
    assert_eq!(
        cells_of(&after).len(),
        DESIGNS.len() * workload_specs().len()
    );
    handle.shutdown().expect("shutdown handshake");
}

/// A Fig 7 trace diff (Mesh against SMART on the paper's 4×4) of
/// `trace`, as a client would send it.
fn fig7_trace_diff(id: &str, trace: TraceFile) -> Request {
    Request::TraceDiff {
        id: id.to_owned(),
        mesh: 4,
        topology: TopologySpec::Mesh,
        baseline: DesignKind::Mesh,
        candidate: DesignKind::Smart,
        workload: WorkloadSpec::Fig7,
        plan: PlanSpec::from(RunPlan::smoke()),
        trace,
    }
}

/// The one error event a refused trace diff ends in: it is refused
/// before it is accepted, so no `accepted`, no per-flow delta and no
/// summary come before it.
fn refusal_of(events: &[ResponseEvent]) -> &str {
    assert!(
        !events.iter().any(|e| matches!(
            e,
            ResponseEvent::Accepted { .. }
                | ResponseEvent::FlowDiff { .. }
                | ResponseEvent::DiffSummary { .. }
        )),
        "a refused trace diff is not accepted and reports no delta: {events:?}"
    );
    let errors: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            ResponseEvent::Error { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    match (errors.as_slice(), events.last()) {
        ([message], Some(ResponseEvent::Error { .. })) => message,
        _ => panic!("expected one terminal error event: {events:?}"),
    }
}

/// A trace brings its own packet length over the wire. Virtual
/// cut-through buffers a whole packet in one VC, so a length past the
/// VC depth (10 on the paper's 4×4) or of zero flits is refused with
/// one `error` naming both numbers before any cycle runs, and the
/// connection goes on serving. Run, such a packet overflows a router
/// buffer mid-run on Mesh and SMART and passes unnoticed on Dedicated.
#[test]
fn a_trace_whose_packets_overflow_a_vc_is_refused() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for flits_per_packet in [40, 0] {
        let trace = TraceFile {
            flits_per_packet,
            events: vec![(0, smart_sim::FlowId(0)), (400, smart_sim::FlowId(0))],
        };
        let events = client
            .submit(&fig7_trace_diff("long", trace))
            .expect("an error event, not a hang-up");
        assert_eq!(
            refusal_of(&events),
            format!(
                "trace flits_per_packet = {flits_per_packet}: must be in 1..=vc_depth (10): \
                 virtual cut-through buffers a whole packet in one VC"
            )
        );
    }
    assert_serving_normally(handle.addr());
    handle.shutdown().expect("shutdown handshake");
}

/// A trace that names a flow the workload does not plan ends in one
/// `error` naming the flow, with no delta reported, and the same
/// connection's next request is answered.
#[test]
fn a_trace_naming_an_unplanned_flow_is_refused() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let trace = TraceFile {
        flits_per_packet: 8,
        events: vec![(0, smart_sim::FlowId(0)), (5, smart_sim::FlowId(9))],
    };
    let events = client
        .submit(&fig7_trace_diff("stray", trace))
        .expect("an error event, not a hang-up");
    assert_eq!(refusal_of(&events), "no plan for f9");
    let stats = client
        .submit(&Request::Stats {
            id: "stats".to_owned(),
        })
        .expect("stats on the same connection");
    assert!(
        matches!(stats.first(), Some(ResponseEvent::Stats { .. })),
        "{stats:?}"
    );
    handle.shutdown().expect("shutdown handshake");
}

/// NMAP places one task per core, so VOPD's 12 tasks do not fit a 3×3
/// fabric's 9 cores. Every request kind that carries a workload is
/// refused with one `error` event naming the application, its task
/// count and the core count, before anything is placed: the cache sees
/// no miss, and the connection goes on serving.
#[test]
fn an_app_larger_than_the_fabric_is_refused_before_it_is_placed() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cache_misses = |client: &mut Client| match client
        .submit(&Request::Stats {
            id: "stats".to_owned(),
        })
        .expect("stats")
        .first()
    {
        Some(ResponseEvent::Stats { cache_misses, .. }) => *cache_misses,
        other => panic!("expected stats first: {other:?}"),
    };
    let before = cache_misses(&mut client);
    let (id, vopd, plan) = (
        "big".to_owned(),
        WorkloadSpec::App("VOPD".to_owned()),
        PlanSpec::from(RunPlan::smoke()),
    );
    let requests = [
        Request::Experiment {
            id: id.clone(),
            mesh: 3,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Smart,
            workload: vopd.clone(),
            plan,
        },
        Request::Watch {
            id: id.clone(),
            mesh: 3,
            topology: TopologySpec::Torus,
            shards: 1,
            design: DesignKind::Smart,
            workload: vopd.clone(),
            plan,
            window: 100,
        },
        Request::Matrix {
            id: id.clone(),
            mesh: 3,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: DESIGNS.to_vec(),
            // PIP (8 tasks) fits; the refusal must come before it is
            // placed and cached.
            workloads: vec![WorkloadSpec::App("PIP".to_owned()), vopd.clone()],
            plan,
        },
        Request::Schedule {
            id: id.clone(),
            mesh: 3,
            topology: TopologySpec::Mesh,
            designs: vec![smart_harness::ScheduleDesign::Smart],
            drain_budget: 50_000,
            phases: vec![(WorkloadSpec::Fig7, plan), (vopd.clone(), plan)],
        },
        Request::Search {
            id: id.clone(),
            mesh: 3,
            topology: TopologySpec::Mesh,
            strategy: SearchStrategy::Exhaustive,
            designs: vec![DesignKind::Smart],
            workloads: vec![vopd.clone()],
            hpc: vec![4],
            plan,
        },
        Request::TraceDiff {
            id,
            mesh: 3,
            topology: TopologySpec::Mesh,
            baseline: DesignKind::Mesh,
            candidate: DesignKind::Smart,
            workload: vopd,
            plan,
            trace: TraceFile {
                flits_per_packet: 8,
                events: vec![(0, smart_sim::FlowId(0))],
            },
        },
    ];
    for request in &requests {
        let events = client
            .submit(request)
            .expect("an error event, not a hang-up");
        match events.as_slice() {
            [ResponseEvent::Error { message, .. }] => assert_eq!(
                message,
                "application \"VOPD\" has 12 tasks, more than the 9 cores of the fabric",
                "{}",
                request.kind()
            ),
            other => panic!(
                "{}: expected exactly one error event: {other:?}",
                request.kind()
            ),
        }
    }
    assert_eq!(
        cache_misses(&mut client),
        before,
        "nothing was placed or cached"
    );
    assert_serving_normally(handle.addr());
    handle.shutdown().expect("shutdown handshake");
}

/// What a fresh, well-behaved connection sees after a hostile one: a
/// served request, and a job table the hostile one left nothing in.
fn assert_serving_normally(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("connect after the hostile peer");
    let served = client.submit(&matrix_request("after")).expect("matrix");
    assert_eq!(
        cells_of(&served).len(),
        DESIGNS.len() * workload_specs().len()
    );
    let stats = client
        .submit(&Request::Stats {
            id: "stats".to_owned(),
        })
        .expect("stats");
    match stats.first() {
        Some(ResponseEvent::Stats { active_jobs, .. }) => assert_eq!(*active_jobs, 0),
        other => panic!("expected stats first: {other:?}"),
    }
}

#[test]
fn a_line_that_never_ends_is_refused_not_buffered() {
    use std::io::{Read, Write};
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");

    // One byte past the cap, no newline, and the socket held open: the
    // server must answer and hang up on its own rather than wait for a
    // newline that never comes.
    let mut hostile = std::net::TcpStream::connect(handle.addr()).expect("connect");
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("set timeout");
    hostile
        .write_all(&vec![b'a'; smart_server::server::MAX_LINE_BYTES + 1])
        .expect("send the endless line");
    let mut reply = String::new();
    hostile
        .read_to_string(&mut reply)
        .expect("error event, then EOF, within the timeout");
    match ResponseEvent::parse(reply.trim_end()).expect("one event line") {
        ResponseEvent::Error { id, message } => {
            assert_eq!(id, "-");
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected an error event: {other:?}"),
    }

    assert_serving_normally(handle.addr());
    drop(hostile);
    handle.shutdown().expect("shutdown handshake");
}

#[test]
fn a_header_declaring_a_million_lines_reserves_nothing() {
    use std::io::{Read, Write};
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");

    // The largest body a header may declare, then one line of it, then
    // the peer walks away.
    let mut hostile = std::net::TcpStream::connect(handle.addr()).expect("connect");
    hostile
        .write_all(
            b"{\"schema\":\"smart-server/req-v1\",\"id\":\"big\",\"kind\":\"matrix\",\"lines\":1000000}\n\
              {\"mesh\":4}\n",
        )
        .expect("send header");
    hostile
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    hostile.read_to_string(&mut reply).expect("read to EOF");
    match ResponseEvent::parse(reply.trim_end()).expect("one event line") {
        ResponseEvent::Error { id, message } => {
            assert_eq!(id, "big");
            assert!(message.contains("closed mid-request"), "{message}");
        }
        other => panic!("expected an error event: {other:?}"),
    }

    assert_serving_normally(handle.addr());
    handle.shutdown().expect("shutdown handshake");
}

/// `shutdown` does not leave a connection being served after it
/// returns: an open, idle client is hung up on, and nothing the server
/// ran is still running.
#[test]
fn shutdown_hangs_up_on_open_connections() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let served = client.submit(&matrix_request("before")).expect("matrix");
    assert_eq!(
        cells_of(&served).len(),
        DESIGNS.len() * workload_specs().len()
    );
    handle.shutdown().expect("shutdown handshake");
    assert!(
        client.submit(&matrix_request("after")).is_err(),
        "the connection was closed by the shutdown"
    );
}
