//! The closed-loop client side of the server workloads: one connection
//! to an in-process `smart_server::Server`, the next request sent only
//! when the previous reply is complete.

use crate::check::Tally;
use crate::spans::Tracer;
use crate::workloads::{CellSpec, Inputs};
use smart_server::{Client, Request, ResponseEvent, Server, ServerHandle, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Threads the service fans one request out over: every core, as the
/// daemon's default does. Client and connection thread make two; a
/// single-cell request occupies one worker at a time.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

/// What one request returned, reduced to what checks and metrics use.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The cell in `snapshot_line` form.
    pub digest: String,
    pub cycles: u64,
    pub cached: bool,
}

/// One pass's measurements.
#[derive(Debug, Clone, Default)]
pub struct ServerPass {
    pub wall_s: f64,
    /// Client-observed latency of each request, timed from send.
    pub latency_ms: Vec<f64>,
    /// One entry per request, `None` where the request failed.
    pub served: Vec<Option<Served>>,
}

impl ServerPass {
    pub fn cycles(&self) -> u64 {
        self.served.iter().flatten().map(|s| s.cycles).sum()
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.served.iter().flatten().filter(|s| s.cached).count();
        hits as f64 / self.served.len() as f64
    }
}

/// The one cell of a finished request's event stream, if the stream is
/// the well-formed `accepted, cell, done` an experiment request yields.
fn served(events: &[ResponseEvent]) -> Option<Served> {
    let mut cells = events.iter().filter_map(|e| match e {
        ResponseEvent::Cell { cycles, cached, .. } => Some(Served {
            digest: e.snapshot_line()?,
            cycles: *cycles,
            cached: *cached,
        }),
        _ => None,
    });
    let cell = cells.next()?;
    let done = matches!(events.last(), Some(ResponseEvent::Done { cells: 1, .. }));
    (done && cells.next().is_none()).then_some(cell)
}

/// A running in-process server with one client connected.
pub struct Session {
    handle: ServerHandle,
    client: Client,
}

impl Session {
    /// Bind an ephemeral local port, start accepting, connect.
    ///
    /// # Panics
    ///
    /// Panics when the loopback socket cannot be set up at all: nothing
    /// can be measured then.
    pub fn start() -> Session {
        let server = Server::bind("127.0.0.1:0", service_config()).expect("bind loopback");
        let handle = server.spawn().expect("spawn accept loop");
        let client = Client::connect(handle.addr()).expect("connect to own server");
        Session { handle, client }
    }

    /// Send the pass's requests one after another, untraced.
    pub fn pass(&mut self, requests: &[Request]) -> ServerPass {
        let mut out = ServerPass::default();
        let start = Instant::now();
        for request in requests {
            let sent = Instant::now();
            let reply = self.client.submit(request);
            out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            out.served.push(reply.ok().as_deref().and_then(served));
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }

    /// Stop the server and wait for its accept loop to end.
    pub fn stop(self) {
        drop(self.client);
        if let Err(err) = self.handle.shutdown() {
            eprintln!("perfbench: server shutdown: {err}");
        }
    }
}

/// `Client::submit` taken apart over a second connection, a span around
/// each stage the client can see. The self time of `server.exchange` is
/// the wait for the reply: everything the server does, plus the socket
/// both ways.
pub struct TracedClient {
    reader: BufReader<TcpStream>,
}

impl TracedClient {
    pub fn connect(session: &Session) -> std::io::Result<TracedClient> {
        let stream = TcpStream::connect(session.handle.addr())?;
        stream.set_nodelay(true)?;
        Ok(TracedClient {
            reader: BufReader::new(stream),
        })
    }

    fn exchange(
        &mut self,
        t: &mut Tracer,
        request: &Request,
    ) -> std::io::Result<Vec<ResponseEvent>> {
        let document = t.time("server.render_req", || request.to_jsonl());
        let wait = t.open("server.exchange");
        let result = self.stream_reply(t, &document);
        t.close(wait);
        result
    }

    fn stream_reply(
        &mut self,
        t: &mut Tracer,
        document: &str,
    ) -> std::io::Result<Vec<ResponseEvent>> {
        let stream = self.reader.get_mut();
        stream.write_all(document.as_bytes())?;
        stream.flush()?;
        let mut events = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let event = t
                .time("server.parse_event", || {
                    ResponseEvent::parse(line.trim_end())
                })
                .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidData, m))?;
            let terminal = event.is_terminal();
            events.push(event);
            if terminal {
                return Ok(events);
            }
        }
    }

    /// One traced pass; spans nest `server.pass > server.request > stage`. The
    /// spans carry the timing, so the returned pass holds replies only.
    pub fn pass(&mut self, t: &mut Tracer, requests: &[Request]) -> ServerPass {
        let mut out = ServerPass::default();
        let pass = t.open("server.pass");
        for request in requests {
            let span = t.open("server.request");
            let reply = self.exchange(t, request);
            t.close(span);
            out.served.push(reply.ok().as_deref().and_then(served));
        }
        t.close(pass);
        out
    }
}

/// The requests of pass `pass`, ids unique within the pass.
pub fn requests(inputs: &Inputs, pass: usize) -> (Vec<CellSpec>, Vec<Request>) {
    let cells = inputs.cells(pass);
    let requests = (0..inputs.ops_per_pass())
        .map(|i| cells[i % cells.len()].request(&format!("p{pass}-{i}")))
        .collect();
    (cells, requests)
}

/// Count a pass's requests: failed when no well-formed reply came, or
/// (where the direct result is already known) when the served cell
/// differs from it.
pub fn count_pass(tally: &mut Tally, pass: &ServerPass, direct: Option<&[String]>) {
    for (i, served) in pass.served.iter().enumerate() {
        let expected = direct.map(|d| &d[i % d.len()]);
        let ok = served
            .as_ref()
            .is_some_and(|s| expected.is_none_or(|e| *e == s.digest));
        tally.record(ok, || {
            format!(
                "request {i}: served {:?}, direct run gives {expected:?}",
                served.as_ref().map(|s| &s.digest)
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(index: u64) -> ResponseEvent {
        ResponseEvent::Cell {
            index,
            design: "SMART".to_owned(),
            workload: "w".to_owned(),
            injected: 3,
            delivered: 3,
            flits: 24,
            latency: 1.5,
            measured: 3,
            cycles: 4_000,
            cached: true,
        }
    }

    fn done(cells: u64) -> ResponseEvent {
        ResponseEvent::Done {
            id: "x".to_owned(),
            cells,
            cache_hits: 1,
        }
    }

    #[test]
    fn only_a_well_formed_single_cell_reply_counts_as_served() {
        let good = served(&[cell(0), done(1)]).expect("served");
        assert_eq!(good.digest, cell(0).snapshot_line().expect("cell"));
        assert_eq!((good.cycles, good.cached), (4_000, true));
        let error = ResponseEvent::Error {
            id: "x".to_owned(),
            message: "boom".to_owned(),
        };
        assert_eq!(served(&[cell(0), error]), None);
        assert_eq!(served(&[done(0)]), None);
        assert_eq!(served(&[cell(0), cell(1), done(2)]), None);
        assert_eq!(served(&[cell(0)]), None);
    }

    #[test]
    fn a_reply_that_differs_from_the_direct_run_is_a_failed_request() {
        let good = served(&[cell(0), done(1)]);
        let pass = ServerPass {
            served: vec![good.clone(), None, good.clone()],
            ..ServerPass::default()
        };
        let right = good.expect("served").digest;
        let mut tally = Tally::default();
        count_pass(&mut tally, &pass, None);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        let mut tally = Tally::default();
        count_pass(
            &mut tally,
            &pass,
            Some(&[right, "something else".to_owned()]),
        );
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        let mut tally = Tally::default();
        count_pass(&mut tally, &pass, Some(&["something else".to_owned()]));
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }
}
