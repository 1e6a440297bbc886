//! The TCP front end: a hand-rolled JSONL-over-TCP accept loop on
//! `std::net` (one thread per connection, no async runtime), plus the
//! matching blocking [`Client`].
//!
//! Connection threads are reused: one that finishes its connection
//! parks and serves the next one accepted by any server in the process,
//! the oldest idle thread first. Compiling and simulating allocate on
//! the connection thread, and glibc serves a thread from one heap arena
//! for its whole life, handing a new thread whichever arena a finished
//! one released last. A fresh thread per connection would leave the
//! freed cache of a stopped server resident in an arena the next
//! server's connection may or may not draw, by thread-exit order (one
//! in-process workload peaked at about 11 or about 17 MB from run to
//! run). A server stopped by a `shutdown` request closes its open
//! connections and waits for their threads to go idle, so the next
//! connection starts on the same thread and heap.
//!
//! Wire discipline per connection: the client writes request documents
//! (header line + declared body lines); the server streams response
//! event lines, ending each request with exactly one terminal event.
//! A malformed *body* poisons only its request (the declared line count
//! was still consumed, so the stream stays in sync); a malformed
//! *header* closes the connection, because nothing downstream can be
//! trusted to align with line boundaries.

use crate::protocol::{Request, RequestHeader, ResponseEvent};
use crate::service::{EventSink, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A bound (not yet running) experiment server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server accepts on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop (by submitting a `shutdown` request over
    /// a fresh connection) and wait for the accept loop to exit, which
    /// it does once every connection is closed and its thread idle.
    ///
    /// # Errors
    ///
    /// Propagates connection errors and the accept loop's exit status.
    ///
    /// # Panics
    ///
    /// Panics if the accept-loop thread itself panicked.
    pub fn shutdown(self) -> io::Result<()> {
        let mut client = Client::connect(self.addr)?;
        client.submit(&Request::Shutdown {
            id: "shutdown".to_owned(),
        })?;
        self.join.join().expect("accept loop does not panic")
    }
}

/// Writes each event as one line, flushed immediately so clients see
/// results stream in as cells finish.
struct LineSink {
    writer: Mutex<BufWriter<TcpStream>>,
}

impl EventSink for LineSink {
    fn emit(&self, event: &ResponseEvent) {
        let mut w = self.writer.lock().expect("unpoisoned writer");
        // A client that hung up mid-stream is not an error worth
        // crashing the connection thread over; drop the event.
        let _ = writeln!(w, "{}", event.to_line());
        let _ = w.flush();
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(Service::new(cfg)),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on the calling thread until a `shutdown`
    /// request arrives. Each connection is served on a pooled thread
    /// (module docs). On `shutdown`, running jobs are cancelled, open
    /// connections closed, and the loop returns once their threads are
    /// idle.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn run(self) -> io::Result<()> {
        let own_addr = self.local_addr()?;
        // Each connection not known to be finished: a handle to close
        // it by, and the receiver its thread going idle disconnects.
        let mut open: Vec<(TcpStream, Receiver<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let stream = stream?;
            // Line-at-a-time streaming: Nagle + delayed ACK would add
            // ~40 ms to every request after the first on a connection.
            let _ = stream.set_nodelay(true);
            // `serve_connection` could not clone it either.
            let Ok(handle) = stream.try_clone() else {
                continue;
            };
            open.retain(|(_, idle)| matches!(idle.try_recv(), Err(TryRecvError::Empty)));
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&self.stop);
            let idle = serve_pooled(Box::new(move || {
                let shutdown = serve_connection(&stream, &service);
                // Hang up now: the accept loop's handle keeps the socket
                // open past this thread's copies.
                let _ = stream.shutdown(Shutdown::Both);
                // Released before the flag is raised, so the service is
                // dropped by the accept loop, before `run` returns.
                drop(service);
                if shutdown {
                    stop.store(true, Ordering::Relaxed);
                    // Unblock the accept loop so it observes the flag.
                    drop(TcpStream::connect(own_addr));
                }
            }));
            open.push((handle, idle));
        }
        for (stream, _) in &open {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.service.cancel_all();
        for (_, idle) in open {
            // Disconnected (never sent to) once the thread is idle.
            let _ = idle.recv();
        }
        Ok(())
    }

    /// Run the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, join })
    }
}

/// A connection to serve, and the sender whose drop reports the thread
/// that served it idle again.
type PooledJob = (Box<dyn FnOnce() + Send>, Sender<()>);

/// Idle connection threads by spawn order, shared by every server in
/// the process; a thread parks here between connections for good.
static IDLE: Mutex<BTreeMap<usize, Sender<PooledJob>>> = Mutex::new(BTreeMap::new());

/// Connection threads spawned so far (the next one's spawn order).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Run `work` on the oldest idle connection thread, or on a new one
/// when none is idle. The returned receiver disconnects once the thread
/// that ran `work` is idle again (or has died of a panic).
fn serve_pooled(work: Box<dyn FnOnce() + Send>) -> Receiver<()> {
    let (done, idle) = mpsc::channel();
    let mut job = (work, done);
    let oldest = IDLE.lock().expect("unpoisoned pool").pop_first();
    if let Some((_, thread)) = oldest {
        match thread.send(job) {
            Ok(()) => return idle,
            Err(mpsc::SendError(returned)) => job = returned,
        }
    }
    let order = SPAWNED.fetch_add(1, Ordering::Relaxed);
    std::thread::spawn(move || {
        let (thread, jobs) = mpsc::channel();
        let mut job: PooledJob = job;
        loop {
            let (work, done) = job;
            work();
            IDLE.lock()
                .expect("unpoisoned pool")
                .insert(order, thread.clone());
            drop(done);
            job = jobs.recv().expect("the thread holds a sender");
        }
    });
    idle
}

/// Longest request line the server reads, newline included. A `matrix`
/// body line naming every application on every design is under 1 KiB;
/// the cap only has to stop a line that never ends from holding memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How [`read_line_capped`] left the stream.
enum LineRead {
    /// A whole line (or the unterminated tail before EOF) was appended.
    Line,
    /// The stream ended before any byte of a line.
    Eof,
    /// [`MAX_LINE_BYTES`] arrived without a newline.
    TooLong,
}

/// Append the next line of `reader` (through its newline) to `buf`,
/// reading no more than [`MAX_LINE_BYTES`] of it.
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    let start = buf.len();
    let read = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    Ok(if read == 0 {
        LineRead::Eof
    } else if read > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        buf.truncate(start);
        LineRead::TooLong
    } else {
        LineRead::Line
    })
}

/// Serve one connection to completion. Returns `true` when a shutdown
/// request was handled.
fn serve_connection(stream: &TcpStream, service: &Service) -> bool {
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    let Ok(write_half) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let sink = LineSink {
        writer: Mutex::new(BufWriter::new(write_half)),
    };
    // Ends a request with its terminal error event. The `false` is for
    // the arms that must also close the connection (the stream can no
    // longer be trusted to align with line boundaries) to `return`.
    let error = |id: &str, message: String| {
        sink.emit(&ResponseEvent::Error {
            id: id.to_owned(),
            message,
        });
        false
    };
    let too_long = || format!("request line exceeds {MAX_LINE_BYTES} bytes");
    // Both buffers live as long as the connection: a request costs no
    // allocation per line, and memory follows the bytes that actually
    // arrived, never the line count a header declared.
    let mut line = Vec::new();
    let mut body = Vec::new();
    loop {
        line.clear();
        match read_line_capped(&mut reader, &mut line) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => return error("-", too_long()),
            Ok(LineRead::Eof) | Err(_) => return false,
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return false;
        };
        if text.trim().is_empty() {
            continue;
        }
        let header = match RequestHeader::parse(text.trim_end()) {
            Ok(h) => h,
            // With no trusted line count the stream cannot resync.
            Err(err) => return error("-", err.to_string()),
        };
        body.clear();
        for _ in 0..header.lines {
            match read_line_capped(&mut reader, &mut body) {
                Ok(LineRead::Line) => {}
                Ok(LineRead::TooLong) => return error(&header.id, too_long()),
                Ok(LineRead::Eof) | Err(_) => {
                    let closed = "connection closed mid-request".to_owned();
                    return error(&header.id, closed);
                }
            }
        }
        let Ok(body_text) = std::str::from_utf8(&body) else {
            return false;
        };
        // `lines()` would drop a blank trailing line; split on the
        // newlines the reads appended so the count stays the header's.
        let body_lines: Vec<&str> = body_text.split_inclusive('\n').map(str::trim_end).collect();
        match Request::from_lines(&header, &body_lines) {
            Ok(request) => {
                // The declared body was consumed, so a handler panic
                // (or error) poisons only this request.
                match catch_unwind(AssertUnwindSafe(|| service.handle(&request, &sink))) {
                    Ok(false) => {}
                    Ok(true) => return true,
                    Err(panic) => {
                        let message = panic
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "request handler panicked".to_owned());
                        error(&header.id, message);
                    }
                }
            }
            // The declared body was consumed too, so a malformed one
            // poisons only its request.
            Err(err) => {
                error(&header.id, err.to_string());
            }
        }
    }
}

/// A blocking client for the JSONL protocol: submit a request, collect
/// the streamed events through the terminal one.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // See the server side: request documents must not sit in
        // Nagle's buffer behind an unacknowledged previous exchange.
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Submit one request and read events until the terminal one
    /// (inclusive). Returns every event in stream order.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure, an unparseable response
    /// line, or a stream that ends without a terminal event.
    pub fn submit(&mut self, request: &Request) -> io::Result<Vec<ResponseEvent>> {
        let stream = self.reader.get_mut();
        stream.write_all(request.to_jsonl().as_bytes())?;
        stream.flush()?;
        let mut events = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the stream before a terminal event",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            let event = ResponseEvent::parse(line.trim_end())
                .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
            let terminal = event.is_terminal();
            events.push(event);
            if terminal {
                return Ok(events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Run `work` on the pool and wait until its thread is idle again.
    fn on_pool(work: impl FnOnce() + Send + 'static) {
        let _ = serve_pooled(Box::new(work)).recv();
    }

    fn thread_of(work: impl FnOnce() + Send + 'static) -> ThreadId {
        let (tx, rx) = mpsc::channel();
        on_pool(move || {
            work();
            tx.send(std::thread::current().id())
                .expect("receiver alive");
        });
        rx.recv().expect("the job ran")
    }

    /// The only test in this binary that touches the process-wide pool,
    /// so no other connection competes for its idle threads.
    #[test]
    fn an_idle_connection_thread_is_reused_and_a_busy_one_is_not() {
        let first = thread_of(|| {});
        assert_eq!(thread_of(|| {}), first, "the idle thread took the next job");

        let (release, blocked) = mpsc::channel::<()>();
        let (started, running) = mpsc::channel();
        let busy = serve_pooled(Box::new(move || {
            started
                .send(std::thread::current().id())
                .expect("test alive");
            let _ = blocked.recv();
        }));
        let busy_thread = running.recv().expect("the blocking job started");
        assert_eq!(busy_thread, first);
        let other = thread_of(|| {});
        assert_ne!(other, busy_thread, "a busy thread takes no job");
        drop(release);
        let _ = busy.recv();
        assert_eq!(thread_of(|| {}), first, "the oldest idle thread goes first");

        // A job that panics takes its thread down, still reports, and
        // the next idle thread takes over.
        on_pool(|| panic!("job panics"));
        assert_eq!(thread_of(|| {}), other);
    }
}
