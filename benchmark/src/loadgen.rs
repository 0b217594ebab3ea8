//! The load generator: the calling thread, two connections, one poller.
//!
//! It spawns nothing. Requests are pre-encoded templates with a fresh
//! request id patched in, written through nonblocking sockets and matched
//! to responses by id. A closed loop keeps a fixed number of requests in
//! flight; an open loop sends on a schedule and times every request from
//! the instant it was *due*, so the wait a stall imposes on the requests
//! behind it is counted (no coordinated omission), and how late the
//! generator itself ran is reported separately.

use crate::spec::{CONNECTIONS, LOST_AFTER_S};
use hybriddnn_net::{Event, Interest, Poller, Token};
use hybriddnn_server::protocol::{StreamDecoder, MAX_PAYLOAD};
use hybriddnn_server::Frame;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Offset of the request id in the 32-byte wire header.
const REQ_ID_OFF: usize = 8;

/// How a phase issues requests.
pub enum Plan<'a> {
    /// Keep `window` requests in flight until `stop`.
    Closed { window: usize, stop: Stop },
    /// Send request `i` at `due_ns[i]` after the phase start, holding
    /// back (but still timing from the due time) while `cap` are in
    /// flight.
    Open { due_ns: &'a [u64], cap: usize },
}

pub enum Stop {
    After(Duration),
    Count(u64),
}

/// One answered request.
pub struct Completion {
    /// Position in the phase's issue order; selects the template.
    pub seq: u64,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// What the phase's frame check said about the response.
    pub ok: bool,
}

/// What a phase leaves behind besides its completions.
pub struct Outcome {
    pub issued: u64,
    /// Due times of requests never answered (connection lost, or no
    /// response within [`LOST_AFTER_S`]).
    pub lost_due: Vec<Instant>,
}

struct Pending {
    seq: u64,
    due: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
}

impl Conn {
    /// Writes as much queued output as the socket accepts.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }
}

pub struct LoadGen {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<Event>,
    pending: HashMap<u64, Pending>,
    /// Wire request ids, unique over the generator's life.
    next_id: u64,
}

impl LoadGen {
    /// Opens the generator's [`CONNECTIONS`] connections to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<LoadGen> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for i in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), Token(i), Interest::READABLE)?;
            conns.push(Conn {
                stream,
                decoder: StreamDecoder::new(MAX_PAYLOAD),
                out: Vec::new(),
                out_pos: 0,
                want_write: false,
            });
        }
        Ok(LoadGen {
            poller,
            conns,
            events: Vec::new(),
            pending: HashMap::new(),
            next_id: 1,
        })
    }

    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs one phase starting at `origin` (open-loop due times count
    /// from it). Request `seq` is `templates[seq % len]`; `check` sees
    /// every response frame after its arrival was stamped, and `done`
    /// receives every completion.
    ///
    /// # Errors
    /// A socket failure; the requests then in flight are in `lost_due`
    /// only if the phase could still end normally.
    pub fn drive(
        &mut self,
        origin: Instant,
        templates: &[Vec<u8>],
        plan: &Plan<'_>,
        check: &mut dyn FnMut(u64, &Frame) -> bool,
        done: &mut dyn FnMut(Completion),
    ) -> io::Result<Outcome> {
        let lost_after = Duration::from_secs_f64(LOST_AFTER_S);
        let mut seq = 0u64;
        let mut last_issue = origin;
        loop {
            // Issue whatever the plan allows right now.
            let mut now = Instant::now();
            let finished = loop {
                let due = match plan {
                    Plan::Closed { window, stop } => {
                        let stopped = match stop {
                            Stop::After(d) => now - origin >= *d,
                            Stop::Count(n) => seq >= *n,
                        };
                        if stopped {
                            break true;
                        }
                        if self.pending.len() >= *window {
                            break false;
                        }
                        now
                    }
                    Plan::Open { due_ns, cap } => {
                        let Some(&ns) = due_ns.get(seq as usize) else {
                            break true;
                        };
                        let due = origin + Duration::from_nanos(ns);
                        if due > now || self.pending.len() >= *cap {
                            break false;
                        }
                        due
                    }
                };
                let template = &templates[seq as usize % templates.len()];
                let id = self.next_id;
                self.next_id += 1;
                let conn = &mut self.conns[seq as usize % CONNECTIONS];
                let at = conn.out.len();
                conn.out.extend_from_slice(template);
                conn.out[at + REQ_ID_OFF..at + REQ_ID_OFF + 8].copy_from_slice(&id.to_le_bytes());
                let sent = Instant::now();
                conn.flush()?;
                self.pending.insert(id, Pending { seq, due, sent });
                seq += 1;
                last_issue = sent;
                now = sent;
            };
            if finished && self.pending.is_empty() {
                break;
            }
            if finished && last_issue.elapsed() > lost_after {
                break;
            }

            for (i, conn) in self.conns.iter_mut().enumerate() {
                let want_write = !conn.out.is_empty();
                if want_write != conn.want_write {
                    let interest = Interest {
                        readable: true,
                        writable: want_write,
                    };
                    self.poller
                        .reregister(conn.stream.as_raw_fd(), Token(i), interest)?;
                    conn.want_write = want_write;
                }
            }

            // The poller sleeps in milliseconds (a fraction would round
            // up): sleep the whole milliseconds before the next due time
            // and poll without blocking for the last fraction of one. The
            // less the generator spins, the less the scheduler holds a
            // busy thread against it on a two-core host.
            let timeout = match plan {
                Plan::Open { due_ns, cap } if !finished && self.pending.len() < *cap => {
                    let due = origin + Duration::from_nanos(due_ns[seq as usize]);
                    let gap = due.saturating_duration_since(Instant::now());
                    Duration::from_millis(gap.as_millis() as u64)
                }
                _ => Duration::from_millis(100),
            };
            self.poller.wait(&mut self.events, Some(timeout))?;

            for ev in &self.events {
                let conn = &mut self.conns[ev.token.0];
                if ev.writable {
                    conn.flush()?;
                }
                if !(ev.readable || ev.closed) {
                    continue;
                }
                loop {
                    match conn.decoder.read_from(&mut conn.stream) {
                        Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                while let Some(frame) = conn
                    .decoder
                    .next_frame()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                {
                    let arrived = Instant::now();
                    // A response nobody asked for is a failure of its own.
                    let Some(p) = self.pending.remove(&frame.request_id) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("response to unknown request id {}", frame.request_id),
                        ));
                    };
                    let ok = check(p.seq, &frame);
                    done(Completion {
                        seq: p.seq,
                        due: p.due,
                        sent: p.sent,
                        done: arrived,
                        ok,
                    });
                }
            }
        }
        let lost_due = self.pending.drain().map(|(_, p)| p.due).collect();
        Ok(Outcome {
            issued: seq,
            lost_due,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use hybriddnn_server::Body;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A blocking PING echo server, a thread per connection, that goes
    /// silent for `stall` once, `stall_after` after its first frame.
    struct Stub {
        addr: SocketAddr,
        accepted: Arc<AtomicUsize>,
    }

    fn stub(stall_after: Duration, stall: Duration) -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        let first: Arc<std::sync::OnceLock<Instant>> = Arc::default();
        // The acceptor and its connection threads end when the test's
        // sockets close and the process exits; they hold no state.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                count.fetch_add(1, Ordering::SeqCst);
                let first = Arc::clone(&first);
                std::thread::spawn(move || {
                    let mut decoder = StreamDecoder::new(MAX_PAYLOAD);
                    let mut buf = [0u8; 4096];
                    let mut stalled = false;
                    loop {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => decoder.extend(&buf[..n]),
                        }
                        while let Ok(Some(frame)) = decoder.next_frame() {
                            let t0 = *first.get_or_init(Instant::now);
                            if !stalled && !stall.is_zero() && t0.elapsed() >= stall_after {
                                std::thread::sleep(stall);
                                stalled = true;
                            }
                            let Body::Ping { payload } = frame.body else {
                                return;
                            };
                            let reply = Frame::new(frame.request_id, Body::Pong { payload });
                            if stream.write_all(&reply.encode()).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
        });
        Stub { addr, accepted }
    }

    fn ping_templates() -> Vec<Vec<u8>> {
        vec![Frame::new(
            0,
            Body::Ping {
                payload: vec![7; 16],
            },
        )
        .encode()]
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        // 1 000 req/s for 0.4 s, one request in flight at a time, against
        // a server that stalls 50 ms starting 100 ms in. The stalled
        // request delays everything scheduled behind it; timed from the
        // due time those requests carry the stall, timed from the send
        // they would not — that difference is coordinated omission.
        let stall = Duration::from_millis(50);
        let stub = stub(Duration::from_millis(100), stall);
        let mut gen = LoadGen::connect(stub.addr).unwrap();
        let due_ns: Vec<u64> = (0..400u64).map(|i| i * 1_000_000).collect();
        let mut from_due = Vec::new();
        let mut from_sent = Vec::new();
        let out = gen
            .drive(
                Instant::now(),
                &ping_templates(),
                &Plan::Open {
                    due_ns: &due_ns,
                    cap: 1,
                },
                &mut |_, frame| matches!(frame.body, Body::Pong { .. }),
                &mut |c| {
                    assert!(c.ok);
                    from_due.push((c.done - c.due).as_secs_f64() * 1e3);
                    from_sent.push((c.done - c.sent).as_secs_f64() * 1e3);
                },
            )
            .unwrap();
        assert_eq!(out.issued, 400);
        assert!(out.lost_due.is_empty());
        assert_eq!(from_due.len(), 400);
        // About 50 requests fell due during the stall; each waited for
        // what was left of it.
        let delayed = from_due.iter().filter(|&&ms| ms >= 10.0).count();
        assert!(delayed >= 30, "only {delayed} requests carry the stall");
        let hidden = from_sent.iter().filter(|&&ms| ms >= 10.0).count();
        assert!(hidden <= 2, "{hidden} sends saw the stall themselves");
        stats::sort(&mut from_due);
        assert!(stats::quantile(&from_due, 0.99) >= 40.0);
    }

    #[test]
    fn one_thread_two_connections() {
        let stub = stub(Duration::ZERO, Duration::ZERO);
        let mut gen = LoadGen::connect(stub.addr).unwrap();
        assert_eq!(gen.connections(), CONNECTIONS);
        let caller = std::thread::current().id();
        let mut answered = 0u64;
        let out = gen
            .drive(
                Instant::now(),
                &ping_templates(),
                &Plan::Closed {
                    window: 8,
                    stop: Stop::Count(500),
                },
                &mut |_, _| std::thread::current().id() == caller,
                &mut |c| {
                    assert!(c.ok, "a callback ran off the calling thread");
                    answered += 1;
                },
            )
            .unwrap();
        assert_eq!((out.issued, answered), (500, 500));
        assert_eq!(stub.accepted.load(Ordering::SeqCst), CONNECTIONS);
    }

    #[test]
    fn closed_loop_stops_after_its_duration_and_answers_everything() {
        let stub = stub(Duration::ZERO, Duration::ZERO);
        let mut gen = LoadGen::connect(stub.addr).unwrap();
        let mut answered = 0u64;
        let t0 = Instant::now();
        let out = gen
            .drive(
                Instant::now(),
                &ping_templates(),
                &Plan::Closed {
                    window: 4,
                    stop: Stop::After(Duration::from_millis(200)),
                },
                &mut |_, _| true,
                &mut |_| answered += 1,
            )
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(200));
        assert!(out.issued > 0 && out.issued == answered);
        assert!(out.lost_due.is_empty());
    }
}
