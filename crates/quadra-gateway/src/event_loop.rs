//! The event loop: one thread multiplexing every connection.
//!
//! Single-threaded readiness dispatch over the [`Poller`](crate::sys): the
//! listener, the pump's waker fd, and every connection socket are registered
//! under integer tokens; each wait returns the ready set and the loop
//! reads/writes until `WouldBlock`. Inference never runs here — requests are
//! forwarded to [`RouterClient::send`] (a bounded-queue handoff) and
//! completions come back through the
//! [`CompletionPump`](crate::pump::CompletionPump)'s waker, so the loop's
//! per-event work is bounded by codec throughput.
//!
//! ## Backpressure
//!
//! Two mechanisms compose:
//! * **Shed signalling**: a request shed with [`ServeError::Overloaded`] is
//!   answered with a backpressure frame carrying the engine's `retry_after`
//!   estimate — the client's cue to slow its open loop.
//! * **Read pausing**: once a connection's outbound buffer crosses
//!   [`GatewayConfig::write_high_water`], the loop drops the socket's
//!   readable interest (on epoll: `EPOLLIN` unregistered). The client's
//!   submissions then pile up in kernel buffers and eventually block its own
//!   writes — flow control without gateway memory growth. Reads resume at
//!   [`GatewayConfig::write_low_water`]; the gap is flap hysteresis.
//!
//! ## Graceful drain
//!
//! On shutdown the loop (1) deregisters the listener, (2) broadcasts GoAway,
//! (3) answers any further requests with [`ServeError::ShuttingDown`] error
//! frames while continuing to flush in-flight responses, and (4) exits once
//! nothing is outstanding and every outbound buffer is empty — or the
//! [`GatewayConfig::drain_timeout`] expires. Only after the loop exits may
//! [`Router::shutdown`](quadra_serve::Router::shutdown) run; see
//! [`Gateway::shutdown`](crate::Gateway::shutdown) for the ordering
//! contract.

use crate::config::GatewayConfig;
use crate::conn::{ConnError, Connection};
use crate::frame::{error_frame, BackpressureFrame, ErrorFrame, Frame, ResponseFrame, PROTOCOL_ERROR_CODE};
use crate::pump::CompletionPump;
use crate::sys::{self, Event, Poller, Waker};
use quadra_serve::{Request, RouterClient, ServeError};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll cadence while draining: short, so the quiesce condition is
/// re-checked promptly even with no socket activity.
const DRAIN_TICK: Duration = Duration::from_millis(2);

/// One multiplexed connection and its registration state.
struct Conn {
    link: Connection<std::net::TcpStream>,
    fd: i32,
    /// Interests currently registered with the poller (avoids a syscall per
    /// event when nothing changed).
    interest_r: bool,
    interest_w: bool,
    /// Reads paused by the write-buffer high-water mark.
    reads_paused: bool,
    /// Peer sent EOF; no further requests will arrive.
    read_closed: bool,
    /// Requests forwarded to the engine whose completions have not yet been
    /// written back to this connection.
    open_requests: usize,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.reads_paused && !self.read_closed
    }

    /// A connection is done when the peer stopped sending, nothing is in
    /// flight for it, and its outbound buffer is flushed.
    fn finished(&self) -> bool {
        self.read_closed && self.open_requests == 0 && !self.link.wants_write()
    }
}

/// Run the loop until `stop` is observed and the drain completes. Called on
/// the dedicated `gateway-loop` thread; returns only on fatal poller errors
/// or clean shutdown.
pub(crate) fn run(
    cfg: GatewayConfig,
    listener: TcpListener,
    mut poller: Poller,
    client: RouterClient,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
) -> io::Result<()> {
    let pump = CompletionPump::start(Arc::clone(&waker));
    let lfd = sys::listener_fd(&listener);
    poller.register(lfd, TOKEN_LISTENER, true, false)?;
    poller.register(waker.read_fd(), TOKEN_WAKER, true, false)?;

    let mut conns: HashMap<u64, Conn> = HashMap::with_capacity(64);
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::with_capacity(256);
    let mut draining = false;
    let mut listener_registered = true;
    let mut drain_deadline = Instant::now();

    loop {
        events.clear();
        let timeout = if draining { Some(DRAIN_TICK) } else { None };
        poller.wait(timeout, &mut events)?;

        for i in 0..events.len() {
            let Some(ev) = events.get(i).copied() else { break };
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&cfg, &listener, &mut poller, &mut conns, &mut next_token, draining);
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let keep = match conns.get_mut(&token) {
                        Some(conn) => {
                            on_conn_event(&cfg, &mut poller, &pump, &client, conn, token, ev, draining)
                        }
                        None => true, // already closed this sweep
                    };
                    if !keep {
                        close_conn(&mut poller, &mut conns, token);
                    }
                }
            }
        }

        deliver_completions(&cfg, &mut poller, &pump, &mut conns);

        if stop.load(Ordering::Acquire) && !draining {
            draining = true;
            drain_deadline = Instant::now() + cfg.drain_timeout;
            if listener_registered {
                let _ = poller.deregister(lfd);
                listener_registered = false;
            }
            broadcast_goaway(&cfg, &mut poller, &mut conns);
            refuse_unread_requests(&cfg, &mut poller, &pump, &client, &mut conns);
        }
        if draining {
            // Read the count before delivering: the pump publishes a
            // completion before it leaves the count, so once the count is
            // zero this delivery sees every completion. Checking the count
            // after the delivery above instead could exit with completions
            // published in between and never written.
            let settled = pump.outstanding() == 0;
            deliver_completions(&cfg, &mut poller, &pump, &mut conns);
            let quiesced = settled && conns.values().all(|c| !c.link.wants_write());
            if quiesced || Instant::now() >= drain_deadline {
                break;
            }
        }
    }

    for (_, conn) in conns.drain() {
        let _ = poller.deregister(conn.fd);
    }
    if listener_registered {
        let _ = poller.deregister(lfd);
    }
    pump.shutdown();
    Ok(())
}

/// Accept until the listener would block. Connections above the cap (or
/// arriving mid-drain) are closed immediately by dropping the stream.
fn accept_ready(
    cfg: &GatewayConfig,
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    draining: bool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if draining || conns.len() >= cfg.max_connections {
                    continue; // dropping the stream closes it
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Latency over throughput: frames are already coalesced.
                let _ = stream.set_nodelay(true);
                let fd = sys::stream_fd(&stream);
                let token = *next_token;
                *next_token += 1;
                if poller.register(fd, token, true, false).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        link: Connection::new(stream, cfg.max_frame_bytes),
                        fd,
                        interest_r: true,
                        interest_w: false,
                        reads_paused: false,
                        read_closed: false,
                        open_requests: 0,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // transient accept failure; the next event retries
        }
    }
}

/// Handle one readiness event for a connection. Returns `false` when the
/// connection must be torn down.
#[allow(clippy::too_many_arguments)]
fn on_conn_event(
    cfg: &GatewayConfig,
    poller: &mut Poller,
    pump: &CompletionPump,
    client: &RouterClient,
    conn: &mut Conn,
    token: u64,
    ev: Event,
    draining: bool,
) -> bool {
    if ev.readable {
        match conn.link.on_readable() {
            Ok(outcome) => {
                if outcome.eof {
                    conn.read_closed = true;
                }
                for frame in outcome.frames {
                    if !handle_frame(pump, client, conn, token, frame, draining) {
                        // Protocol violation: the reply frame is already
                        // queued; push it out best-effort and close.
                        let _ = conn.link.on_writable();
                        return false;
                    }
                }
            }
            Err(ConnError::Protocol(violation)) => {
                send_protocol_error(conn, violation);
                return false;
            }
            Err(ConnError::Io(_)) => return false,
        }
    }
    if ev.writable && conn.link.on_writable().is_err() {
        return false;
    }
    if ev.closed && !ev.readable {
        return false;
    }
    if conn.finished() {
        return false;
    }
    update_watermark(cfg, conn);
    sync_interest(poller, conn, token);
    true
}

/// Dispatch one decoded frame. Returns `false` on protocol violations
/// (clients may only send requests).
fn handle_frame(
    pump: &CompletionPump,
    client: &RouterClient,
    conn: &mut Conn,
    token: u64,
    frame: Frame,
    draining: bool,
) -> bool {
    let rf = match frame {
        Frame::Request(rf) => rf,
        _ => {
            send_protocol_error(conn, crate::frame::FrameError::UnknownKind(0));
            return false;
        }
    };
    if draining {
        let reply = Frame::Error(error_frame(rf.correlation_id, &ServeError::ShuttingDown));
        let _ = conn.link.queue_frame(&reply);
        return true;
    }
    let mut req = Request::new(rf.input).priority(rf.priority);
    if rf.deadline_ms > 0 {
        req = req.deadline(Duration::from_millis(u64::from(rf.deadline_ms)));
    }
    if let Some(tag) = rf.tag {
        req = req.tag(tag);
    }
    match client.send(&rf.model, req) {
        Ok(handle) => {
            conn.open_requests += 1;
            pump.submit(token, rf.correlation_id, handle);
        }
        Err(ServeError::Overloaded { retry_after }) => {
            let reply = Frame::Backpressure(BackpressureFrame {
                correlation_id: rf.correlation_id,
                retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            });
            let _ = conn.link.queue_frame(&reply);
        }
        Err(err) => {
            let reply = Frame::Error(error_frame(rf.correlation_id, &err));
            let _ = conn.link.queue_frame(&reply);
        }
    }
    true
}

/// Queue a connection-level protocol-error frame and push it best-effort:
/// the caller closes the connection immediately after, so this is the last
/// thing the peer hears.
fn send_protocol_error(conn: &mut Conn, violation: crate::frame::FrameError) {
    let reply = Frame::Error(ErrorFrame {
        correlation_id: 0,
        code: PROTOCOL_ERROR_CODE,
        retry_after_ms: 0,
        // quadra-analyze: allow(hot_alloc:to-string, teardown path: runs once per misbehaving connection, never on served traffic)
        message: violation.to_string(),
    });
    let _ = conn.link.queue_frame(&reply);
    let _ = conn.link.on_writable();
}

/// Write settled completions back to their connections.
fn deliver_completions(
    cfg: &GatewayConfig,
    poller: &mut Poller,
    pump: &CompletionPump,
    conns: &mut HashMap<u64, Conn>,
) {
    let completions = pump.take_completions();
    if completions.is_empty() {
        return;
    }
    let mut dead: Vec<u64> = Vec::with_capacity(2);
    for completion in completions {
        let Some(conn) = conns.get_mut(&completion.token) else {
            continue; // connection closed while the request was in flight
        };
        conn.open_requests = conn.open_requests.saturating_sub(1);
        let reply = match completion.result {
            Ok(resp) => Frame::Response(ResponseFrame {
                correlation_id: completion.correlation_id,
                batch_id: resp.batch_id,
                model_version: resp.model_version,
                batch_samples: resp.batch_samples.min(u32::MAX as usize) as u32,
                queue_wait_us: resp.queue_wait.as_micros().min(u128::from(u32::MAX)) as u32,
                latency_us: resp.latency.as_micros().min(u128::from(u32::MAX)) as u32,
                tag: resp.tag,
                output: resp.output,
            }),
            Err(ServeError::Overloaded { retry_after }) => Frame::Backpressure(BackpressureFrame {
                correlation_id: completion.correlation_id,
                retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            }),
            Err(err) => Frame::Error(error_frame(completion.correlation_id, &err)),
        };
        let queued = conn.link.queue_frame(&reply).is_ok();
        let flushed = conn.link.on_writable().is_ok();
        if !queued || !flushed || conn.finished() {
            dead.push(completion.token);
            continue;
        }
        update_watermark(cfg, conn);
        sync_interest(poller, conn, completion.token);
    }
    for token in dead {
        close_conn(poller, conns, token);
    }
}

/// Tell every connection the gateway is draining.
fn broadcast_goaway(cfg: &GatewayConfig, poller: &mut Poller, conns: &mut HashMap<u64, Conn>) {
    let mut dead: Vec<u64> = Vec::with_capacity(2);
    for (token, conn) in conns.iter_mut() {
        let queued = conn.link.queue_frame(&Frame::GoAway).is_ok();
        let flushed = conn.link.on_writable().is_ok();
        if !queued || !flushed {
            dead.push(*token);
            continue;
        }
        update_watermark(cfg, conn);
        sync_interest(poller, conn, *token);
    }
    for token in dead {
        close_conn(poller, conns, token);
    }
}

/// Read every connection once as the drain begins. A request sent before
/// the stop signal may still sit unread in its socket's receive buffer when
/// the loop sees the signal; without this sweep the loop could find nothing
/// outstanding and exit at once, closing the connection with the request
/// unanswered. Read now, each such request is refused with a `ShuttingDown`
/// error frame.
fn refuse_unread_requests(
    cfg: &GatewayConfig,
    poller: &mut Poller,
    pump: &CompletionPump,
    client: &RouterClient,
    conns: &mut HashMap<u64, Conn>,
) {
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        let ev = Event { token, readable: true, writable: false, closed: false };
        let keep = match conns.get_mut(&token) {
            Some(conn) if conn.wants_read() => {
                on_conn_event(cfg, poller, pump, client, conn, token, ev, true)
            }
            _ => true,
        };
        if !keep {
            close_conn(poller, conns, token);
        }
    }
}

/// Flip the read-pause state across the configured watermarks.
fn update_watermark(cfg: &GatewayConfig, conn: &mut Conn) {
    let backlog = conn.link.pending_out();
    if !conn.reads_paused && backlog >= cfg.write_high_water {
        conn.reads_paused = true;
    } else if conn.reads_paused && backlog <= cfg.write_low_water {
        conn.reads_paused = false;
    }
}

/// Re-register the connection's poller interests if they changed.
fn sync_interest(poller: &mut Poller, conn: &mut Conn, token: u64) {
    let want_r = conn.wants_read();
    let want_w = conn.link.wants_write();
    let changed = want_r != conn.interest_r || want_w != conn.interest_w;
    if changed && poller.modify(conn.fd, token, want_r, want_w).is_ok() {
        conn.interest_r = want_r;
        conn.interest_w = want_w;
    }
}

/// Deregister and drop a connection (dropping the stream closes the fd).
fn close_conn(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.fd);
    }
}
