//! The load generator: seeded arrival schedules, an open loop (one sender
//! thread sleeping to absolute due times, one receiver blocking on replies)
//! and a closed loop with a fixed window, each against a gateway socket or an
//! in-process `RouterClient`. Every reply wait is bounded.

use crate::models::{bitwise_eq, with_id, Pool};
use crate::server::MAX_FRAME;
use quadra_gateway::{decode_frame, Frame};
use quadra_serve::{InferResponse, Request, ResponseHandle, RouterClient, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest a receiver blocks in `read` before re-checking reply bounds.
const POLL: Duration = Duration::from_millis(5);
/// `sent_ns` of a request that never left the client.
pub const UNSENT: u64 = u64::MAX;

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    /// Reply bitwise equal to the direct forward.
    Ok,
    /// Reply with different output bits.
    Wrong,
    /// Backpressure frame: shed by admission.
    Shed,
    /// Typed error frame.
    Error,
    /// No reply within the bound.
    Missed,
}

impl Outcome {
    const CODES: [(Outcome, char); 6] = [
        (Outcome::Pending, 'p'),
        (Outcome::Ok, 'o'),
        (Outcome::Wrong, 'w'),
        (Outcome::Shed, 's'),
        (Outcome::Error, 'e'),
        (Outcome::Missed, 'm'),
    ];

    fn code(self) -> char {
        Self::CODES.iter().find(|(o, _)| *o == self).map_or('?', |(_, c)| *c)
    }

    fn from_code(code: char) -> Option<Outcome> {
        Self::CODES.iter().find(|(_, c)| *c == code).map(|(o, _)| *o)
    }
}

/// One request's timestamps (ns from the phase start) and reply fields.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub outcome: Outcome,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub latency_us: u32,
    pub queue_wait_us: u32,
    pub batch: u32,
}

impl Record {
    /// One line of text carrying every field, for passing between processes.
    pub fn to_line(self) -> String {
        let Record { outcome, due_ns, sent_ns, done_ns, latency_us, queue_wait_us, batch } = self;
        format!("{} {due_ns} {sent_ns} {done_ns} {latency_us} {queue_wait_us} {batch}", outcome.code())
    }

    /// Parse what [`Record::to_line`] wrote.
    pub fn from_line(line: &str) -> Option<Record> {
        let mut f = line.split_whitespace();
        let outcome = Outcome::from_code(f.next()?.chars().next()?)?;
        let mut num = || f.next()?.parse::<u64>().ok();
        let (due_ns, sent_ns, done_ns) = (num()?, num()?, num()?);
        let mut small = || u32::try_from(num()?).ok();
        let (latency_us, queue_wait_us, batch) = (small()?, small()?, small()?);
        Some(Record { outcome, due_ns, sent_ns, done_ns, latency_us, queue_wait_us, batch })
    }
}

/// Per-request accounting. Records are kept in due order, so bounds expire
/// front to back.
#[derive(Debug, Default)]
pub struct Ledger {
    pub rec: Vec<Record>,
    expired_to: usize,
    open: usize,
}

/// Reply fields a settled request keeps: engine latency, queue wait, batch.
pub type Fields = (u32, u32, u32);

impl Ledger {
    /// A ledger of settled records, e.g. read back from another process.
    pub fn from_records(rec: Vec<Record>) -> Ledger {
        let open = rec.iter().filter(|r| r.outcome == Outcome::Pending).count();
        Ledger { rec, expired_to: 0, open }
    }

    /// Add a request due at `due_ns` and return its index.
    pub fn push(&mut self, due_ns: u64) -> usize {
        self.rec.push(Record {
            outcome: Outcome::Pending,
            due_ns,
            sent_ns: UNSENT,
            done_ns: 0,
            latency_us: 0,
            queue_wait_us: 0,
            batch: 0,
        });
        self.open += 1;
        self.rec.len() - 1
    }

    /// Settle request `i`. Returns false (and changes nothing) when it is
    /// unknown or already settled, e.g. a reply that arrives past its bound.
    pub fn settle(&mut self, i: usize, outcome: Outcome, done_ns: u64, fields: Fields) -> bool {
        match self.rec.get_mut(i) {
            Some(r) if r.outcome == Outcome::Pending => {
                (r.latency_us, r.queue_wait_us, r.batch) = fields;
                r.outcome = outcome;
                r.done_ns = done_ns;
                self.open -= 1;
                true
            }
            _ => false,
        }
    }

    /// Mark every pending request due at least `bound_ns` before `now_ns`
    /// as missed; returns how many were.
    pub fn expire(&mut self, now_ns: u64, bound_ns: u64) -> usize {
        let mut missed = 0;
        while let Some(r) = self.rec.get(self.expired_to) {
            if r.due_ns.saturating_add(bound_ns) > now_ns {
                break;
            }
            if r.outcome == Outcome::Pending {
                missed += usize::from(self.settle(self.expired_to, Outcome::Missed, now_ns, (0, 0, 0)));
            }
            self.expired_to += 1;
        }
        missed
    }

    /// Mark every pending request missed.
    pub fn abandon(&mut self, now_ns: u64) {
        for i in 0..self.rec.len() {
            self.settle(i, Outcome::Missed, now_ns, (0, 0, 0));
        }
    }

    /// Requests not yet settled.
    pub fn open(&self) -> usize {
        self.open
    }

    pub fn count(&self, outcome: Outcome) -> usize {
        self.rec.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Requests that did not end in a correct reply.
    pub fn failed(&self) -> usize {
        self.rec.len() - self.count(Outcome::Ok)
    }
}

/// Seeded Poisson arrivals: due offsets (ns from the phase start) and the
/// pool entry each request sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub due_ns: Vec<u64>,
    pub pick: Vec<usize>,
}

/// Arrivals at mean `rate` per second for `duration`, from `seed`.
pub fn poisson(seed: u64, rate: f64, duration: Duration, pool: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_secs_f64();
    let (mut t, mut due_ns, mut pick) = (0.0f64, Vec::new(), Vec::new());
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return Schedule { due_ns, pick };
        }
        due_ns.push((t * 1e9) as u64);
        pick.push(rng.gen_range(0..pool));
    }
}

/// Largest share of the light-phase median latency the generator's p99 send
/// lateness may reach before the run is invalid: beyond it, the figures
/// measure the client more than the server.
pub const MAX_LATENESS_SHARE: f64 = 0.5;

/// Whether a run's generator kept to its schedule.
pub fn generator_valid(lateness_p99_ms: f64, light_p50_ms: f64) -> bool {
    lateness_p99_ms <= MAX_LATENESS_SHARE * light_p50_ms
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Decode every complete frame in `buf` and judge each reply against the
/// pool. `pick(id)` maps a correlation id to its ledger index and pool entry.
fn drain_frames(
    buf: &mut Vec<u8>,
    pool: &Pool,
    pick: impl Fn(u64) -> Option<(usize, usize)>,
    mut on_reply: impl FnMut(usize, Outcome, Fields),
) -> io::Result<()> {
    let mut used = 0;
    loop {
        let decoded = decode_frame(&buf[used..], MAX_FRAME).map_err(|e| io::Error::other(format!("{e}")))?;
        let Some((frame, len)) = decoded else { break };
        used += len;
        let (id, outcome, fields) = match frame {
            Frame::Response(r) => {
                let Some((_, entry)) = pick(r.correlation_id) else { continue };
                let ok = bitwise_eq(&r.output, &pool.expected[entry]);
                let outcome = if ok { Outcome::Ok } else { Outcome::Wrong };
                (r.correlation_id, outcome, (r.latency_us, r.queue_wait_us, r.batch_samples))
            }
            Frame::Backpressure(b) => (b.correlation_id, Outcome::Shed, (0, 0, 0)),
            Frame::Error(e) => (e.correlation_id, Outcome::Error, (0, 0, 0)),
            Frame::GoAway | Frame::Request(_) => continue,
        };
        if let Some((index, _)) = pick(id) {
            on_reply(index, outcome, fields);
        }
    }
    buf.drain(..used);
    Ok(())
}

/// One blocking read (at most [`POLL`]); false once the peer has closed.
fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>, chunk: &mut [u8]) -> io::Result<bool> {
    match stream.read(chunk) {
        Ok(0) => Ok(false),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(true)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(true)
        }
        Err(e) => Err(e),
    }
}

fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        std::thread::sleep(t - now);
    }
}

/// Run `sched` open loop against `addr`. Request `i` carries correlation id
/// `i`; each is timed from its due time, and one without a reply `bound`
/// after its due time is missed.
pub fn open_loop(addr: SocketAddr, pool: &Pool, sched: &Schedule, bound: Duration) -> io::Result<Ledger> {
    let n = sched.due_ns.len();
    let mut ledger = Ledger::default();
    for &due in &sched.due_ns {
        ledger.push(due);
    }
    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    reader.set_read_timeout(Some(POLL))?;
    let mut writer = reader.try_clone()?;
    writer.set_write_timeout(Some(bound))?;
    let sent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(UNSENT)).collect();
    let stop = AtomicBool::new(false);
    let bound_ns = ns(bound);
    // A short lead so the sender is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(2);

    let sender_result = std::thread::scope(|s| -> io::Result<io::Result<()>> {
        let sender = s.spawn(|| -> io::Result<()> {
            let mut frame = Vec::new();
            // `sent` is read only after the scope joins this thread.
            for (i, slot) in sent.iter().enumerate() {
                sleep_until(start + Duration::from_nanos(sched.due_ns[i]));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                with_id(&pool.frames[sched.pick[i]], i as u64, &mut frame);
                slot.store(ns(start.elapsed()), Ordering::Relaxed);
                writer.write_all(&frame)?;
            }
            Ok(())
        });
        let pick = |id: u64| (id < n as u64).then(|| (id as usize, sched.pick[id as usize]));
        let (mut buf, mut chunk) = (Vec::with_capacity(1 << 16), vec![0u8; 1 << 16]);
        let mut open = true;
        while ledger.open() > 0 {
            if open {
                open = read_some(&mut reader, &mut buf, &mut chunk)?;
            } else {
                std::thread::sleep(POLL);
            }
            let now = ns(start.elapsed());
            drain_frames(&mut buf, pool, pick, |i, outcome, fields| {
                ledger.settle(i, outcome, now, fields);
            })?;
            ledger.expire(now, bound_ns);
        }
        stop.store(true, Ordering::Relaxed);
        Ok(sender.join().unwrap_or_else(|_| Err(io::Error::other("sender panicked"))))
    })?;
    for (r, s) in ledger.rec.iter_mut().zip(&sent) {
        r.sent_ns = s.load(Ordering::Relaxed);
    }
    // A sender cut short by a broken connection shows up as missed replies.
    if let Err(e) = sender_result {
        eprintln!("perfbench: sender stopped early: {e}");
    }
    Ok(ledger)
}

/// Outcome of a closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub ledger: Ledger,
    /// Correct replies completed within the phase window.
    pub completed_in_window: usize,
    /// Through a gateway: times no reply arrived for a whole bound with
    /// requests in flight. In process: replies missed.
    pub stall_events: usize,
}

/// Keep `window` requests in flight for `duration`, drawing pool entries
/// from `seed`. When no reply arrives within `bound` of the oldest in-flight
/// request, or the server closes the connection, every in-flight request is
/// missed and `reconnect` is called to replace the server before the loop
/// continues.
pub fn closed_loop(
    mut reconnect: impl FnMut(bool) -> io::Result<SocketAddr>,
    pool: &Pool,
    seed: u64,
    window: usize,
    duration: Duration,
    bound: Duration,
) -> io::Result<ClosedLoop> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = ClosedLoop::default();
    let mut picks: Vec<usize> = Vec::new();
    let (end_ns, bound_ns) = (ns(duration), ns(bound));
    let (mut buf, mut chunk, mut frame) = (Vec::with_capacity(1 << 16), vec![0u8; 1 << 16], Vec::new());
    let connect = |addr: SocketAddr| -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(bound))?;
        Ok(stream)
    };
    let mut stream = connect(reconnect(false)?)?;
    let start = Instant::now();
    let mut send = |stream: &mut TcpStream, ledger: &mut Ledger, picks: &mut Vec<usize>| -> io::Result<()> {
        let now = ns(start.elapsed());
        let i = ledger.push(now);
        let entry = rng.gen_range(0..pool.frames.len());
        picks.push(entry);
        ledger.rec[i].sent_ns = now;
        with_id(&pool.frames[entry], i as u64, &mut frame);
        stream.write_all(&frame)
    };
    for _ in 0..window {
        send(&mut stream, &mut result.ledger, &mut picks)?;
    }
    while result.ledger.open() > 0 {
        let open = read_some(&mut stream, &mut buf, &mut chunk)?;
        let now = ns(start.elapsed());
        let mut settled = 0;
        let ledger = &mut result.ledger;
        let pick = |id: u64| picks.get(id as usize).map(|&e| (id as usize, e));
        drain_frames(&mut buf, pool, pick, |i, outcome, fields| {
            if ledger.settle(i, outcome, now, fields) {
                settled += 1;
                if outcome == Outcome::Ok && now <= end_ns {
                    result.completed_in_window += 1;
                }
            }
        })?;
        if ledger.expire(now, bound_ns) > 0 || !open {
            // The server stopped answering or hung up: write the in-flight
            // requests off and continue on a fresh server.
            ledger.abandon(now);
            result.stall_events += 1;
            buf.clear();
            stream = connect(reconnect(true)?)?;
            settled = window;
        }
        if now < end_ns {
            for _ in 0..settled {
                send(&mut stream, &mut result.ledger, &mut picks)?;
            }
        }
    }
    Ok(result)
}

/// Settle request `i` of an in-process phase from the client's reply.
/// The engine times a request from its submission, so a reply was ready at
/// `sent_ns + latency`; a correct reply ready only past the bound is missed.
fn settle_in_process(
    ledger: &mut Ledger,
    i: usize,
    now_ns: u64,
    bound_ns: u64,
    reply: Result<InferResponse, ServeError>,
    expected: &[u32],
) -> Outcome {
    let (sent_ns, due_ns) = (ledger.rec[i].sent_ns, ledger.rec[i].due_ns);
    let us = |d: Duration| u32::try_from(d.as_micros()).unwrap_or(u32::MAX);
    let (outcome, done_ns, fields) = match reply {
        Ok(r) => {
            let done_ns = sent_ns + ns(r.latency);
            let outcome = if !bitwise_eq(&r.output, expected) {
                Outcome::Wrong
            } else if done_ns > due_ns.saturating_add(bound_ns) {
                Outcome::Missed
            } else {
                Outcome::Ok
            };
            let batch = u32::try_from(r.batch_samples).unwrap_or(u32::MAX);
            (outcome, done_ns, (us(r.latency), us(r.queue_wait), batch))
        }
        Err(ServeError::Timeout) => (Outcome::Missed, now_ns, (0, 0, 0)),
        Err(ServeError::Overloaded { .. }) => (Outcome::Shed, now_ns, (0, 0, 0)),
        Err(_) => (Outcome::Error, now_ns, (0, 0, 0)),
    };
    ledger.settle(i, outcome, done_ns, fields);
    outcome
}

/// Run `sched` open loop against `model` through an in-process client: one
/// sender thread sleeps to each due time and submits, this thread waits for
/// the replies in order. Timing and bounds are as in [`open_loop`].
pub fn open_loop_in_process(
    client: &RouterClient,
    model: &str,
    pool: &Pool,
    sched: &Schedule,
    bound: Duration,
) -> Ledger {
    let mut ledger = Ledger::default();
    for &due in &sched.due_ns {
        ledger.push(due);
    }
    let bound_ns = ns(bound);
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(usize, u64, Result<ResponseHandle, ServeError>)>();
    let sender_client = client.clone();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, (&due, &entry)) in sched.due_ns.iter().zip(&sched.pick).enumerate() {
                sleep_until(start + Duration::from_nanos(due));
                let request = Request::new(pool.inputs[entry].clone());
                let sent_ns = ns(start.elapsed());
                if tx.send((i, sent_ns, sender_client.send(model, request))).is_err() {
                    return;
                }
            }
        });
        for (i, sent_ns, handle) in rx {
            ledger.rec[i].sent_ns = sent_ns;
            let deadline = start + Duration::from_nanos(sched.due_ns[i] + bound_ns);
            let reply =
                handle.and_then(|mut h| h.wait_timeout(deadline.saturating_duration_since(Instant::now())));
            let expected = &pool.expected[sched.pick[i]];
            settle_in_process(&mut ledger, i, ns(start.elapsed()), bound_ns, reply, expected);
        }
    });
    ledger
}

/// Keep `window` requests in flight against `model` through an in-process
/// client for `duration`, drawing pool entries from `seed`. Replies are
/// awaited oldest first, each at most until its bound; a missed one is
/// written off and its slot refilled.
pub fn closed_loop_in_process(
    client: &RouterClient,
    model: &str,
    pool: &Pool,
    seed: u64,
    window: usize,
    duration: Duration,
    bound: Duration,
) -> ClosedLoop {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = ClosedLoop::default();
    let mut picks: Vec<usize> = Vec::new();
    let (end_ns, bound_ns) = (ns(duration), ns(bound));
    let mut in_flight: VecDeque<(usize, ResponseHandle)> = VecDeque::with_capacity(window);
    let start = Instant::now();
    loop {
        while in_flight.len() < window {
            let now = ns(start.elapsed());
            if now >= end_ns {
                break;
            }
            let i = result.ledger.push(now);
            let entry = rng.gen_range(0..pool.inputs.len());
            picks.push(entry);
            result.ledger.rec[i].sent_ns = now;
            match client.send(model, Request::new(pool.inputs[entry].clone())) {
                Ok(handle) => in_flight.push_back((i, handle)),
                Err(e) => {
                    settle_in_process(&mut result.ledger, i, now, bound_ns, Err(e), &pool.expected[entry]);
                    break;
                }
            }
        }
        let Some((i, mut handle)) = in_flight.pop_front() else { break };
        let deadline = start + Duration::from_nanos(result.ledger.rec[i].due_ns + bound_ns);
        let reply = handle.wait_timeout(deadline.saturating_duration_since(Instant::now()));
        let now = ns(start.elapsed());
        match settle_in_process(&mut result.ledger, i, now, bound_ns, reply, &pool.expected[picks[i]]) {
            Outcome::Ok if result.ledger.rec[i].done_ns <= end_ns => result.completed_in_window += 1,
            Outcome::Missed => result.stall_events += 1,
            _ => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let a = poisson(7, 500.0, Duration::from_secs(2), 64);
        assert_eq!(a, poisson(7, 500.0, Duration::from_secs(2), 64));
        assert_ne!(a, poisson(8, 500.0, Duration::from_secs(2), 64));
        // Mean rate within 10% of the asked one, due times ascending.
        assert!((900..=1100).contains(&a.due_ns.len()), "{} arrivals", a.due_ns.len());
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.pick.iter().all(|&p| p < 64));
    }

    #[test]
    fn a_late_generator_invalidates_the_run() {
        assert!(generator_valid(0.10, 0.33));
        assert!(generator_valid(0.165, 0.33));
        assert!(!generator_valid(0.17, 0.33));
        assert!(!generator_valid(2.0, 3.6));
        assert!(!generator_valid(f64::NAN, 3.6));
    }

    #[test]
    fn a_missing_reply_is_counted_as_failed() {
        let mut ledger = Ledger::default();
        for due in [0, 1_000, 2_000] {
            ledger.push(due);
        }
        assert!(ledger.settle(0, Outcome::Ok, 500, (1, 0, 1)));
        assert!(ledger.settle(2, Outcome::Ok, 2_500, (1, 0, 1)));
        // Request 1 never answers: nothing expires before its bound ...
        assert_eq!(ledger.expire(10_999, 10_000), 0);
        assert_eq!(ledger.open(), 1);
        // ... and it is missed, hence failed, once the bound has passed.
        assert_eq!(ledger.expire(11_000, 10_000), 1);
        assert_eq!(ledger.open(), 0);
        assert_eq!(ledger.count(Outcome::Missed), 1);
        assert_eq!(ledger.failed(), 1);
        // A reply arriving after the bound changes nothing.
        assert!(!ledger.settle(1, Outcome::Ok, 12_000, (1, 0, 1)));
        assert_eq!(ledger.failed(), 1);
    }

    #[test]
    fn open_loop_counts_a_dropped_request_as_missed() {
        use crate::models::{pool, Served};
        use quadra_gateway::{encode_frame, ResponseFrame};
        let pool = pool(Served::Mlp, 1);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sched = poisson(3, 2000.0, Duration::from_millis(20), pool.frames.len());
        let n = sched.due_ns.len();
        let expected: Vec<Vec<u32>> = sched.pick.iter().map(|&e| pool.expected[e].clone()).collect();
        // A fake gateway that answers every request correctly except id 2.
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut buf, mut chunk, mut seen) = (Vec::new(), [0u8; 4096], 0);
            while seen < n {
                let k = s.read(&mut chunk).unwrap();
                buf.extend_from_slice(&chunk[..k]);
                while let Some((Frame::Request(r), used)) = decode_frame(&buf, MAX_FRAME).unwrap() {
                    buf.drain(..used);
                    seen += 1;
                    if r.correlation_id == 2 {
                        continue;
                    }
                    let bits = &expected[r.correlation_id as usize];
                    let output = quadra_tensor::Tensor::from_vec(
                        bits.iter().map(|b| f32::from_bits(*b)).collect(),
                        &[1, bits.len()],
                    )
                    .unwrap();
                    let reply = Frame::Response(ResponseFrame {
                        correlation_id: r.correlation_id,
                        batch_id: 0,
                        model_version: 0,
                        batch_samples: 1,
                        queue_wait_us: 0,
                        latency_us: 1,
                        tag: None,
                        output,
                    });
                    let mut out = Vec::new();
                    encode_frame(&reply, &mut out).unwrap();
                    s.write_all(&out).unwrap();
                }
            }
            // Hold the connection open until the client gives up on id 2.
            let _ = s.read(&mut chunk);
        });
        let ledger = open_loop(addr, &pool, &sched, Duration::from_millis(50)).unwrap();
        fake.join().unwrap();
        assert!(n > 10);
        assert_eq!(ledger.count(Outcome::Ok), n - 1);
        assert_eq!(ledger.rec[2].outcome, Outcome::Missed);
        assert_eq!(ledger.failed(), 1);
        assert!(ledger.rec.iter().all(|r| r.sent_ns != UNSENT));
    }
}
