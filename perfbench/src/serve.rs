//! The serve workloads: light and heavy open loops and closed-loop capacity
//! rounds, each against a fresh process. `serve-*` drive `Router` in process;
//! `gateway-*` send the same load through a `Gateway` server process.

use crate::inproc::{self, Load, Phase};
use crate::layers;
use crate::loadgen::{self, ClosedLoop, Ledger, Outcome, UNSENT};
use crate::models::{self, Pool, Served};
use crate::report::Metrics;
use crate::server::Server;
use crate::stats::{median, Summary};
use crate::trace::Recorder;
use crate::Run;
use std::io;
use std::time::Duration;

/// How requests reach the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `RouterClient` calls inside the serving process.
    InProcess,
    /// Request frames over one TCP connection to a `Gateway` server process.
    Gateway,
}

/// A serve workload's fixed load settings.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub model: Served,
    pub via: Via,
    /// Offered rate of the light open-loop phase.
    pub light_rps: f64,
    /// Offered rate of the heavy open-loop phase.
    pub heavy_rps: f64,
    /// Requests in flight in the closed-loop capacity phase.
    pub window: usize,
    /// A reply later than this after its due time is missed.
    pub bound: Duration,
    /// Heavy-phase latency limit of `heavy_slo_ratio`.
    pub slo: Duration,
}

pub const QRESNET: ServeSpec = ServeSpec {
    model: Served::QResNet,
    via: Via::InProcess,
    light_rps: 100.0,
    heavy_rps: 250.0,
    window: 64,
    bound: Duration::from_secs(1),
    slo: Duration::from_millis(50),
};

pub const MLP: ServeSpec = ServeSpec {
    model: Served::Mlp,
    via: Via::InProcess,
    light_rps: 2_000.0,
    heavy_rps: 10_000.0,
    window: 64,
    bound: Duration::from_millis(100),
    slo: Duration::from_millis(5),
};

impl ServeSpec {
    /// The workload's name.
    pub fn name(&self) -> String {
        let via = match self.via {
            Via::InProcess => "serve",
            Via::Gateway => "gateway",
        };
        format!("{via}-{}", self.model.endpoint())
    }
}

pub const GATEWAY_QRESNET: ServeSpec = ServeSpec { via: Via::Gateway, ..QRESNET };

pub const GATEWAY_MLP: ServeSpec = ServeSpec { via: Via::Gateway, ..MLP };

/// Share of `--seconds` given to the light, heavy and capacity phases.
pub const PHASE_SHARE: [f64; 3] = [0.3, 0.4, 0.3];
/// Server starts timed only for set-up, on top of one per phase and round.
const EXTRA_SETUPS: usize = 6;
/// Rounds of the closed-loop capacity phase.
const CAPACITY_ROUNDS: usize = 5;
/// Most requests per phase or round written to the trace file.
const TRACED_PER_PHASE: usize = 2_000;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latency from due time to decoded reply, correct replies only.
fn latencies_ms(l: &Ledger) -> Vec<f64> {
    l.rec.iter().filter(|r| r.outcome == Outcome::Ok).map(|r| ms(r.done_ns - r.due_ns)).collect()
}

/// Client RTT from the actual send minus the engine's own latency.
fn overhead_ms(l: &Ledger) -> Vec<f64> {
    let ok = l.rec.iter().filter(|r| r.outcome == Outcome::Ok && r.sent_ns != UNSENT);
    ok.map(|r| ms(r.done_ns.saturating_sub(r.sent_ns)) - r.latency_us as f64 / 1e3).collect()
}

fn lateness_ms(l: &Ledger) -> Vec<f64> {
    l.rec.iter().filter(|r| r.sent_ns != UNSENT).map(|r| ms(r.sent_ns.saturating_sub(r.due_ns))).collect()
}

/// Request spans: the request (due → reply) with children for send
/// lateness, the gateway when there is one (in and out, its overhead split
/// evenly), queue wait and execution.
fn trace_requests(rec: &mut Recorder, phase: u64, l: &Ledger, via: Via) {
    let ok: Vec<usize> = (0..l.rec.len())
        .filter(|&i| i % 2 == 0 && l.rec[i].outcome == Outcome::Ok && l.rec[i].sent_ns != UNSENT)
        .collect();
    let stride = ok.len().div_ceil(TRACED_PER_PHASE).max(1);
    for &i in ok.iter().step_by(stride) {
        let r = l.rec[i];
        let trace = phase << 32 | i as u64;
        let root = rec.push(trace, None, "request", r.due_ns, r.done_ns);
        let engine = r.latency_us as u64 * 1_000;
        let half = (r.done_ns - r.sent_ns).saturating_sub(engine) / 2;
        let queue = (r.queue_wait_us as u64 * 1_000).min(engine);
        let mut t = r.sent_ns;
        rec.push(trace, Some(root), "loadgen.lateness", r.due_ns, r.sent_ns);
        if via == Via::Gateway {
            rec.push(trace, Some(root), "gateway.in", t, t + half);
            t += half;
        }
        for (name, len) in [("serve.queue_wait", queue), ("serve.exec", engine - queue)] {
            rec.push(trace, Some(root), name, t, t + len);
            t += len;
        }
        if via == Via::Gateway {
            rec.push(trace, Some(root), "gateway.out", t, r.done_ns.max(t));
        }
    }
}

/// What the phases of one serve run measured.
#[derive(Default)]
struct Phases {
    light: Ledger,
    heavy: Ledger,
    /// Each closed-loop round.
    rounds: Vec<ClosedLoop>,
    /// CPU and wall seconds of every timed set-up.
    setups: Vec<(f64, f64)>,
    /// Peak resident set of each process that ran a phase, MiB.
    rss: Vec<f64>,
    /// CPU seconds of the processes that ran each phase.
    phase_cpu_s: [f64; 3],
    /// Gateway servers replaced after a stall.
    restarts: usize,
    /// Gateway drains that did not finish in time.
    hung: usize,
}

impl Phases {
    /// Record a gateway server's peak memory and CPU time, then drain it, or
    /// kill it when it has stopped answering.
    fn retire(&mut self, mut server: Server, phase: Option<usize>, answering: bool) -> io::Result<()> {
        let (cpu_s, rss) = server.stats()?;
        if let Some(k) = phase {
            self.rss.push(rss);
            self.phase_cpu_s[k] += cpu_s;
        }
        if answering {
            self.hung += usize::from(!server.stop());
        }
        Ok(())
    }
}

/// Seed of phase `k`'s arrivals (closed-loop round `r` is phase `2 + r`).
fn phase_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(31).wrapping_add(k as u64)
}

/// Run the phases with each in a fresh process of its own that serves in
/// process.
fn in_process_phases(spec: &ServeSpec, seed: u64, phase: impl Fn(usize) -> Duration) -> io::Result<Phases> {
    let mut p = Phases::default();
    let round_len = phase(2) / CAPACITY_ROUNDS as u32;
    let process = |load, load_seed, duration| {
        inproc::run(&Phase {
            model: spec.model,
            pool_seed: seed,
            load,
            load_seed,
            duration,
            bound: spec.bound,
        })
    };
    for _ in 0..EXTRA_SETUPS {
        let out = process(Load::Setup, 0, Duration::ZERO)?;
        p.setups.push((out.setup_cpu_s, out.setup_wall_s));
        p.rss.push(out.rss_mib);
    }
    let mut phases =
        vec![(0, Load::Open(spec.light_rps), phase(0)), (1, Load::Open(spec.heavy_rps), phase(1))];
    phases.extend((0..CAPACITY_ROUNDS).map(|r| (2 + r, Load::Closed(spec.window), round_len)));
    for (k, load, duration) in phases {
        let out = process(load, phase_seed(seed, k), duration)?;
        p.setups.push((out.setup_cpu_s, out.setup_wall_s));
        // A closed-loop process keeps one record per reply, so its peak
        // follows its throughput; the open loops send a fixed schedule.
        if k < 2 {
            p.rss.push(out.rss_mib);
        }
        p.phase_cpu_s[k.min(2)] += out.cpu_s;
        match k {
            0 => p.light = out.run.ledger,
            1 => p.heavy = out.run.ledger,
            _ => p.rounds.push(out.run),
        }
    }
    Ok(p)
}

/// Run the phases through a gateway, each against a fresh server process.
fn gateway_phases(
    spec: &ServeSpec,
    seed: u64,
    pool: &Pool,
    phase: impl Fn(usize) -> Duration,
) -> io::Result<Phases> {
    let mut p = Phases::default();
    let round_len = phase(2) / CAPACITY_ROUNDS as u32;
    for _ in 0..EXTRA_SETUPS {
        let server = Server::start(spec.model, pool)?;
        p.setups.push((server.setup_cpu_s, server.setup.as_secs_f64()));
        p.retire(server, None, true)?;
    }
    for (k, rate) in [(0, spec.light_rps), (1, spec.heavy_rps)] {
        let sched = loadgen::poisson(phase_seed(seed, k), rate, phase(k), pool.frames.len());
        let server = Server::start(spec.model, pool)?;
        p.setups.push((server.setup_cpu_s, server.setup.as_secs_f64()));
        let ledger = loadgen::open_loop(server.addr, pool, &sched, spec.bound)?;
        p.retire(server, Some(k), true)?;
        if k == 0 {
            p.light = ledger;
        } else {
            p.heavy = ledger;
        }
    }

    // The closed loop runs in rounds, each against a fresh server, and
    // reports medians: a single server's batching and thread placement swing
    // its throughput and its CPU per reply from run to run.
    for r in 0..CAPACITY_ROUNDS {
        let mut server: Option<Server> = None;
        let round = loadgen::closed_loop(
            |restart| {
                if let Some(stuck) = server.take() {
                    p.retire(stuck, Some(2), false)?;
                }
                p.restarts += usize::from(restart);
                let fresh = Server::start(spec.model, pool)?;
                if !restart {
                    p.setups.push((fresh.setup_cpu_s, fresh.setup.as_secs_f64()));
                }
                let addr = fresh.addr;
                server = Some(fresh);
                Ok(addr)
            },
            pool,
            phase_seed(seed, 2 + r),
            spec.window,
            round_len,
            spec.bound,
        )?;
        if let Some(last) = server.take() {
            p.retire(last, Some(2), true)?;
        }
        p.rounds.push(round);
    }
    Ok(p)
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> io::Result<Run> {
    let phase = |k: usize| Duration::from_secs_f64(seconds * PHASE_SHARE[k]);
    let round_len = phase(2) / CAPACITY_ROUNDS as u32;
    let Phases { light, heavy, rounds, setups, rss, phase_cpu_s, restarts, hung } = match spec.via {
        Via::InProcess => in_process_phases(spec, seed, phase)?,
        Via::Gateway => gateway_phases(spec, seed, &models::pool(spec.model, seed), phase)?,
    };
    let mut rec = Recorder::default();

    let mut phases = vec![&light, &heavy];
    phases.extend(rounds.iter().map(|round| &round.ledger));
    let attempted: usize = phases.iter().map(|l| l.rec.len()).sum();
    let failed: usize = phases.iter().map(|l| l.failed()).sum();
    let count = |o: Outcome| phases.iter().map(|l| l.count(o)).sum::<usize>();
    let wrong = count(Outcome::Wrong);

    let light_lat = Summary::of(latencies_ms(&light), 99.0);
    let heavy_lat = Summary::of(latencies_ms(&heavy), 99.0);
    let lateness = Summary::of(lateness_ms(&light), 99.0);
    let slo_ms = spec.slo.as_secs_f64() * 1e3;
    let within = latencies_ms(&heavy).iter().filter(|&&v| v <= slo_ms).count();
    let round_rps: Vec<f64> =
        rounds.iter().map(|r| r.completed_in_window as f64 / round_len.as_secs_f64()).collect();
    let capacity_rps = median(&round_rps);
    let stalls: usize = rounds.iter().map(|r| r.stall_events).sum();
    let valid = loadgen::generator_valid(lateness.tail, light_lat.p50);

    const SETUP_NOTE: &str = "serving process CPU time to first correct reply";
    let mut m = Metrics::default();
    let rate_note =
        |k: usize, rps: f64| format!("open loop {rps} rps Poisson, {:.1} s", phase(k).as_secs_f64());
    let (setup_cpu, setup_wall): (Vec<f64>, Vec<f64>) = setups.iter().copied().unzip();
    m.add("setup_s", median(&setup_cpu), "s", format!("{SETUP_NOTE}, median of {} starts", setups.len()));
    m.add(
        "setup_wall_s",
        median(&setup_wall),
        "s",
        "wall time from spawn to first correct reply, same starts",
    );
    m.add(
        "light_p50_ms",
        light_lat.p50,
        "ms",
        format!("{}, n={}", rate_note(0, spec.light_rps), light_lat.n),
    );
    m.add(
        "light_p99_ms",
        light_lat.tail,
        "ms",
        format!("p{} (highest with >=10 beyond)", light_lat.tail_pct),
    );
    m.add(
        "heavy_p50_ms",
        heavy_lat.p50,
        "ms",
        format!("{}, n={}", rate_note(1, spec.heavy_rps), heavy_lat.n),
    );
    m.add("heavy_p99_ms", heavy_lat.tail, "ms", format!("p{}", heavy_lat.tail_pct));
    m.add(
        "heavy_slo_ratio",
        within as f64 / heavy.rec.len().max(1) as f64,
        "ratio",
        format!("answered correctly within {slo_ms} ms, of {} sent", heavy.rec.len()),
    );
    m.add(
        "capacity_rps",
        capacity_rps,
        "1/s",
        format!(
            "closed loop, window {}, median of {CAPACITY_ROUNDS} rounds of {:.1} s, {stalls} stalls",
            spec.window,
            round_len.as_secs_f64(),
        ),
    );
    m.add(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted} failed"),
    );
    // A median over the serving processes: the largest follows how many
    // allocator arenas contention happened to create in one of them.
    m.add(
        "peak_rss_mib",
        median(&rss),
        "MiB",
        format!(
            "VmHWM, median of {} serving processes (largest {:.3})",
            rss.len(),
            rss.iter().copied().fold(0.0, f64::max)
        ),
    );
    // The heavy open loop sends a fixed schedule, so the process does the
    // same work in every run; in the saturated closed loop both cores stay
    // busy and the CPU per reply follows the throughput the host allows.
    let ok = |l: &Ledger| l.count(Outcome::Ok);
    m.add(
        "cpu_ms_per_item",
        phase_cpu_s[1] * 1e3 / ok(&heavy).max(1) as f64,
        "ms",
        "serving process CPU per correct reply in the heavy phase",
    );
    let capacity_ok: usize = rounds.iter().map(|r| ok(&r.ledger)).sum();
    for (k, (name, n)) in
        [("light", ok(&light)), ("heavy", ok(&heavy)), ("capacity", capacity_ok)].into_iter().enumerate()
    {
        m.add(
            &format!("cpu_ms_per_reply_{name}"),
            phase_cpu_s[k] * 1e3 / n.max(1) as f64,
            "ms",
            format!("serving process CPU {:.2} s over {n} correct replies", phase_cpu_s[k]),
        );
    }

    if trace {
        m.add(
            "loadgen.lateness_p99_ms",
            lateness.tail,
            "ms",
            format!("light phase, p{}; p50 {:.4} ms", lateness.tail_pct, lateness.p50),
        );
        if spec.via == Via::Gateway {
            let overhead = Summary::of(overhead_ms(&light), 99.0);
            m.add(
                "gateway.overhead_p50_ms",
                overhead.p50,
                "ms",
                "light phase: RTT from send minus latency_us",
            );
            m.add("gateway.overhead_p99_ms", overhead.tail, "ms", format!("p{}", overhead.tail_pct));
            m.add(
                "gateway.stalls",
                count(Outcome::Missed) as f64,
                "count",
                format!("replies past their bound; {restarts} restarts, {hung} hung drains"),
            );
            m.add(
                "gateway.backpressure",
                count(Outcome::Shed) as f64,
                "count",
                "backpressure frames, all phases",
            );
        }
        let ok_light = || light.rec.iter().filter(|r| r.outcome == Outcome::Ok);
        let queue = Summary::of(ok_light().map(|r| r.queue_wait_us as f64 / 1e3).collect(), 99.0);
        let exec: Vec<f64> =
            ok_light().map(|r| (r.latency_us - r.queue_wait_us.min(r.latency_us)) as f64 / 1e3).collect();
        m.add("serve.queue_wait_p50_ms", queue.p50, "ms", "light phase, queue_wait_us");
        m.add("serve.queue_wait_p99_ms", queue.tail, "ms", format!("p{}", queue.tail_pct));
        m.add("serve.exec_p50_ms", median(&exec), "ms", "light phase, latency_us - queue_wait_us");
        let cap_ok: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.ledger.rec.iter().filter(|r| r.outcome == Outcome::Ok))
            .map(|r| r.batch as f64)
            .collect();
        m.add(
            "serve.batch_mean",
            cap_ok.iter().sum::<f64>() / cap_ok.len().max(1) as f64,
            "samples",
            "capacity phase",
        );
        let (shed, shed_note) = match spec.via {
            Via::InProcess => (count(Outcome::Shed), "Overloaded replies, all phases"),
            Via::Gateway => (count(Outcome::Error), "typed error frames, all phases"),
        };
        m.add("serve.shed", shed as f64, "count", shed_note);
        // Even ids carry spans, odd ones do not.
        let split = |parity: usize| -> Vec<f64> {
            let rs =
                light.rec.iter().enumerate().filter(|(i, r)| i % 2 == parity && r.outcome == Outcome::Ok);
            rs.map(|(_, r)| ms(r.done_ns - r.due_ns)).collect()
        };
        m.add(
            "trace.overhead_ms",
            median(&split(0)) - median(&split(1)),
            "ms",
            "light p50: traced minus untraced requests",
        );
        for (k, l) in phases.iter().enumerate() {
            trace_requests(&mut rec, k as u64, l, spec.via);
        }
        layers::probe(&mut rec, &mut m);
        crate::train::probe(seed, &mut rec, &mut m);
        crate::write_trace(&rec, &spec.name());
    }
    m.add(
        "valid",
        f64::from(u8::from(valid)),
        "bool",
        "send lateness p99 within the stated share of light p50",
    );
    Ok(Run { metrics: m, attempted, failed, correct: wrong == 0 })
}
