//! The in-process serving path. Each phase runs in a fresh child process
//! (`perfbench phase ...`) that starts `Router` with the shipped gateway
//! binary's serving settings and drives it through `RouterClient`, so each
//! phase's CPU time and peak memory are its own. The child reports every
//! request's record on its standard output.

use crate::loadgen::{self, ClosedLoop, Ledger, Record};
use crate::models::{self, Served};
use crate::server::{process_cpu_s, start_router, vm_hwm_kib};
use quadra_serve::Request;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a phase process may take to exit after its report.
const EXIT_GRACE: Duration = Duration::from_secs(10);
/// Bound on the first reply, which also times set-up.
const FIRST_REPLY: Duration = Duration::from_secs(30);

/// The load one phase process puts on its router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Start, answer one request, stop: set-up only.
    Setup,
    /// Seeded Poisson arrivals at this rate.
    Open(f64),
    /// This many requests in flight.
    Closed(usize),
}

impl Load {
    fn arg(self) -> String {
        match self {
            Load::Setup => "setup".to_string(),
            Load::Open(rate) => format!("open:{rate}"),
            Load::Closed(window) => format!("closed:{window}"),
        }
    }

    fn parse(arg: &str) -> Option<Load> {
        match arg.split_once(':') {
            None if arg == "setup" => Some(Load::Setup),
            Some(("open", rate)) => rate.parse().ok().map(Load::Open),
            Some(("closed", window)) => window.parse().ok().map(Load::Closed),
            _ => None,
        }
    }
}

/// One phase process: what to serve and how to load it.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub model: Served,
    /// Seed of the request pool.
    pub pool_seed: u64,
    pub load: Load,
    /// Seed of the arrivals or of the closed loop's pool draws.
    pub load_seed: u64,
    pub duration: Duration,
    /// A reply later than this after its due time is missed.
    pub bound: Duration,
}

/// What one phase process measured.
pub struct PhaseOut {
    pub setup_cpu_s: f64,
    pub setup_wall_s: f64,
    pub run: ClosedLoop,
    /// CPU seconds of the process while the load ran.
    pub cpu_s: f64,
    /// `VmHWM` of the process at the end, MiB.
    pub rss_mib: f64,
}

/// Run `phase` in a fresh child process and read back its report.
pub fn run(phase: &Phase) -> io::Result<PhaseOut> {
    let child = Command::new(std::env::current_exe()?)
        .arg("phase")
        .arg(phase.model.endpoint())
        .arg(phase.pool_seed.to_string())
        .arg(phase.load.arg())
        .arg(phase.load_seed.to_string())
        .arg(phase.duration.as_secs_f64().to_string())
        .arg(phase.bound.as_secs_f64().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut child = Reaped(child);
    let stdout = child.0.stdout.take().ok_or_else(|| io::Error::other("no stdout"))?;
    let bad = |line: &str| io::Error::other(format!("bad phase report line {line:?}"));
    let mut out = PhaseOut {
        setup_cpu_s: 0.0,
        setup_wall_s: 0.0,
        run: ClosedLoop::default(),
        cpu_s: 0.0,
        rss_mib: 0.0,
    };
    let mut records = Vec::new();
    let mut ended = false;
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        if tag == "r" {
            records.push(Record::from_line(rest).ok_or_else(|| bad(&line))?);
            continue;
        }
        let nums: Vec<f64> = rest.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        match (tag, nums.as_slice()) {
            ("setup", &[cpu, wall]) => (out.setup_cpu_s, out.setup_wall_s) = (cpu, wall),
            ("end", &[cpu, kib, completed, stalls]) => {
                (out.cpu_s, out.rss_mib) = (cpu, kib / 1024.0);
                (out.run.completed_in_window, out.run.stall_events) = (completed as usize, stalls as usize);
                ended = true;
                break;
            }
            _ => return Err(bad(&line)),
        }
    }
    if !ended {
        return Err(io::Error::other("phase process ended without its report"));
    }
    out.run.ledger = Ledger::from_records(records);
    child.finish()?;
    Ok(out)
}

/// A child process that is killed, if still running, and waited for on
/// every way out.
struct Reaped(Child);

impl Reaped {
    /// Wait up to [`EXIT_GRACE`] for a clean exit.
    fn finish(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + EXIT_GRACE;
        while Instant::now() < deadline {
            if let Some(status) = self.0.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("phase process failed: {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("phase process did not exit"))
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Body of a phase process: `perfbench phase MODEL POOL_SEED LOAD LOAD_SEED
/// SECONDS BOUND_SECONDS`.
pub fn phase_main(argv: &[String]) -> Result<(), String> {
    let usage = || {
        "usage: perfbench phase MODEL POOL_SEED setup|open:RATE|closed:WINDOW SEED SECONDS BOUND".to_string()
    };
    let [model, pool_seed, load, load_seed, seconds, bound] = argv else { return Err(usage()) };
    let secs = |v: &str| v.parse::<f64>().ok().filter(|s| *s >= 0.0).map(Duration::from_secs_f64);
    let phase = Phase {
        model: Served::parse(model).ok_or_else(usage)?,
        pool_seed: pool_seed.parse().map_err(|_| usage())?,
        load: Load::parse(load).ok_or_else(usage)?,
        load_seed: load_seed.parse().map_err(|_| usage())?,
        duration: secs(seconds).ok_or_else(usage)?,
        bound: secs(bound).ok_or_else(usage)?,
    };
    let pool = models::pool(phase.model, phase.pool_seed);
    let endpoint = phase.model.endpoint();
    let mut out = BufWriter::new(io::stdout().lock());
    let write_err = |e: io::Error| format!("writing the report: {e}");

    // Set-up: from starting the router to its first correct reply.
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let router = start_router(phase.model)?;
    let client = router.client();
    let first = client
        .send(endpoint, Request::new(pool.inputs[0].clone()))
        .and_then(|mut h| h.wait_timeout(FIRST_REPLY))
        .map_err(|e| format!("first request failed: {e}"))?;
    if !models::bitwise_eq(&first.output, &pool.expected[0]) {
        return Err("first reply was wrong".to_string());
    }
    let (setup_wall, setup_cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
    writeln!(out, "setup {setup_cpu} {setup_wall}").map_err(write_err)?;

    let cpu0 = process_cpu_s();
    let run = match phase.load {
        Load::Setup => ClosedLoop::default(),
        Load::Open(rate) => {
            let sched = loadgen::poisson(phase.load_seed, rate, phase.duration, pool.inputs.len());
            let ledger = loadgen::open_loop_in_process(&client, endpoint, &pool, &sched, phase.bound);
            ClosedLoop { ledger, ..ClosedLoop::default() }
        }
        Load::Closed(window) => loadgen::closed_loop_in_process(
            &client,
            endpoint,
            &pool,
            phase.load_seed,
            window,
            phase.duration,
            phase.bound,
        ),
    };
    let cpu_s = process_cpu_s() - cpu0;
    let hwm_kib = vm_hwm_kib().unwrap_or(0);
    for r in &run.ledger.rec {
        writeln!(out, "r {}", r.to_line()).map_err(write_err)?;
    }
    writeln!(out, "end {cpu_s} {hwm_kib} {} {}", run.completed_in_window, run.stall_events)
        .map_err(write_err)?;
    out.flush().map_err(write_err)?;
    drop(out);
    let _ = router.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Outcome;

    #[test]
    fn load_args_round_trip() {
        for load in [Load::Setup, Load::Open(250.0), Load::Open(2000.5), Load::Closed(64)] {
            assert_eq!(Load::parse(&load.arg()), Some(load));
        }
        assert_eq!(Load::parse("open:"), None);
        assert_eq!(Load::parse("closed:-1"), None);
    }

    #[test]
    fn records_survive_the_report() {
        let r = Record {
            outcome: Outcome::Missed,
            due_ns: 1,
            sent_ns: u64::MAX,
            done_ns: 3_000_000_000,
            latency_us: 4,
            queue_wait_us: 5,
            batch: 8,
        };
        let back = Record::from_line(&r.to_line()).unwrap();
        assert_eq!(back.to_line(), r.to_line());
        assert_eq!(back.outcome, Outcome::Missed);
        assert!(Record::from_line("x 1 2 3 4 5 6").is_none());
    }

    #[test]
    fn in_process_loops_answer_correctly() {
        let pool = models::pool(Served::Mlp, 5);
        let router = start_router(Served::Mlp).unwrap();
        let client = router.client();
        let bound = Duration::from_secs(1);
        let sched = loadgen::poisson(6, 500.0, Duration::from_millis(100), pool.inputs.len());
        let ledger = loadgen::open_loop_in_process(&client, "mlp", &pool, &sched, bound);
        assert_eq!(ledger.rec.len(), sched.due_ns.len());
        assert_eq!(ledger.count(Outcome::Ok), ledger.rec.len());
        let closed =
            loadgen::closed_loop_in_process(&client, "mlp", &pool, 6, 8, Duration::from_millis(50), bound);
        assert!(closed.completed_in_window > 0);
        assert_eq!(closed.ledger.failed(), 0);
        let _ = router.shutdown();
    }
}
