//! The gateway server under test: a separate process running `Router` +
//! `Gateway` with the shipped `quadra-gateway` binary's settings.

use crate::models::{with_id, Pool, Served};
use quadra_gateway::{decode_frame, Frame, Gateway, GatewayConfig};
use quadra_serve::{AdmissionPolicy, BatchPolicy, Router, ServeConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Frame cap of the client side; matches the gateway default.
pub const MAX_FRAME: usize = 16 << 20;
const BANNER: &str = "listening on ";
const STATS: &str = "stats";
/// How long a drained server may take to exit before it is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// The shipped `quadra-gateway` binary's serving settings: 2 workers,
/// `max_batch` 8, queue 256, other settings default.
pub fn start_router(model: Served) -> Result<Router, String> {
    let config = ServeConfig {
        workers: 2,
        policy: BatchPolicy { max_batch_size: 8, ..BatchPolicy::default() },
        admission: AdmissionPolicy { queue_capacity: Some(256), ..AdmissionPolicy::default() },
        ..ServeConfig::default()
    };
    Router::builder()
        .endpoint(model.endpoint(), config, move || model.build())
        .start()
        .map_err(|e| format!("router failed to start: {e}"))
}

/// Body of the server process: serve `model` until stdin closes, then drain.
pub fn serve_main(model: Served) -> Result<(), String> {
    let router = start_router(model)?;
    let gateway_config = GatewayConfig { drain_timeout: Duration::from_secs(10), ..GatewayConfig::default() };
    let gateway =
        Gateway::start(gateway_config, router).map_err(|e| format!("gateway failed to start: {e}"))?;
    let mut stdout = io::stdout();
    let _ = writeln!(stdout, "{BANNER}{}", gateway.local_addr());
    let _ = stdout.flush();

    // Each `stats` line is answered with this process's CPU time and peak
    // resident set; end of input is the drain signal.
    for line in io::stdin().lock().lines() {
        match line {
            Ok(l) if l.trim() == STATS => {
                let _ = writeln!(stdout, "{STATS} {} {}", process_cpu_s(), vm_hwm_kib().unwrap_or(0));
                let _ = stdout.flush();
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let _ = gateway.shutdown();
    Ok(())
}

/// CPU time (user + system, all threads) of this process, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers
    // (time_t and long are both i64), matching `Timespec`; `ts` is a live,
    // aligned local that clock_gettime only writes within.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// CPU time of this process, in seconds (tick resolution off 64-bit Linux).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields, in 1/100 s ticks.
    let ticks: f64 = stat.rsplit_once(')').map_or(0.0, |(_, rest)| {
        rest.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<f64>().ok()).sum()
    });
    ticks / 100.0
}

/// `VmHWM` (peak resident set) of this process, in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running server process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first correct reply, wall time.
    pub setup: Duration,
    /// CPU seconds the server spent up to its first correct reply.
    pub setup_cpu_s: f64,
}

impl Server {
    /// Spawn a server for `model` and time it to its first correct reply on
    /// `pool[0]`.
    pub fn start(model: Served, pool: &Pool) -> io::Result<Server> {
        let t0 = Instant::now();
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", model.endpoint()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().ok_or_else(|| io::Error::other("no stdout"))?);
        // Built before the banner is read so that `Drop` reaps the child on
        // every early return below.
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
            setup_cpu_s: 0.0,
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix(BANNER)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad server banner {line:?}")))?;
        first_reply(server.addr, pool)?;
        server.setup = t0.elapsed();
        server.setup_cpu_s = server.stats()?.0;
        Ok(server)
    }

    /// The server's CPU seconds so far and its peak resident set in MiB.
    pub fn stats(&mut self) -> io::Result<(f64, f64)> {
        let stdin = self.child.stdin.as_mut().ok_or_else(|| io::Error::other("server stdin closed"))?;
        writeln!(stdin, "{STATS}")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let mut fields =
            line.trim().strip_prefix(STATS).unwrap_or("").split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(cpu)), Some(Ok(kib))) => Ok((cpu, kib / 1024.0)),
            _ => Err(io::Error::other(format!("bad stats line {line:?}"))),
        }
    }

    /// Close stdin (the drain signal) and wait up to [`SHUTDOWN_GRACE`] for
    /// the process to exit; a server still running then is killed. Returns
    /// whether the drain completed in time.
    pub fn stop(mut self) -> bool {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leave the process behind, whether or not it drained.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Send `pool[0]` once and wait for its reply, which must be bitwise right.
fn first_reply(addr: SocketAddr, pool: &Pool) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut frame = Vec::new();
    with_id(&pool.frames[0], 1, &mut frame);
    stream.write_all(&frame)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("server closed before the first reply"));
        }
        buf.extend_from_slice(&chunk[..n]);
        match decode_frame(&buf, MAX_FRAME) {
            Ok(None) => continue,
            Ok(Some((Frame::Response(r), _))) if crate::models::bitwise_eq(&r.output, &pool.expected[0]) => {
                return Ok(())
            }
            Ok(Some((frame, _))) => {
                return Err(io::Error::other(format!("first reply was wrong: {frame:?}")))
            }
            Err(e) => return Err(io::Error::other(format!("undecodable reply: {e}"))),
        }
    }
}
