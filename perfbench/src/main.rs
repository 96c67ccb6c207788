//! QuadraLib-rs benchmark: a quadratic ResNet-20 and an MLP served through
//! the gateway, and quadratic ResNet-20 training, measured end to end and,
//! in a traced run, layer by layer.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The report lists every metric by name with
//! its unit; the last line is one JSON object carrying the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) listed in
//! `BENCHMARK.json`. `perfbench phase ...` is the process each phase of a
//! `serve-*` workload runs in, `perfbench serve MODEL` the server process the
//! `gateway-*` workloads start.

mod inproc;
mod layers;
mod loadgen;
mod models;
mod report;
mod serve;
mod server;
mod stats;
mod trace;
mod train;

use report::{json_line, Metrics};
use std::path::Path;
use std::process::ExitCode;

/// The workloads; `--workload all` runs them in this order. `BENCHMARK.json`
/// gates on `serve-qresnet` and `train-qresnet` only: the `gateway-*` ones
/// serve through `quadra-gateway`, whose lost-wakeup defect stalls replies at
/// random, and the CPU times of `serve-mlp`, almost all thread wake-ups and
/// creation, follow the host by more than the bounds allow.
const WORKLOADS: [&str; 5] =
    ["serve-qresnet", "serve-mlp", "train-qresnet", "gateway-qresnet", "gateway-mlp"];

/// Metrics of the result line of an untraced run, for every workload.
const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mib", "cpu_ms_per_item"];

/// Metrics of the result line of a traced run, for every workload; a layer
/// a workload does not pass through reads 0. The `gateway-*` workloads print
/// their `gateway.*` metrics in the report only.
const PER_LAYER: [(&str, &str); 38] = [
    ("loadgen.lateness_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.batch_mean", "samples"),
    ("serve.shed", "count"),
    ("model.forward_b1_ms", "ms"),
    ("model.forward_b8_ms", "ms"),
    ("model.gflops_b8", "GFLOP/s"),
    ("model.eval_cached_bytes", "bytes"),
    ("layer.stem_ms", "ms"),
    ("layer.stage1_ms", "ms"),
    ("layer.stage2_ms", "ms"),
    ("layer.stage3_ms", "ms"),
    ("layer.head_ms", "ms"),
    ("model.fo_forward_b1_ms", "ms"),
    ("model.fo_forward_b8_ms", "ms"),
    ("core.quadratic_overhead_b1", "ratio"),
    ("core.quadratic_overhead_b8", "ratio"),
    ("core.qconv_fwd_ms", "ms"),
    ("nn.conv_fwd_ms", "ms"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.gemm_ms_per_sample", "ms"),
    ("tensor.gemm_gflops_per_sample", "GFLOP/s"),
    ("tensor.gemm_bytes_per_sample", "bytes"),
    ("tensor.gemm_ms_batch", "ms"),
    ("tensor.gemm_gflops_batch", "GFLOP/s"),
    ("tensor.gemm_bytes_batch", "bytes"),
    ("train.forward_ms", "ms"),
    ("train.loss_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optim_ms", "ms"),
    ("train.cached_bytes", "bytes"),
    ("train.optim_state_bytes", "bytes"),
    ("trace.overhead_ms", "ms"),
    ("trace.setup_s", "s"),
    ("trace.peak_rss_mib", "MiB"),
    ("trace.cpu_ms_per_item", "ms"),
];

/// What a workload run measured.
pub struct Run {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Write the run's spans under `.perfbench-trace/` in the working directory.
pub fn write_trace(rec: &trace::Recorder, workload: &str) {
    let path = Path::new(".perfbench-trace").join(format!("{workload}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("# trace: {} spans written to {}", rec.spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

/// CPU model, visible cores and SIMD features of this host.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd: Vec<&str> = [
        ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
        ("avx", std::arch::is_x86_feature_detected!("avx")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    #[cfg(not(target_arch = "x86_64"))]
    let simd: Vec<&str> = Vec::new();
    format!("cpu=\"{cpu}\" visible_cores={cores} simd={}", simd.join(","))
}

/// The commit, when run from a git work tree, and a digest of the sources
/// built, which identifies a checkout without git metadata too.
fn provenance() -> String {
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "none".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over each file's path and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("commit={commit} source_digest={h:016x} ({} files)", files.len())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && name != "target" {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("phase") {
        return match inproc::phase_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench phase: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("serve") {
        let Some(model) = argv.get(1).and_then(|m| models::Served::parse(m)) else {
            eprintln!("usage: perfbench serve qresnet|mlp");
            return ExitCode::from(2);
        };
        return match server::serve_main(model) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name if WORKLOADS.contains(&name) => vec![name],
        other => {
            eprintln!("perfbench: unknown workload {other} ({} | all)", WORKLOADS.join(" | "));
            return ExitCode::from(2);
        }
    };
    for workload in workloads {
        if let Err(e) = run_workload(workload, &args) {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Run one workload and print its report, ending with the result line.
fn run_workload(workload: &str, args: &Args) -> std::io::Result<()> {
    println!("# host: {}", host_fingerprint());
    println!(
        "# provenance: {} workload={workload} seed={} seconds={} trace={}",
        provenance(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let run = match workload {
        "serve-qresnet" | "serve-mlp" | "gateway-qresnet" | "gateway-mlp" => {
            let spec = [serve::QRESNET, serve::MLP, serve::GATEWAY_QRESNET, serve::GATEWAY_MLP]
                .into_iter()
                .find(|s| s.name() == workload)
                .ok_or_else(|| std::io::Error::other("no such serve workload"))?;
            println!(
                "# phases: {:?}; light {} rps, heavy {} rps (open loop, Poisson), capacity window {} \
                 (closed loop); reply bound {:?}, heavy limit {:?}; shares {:?} of --seconds",
                spec.via,
                spec.light_rps,
                spec.heavy_rps,
                spec.window,
                spec.bound,
                spec.slo,
                serve::PHASE_SHARE
            );
            serve::run(&spec, args.seed, args.seconds, args.trace)?
        }
        _ => {
            println!(
                "# phases: SGD batch {} on {} px shape images, after warm-up",
                train::BATCH,
                models::IMAGE
            );
            train::run(args.seed, args.seconds, args.trace)
        }
    };
    let mut metrics = run.metrics;
    let names: Vec<&str> = if args.trace {
        // The traced run's own end-to-end values: minus the untraced run's,
        // they give the tracing overhead.
        for name in END_TO_END {
            if let Some(m) = metrics.0.iter().find(|m| m.name == name).cloned() {
                metrics.add(&format!("trace.{name}"), m.value, m.unit, "this traced run");
            }
        }
        for (name, unit) in PER_LAYER {
            if metrics.get(name).is_none() {
                metrics.add(name, 0.0, unit, "layer not on this workload's path");
            }
        }
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.to_vec()
    };
    print!("{}", metrics.render());
    if metrics.get("valid") == Some(0.0) {
        println!(
            "# INVALID RUN: loadgen send lateness p99 exceeds {} x light_p50_ms; its latencies measure the client",
            loadgen::MAX_LATENESS_SHARE
        );
    }
    let finite = names.iter().all(|n| metrics.get(n).is_some_and(f64::is_finite));
    println!("{}", json_line(run.correct && finite, run.attempted, run.failed, &metrics, &names));
    Ok(())
}
