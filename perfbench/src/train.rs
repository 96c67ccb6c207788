//! The training workload: in-process SGD steps of the quadratic ResNet-20 on
//! a seeded shape-image set.

use crate::models::{self, CLASSES, IMAGE};
use crate::report::Metrics;
use crate::server::{process_cpu_s, vm_hwm_kib};
use crate::stats::{median, Summary};
use crate::trace::Recorder;
use crate::Run;
use quadra_data::ShapeImageDataset;
use quadra_nn::{CrossEntropyLoss, Layer, Loss, Optimizer, Sequential, Sgd, SgdConfig};
use quadra_tensor::Tensor;
use std::time::Instant;

pub const BATCH: usize = 32;
/// Training-set size: 16 distinct batches, cycled in order.
const SAMPLES: usize = 512;
const LR: f32 = 0.02;
/// Untimed steps before measuring.
const WARMUP: usize = 3;
/// Times the set-up is repeated; the median is reported.
const SETUPS: usize = 9;
/// Steps whose mean loss opens and closes the loss check.
const LOSS_WINDOW: usize = 16;
/// Trace id base of training-step spans.
const STEP_TRACE: u64 = 1 << 41;
/// Steps of the training probe in the serve workloads' traced runs.
const PROBE_STEPS: usize = 8;

struct Trainer {
    model: Sequential,
    data: ShapeImageDataset,
    opt: Sgd,
    loss: CrossEntropyLoss,
    next: usize,
}

/// Per-step phase durations (ns) and sizes, kept for traced steps.
#[derive(Default, Clone, Copy)]
struct StepTrace {
    forward: u64,
    loss: u64,
    backward: u64,
    optim: u64,
    cached_bytes: usize,
    optim_state_bytes: usize,
}

impl Trainer {
    fn new(seed: u64) -> Trainer {
        Trainer {
            model: models::build(&models::qresnet_config()),
            data: ShapeImageDataset::generate(SAMPLES, CLASSES, IMAGE, 3, 0.15, seed),
            opt: Sgd::new(SgdConfig { lr: LR, momentum: 0.9, weight_decay: 5e-4, nesterov: false }),
            loss: CrossEntropyLoss::new(),
            next: 0,
        }
    }

    fn batch(&mut self) -> (Tensor, Tensor) {
        let start = self.next * BATCH;
        self.next = (self.next + 1) % (SAMPLES / BATCH);
        let x = self.data.images.narrow(0, start, BATCH).expect("batch in range");
        let y = self.data.labels.narrow(0, start, BATCH).expect("batch in range");
        (x, y)
    }

    /// One SGD step; returns the loss and, when `traced`, each phase's time.
    fn step(&mut self, traced: bool) -> (f32, StepTrace) {
        let (x, y) = self.batch();
        let mut t = StepTrace::default();
        let mut mark = Instant::now();
        let mut lap = |slot: &mut u64| {
            if traced {
                let now = Instant::now();
                *slot = (now - mark).as_nanos() as u64;
                mark = now;
            }
        };
        let out = self.model.forward(&x, true);
        lap(&mut t.forward);
        if traced {
            t.cached_bytes = self.model.cached_bytes();
        }
        let (loss, grad) = self.loss.compute(&out, &y);
        lap(&mut t.loss);
        self.model.backward(&grad);
        lap(&mut t.backward);
        let mut params = self.model.params_mut();
        self.opt.step(&mut params);
        self.opt.zero_grad(&mut params);
        lap(&mut t.optim);
        t.optim_state_bytes = self.opt.state_bytes();
        (loss, t)
    }
}

/// Record a step span with its four phase children.
fn trace_step(rec: &mut Recorder, trace: u64, start: u64, t: &StepTrace) {
    let total = t.forward + t.loss + t.backward + t.optim;
    let root = rec.push(trace, None, "step", start, start + total);
    let mut at = start;
    for (name, len) in
        [("forward", t.forward), ("loss", t.loss), ("backward", t.backward), ("optim", t.optim)]
    {
        rec.push(trace, Some(root), name, at, at + len);
        at += len;
    }
}

/// Add the `train.*` per-layer metrics from traced steps.
fn add_step_metrics(m: &mut Metrics, traced: &[StepTrace], note: &str) {
    let med =
        |f: fn(&StepTrace) -> u64| median(&traced.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>());
    m.add(
        "train.forward_ms",
        med(|t| t.forward),
        "ms",
        format!("median of {} traced steps, {note}", traced.len()),
    );
    m.add("train.loss_ms", med(|t| t.loss), "ms", "");
    m.add("train.backward_ms", med(|t| t.backward), "ms", "");
    m.add("train.optim_ms", med(|t| t.optim), "ms", "");
    let last = traced.last().copied().unwrap_or_default();
    m.add("train.cached_bytes", last.cached_bytes as f64, "bytes", "cached_bytes() after a train forward");
    m.add("train.optim_state_bytes", last.optim_state_bytes as f64, "bytes", "SGD momentum state");
}

/// A short traced training run for the serve workloads' traced runs.
pub fn probe(seed: u64, rec: &mut Recorder, m: &mut Metrics) {
    let mut trainer = Trainer::new(seed);
    for _ in 0..WARMUP {
        trainer.step(false);
    }
    let origin = Instant::now();
    let mut traced = Vec::new();
    for k in 0..PROBE_STEPS {
        let start = origin.elapsed().as_nanos() as u64;
        let (_, t) = trainer.step(true);
        trace_step(rec, STEP_TRACE + k as u64, start, &t);
        traced.push(t);
    }
    add_step_metrics(m, &traced, "training probe");
}

/// Whether the loss stayed finite and fell from the first window to the last.
pub fn loss_ok(losses: &[f32]) -> bool {
    let w = LOSS_WINDOW.min(losses.len() / 2);
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
    w > 0 && losses.iter().all(|l| l.is_finite()) && mean(&losses[losses.len() - w..]) < mean(&losses[..w])
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let mut trainer = None;
    for _ in 0..SETUPS {
        let (t0, cpu) = (Instant::now(), process_cpu_s());
        let fresh = Trainer::new(seed);
        setups.push(process_cpu_s() - cpu);
        setups_wall.push(t0.elapsed().as_secs_f64());
        trainer = Some(fresh);
    }
    let mut trainer = trainer.expect("at least one set-up");
    for _ in 0..WARMUP {
        trainer.step(false);
    }

    let mut rec = Recorder::default();
    let (mut plain, mut traced_ms, mut all_ms, mut losses, mut traced) =
        (vec![], vec![], vec![], vec![], vec![]);
    let cpu0 = process_cpu_s();
    let origin = Instant::now();
    while origin.elapsed().as_secs_f64() < seconds {
        // In a traced run every other step carries spans.
        let traced_step = trace && losses.len() % 2 == 1;
        let start = origin.elapsed();
        let (loss, t) = trainer.step(traced_step);
        let step_ms = (origin.elapsed() - start).as_secs_f64() * 1e3;
        all_ms.push(step_ms);
        losses.push(loss);
        if traced_step {
            trace_step(&mut rec, STEP_TRACE + losses.len() as u64, start.as_nanos() as u64, &t);
            traced.push(t);
            traced_ms.push(step_ms);
        } else {
            plain.push(step_ms);
        }
    }
    let wall = origin.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let steps = losses.len();
    let ok = loss_ok(&losses);
    let failed = losses.iter().filter(|l| !l.is_finite()).count();
    let lat = Summary::of(all_ms, 90.0);

    let mut m = Metrics::default();
    m.add(
        "setup_s",
        median(&setups),
        "s",
        format!("CPU time, median of {SETUPS} model + data + optimizer set-ups"),
    );
    m.add("setup_wall_s", median(&setups_wall), "s", "wall time of the same set-ups");
    m.add(
        "train_samples_per_s",
        (steps * BATCH) as f64 / wall,
        "1/s",
        format!("{steps} steps of batch {BATCH} in {wall:.1} s"),
    );
    m.add("train_step_p50_ms", lat.p50, "ms", "");
    m.add(
        "train_step_p90_ms",
        lat.tail,
        "ms",
        format!("p{} (highest with >=10 beyond, at most p90)", lat.tail_pct),
    );
    m.add(
        "cpu_ms_per_item",
        cpu_s * 1e3 / (steps * BATCH).max(1) as f64,
        "ms",
        format!("process CPU {cpu_s:.2} s over {} samples", steps * BATCH),
    );
    m.add("peak_rss_mib", vm_hwm_kib().unwrap_or(0) as f64 / 1024.0, "MiB", "VmHWM of the training process");
    let w = LOSS_WINDOW.min(steps / 2).max(1);
    let first = losses.iter().take(w).sum::<f32>() / w as f32;
    let last = losses.iter().rev().take(w).sum::<f32>() / w as f32;
    m.add("loss_first", first as f64, "nats", format!("mean of the first {w} steps"));
    m.add("loss_last", last as f64, "nats", format!("mean of the last {w} steps; must be lower"));
    m.add("error_rate", failed as f64 / steps.max(1) as f64, "ratio", "steps with a non-finite loss");
    if trace {
        add_step_metrics(&mut m, &traced, "odd steps");
        m.add(
            "trace.overhead_ms",
            median(&traced_ms) - median(&plain),
            "ms",
            "step p50: traced minus untraced steps",
        );
        crate::layers::probe(&mut rec, &mut m);
        crate::write_trace(&rec, "train-qresnet");
    }
    Run { metrics: m, attempted: steps, failed, correct: ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_check_needs_a_finite_falling_loss() {
        let falling: Vec<f32> = (0..40).map(|i| 2.3 - i as f32 * 0.01).collect();
        assert!(loss_ok(&falling));
        let rising: Vec<f32> = falling.iter().rev().copied().collect();
        assert!(!loss_ok(&rising));
        let mut nan = falling.clone();
        nan[20] = f32::NAN;
        assert!(!loss_ok(&nan));
        assert!(!loss_ok(&[]));
    }
}
