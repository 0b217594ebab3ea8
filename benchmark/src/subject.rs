//! The models a workload exercises and the measurements every workload
//! shares: direct simulator throughput, build iterations, and cold
//! load → infer → unload cycles through the registry.
//!
//! Every layer is timed from outside, around calls to its public
//! functions; every check against an oracle sits after the clock is read.

use crate::spec::{INPUTS, LOAD_SETTLE};
use crate::Run;
use hybriddnn::flow::{Deployment, Framework};
use hybriddnn::model::{reference, synth};
use hybriddnn::{
    Compiler, DseEngine, MappingStrategy, Network, RunResult, SimMode, Simulator, Tensor,
};
use hybriddnn_server::{zoo_resolver, LoadRequest, Registry};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The device every small model is deployed on.
pub const DEVICE: &str = "pynq-z1";

/// Functional outputs must be this close to `model::reference`.
pub const REFERENCE_TOLERANCE: f32 = 1e-4;

/// Inputs per subject checked against `model::reference` in set-up (the
/// rest are checked bit-for-bit against the sequential simulator, which
/// these tie to the reference).
const REFERENCE_CHECKS: usize = 4;

/// Inferences per model in one timed block of the direct measurement.
/// A timing-only run is a ~100 ns replay, so its blocks hold more.
const fn block_len(mode: SimMode) -> usize {
    match mode {
        SimMode::Functional => 32,
        SimMode::TimingOnly => 16_384,
    }
}

pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One zoo model bound from the seed, deployed on [`DEVICE`], with its
/// seeded inputs and the oracle its outputs are held to.
pub struct Subject {
    pub model: &'static str,
    pub net: Network,
    pub dep: Deployment,
    pub inputs: Vec<Tensor>,
    /// Output bits of a sequential functional `Simulator`, per input.
    pub oracle: Vec<Vec<u32>>,
    /// Simulated cycles of one inference (input-independent).
    pub cycles: f64,
    /// Arithmetic operations of one inference as the simulator counts
    /// them (`StageStats.ops`).
    pub ops: u64,
    /// Largest |simulator − reference| over the reference-checked inputs.
    pub max_abs_err: f32,
}

/// The network exactly as the registry's resolver binds it.
pub fn resolve(model: &str, seed: u64) -> hybriddnn_server::ResolvedModel {
    (zoo_resolver())(model, DEVICE, seed).expect("zoo model and builtin device resolve")
}

pub fn seeded_inputs(net: &Network, seed: u64) -> Vec<Tensor> {
    (0..INPUTS as u64)
        .map(|i| {
            synth::tensor(
                net.input_shape(),
                seed.wrapping_mul(1_000_003).wrapping_add(i),
            )
        })
        .collect()
}

impl Subject {
    /// Builds the subject and its oracle. Returns the failures of the
    /// reference check as messages (none expected).
    pub fn build(model: &'static str, seed: u64) -> (Subject, Vec<String>) {
        let resolved = resolve(model, seed);
        let dep = Framework::new(resolved.device, resolved.profile)
            .build(&resolved.net)
            .expect("zoo models compile");
        let net = resolved.net;
        let inputs = seeded_inputs(&net, seed);
        let mut sim = dep.simulator(SimMode::Functional);
        let mut oracle = Vec::with_capacity(inputs.len());
        let mut failures = Vec::new();
        let mut max_abs_err = 0.0f32;
        let mut cycles = 0.0;
        let mut ops = 0;
        for (i, input) in inputs.iter().enumerate() {
            let run = sim.run(&dep.compiled, input).expect("functional run");
            if i < REFERENCE_CHECKS {
                let golden = reference::run_network(&net, input).expect("reference run");
                let err = run.output.max_abs_diff(&golden);
                max_abs_err = max_abs_err.max(err);
                if err.is_nan() || err > REFERENCE_TOLERANCE {
                    failures.push(format!("{model} input {i}: |sim - reference| = {err}"));
                }
            }
            cycles = run.total_cycles;
            ops = run.stage_stats.iter().map(|s| s.ops).sum();
            oracle.push(bits(&run.output));
        }
        let subject = Subject {
            model,
            net,
            dep,
            inputs,
            oracle,
            cycles,
            ops,
            max_abs_err,
        };
        (subject, failures)
    }

    /// Whether a served or simulated result for input `i` is right:
    /// bit-identical output in functional mode, the exact cycle count in
    /// both.
    pub fn matches(&self, i: usize, mode: SimMode, output: Option<&Tensor>, cycles: f64) -> bool {
        cycles == self.cycles
            && match (mode, output) {
                (SimMode::Functional, Some(t)) => bits(t) == self.oracle[i % INPUTS],
                (SimMode::Functional, None) => false,
                (SimMode::TimingOnly, _) => true,
            }
    }
}

/// Builds the subjects of a workload, counting reference-check failures.
pub fn build_subjects(run: &mut Run, models: &[&'static str]) -> Vec<Subject> {
    models
        .iter()
        .map(|model| {
            let (subject, failures) = Subject::build(model, run.seed);
            run.report.ops(1);
            for f in failures {
                run.report.fail(1, || f);
            }
            subject
        })
        .collect()
}

/// Simulated device throughput (GOPS, all `NI` instances) and the
/// estimator's error against the simulator (%), aggregated over the
/// subjects. Simulated statistics: they repeat exactly.
pub fn sim_point(subjects: &[Subject]) -> (f64, f64) {
    let mut ops = 0.0;
    let mut seconds = 0.0;
    let mut predicted = 0.0;
    let mut simulated = 0.0;
    for s in subjects {
        let ni = s.dep.dse.design.ni as f64;
        ops += s.ops as f64 * ni;
        seconds += s.cycles / (s.dep.device.freq_mhz() * 1e6);
        predicted += s.dep.predicted_cycles();
        simulated += s.cycles;
    }
    (
        ops / seconds / 1e9,
        (predicted - simulated).abs() / simulated * 100.0,
    )
}

/// What the direct simulator measurement saw.
pub struct Direct {
    /// Inferences per second of each block.
    pub rates: Vec<f64>,
    /// `(ns into the phase, µs)` of every B=1 call on the first subject.
    pub latency_us: Vec<(u64, f64)>,
    pub inferences: u64,
    pub elapsed_s: f64,
}

/// Direct `Simulator` throughput over the subjects, one reused session
/// per subject. A block runs `block_len` inferences of every subject at
/// batch size `batch`, so a block's rate mixes the subjects the same way
/// every time. Only the simulator calls are on the clock: a block's time
/// is the sum of its calls, and the oracle checks sit between them.
pub fn measure_direct(
    run: &mut Run,
    subjects: &[Subject],
    mode: SimMode,
    batch: usize,
    budget: Duration,
) -> Direct {
    let mut sims: Vec<Simulator> = subjects.iter().map(|s| s.dep.simulator(mode)).collect();
    let mut out = RunResult::empty();
    let mut outs = Vec::new();
    // The session's first run records its plan; that is set-up here.
    for (s, sim) in subjects.iter().zip(&mut sims) {
        sim.run_into(&s.dep.compiled, &s.inputs[0], &mut out)
            .expect("plan-recording run");
    }
    // Batches are consecutive inputs, cloned once, outside the clock.
    let groups: Vec<Vec<Vec<Tensor>>> = subjects
        .iter()
        .map(|s| s.inputs.chunks(batch).map(<[Tensor]>::to_vec).collect())
        .collect();
    let per_block = block_len(mode);
    let mut rates = Vec::new();
    let mut latency_us = Vec::new();
    let mut total = 0u64;
    let phase = Instant::now();
    let mut cursor = 0usize;
    let mut block_no = 0u64;
    while phase.elapsed() < budget {
        let mut busy = Duration::ZERO;
        for (si, (s, sim)) in subjects.iter().zip(&mut sims).enumerate() {
            let compiled = &s.dep.compiled;
            match (batch, mode) {
                (1, SimMode::TimingOnly) => {
                    // A replay is ~100 ns: one clock read per call would
                    // be most of what it measured.
                    let call = run.tracer.begin(None, block_no, "sim", "run_into_block");
                    for k in 0..per_block {
                        sim.run_into(compiled, &s.inputs[(cursor + k) % INPUTS], &mut out)
                            .expect("simulator run");
                    }
                    busy += run.tracer.end(call);
                    let ok = s.matches(0, mode, None, out.total_cycles);
                    run.report
                        .check(ok, || format!("{}: not the oracle's cycle count", s.model));
                }
                (1, SimMode::Functional) => {
                    for k in 0..per_block {
                        let i = (cursor + k) % INPUTS;
                        let call = run.tracer.begin(None, block_no, "sim", "run_into");
                        sim.run_into(compiled, &s.inputs[i], &mut out)
                            .expect("simulator run");
                        let took = run.tracer.end(call);
                        busy += took;
                        if si == 0 {
                            let at = phase.elapsed().as_nanos() as u64;
                            latency_us.push((at, took.as_secs_f64() * 1e6));
                        }
                        let ok = s.matches(i, mode, Some(&out.output), out.total_cycles);
                        run.report.check(ok, || {
                            format!("{} B=1 input {i}: not the oracle's output", s.model)
                        });
                    }
                }
                _ => {
                    for chunk in 0..per_block / batch {
                        let g = (cursor / batch + chunk) % groups[si].len();
                        let call = run.tracer.begin(None, block_no, "sim", "run_batch_into");
                        let statuses = sim.run_batch_into(compiled, &groups[si][g], &mut outs);
                        busy += run.tracer.end(call);
                        // Batched outputs are bit-identical to sequential.
                        let ok = statuses.iter().all(Result::is_ok)
                            && outs.iter().enumerate().all(|(k, r)| {
                                s.matches(g * batch + k, mode, Some(&r.output), r.total_cycles)
                            });
                        run.report.check(ok, || {
                            format!("{} B={batch} group {g}: batched != sequential", s.model)
                        });
                    }
                }
            }
        }
        let inferences = per_block / batch * batch * subjects.len();
        total += inferences as u64;
        rates.push(inferences as f64 / busy.as_secs_f64());
        cursor = (cursor + per_block) % INPUTS;
        block_no += 1;
    }
    run.report.ops(total);
    Direct {
        rates,
        latency_us,
        inferences: total,
        elapsed_s: phase.elapsed().as_secs_f64(),
    }
}

/// Seconds per build iteration: for every subject, resolve → DSE →
/// compile → `Simulator::new` → first run, as a model load pays it.
pub fn measure_build(
    run: &mut Run,
    subjects: &[Subject],
    mode: SimMode,
    budget: Duration,
) -> Vec<f64> {
    let mut secs = Vec::new();
    let phase = Instant::now();
    let mut iteration = 0u64;
    while phase.elapsed() < budget || secs.len() < 3 {
        let whole = run
            .tracer
            .begin(None, iteration, "client", "build_iteration");
        let mut first_cycles = Vec::with_capacity(subjects.len());
        for s in subjects {
            let t = run.tracer.begin(whole.id(), iteration, "model", "resolve");
            let resolved = resolve(s.model, run.seed);
            run.tracer.end(t);
            let t = run.tracer.begin(whole.id(), iteration, "dse", "explore");
            let dse = DseEngine::new(resolved.device.clone(), resolved.profile)
                .explore(&resolved.net)
                .expect("dse");
            run.tracer.end(t);
            let t = run
                .tracer
                .begin(whole.id(), iteration, "compiler", "compile");
            let compiled = Compiler::new(dse.design.accel)
                .compile(&resolved.net, &MappingStrategy::new(dse.strategy_choices()))
                .expect("compile");
            run.tracer.end(t);
            let t = run.tracer.begin(whole.id(), iteration, "sim", "new");
            let mut sim = Simulator::new(
                &compiled,
                mode,
                resolved.device.instance_bandwidth(dse.design.ni),
            );
            run.tracer.end(t);
            let t = run.tracer.begin(whole.id(), iteration, "sim", "first_run");
            let first = sim.run(&compiled, &s.inputs[0]).expect("first run");
            run.tracer.end(t);
            first_cycles.push((first.total_cycles, first.output));
        }
        secs.push(run.tracer.end(whole).as_secs_f64());
        run.report.ops(1);
        let ok = subjects
            .iter()
            .zip(&first_cycles)
            .all(|(s, (cycles, output))| s.matches(0, mode, Some(output), *cycles));
        run.report.check(ok, || {
            format!("build iteration {iteration}: first run is not the oracle's")
        });
        iteration += 1;
    }
    secs
}

/// What the cold-load rounds measured.
#[derive(Default)]
pub struct Cycles {
    /// Load → Ready per model, averaged over each round's models, ms.
    pub load_ms: Vec<f64>,
    pub unload_ms: Vec<f64>,
    /// `(start ns into the phase, round latency µs)`: a round's latency
    /// is the sum of its calls into the registry.
    pub round_us: Vec<(u64, f64)>,
    /// Seconds inside those calls, over all rounds.
    pub busy_s: f64,
    pub elapsed_s: f64,
}

/// Cold `LOAD_MODEL` rounds, each through a fresh registry. A round takes
/// every subject in turn through load → Ready, one inference checked
/// against the oracle, and unload — so every sample mixes the models the
/// same way. Only the registry calls are on the clock.
///
/// Two things are kept from deciding the numbers. A request that reaches
/// a service before its workers have parked waits out the batcher's fill
/// window, and which side wins that race flips with the host's state for
/// minutes at a time: the inference is sent [`LOAD_SETTLE`] after Ready.
/// And a registry keeps its loader and unloader threads (and their
/// stacks) until it is drained, while the rounds that fit the budget
/// vary several times over: every round drains its own registry, so
/// `peak_rss_mb` does not follow the round count.
pub fn measure_load_cycles(
    run: &mut Run,
    subjects: &[Subject],
    mode: SimMode,
    workers: u32,
    budget: Duration,
) -> Cycles {
    let (tx, rx) = mpsc::channel();
    let mut cycles = Cycles::default();
    let phase = Instant::now();
    let mut n = 0u64;
    while phase.elapsed() < budget || cycles.round_us.len() < 4 {
        let registry = Arc::new(Registry::new(zoo_resolver()));
        let round = cycles.round_us.len() as u64;
        let whole = run.tracer.begin(None, round, "client", "load_round");
        let started = phase.elapsed().as_nanos() as u64;
        let (mut load, mut infer, mut unload) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut ok = true;
        for s in subjects {
            let input = n as usize % INPUTS;
            let mut req = LoadRequest::new("cold", s.model, DEVICE);
            req.version = n as u32 + 1;
            req.seed = run.seed;
            req.workers = workers;
            req.functional = mode == SimMode::Functional;
            let t = run
                .tracer
                .begin(whole.id(), round, "server", "load_blocking");
            let loaded = registry.load_blocking(req);
            load += run.tracer.end(t);
            n += 1;
            let Ok(id) = loaded else {
                ok = false;
                continue;
            };

            std::thread::sleep(LOAD_SETTLE);
            let t = run.tracer.begin(whole.id(), round, "server", "submit_wait");
            let answer = registry
                .submit(id, s.inputs[input].clone(), None, tx.clone(), n)
                .map(|_guard| rx.recv());
            infer += run.tracer.end(t);

            let (done_tx, done_rx) = mpsc::channel();
            let t = run.tracer.begin(whole.id(), round, "server", "unload");
            registry.unload(id, Box::new(move |r| drop(done_tx.send(r))));
            let unloaded = done_rx.recv();
            unload += run.tracer.end(t);

            ok &= matches!(unloaded, Ok(Ok(())))
                && match answer {
                    Ok(Ok((tag, Ok(resp)))) => {
                        tag == n && s.matches(input, mode, Some(&resp.output), resp.total_cycles)
                    }
                    _ => false,
                };
        }
        run.tracer.end(whole);
        // Joins the round's loader and unloader threads.
        registry.drain();
        let busy = (load + infer + unload).as_secs_f64();
        cycles.round_us.push((started, busy * 1e6));
        cycles.busy_s += busy;
        let models = subjects.len() as f64;
        cycles.load_ms.push(load.as_secs_f64() * 1e3 / models);
        cycles.unload_ms.push(unload.as_secs_f64() * 1e3 / models);
        run.report.ops(1);
        run.report.check(ok, || {
            format!("cold-load round {round}: failed load, wrong answer or failed unload")
        });
    }
    cycles.elapsed_s = phase.elapsed().as_secs_f64();
    cycles
}
