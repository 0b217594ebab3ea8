//! `sim_functional` — the hot kernel path; closed, serial, no sockets,
//! no runtime.
//!
//! One reused functional `Simulator` per model (`vgg_tiny`, `stem_cnn`
//! on pynq-z1, DSE-chosen mapping, f32) over 64 seeded inputs, at B = 1
//! and at B = 16. The `sim`, `winograd` and `par` kernels do all the
//! work; `server`, `net` and `cluster` none. B = 1 beside B = 16 uses
//! the same weight packs differently (latency against amortised
//! traversal), so a lane-layout change that helps one and hurts the
//! other shows.

use crate::spec::{share, QUANTILE_WINDOW_REQUESTS, WARM_S};
use crate::stats::{self, window_quantiles};
use crate::subject::{
    bits, build_subjects, measure_build, measure_direct, measure_load_cycles, sim_point, Subject,
    REFERENCE_TOLERANCE,
};
use crate::{host, Run};
use hybriddnn::flow::Framework;
use hybriddnn::model::{reference, synth, NetworkBuilder};
use hybriddnn::{
    Compiler, MappingStrategy, QuantSpec, RunResult, Shape, SimMode, Simulator, Tensor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MODELS: [&str; 2] = ["vgg-tiny", "stem-cnn"];

fn set_up(run: &mut Run) -> Vec<Subject> {
    run.set_up(|run, _previous| {
        let t0 = Instant::now();
        let subjects = build_subjects(run, &MODELS);
        (subjects, t0.elapsed().as_secs_f64())
    })
}

pub fn run(run: &mut Run) {
    let subjects = set_up(run);
    if run.tracer.on() {
        return traced(run, &subjects);
    }
    let mode = SimMode::Functional;

    let b1 = measure_direct(run, &subjects, mode, 1, run.budget(share::SIM[0]));
    run.report.phase("b1", b1.elapsed_s);
    run.report.set_median("infer_per_s", &b1.rates);
    let b16 = measure_direct(run, &subjects, mode, 16, run.budget(share::SIM[1]));
    run.report.phase("b16", b16.elapsed_s);
    run.report.set_median("batch_infer_per_s", &b16.rates);

    // The outermost interface here is the simulator itself: `rps` is the
    // workload's whole traffic over its whole time, and the latency
    // quantiles are one vgg_tiny inference at B = 1 — the floor under
    // `serve_heavy`'s `p50_us`.
    run.report.set(
        "rps",
        (b1.inferences + b16.inferences) as f64 / (b1.elapsed_s + b16.elapsed_s),
    );
    let warm = (WARM_S.min(b1.elapsed_s / 4.0) * 1e9) as u64;
    for (name, q) in [("p50_us", 0.50), ("p99_us", 0.99)] {
        let windows = window_quantiles(&b1.latency_us, &[], warm, QUANTILE_WINDOW_REQUESTS, q);
        run.report.set_median(name, &windows);
    }

    let (gops, error_pct) = sim_point(&subjects);
    run.report.set("sim_gops", gops);
    run.report.set("model_error_pct", error_pct);

    let builds = measure_build(run, &subjects, mode, run.budget(share::SIM[2]));
    run.report.set_median("build_s", &builds);
    let cycles = measure_load_cycles(run, &subjects, mode, 1, run.budget(share::SIM[3]));
    run.report.phase("load_cycles", cycles.elapsed_s);
    run.report
        .set_trimmed_mean("load_ready_ms", &cycles.load_ms);

    run.report.set("peak_rss_mb", host::peak_rss_mb());
}

/// Median microseconds of one call of `f` over at least `min_calls`
/// calls and `budget`.
fn median_us(
    run: &mut Run,
    layer: &'static str,
    name: &'static str,
    budget: Duration,
    min_calls: usize,
    mut f: impl FnMut(),
) -> f64 {
    let phase = Instant::now();
    let mut us = Vec::new();
    while us.len() < min_calls || phase.elapsed() < budget {
        let t = run.tracer.begin(None, us.len() as u64, layer, name);
        f();
        us.push(run.tracer.end(t).as_secs_f64() * 1e6);
    }
    stats::median(&us)
}

/// A session over the subject's network compiled for the DSE's
/// accelerator but with a forced mapping strategy or precision.
fn forced(
    subject: &Subject,
    strategy: &MappingStrategy,
    quant: QuantSpec,
) -> (hybriddnn::CompiledNetwork, Simulator) {
    let compiled = Compiler::new(subject.dep.dse.design.accel)
        .with_quant(quant)
        .compile(&subject.net, strategy)
        .expect("forced strategy compiles");
    let bw = subject
        .dep
        .device
        .instance_bandwidth(subject.dep.dse.design.ni);
    let sim = Simulator::new(&compiled, SimMode::Functional, bw);
    (compiled, sim)
}

/// Steady-state microseconds per run of a session, its simulator-counted
/// operations per run, and its last output.
fn steady(
    run: &mut Run,
    name: &'static str,
    compiled: &hybriddnn::CompiledNetwork,
    sim: &mut Simulator,
    input: &Tensor,
    budget: Duration,
) -> (f64, u64, Tensor) {
    let mut out = RunResult::empty();
    sim.run_into(compiled, input, &mut out)
        .expect("plan-recording run");
    let us = median_us(run, "sim", name, budget, 20, || {
        sim.run_into(compiled, black_box(input), &mut out)
            .expect("steady run");
    });
    run.report.ops(1);
    let ops = out.stage_stats.iter().map(|s| s.ops).sum();
    (us, ops, out.output)
}

fn traced(run: &mut Run, subjects: &[Subject]) {
    let mode = SimMode::Functional;
    let slice = run.budget(0.06);
    let (tiny, stem) = (&subjects[0], &subjects[1]);
    let input = &tiny.inputs[0];

    // Batch amortisation on vgg_tiny: the same packs at B = 1, 4, 16.
    let mut sim = tiny.dep.simulator(mode);
    let (b1_us, _, _) = steady(run, "run_into", &tiny.dep.compiled, &mut sim, input, slice);
    run.report.set("sim.b1_us", b1_us);
    run.report
        .set("sim.plan_pack_words", sim.plan_pack_words() as f64);
    let mut per_elem = |run: &mut Run, batch: usize, name: &'static str| {
        let group = tiny.inputs[..batch].to_vec();
        let mut outs = Vec::new();
        let us = median_us(run, "sim", name, slice, 10, || {
            black_box(sim.run_batch_into(&tiny.dep.compiled, black_box(&group), &mut outs));
        });
        let same = outs
            .iter()
            .enumerate()
            .all(|(i, r)| tiny.matches(i, mode, Some(&r.output), r.total_cycles));
        run.report.ops(batch as u64);
        run.report
            .check(same, || format!("B={batch}: batched != sequential"));
        us / batch as f64
    };
    let b4 = per_elem(run, 4, "run_batch_into_4");
    let b16 = per_elem(run, 16, "run_batch_into_16");
    run.report.set("sim.b4_us_per_elem", b4);
    run.report.set("sim.b16_us_per_elem", b16);
    run.report.set("sim.batch_amortization", b1_us / b16);

    // What the session plan buys: the same session with planning off.
    let mut unplanned = tiny.dep.simulator(mode);
    unplanned.set_planning(false);
    let (us, _, output) = steady(
        run,
        "run_into_unplanned",
        &tiny.dep.compiled,
        &mut unplanned,
        input,
        slice,
    );
    run.report.set("sim.unplanned_us", us);
    run.report.check(bits(&output) == tiny.oracle[0], || {
        "unplanned != planned".to_string()
    });

    // Per COMP kind, with computed (not measured) operation counts.
    let float = QuantSpec::float32();
    for (name, gflops, strategy) in [
        (
            "sim.spatial_us",
            "sim.spatial_gflops",
            MappingStrategy::all_spatial(&tiny.net),
        ),
        (
            "sim.winograd_us",
            "sim.winograd_gflops",
            MappingStrategy::all_winograd(&tiny.net),
        ),
    ] {
        let (compiled, mut sim) = forced(tiny, &strategy, float);
        let (us, ops, output) = steady(run, "run_into_forced", &compiled, &mut sim, input, slice);
        run.report.set(name, us);
        run.report.set(gflops, ops as f64 / us / 1e3);
        let err =
            output.max_abs_diff(&reference::run_network(&tiny.net, input).expect("reference"));
        run.report.check(err <= REFERENCE_TOLERANCE, || {
            format!("{name}: |sim - reference| = {err}")
        });
    }
    let mut fc_net = NetworkBuilder::new(Shape::new(64, 4, 4))
        .fc("fc1", 512)
        .fc("fc2", 512)
        .fc("fc3", 10)
        .build()
        .expect("FC-only network is consistent");
    synth::bind_random(&mut fc_net, run.seed).expect("bind");
    let fc_dep = Framework::new(tiny.dep.device.clone(), hybriddnn::Profile::pynq_z1())
        .build(&fc_net)
        .expect("FC-only network builds");
    let fc_input = synth::tensor(fc_net.input_shape(), run.seed);
    let mut fc_sim = fc_dep.simulator(mode);
    let (us, ops, output) = steady(
        run,
        "run_into_fc",
        &fc_dep.compiled,
        &mut fc_sim,
        &fc_input,
        slice,
    );
    run.report.set("sim.fc_us", us);
    run.report.set("sim.fc_gflops", ops as f64 / us / 1e3);
    let err = output.max_abs_diff(&reference::run_network(&fc_net, &fc_input).expect("reference"));
    run.report.check(err <= REFERENCE_TOLERANCE, || {
        format!("FC-only: |sim - reference| = {err}")
    });

    // The 7x7 stride-2 stem and the 5x5 decomposition path; and the
    // thread budget a later PR might raise.
    let mut stem_sim = stem.dep.simulator(mode);
    let (t1_us, _, _) = steady(
        run,
        "run_into_stem",
        &stem.dep.compiled,
        &mut stem_sim,
        &stem.inputs[0],
        slice,
    );
    run.report.set("sim.stem_us", t1_us);
    stem_sim.set_threads(2);
    let (t2_us, _, output) = steady(
        run,
        "run_into_stem_t2",
        &stem.dep.compiled,
        &mut stem_sim,
        &stem.inputs[0],
        slice,
    );
    run.report.set("par.t2_speedup", t1_us / t2_us);
    run.report.check(bits(&output) == stem.oracle[0], || {
        "threads=2 != threads=1".to_string()
    });

    // The 12-bit datapath a later PR replaces.
    let quant = QuantSpec::paper_12bit();
    let (compiled, mut qsim) = forced(
        tiny,
        &MappingStrategy::new(tiny.dep.dse.strategy_choices()),
        quant,
    );
    let (us, _, _) = steady(run, "run_into_quant", &compiled, &mut qsim, input, slice);
    run.report.set("sim.quant_b1_us", us);

    // The oracle's own cost.
    let us = median_us(run, "model", "reference", slice, 5, || {
        black_box(reference::run_network(&tiny.net, black_box(input)).expect("reference"));
    });
    run.report.set("model.reference_us", us);
    run.report.set(
        "sim.max_abs_err",
        f64::from(subjects.iter().map(|s| s.max_abs_err).fold(0.0, f32::max)),
    );

    // The shared measurements run traced too, for their spans.
    let budget = run.budget(0.08);
    measure_direct(run, subjects, mode, 1, budget);
    measure_direct(run, subjects, mode, 16, budget);
    measure_build(run, subjects, mode, run.budget(0.03));
    measure_load_cycles(run, subjects, mode, 1, run.budget(0.03));
}
