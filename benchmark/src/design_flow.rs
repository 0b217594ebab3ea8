//! `design_flow` — the cold path; closed, serial.
//!
//! What an accelerator designer runs and what every model load pays:
//! parse → DSE → compile → `Simulator::new` → first (unplanned, event
//! simulated) run of VGG16@VU9P, then cold `LOAD_MODEL` cycles of the
//! small functional models through the registry. Compiler, DSE,
//! estimator, parser and session creation do all the work here and none
//! in the steady-state workloads.

use crate::spec::{share, QUANTILE_WINDOW_REQUESTS};
use crate::stats::{self, ns_per_call, window_quantiles};
use crate::subject::{
    self, build_subjects, measure_build, measure_direct, measure_load_cycles, Subject,
};
use crate::{host, Run};
use hybriddnn::flow::Deployment;
use hybriddnn::model::LayerKind;
use hybriddnn::{
    parser, Compiler, DseEngine, MappingStrategy, Network, Profile, RunResult, SimMode, Simulator,
    Tensor,
};
use hybriddnn_runtime::{InferenceService, ServiceConfig};
use hybriddnn_winograd::{transform, TileConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VGG16_SPEC: &str = include_str!("../../specs/vgg16.hdnn");
const VU9P_SPEC: &str = include_str!("../../specs/vu9p.fpga");
const PYNQ_SPEC: &str = include_str!("../../specs/pynq_z1.fpga");

/// The small functional models whose cold loads this workload times.
const SMALL: [&str; 2] = ["vgg-tiny", "stem-cnn"];

/// VGG16's 138 M parameters are bound to zeros: throughput and resource
/// results are data-independent (DESIGN.md §2), and zero pages are never
/// touched until the compiler reads them.
fn bind_zeros(net: &mut Network) {
    for i in 0..net.layers().len() {
        let (w, b) = match net.layers()[i].kind() {
            LayerKind::Conv(c) => (c.weight_shape().len(), c.out_channels),
            LayerKind::Fc(fc) => (fc.weight_shape().len(), fc.out_features),
            _ => continue,
        };
        net.bind(i, vec![0.0; w], vec![0.0; b])
            .expect("zero parameters match the layer");
    }
}

/// Everything one VGG16 design-flow iteration measured.
struct Iteration {
    total_s: f64,
    parse_us: f64,
    explore_us: f64,
    compile_s: f64,
    sim_new_us: f64,
    first_run_us: f64,
    predict_us: f64,
    replay_ns: f64,
    /// The simulated and predicted statistics, which must repeat exactly.
    point: Point,
}

#[derive(Debug, Clone, PartialEq)]
struct Point {
    gops: f64,
    error_pct: f64,
    total_cycles: f64,
    pred_cycles: f64,
    candidates: usize,
    instructions: usize,
    dram_words: u64,
    traffic_words: u64,
    busy_pct: [f64; 4],
}

/// One pass of the design flow over VGG16 on the device `fpga_spec`
/// describes.
fn vgg16_iteration(run: &mut Run, iteration: u64, fpga_spec: &str, profile: Profile) -> Iteration {
    let whole = run
        .tracer
        .begin(None, iteration, "client", "design_iteration");

    let t = run.tracer.begin(whole.id(), iteration, "core", "parse");
    let mut net = parser::parse_model(VGG16_SPEC).expect("specs/vgg16.hdnn parses");
    let device = parser::parse_fpga(fpga_spec).expect("device spec parses");
    let parse_us = run.tracer.end(t).as_secs_f64() * 1e6;
    bind_zeros(&mut net);

    let t = run.tracer.begin(whole.id(), iteration, "dse", "explore");
    let dse = DseEngine::new(device.clone(), profile)
        .explore(&net)
        .expect("VGG16 fits the device");
    let explore_us = run.tracer.end(t).as_secs_f64() * 1e6;

    let t = run
        .tracer
        .begin(whole.id(), iteration, "compiler", "compile");
    let compiled = Compiler::new(dse.design.accel)
        .compile(&net, &MappingStrategy::new(dse.strategy_choices()))
        .expect("VGG16 compiles");
    let compile_s = run.tracer.end(t).as_secs_f64();

    let bw = device.instance_bandwidth(dse.design.ni);
    let t = run.tracer.begin(whole.id(), iteration, "sim", "new");
    let mut sim = Simulator::new(&compiled, SimMode::TimingOnly, bw);
    let sim_new_us = run.tracer.end(t).as_secs_f64() * 1e6;

    let input = Tensor::zeros(net.input_shape());
    let t = run.tracer.begin(whole.id(), iteration, "sim", "first_run");
    let first = sim.run(&compiled, &input).expect("timing run");
    let first_run_us = run.tracer.end(t).as_secs_f64() * 1e6;
    let total_s = run.tracer.end(whole).as_secs_f64();

    // Outside the iteration's clock: the replay cost of the planned
    // session, the estimator's own cost, and the simulated statistics.
    const REPLAYS: u32 = 2_000;
    let mut out = RunResult::empty();
    let t = run.tracer.begin(None, iteration, "sim", "replay_x2000");
    for _ in 0..REPLAYS {
        sim.run_into(&compiled, black_box(&input), &mut out)
            .expect("replay");
    }
    let replay_ns = run.tracer.end(t).as_secs_f64() * 1e9 / f64::from(REPLAYS);
    let replay_cycles = out.total_cycles;

    let dep = Deployment {
        device,
        dse,
        compiled,
    };
    let t = run
        .tracer
        .begin(None, iteration, "estimator", "predicted_cycles");
    let pred_cycles = black_box(dep.predicted_cycles());
    let predict_us = run.tracer.end(t).as_secs_f64() * 1e6;

    // Cycle-weighted over the stages: which module bounds the design.
    let stages = &first.stage_stats;
    let cycles: f64 = stages.iter().map(|s| s.cycles).sum();
    let busy_pct = [
        stages.iter().map(|s| s.busy.load_inp).sum::<f64>(),
        stages.iter().map(|s| s.busy.load_wgt).sum::<f64>(),
        stages.iter().map(|s| s.busy.comp).sum::<f64>(),
        stages.iter().map(|s| s.busy.save).sum::<f64>(),
    ]
    .map(|busy| busy / cycles * 100.0);
    let point = Point {
        gops: dep.throughput_gops(&first),
        error_pct: (pred_cycles - first.total_cycles).abs() / first.total_cycles * 100.0,
        total_cycles: first.total_cycles,
        pred_cycles,
        candidates: dep.dse.candidates,
        instructions: dep.compiled.instruction_count(),
        dram_words: dep.compiled.memory_map().total_words(),
        traffic_words: first.stage_stats.iter().map(|s| s.traffic.total()).sum(),
        busy_pct,
    };
    run.report.ops(1);
    run.report.check(replay_cycles == first.total_cycles, || {
        format!(
            "planned replay {replay_cycles} cycles != first run {}",
            first.total_cycles
        )
    });
    Iteration {
        total_s,
        parse_us,
        explore_us,
        compile_s,
        sim_new_us,
        first_run_us,
        predict_us,
        replay_ns,
        point,
    }
}

/// VGG16@VU9P iterations until the budget is spent; the first is the
/// warm-up (first-touch of half a gigabyte of parameters) and is
/// dropped. Simulated statistics must be identical across iterations.
fn vgg16_phase(run: &mut Run, budget: Duration) -> Vec<Iteration> {
    let phase = Instant::now();
    let mut iterations = Vec::new();
    let mut n = 0u64;
    while phase.elapsed() < budget || iterations.len() < 3 {
        iterations.push(vgg16_iteration(run, n, VU9P_SPEC, Profile::vu9p()));
        n += 1;
    }
    let reference = iterations[0].point.clone();
    let same = iterations.iter().all(|it| it.point == reference);
    run.report.check(same, || {
        "simulated statistics differ between iterations".to_string()
    });
    run.report
        .phase("vgg16_vu9p", phase.elapsed().as_secs_f64());
    iterations.remove(0);
    iterations
}

fn set_up(run: &mut Run) -> Vec<Subject> {
    run.set_up(|run, _previous| {
        let t0 = Instant::now();
        // The specs parse and the small models build with their oracles.
        black_box(parser::parse_model(VGG16_SPEC).expect("vgg16 spec"));
        black_box(parser::parse_fpga(VU9P_SPEC).expect("vu9p spec"));
        let subjects = build_subjects(run, &SMALL);
        (subjects, t0.elapsed().as_secs_f64())
    })
}

pub fn run(run: &mut Run) {
    let subjects = set_up(run);
    if run.tracer.on() {
        return traced(run, &subjects);
    }

    let iterations = vgg16_phase(run, run.budget(share::DESIGN[0]));
    let totals: Vec<f64> = iterations.iter().map(|it| it.total_s).collect();
    run.report.set_median("build_s", &totals);
    run.report.set("sim_gops", iterations[0].point.gops);
    run.report
        .set("model_error_pct", iterations[0].point.error_pct);

    let cycles = measure_load_cycles(
        run,
        &subjects,
        SimMode::Functional,
        1,
        run.budget(share::DESIGN[1]),
    );
    run.report.phase("load_cycles", cycles.elapsed_s);
    run.report
        .set_trimmed_mean("load_ready_ms", &cycles.load_ms);
    run.report
        .set("rps", cycles.round_us.len() as f64 / cycles.busy_s);
    for (name, q) in [("p50_us", 0.50), ("p99_us", 0.99)] {
        let windows = window_quantiles(&cycles.round_us, &[], 0, QUANTILE_WINDOW_REQUESTS, q);
        run.report.set_median(name, &windows);
    }

    let b1 = measure_direct(
        run,
        &subjects,
        SimMode::Functional,
        1,
        run.budget(share::DESIGN[2]),
    );
    run.report.phase("direct_b1", b1.elapsed_s);
    run.report.set_median("infer_per_s", &b1.rates);
    let b16 = measure_direct(
        run,
        &subjects,
        SimMode::Functional,
        16,
        run.budget(share::DESIGN[3]),
    );
    run.report.phase("direct_b16", b16.elapsed_s);
    run.report.set_median("batch_infer_per_s", &b16.rates);

    run.report.set("peak_rss_mb", host::peak_rss_mb());
}

fn traced(run: &mut Run, subjects: &[Subject]) {
    // The VGG16@VU9P flow, peeled into its layers.
    let iterations = vgg16_phase(run, run.budget(0.40));
    let median =
        |f: fn(&Iteration) -> f64| stats::median(&iterations.iter().map(f).collect::<Vec<_>>());
    let point = iterations[0].point.clone();
    run.report.set("core.parse_us", median(|it| it.parse_us));
    run.report.set("dse.explore_us", median(|it| it.explore_us));
    run.report.set("dse.candidates", point.candidates as f64);
    run.report
        .set("estimator.predict_us", median(|it| it.predict_us));
    run.report.set("estimator.pred_cycles", point.pred_cycles);
    run.report
        .set("compiler.compile_s", median(|it| it.compile_s));
    run.report
        .set("compiler.instructions", point.instructions as f64);
    run.report
        .set("compiler.dram_words", point.dram_words as f64);
    run.report.set("sim.new_us", median(|it| it.sim_new_us));
    run.report
        .set("sim.first_run_us", median(|it| it.first_run_us));
    run.report.set("sim.replay_ns", median(|it| it.replay_ns));
    run.report.set("sim.total_cycles", point.total_cycles);
    run.report.set("sim.busy_load_inp_pct", point.busy_pct[0]);
    run.report.set("sim.busy_load_wgt_pct", point.busy_pct[1]);
    run.report.set("sim.busy_comp_pct", point.busy_pct[2]);
    run.report.set("sim.busy_save_pct", point.busy_pct[3]);
    run.report
        .set("sim.dram_traffic_words", point.traffic_words as f64);

    // The paper's second operating point, built once.
    let t0 = Instant::now();
    let pynq = vgg16_iteration(run, u64::MAX, PYNQ_SPEC, Profile::pynq_z1());
    run.report.phase("vgg16_pynq", t0.elapsed().as_secs_f64());
    run.report
        .set("estimator.error_pct_pynq", pynq.point.error_pct);
    run.report.set("sim.gops_pynq", pynq.point.gops);

    // What a cold load is made of, on vgg_tiny.
    let tiny = &subjects[0];
    let t0 = Instant::now();
    let resolved = subject::resolve(tiny.model, run.seed);
    let mut compile_us = Vec::new();
    let mut build_ms = Vec::new();
    let mut start_ms = Vec::new();
    let mut plan_us = Vec::new();
    for i in 0..40u64 {
        let t = run.tracer.begin(None, i, "compiler", "compile_small");
        let compiled = Compiler::new(tiny.dep.dse.design.accel)
            .compile(
                &resolved.net,
                &MappingStrategy::new(tiny.dep.dse.strategy_choices()),
            )
            .expect("vgg_tiny compiles");
        compile_us.push(run.tracer.end(t).as_secs_f64() * 1e6);
        black_box(compiled);

        let t = run.tracer.begin(None, i, "server", "build_model");
        let built = hybriddnn_server::build_model(&resolved).expect("build_model");
        build_ms.push(run.tracer.end(t).as_secs_f64() * 1e3);

        let config = ServiceConfig::new(SimMode::Functional, built.bandwidth)
            .with_cost_hint(built.predicted_cycles);
        let t = run.tracer.begin(None, i, "runtime", "service_start");
        let service = InferenceService::start(Arc::clone(&built.compiled), config);
        start_ms.push(run.tracer.end(t).as_secs_f64() * 1e3);
        service.shutdown();

        // The session plan is recorded by the first functional run.
        let mut sim = Simulator::new(&built.compiled, SimMode::Functional, built.bandwidth);
        let mut out = RunResult::empty();
        let t = run.tracer.begin(None, i, "sim", "first_functional_run");
        sim.run_into(&built.compiled, &tiny.inputs[0], &mut out)
            .expect("first run");
        let first = run.tracer.end(t);
        let t = run.tracer.begin(None, i, "sim", "steady_functional_run");
        sim.run_into(&built.compiled, &tiny.inputs[0], &mut out)
            .expect("steady run");
        let steady = run.tracer.end(t);
        plan_us.push((first.as_secs_f64() - steady.as_secs_f64()) * 1e6);
        run.report.ops(1);
        let ok = tiny.matches(0, SimMode::Functional, Some(&out.output), out.total_cycles);
        run.report.check(ok, || {
            format!("cold-load probe {i}: not the oracle's output")
        });
    }
    run.report
        .set_median("compiler.compile_small_us", &compile_us);
    run.report.set_median("server.build_model_ms", &build_ms);
    run.report.set_median("runtime.service_start_ms", &start_ms);
    run.report.set_median("sim.plan_build_us", &plan_us);
    run.report
        .phase("cold_load_probes", t0.elapsed().as_secs_f64());

    // Micro-kernels of the compiler: Winograd kernel transform and the
    // instruction codec.
    let g: Vec<f64> = (0..9).map(|i| f64::from(i) * 0.125 - 0.5).collect();
    run.report.set(
        "winograd.kernel_transform_ns",
        ns_per_call(200_000, || {
            black_box(transform::transform_kernel(TileConfig::F4x4, black_box(&g)));
        }),
    );
    let program = tiny.dep.compiled.layers()[0].program();
    let words = program.encode().expect("compiled programs encode");
    let per_inst = program.len().max(1) as f64;
    let reps = (2_000_000 / program.len().max(1)).max(1) as u32;
    run.report.set(
        "isa.encode_ns_per_inst",
        ns_per_call(reps, || {
            black_box(black_box(program).encode().expect("encode"));
        }) / per_inst,
    );
    run.report.set(
        "isa.decode_ns_per_inst",
        ns_per_call(reps, || {
            black_box(hybriddnn::Program::decode(black_box(&words)).expect("decode"));
        }) / per_inst,
    );

    let cycles = measure_load_cycles(run, subjects, SimMode::Functional, 1, run.budget(0.15));
    run.report.phase("load_cycles", cycles.elapsed_s);
    run.report.set_median("server.unload_ms", &cycles.unload_ms);

    // The shared measurements run traced too, for their spans.
    let budget = run.budget(0.05);
    measure_build(run, subjects, SimMode::Functional, budget);
    measure_direct(run, subjects, SimMode::Functional, 1, budget);
}
