//! The fixed names and constants of the benchmark.
//!
//! Later issues cite the workload and metric names verbatim, so they are
//! declared once here; `BENCHMARK.json` at the repository root must list
//! exactly these (`list` and the self-tests compare the two). Every rate,
//! window and phase share below is a constant — nothing is calibrated at
//! run time, so two commits always receive the same traffic.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A benchmark workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated statistics repeat exactly; they are compared exactly.
    pub exact: bool,
    /// A regression must also exceed this absolute change (same unit).
    pub floor: f64,
}

/// A per-layer metric from the traced run. They carry no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "design_flow",
        why: "cold path: parse, DSE, compile, first simulation of VGG16@VU9P, then cold model loads; only compiler/DSE/estimator/session set-up work moves it",
    },
    Workload {
        name: "sim_functional",
        why: "hot kernels: one reused functional Simulator per model at B=1 and B=16, no sockets and no runtime; only sim/winograd/par work moves it",
    },
    Workload {
        name: "serve_light",
        why: "serving overhead: timing-only tiny-cnn over TCP, compute near zero, so codec, reactor, registry, batcher and pump are the whole cost",
    },
    Workload {
        name: "serve_heavy",
        why: "serving with compute dominant: functional vgg_tiny over TCP, 12 KiB tensors, milliseconds of kernels against microseconds of framing",
    },
    Workload {
        name: "serve_routed",
        why: "the router hop: serve_light's traffic through cluster::Router to two backends, so the difference to serve_light is the router",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
        floor,
    }
}

pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false, 0.1),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, false, 2.0),
    e2e("build_s", "s", Better::Lower, 0.10, false, 0.0),
    e2e("load_ready_ms", "ms", Better::Lower, 0.20, false, 0.0),
    e2e("sim_gops", "GOPS", Better::Higher, 0.001, true, 0.0),
    e2e("model_error_pct", "%", Better::Lower, 0.001, true, 0.0),
    e2e("infer_per_s", "1/s", Better::Higher, 0.10, false, 0.0),
    e2e("batch_infer_per_s", "1/s", Better::Higher, 0.10, false, 0.0),
    e2e("rps", "1/s", Better::Higher, 0.15, false, 0.0),
    e2e("p50_us", "us", Better::Lower, 0.20, false, 0.0),
    e2e("p99_us", "us", Better::Lower, 0.25, false, 0.0),
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 71] = [
    // design_flow
    pl("core.parse_us", "us", Lower),
    pl("dse.explore_us", "us", Lower),
    pl("dse.candidates", "count", Lower),
    pl("estimator.predict_us", "us", Lower),
    pl("estimator.pred_cycles", "cycles", Lower),
    pl("estimator.error_pct_pynq", "%", Lower),
    pl("sim.gops_pynq", "GOPS", Higher),
    pl("compiler.compile_s", "s", Lower),
    pl("compiler.compile_small_us", "us", Lower),
    pl("compiler.instructions", "count", Lower),
    pl("compiler.dram_words", "words", Lower),
    pl("winograd.kernel_transform_ns", "ns", Lower),
    pl("isa.encode_ns_per_inst", "ns", Lower),
    pl("isa.decode_ns_per_inst", "ns", Lower),
    pl("sim.new_us", "us", Lower),
    pl("sim.first_run_us", "us", Lower),
    pl("sim.replay_ns", "ns", Lower),
    pl("sim.total_cycles", "cycles", Lower),
    pl("sim.busy_load_inp_pct", "%", Lower),
    pl("sim.busy_load_wgt_pct", "%", Lower),
    pl("sim.busy_comp_pct", "%", Higher),
    pl("sim.busy_save_pct", "%", Lower),
    pl("sim.dram_traffic_words", "words", Lower),
    pl("server.build_model_ms", "ms", Lower),
    pl("runtime.service_start_ms", "ms", Lower),
    pl("sim.plan_build_us", "us", Lower),
    pl("server.unload_ms", "ms", Lower),
    // sim_functional
    pl("sim.b1_us", "us", Lower),
    pl("sim.b4_us_per_elem", "us", Lower),
    pl("sim.b16_us_per_elem", "us", Lower),
    pl("sim.batch_amortization", "ratio", Higher),
    pl("sim.spatial_us", "us", Lower),
    pl("sim.winograd_us", "us", Lower),
    pl("sim.fc_us", "us", Lower),
    pl("sim.stem_us", "us", Lower),
    pl("sim.spatial_gflops", "GFLOP/s", Higher),
    pl("sim.winograd_gflops", "GFLOP/s", Higher),
    pl("sim.fc_gflops", "GFLOP/s", Higher),
    pl("sim.unplanned_us", "us", Lower),
    pl("sim.plan_pack_words", "words", Lower),
    pl("sim.quant_b1_us", "us", Lower),
    pl("model.reference_us", "us", Lower),
    pl("par.t2_speedup", "ratio", Higher),
    pl("sim.max_abs_err", "abs", Lower),
    // serve_light, serve_heavy, serve_routed
    pl("sim.self_us", "us", Lower),
    pl("runtime.self_us", "us", Lower),
    pl("server.self_us", "us", Lower),
    pl("cluster.self_us", "us", Lower),
    pl("net.loopback_rtt_us", "us", Lower),
    pl("server.ping_rtt_us", "us", Lower),
    pl("protocol.encode_req_ns", "ns", Lower),
    pl("protocol.decode_req_ns", "ns", Lower),
    pl("protocol.encode_resp_ns", "ns", Lower),
    pl("protocol.decode_resp_ns", "ns", Lower),
    pl("runtime.rps_inproc", "1/s", Higher),
    pl("runtime.mean_batch", "count", Higher),
    pl("runtime.batched_dispatches", "count", Higher),
    pl("runtime.latency_p50_us", "us", Lower),
    pl("runtime.rejected_full", "count", Lower),
    pl("server.served", "count", Higher),
    pl("server.rejected", "count", Lower),
    pl("server.killed_misbehaving", "count", Lower),
    pl("cluster.forwarded", "count", Higher),
    pl("cluster.rerouted", "count", Lower),
    pl("cluster.backend_skew", "ratio", Lower),
    pl("cluster.route_ns", "ns", Lower),
    pl("client.gen_lag_p99_us", "us", Lower),
    pl("client.p99_us", "us", Lower),
    pl("client.p999_us", "us", Lower),
    pl("client.max_rate_ok", "1/s", Higher),
    pl("trace_overhead_pct", "%", Lower),
];

/// The generator's fixed budget: one thread (the caller's), this many
/// connections.
pub const CONNECTIONS: usize = 2;

/// Seeded inputs cycled by every workload.
pub const INPUTS: usize = 64;

/// Set-up is repeated, and the median reported, at least this many
/// times and until this much time has gone into it — a millisecond
/// set-up needs more repeats than a half-second one to read steadily.
pub const SETUP_MIN_REPEATS: usize = 3;
pub const SETUP_MAX_REPEATS: usize = 25;
pub const SETUP_MIN_S: f64 = 0.5;

/// Latency quantiles are taken per window of this many consecutive
/// requests (by due time) and the median window reported. On a two-core
/// host the scheduler parks a server thread behind the spinning
/// generator for milliseconds, several times a second; with short
/// windows such a stall moves a few windows, not the run's p99.
pub const QUANTILE_WINDOW_REQUESTS: usize = 200;

/// The first part of a closed- or open-loop phase is traffic, not
/// measurement: caches fill, lazy session plans are recorded.
pub const WARM_S: f64 = 0.5;

/// Closed-loop throughput is counted per window of this length and the
/// median window reported.
pub const RATE_WINDOW_S: f64 = 0.25;

/// A response not seen this long after the last request was issued is
/// lost (and a failure).
pub const LOST_AFTER_S: f64 = 5.0;

/// A cold-load round sends its inference this long after the model went
/// Ready, off the clock, so the service's workers have parked by then.
pub const LOAD_SETTLE: std::time::Duration = std::time::Duration::from_millis(1);

/// Everything that differs between the three serving workloads.
pub struct Serving {
    pub workload: &'static str,
    /// Zoo name as the registry's resolver knows it.
    pub model: &'static str,
    pub functional: bool,
    /// Backend servers; more than one puts `cluster::Router` in front.
    pub backends: usize,
    /// Service workers per backend.
    pub workers: u32,
    /// Closed-loop requests in flight over both connections.
    pub window: usize,
    /// Open-loop Poisson arrival rate, requests per second.
    pub rate: f64,
    /// Shares of `--seconds`: closed loop, open loop, direct B=1, direct
    /// B=16, build iterations, cold-load rounds.
    pub shares: [f64; 6],
    /// Open-loop requests in flight are capped below the runtime's
    /// admission queue (256), so a stall becomes client-side delay timed
    /// from the due time instead of `QueueFull` failures.
    pub open_cap: usize,
    /// Closed-loop capacity the rate ladder was sized from (req/s on the
    /// host the constants were chosen on; see README).
    pub sized_capacity: f64,
    /// p99 limit of the rate ladder, microseconds.
    pub ladder_limit_us: f64,
}

pub const SERVING: [Serving; 3] = [
    Serving {
        workload: "serve_light",
        model: "tiny-cnn",
        functional: false,
        backends: 1,
        workers: 2,
        window: 64,
        rate: 40_000.0,
        shares: share::SERVE,
        open_cap: 192,
        sized_capacity: 120_000.0,
        ladder_limit_us: 2_000.0,
    },
    Serving {
        workload: "serve_heavy",
        model: "vgg-tiny",
        functional: true,
        backends: 1,
        workers: 2,
        window: 16,
        rate: 250.0,
        shares: share::SERVE_HEAVY,
        open_cap: 192,
        sized_capacity: 1_200.0,
        ladder_limit_us: 50_000.0,
    },
    Serving {
        workload: "serve_routed",
        model: "tiny-cnn",
        functional: false,
        backends: 2,
        workers: 1,
        window: 64,
        rate: 20_000.0,
        shares: share::SERVE,
        open_cap: 192,
        sized_capacity: 60_000.0,
        ladder_limit_us: 2_000.0,
    },
];

/// Shares of the ladder's sized capacity at which the traced run offers
/// open-loop load.
pub const LADDER: [f64; 3] = [1.0 / 3.0, 2.0 / 3.0, 0.9];

/// Phase shares of `--seconds`, per workload. Each row sums to at most 1.
/// The steadiest measurement of a workload gets the least time: VGG16
/// iterations and the heavy closed loop repeat within a percent.
pub mod share {
    /// design_flow: VGG16@VU9P iterations, cold-load rounds, direct
    /// B=1, direct B=16.
    pub const DESIGN: [f64; 4] = [0.50, 0.34, 0.07, 0.07];
    /// sim_functional: B=1, B=16, build iterations, cold-load rounds.
    pub const SIM: [f64; 4] = [0.42, 0.42, 0.05, 0.05];
    /// serve_light, serve_routed: closed loop, open loop, direct B=1,
    /// direct B=16, build iterations, cold-load rounds.
    pub const SERVE: [f64; 6] = [0.36, 0.46, 0.04, 0.04, 0.03, 0.03];
    /// serve_heavy: 250 req/s fill a latency window slowly, so the open
    /// loop gets most of the run.
    pub const SERVE_HEAVY: [f64; 6] = [0.16, 0.60, 0.05, 0.05, 0.04, 0.08];
}

/// `run --smoke`: about a second per main phase.
pub const SMOKE_SECONDS: f64 = 4.0;

/// `--seconds` when none is given; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub fn serving(workload: &str) -> Option<&'static Serving> {
    SERVING.iter().find(|s| s.workload == workload)
}
