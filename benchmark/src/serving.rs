//! `serve_light`, `serve_heavy`, `serve_routed` — in-process servers
//! driven over real sockets by the one-thread, two-connection generator.
//!
//! Phase A is a closed loop (a fixed window in flight) and gives `rps`;
//! phase B is an open loop (seeded Poisson arrivals at a fixed rate, each
//! request timed from its due time) and gives `p50_us` / `p99_us`. Every
//! response is checked against a direct-`Simulator` oracle computed in
//! set-up, after its arrival was stamped.
//!
//! The traced run peels the layers: the same request replayed serially,
//! one in flight, at each depth — `Simulator::run_into` alone;
//! `InferenceService::submit` → `wait`; TCP to the `Server`; TCP through
//! the `Router` — so a layer's self time is its depth's median minus the
//! depth below, and the self times sum to the outermost median.

use crate::loadgen::{Completion, LoadGen, Plan, Stop};
use crate::spec::{Serving, CONNECTIONS, LADDER, QUANTILE_WINDOW_REQUESTS, RATE_WINDOW_S, WARM_S};
use crate::stats::{self, ns_per_call, poisson_schedule, window_quantiles};
use crate::subject::{
    build_subjects, measure_build, measure_direct, measure_load_cycles, sim_point, Subject, DEVICE,
};
use crate::{host, Run};
use hybriddnn::{RunResult, SimMode, Tensor};
use hybriddnn_cluster::plan::{self, ModelKey};
use hybriddnn_cluster::{Router, RouterConfig, RouterStats};
use hybriddnn_net::{Interest, Poller, Token};
use hybriddnn_runtime::{InferenceService, ServiceConfig};
use hybriddnn_server::protocol::{
    ModelState, OutputBody, StatsBody, StreamDecoder, TimingBody, MAX_PAYLOAD,
};
use hybriddnn_server::{
    zoo_resolver, Body, Client, Frame, LoadRequest, Registry, Server, ServerConfig,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The registry name the served model is published under.
const NAME: &str = "served";

/// Serial replays per depth of the layer peel.
const fn peel_requests(functional: bool) -> u64 {
    if functional {
        300
    } else {
        3_000
    }
}

fn mode_of(cfg: &Serving) -> SimMode {
    if cfg.functional {
        SimMode::Functional
    } else {
        SimMode::TimingOnly
    }
}

/// The servers (and router) under test.
struct Stack {
    servers: Vec<Server>,
    router: Option<Router>,
    /// Where the generator connects: the router if there is one.
    front: SocketAddr,
    /// The model id to address at `front`.
    model_id: u32,
    /// The first backend and the model's id there (the peel's TCP depth).
    backend: SocketAddr,
    backend_model_id: u32,
}

fn bring_up(cfg: &Serving, seed: u64) -> Stack {
    let mut servers = Vec::new();
    let mut ids = Vec::new();
    for _ in 0..cfg.backends {
        let registry = Arc::new(Registry::new(zoo_resolver()));
        let mut load = LoadRequest::new(NAME, cfg.model, DEVICE);
        load.seed = seed;
        load.workers = cfg.workers;
        load.functional = cfg.functional;
        ids.push(registry.load_blocking(load).expect("served model loads"));
        let config = ServerConfig {
            io_threads: 1,
            acceptors: 1,
            ..ServerConfig::default()
        };
        servers.push(Server::bind(registry, "127.0.0.1:0", config).expect("server binds"));
    }
    let backend = servers[0].local_addr();
    if cfg.backends == 1 {
        return Stack {
            servers,
            router: None,
            front: backend,
            model_id: ids[0],
            backend,
            backend_model_id: ids[0],
        };
    }
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(addrs)).expect("router binds");
    // The router learns the fleet from its timed gauge refresh: wait
    // until it lists the model Ready, on a connection closed again
    // before the generator opens its own.
    let mut control = Client::connect(router.local_addr()).expect("router accepts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let model_id = loop {
        let models = control
            .list_models()
            .expect("LIST_MODELS through the router");
        if let Some(m) = models
            .iter()
            .find(|m| m.name == NAME && m.state == ModelState::Ready)
        {
            break m.model_id;
        }
        assert!(Instant::now() < deadline, "router never saw {NAME} Ready");
        std::thread::sleep(Duration::from_micros(500));
    };
    Stack {
        front: router.local_addr(),
        router: Some(router),
        servers,
        model_id,
        backend,
        backend_model_id: ids[0],
    }
}

/// Final gauges of every backend and of the router.
fn tear_down(stack: Stack) -> (Vec<StatsBody>, Option<RouterStats>) {
    let router = stack.router.map(Router::shutdown);
    let servers = stack.servers.into_iter().map(Server::shutdown).collect();
    (servers, router)
}

/// The workload's request for one input: `INFER` of a functional model,
/// `INFER_TIMING` of a timing-only one.
fn request(tensor: Tensor, functional: bool, model_id: u32) -> Frame {
    let body = if functional {
        Body::Infer { tensor }
    } else {
        Body::InferTiming { tensor }
    };
    let mut frame = Frame::new(0, body);
    frame.model_id = model_id;
    frame
}

fn templates(subject: &Subject, functional: bool, model_id: u32) -> Vec<Vec<u8>> {
    subject
        .inputs
        .iter()
        .map(|tensor| request(tensor.clone(), functional, model_id).encode())
        .collect()
}

/// Whether `frame` is the oracle's answer to request `seq`.
fn right_answer(subject: &Subject, mode: SimMode, seq: u64, frame: &Frame) -> bool {
    match &frame.body {
        Body::Output(OutputBody {
            tensor,
            total_cycles,
            ..
        }) => {
            mode == SimMode::Functional
                && subject.matches(seq as usize, mode, Some(tensor), *total_cycles)
        }
        Body::Timing(TimingBody { total_cycles, .. }) => {
            mode == SimMode::TimingOnly && subject.matches(seq as usize, mode, None, *total_cycles)
        }
        _ => false,
    }
}

/// Everything a serving run holds while it measures.
struct Rig<'a> {
    cfg: &'a Serving,
    mode: SimMode,
    subject: Subject,
    stack: Stack,
    gen: LoadGen,
    templates: Vec<Vec<u8>>,
}

/// Brings the stack up several times, keeping the last, and reports the
/// median set-up time: oracle, model load, bind, (router,) connect.
fn set_up<'a>(run: &mut Run, cfg: &'a Serving) -> Rig<'a> {
    run.set_up(|run, previous: Option<Rig<'a>>| {
        if let Some(Rig { stack, gen, .. }) = previous {
            drop(gen);
            tear_down(stack);
        }
        let t0 = Instant::now();
        let subject = build_subjects(run, &[cfg.model]).remove(0);
        let stack = bring_up(cfg, run.seed);
        // Loader threads may still be exiting: the count can only fall.
        let threads = host::threads();
        let gen = LoadGen::connect(stack.front).expect("generator connects");
        let templates = templates(&subject, cfg.functional, stack.model_id);
        let seconds = t0.elapsed().as_secs_f64();
        // The fixed host budget: the generator is the calling thread.
        let ok = host::threads() <= threads && gen.connections() == CONNECTIONS;
        run.report.check(ok, || {
            "the generator exceeded one thread / two connections".to_string()
        });
        let rig = Rig {
            cfg,
            mode: mode_of(cfg),
            subject,
            stack,
            gen,
            templates,
        };
        (rig, seconds)
    })
}

/// What one phase of traffic measured.
#[derive(Default)]
struct Traffic {
    issued: u64,
    /// Good responses.
    answered: u64,
    failed: u64,
    /// `(due ns into the phase, latency from due µs)` of good responses.
    ok: Vec<(u64, f64)>,
    /// Due times (ns into the phase) of failed or lost requests.
    failed_due: Vec<u64>,
    /// How late each request was sent, µs.
    gen_lag_us: Vec<f64>,
    /// Good responses per rate window after the warm-up.
    per_window: Vec<u64>,
    /// The phase's planned length, its warm-up and its rate window.
    phase_s: f64,
    warm_s: f64,
    rate_window_s: f64,
    elapsed_s: f64,
}

impl Traffic {
    /// A phase of `phase_s` seconds. Short (smoke) phases shrink the
    /// warm-up and the windows with them.
    fn planned(phase_s: f64) -> Traffic {
        let warm_s = WARM_S.min(phase_s / 4.0);
        Traffic {
            phase_s,
            warm_s,
            rate_window_s: RATE_WINDOW_S.min((phase_s - warm_s) / 2.0),
            ..Traffic::default()
        }
    }

    /// Responses per second of every full rate window; the metric is
    /// their median.
    fn rps_windows(&self) -> Vec<f64> {
        let full = ((self.phase_s - self.warm_s) / self.rate_window_s).floor() as usize;
        self.per_window
            .iter()
            .take(full)
            .map(|&n| n as f64 / self.rate_window_s)
            .collect()
    }

    /// A latency quantile of every window of consecutive requests; the
    /// metric is their median. A phase that answered nothing reads +∞.
    fn quantile_windows(&self, q: f64) -> Vec<f64> {
        let warm = (self.warm_s * 1e9) as u64;
        let windows = window_quantiles(
            &self.ok,
            &self.failed_due,
            warm,
            QUANTILE_WINDOW_REQUESTS,
            q,
        );
        if windows.is_empty() {
            vec![f64::INFINITY]
        } else {
            windows
        }
    }

    /// Quantile over every request after the warm-up, unwindowed.
    fn whole_run_quantile(&self, q: f64) -> f64 {
        let warm = (self.warm_s * 1e9) as u64;
        let mut ok: Vec<f64> = self
            .ok
            .iter()
            .filter(|s| s.0 >= warm)
            .map(|s| s.1)
            .collect();
        stats::sort(&mut ok);
        let failed = self.failed_due.iter().filter(|&&d| d >= warm).count();
        stats::latency_quantile(&ok, failed, q)
    }
}

/// Drives one phase against the rig's front address. `spans` records a
/// client span per request; `latencies` keeps every request's latency
/// (the open loop needs them, the closed loop only counts).
fn drive(
    run: &mut Run,
    rig: &mut Rig<'_>,
    plan: &Plan<'_>,
    spans: bool,
    latencies: bool,
    name: &'static str,
    phase_s: f64,
) -> Traffic {
    let mut t = Traffic::planned(phase_s);
    let (subject, mode) = (&rig.subject, rig.mode);
    let origin = Instant::now();
    let since = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
    let warm = (t.warm_s * 1e9) as u64;
    let window = (t.rate_window_s * 1e9) as u64;
    let tracer = &mut run.tracer;
    let outcome = rig.gen.drive(
        origin,
        &rig.templates,
        plan,
        &mut |seq, frame| right_answer(subject, mode, seq, frame),
        &mut |c: Completion| {
            let due = since(c.due);
            if !c.ok {
                t.failed_due.push(due);
            } else if let Some(after) = since(c.done).checked_sub(warm) {
                let w = (after / window) as usize;
                if t.per_window.len() <= w {
                    t.per_window.resize(w + 1, 0);
                }
                t.per_window[w] += 1;
            }
            if latencies {
                t.gen_lag_us.push((c.sent - c.due).as_secs_f64() * 1e6);
                if c.ok {
                    t.ok.push((due, (c.done - c.due).as_secs_f64() * 1e6));
                }
            }
            t.answered += u64::from(c.ok);
            if spans {
                tracer.record(None, c.seq, "client", name, c.sent, c.done);
            }
        },
    );
    t.elapsed_s = origin.elapsed().as_secs_f64();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            run.report.ops(1);
            run.report
                .fail(1, || format!("{name}: connection failed: {e}"));
            return t;
        }
    };
    t.failed_due
        .extend(outcome.lost_due.iter().map(|&d| since(d)));
    t.issued = outcome.issued;
    t.failed = t.failed_due.len() as u64;
    run.report.ops(t.issued);
    run.report.fail(t.failed, || {
        format!(
            "{name}: {} of {} requests failed ({} lost)",
            t.failed,
            t.issued,
            outcome.lost_due.len()
        )
    });
    t
}

fn closed(run: &mut Run, rig: &mut Rig<'_>, budget: Duration, spans: bool) -> Traffic {
    let plan = Plan::Closed {
        window: rig.cfg.window,
        stop: Stop::After(budget),
    };
    drive(
        run,
        rig,
        &plan,
        spans,
        false,
        "closed_request",
        budget.as_secs_f64(),
    )
}

fn open(run: &mut Run, rig: &mut Rig<'_>, rate: f64, budget: Duration, spans: bool) -> Traffic {
    let due_ns = poisson_schedule(run.seed, rate, budget.as_secs_f64());
    let plan = Plan::Open {
        due_ns: &due_ns,
        cap: rig.cfg.open_cap,
    };
    drive(
        run,
        rig,
        &plan,
        spans,
        true,
        "open_request",
        budget.as_secs_f64(),
    )
}

/// The server's `STATS`, asked over one of the generator's own
/// connections so that no third connection ever reaches the server.
fn wire_stats(run: &mut Run, rig: &mut Rig<'_>) -> Option<StatsBody> {
    let ask = [Frame::new(0, Body::Stats).encode()];
    let plan = Plan::Closed {
        window: 1,
        stop: Stop::Count(1),
    };
    let mut stats = None;
    let asked = rig.gen.drive(
        Instant::now(),
        &ask,
        &plan,
        &mut |_, frame| {
            if let Body::StatsReply(body) = &frame.body {
                stats = Some(body.clone());
            }
            true
        },
        &mut |_| {},
    );
    run.report.ops(1);
    run.report.check(asked.is_ok() && stats.is_some(), || {
        "STATS went unanswered".to_string()
    });
    stats
}

pub fn run(run: &mut Run, cfg: &Serving) {
    let mut rig = set_up(run, cfg);
    if run.tracer.on() {
        return traced(run, rig);
    }
    let mode = rig.mode;
    let subjects = std::slice::from_ref(&rig.subject);

    // The workload's own model through the interfaces below the sockets.
    let b1 = measure_direct(run, subjects, mode, 1, run.budget(cfg.shares[2]));
    run.report.phase("direct_b1", b1.elapsed_s);
    run.report.set_median("infer_per_s", &b1.rates);
    let b16 = measure_direct(run, subjects, mode, 16, run.budget(cfg.shares[3]));
    run.report.phase("direct_b16", b16.elapsed_s);
    run.report.set_median("batch_infer_per_s", &b16.rates);
    let builds = measure_build(run, subjects, mode, run.budget(cfg.shares[4]));
    run.report.set_median("build_s", &builds);
    let cycles = measure_load_cycles(run, subjects, mode, cfg.workers, run.budget(cfg.shares[5]));
    run.report.phase("load_cycles", cycles.elapsed_s);
    run.report
        .set_trimmed_mean("load_ready_ms", &cycles.load_ms);
    let (gops, error_pct) = sim_point(subjects);
    run.report.set("sim_gops", gops);
    run.report.set("model_error_pct", error_pct);

    let budget = run.budget(cfg.shares[0]);
    let a = closed(run, &mut rig, budget, false);
    run.report.phase("closed_loop", a.elapsed_s);
    run.report.set_median("rps", &a.rps_windows());

    let budget = run.budget(cfg.shares[1]);
    let b = open(run, &mut rig, cfg.rate, budget, false);
    run.report.phase("open_loop", b.elapsed_s);
    run.report.set_median("p50_us", &b.quantile_windows(0.50));
    run.report.set_median("p99_us", &b.quantile_windows(0.99));
    run.report
        .context
        .push(("open_loop.gen_lag_us", stats::Summary::of(&b.gen_lag_us)));

    // The server's own view agrees with the fixed budget and the count.
    if cfg.backends == 1 {
        let peak = wire_stats(run, &mut rig).map_or(0, |s| s.peak_connections as usize);
        run.report.check(peak == CONNECTIONS, || {
            format!("{peak} connections reached the server")
        });
    }
    let answered = a.answered + b.answered;
    let Rig { stack, gen, .. } = rig;
    drop(gen);
    let (servers, _) = tear_down(stack);
    let served: u64 = servers.iter().map(|s| s.completed).sum();
    run.report.check(served == answered, || {
        format!("servers completed {served} requests, the generator saw {answered}")
    });
    run.report.set("peak_rss_mb", host::peak_rss_mb());
}

/// How a serial replay's spans are labelled and linked: its layer, its
/// name, and per request the span one depth up that it is a child of.
struct Depth<'a> {
    layer: &'static str,
    name: &'static str,
    parents: Option<&'a [Option<u32>]>,
}

/// Median round trip (µs) of `n` serial requests through a generator,
/// and the spans' ids by request for the peel's parent links.
fn serial(
    run: &mut Run,
    gen: &mut LoadGen,
    templates: &[Vec<u8>],
    n: u64,
    depth: Depth<'_>,
    check: &mut dyn FnMut(u64, &Frame) -> bool,
) -> (f64, Vec<Option<u32>>) {
    let Depth {
        layer,
        name,
        parents,
    } = depth;
    let mut us = Vec::with_capacity(n as usize);
    let mut ids = vec![None; n as usize];
    let mut bad = 0u64;
    let plan = Plan::Closed {
        window: 1,
        stop: Stop::Count(n),
    };
    let outcome = gen.drive(Instant::now(), templates, &plan, check, &mut |c| {
        us.push((c.done - c.sent).as_secs_f64() * 1e6);
        bad += u64::from(!c.ok);
        let parent = parents.and_then(|p| p[c.seq as usize]);
        ids[c.seq as usize] = run
            .tracer
            .record(parent, c.seq, layer, name, c.sent, c.done);
    });
    run.report.ops(n);
    match outcome {
        Ok(o) => run.report.fail(bad + o.lost_due.len() as u64, || {
            format!("{name}: {bad} wrong answers, {} lost", o.lost_due.len())
        }),
        Err(e) => run
            .report
            .fail(1, || format!("{name}: connection failed: {e}")),
    }
    (stats::median(&us), ids)
}

/// Round trip (µs) of `bytes` through an echo server built on
/// `net::Poller`: the floor under every TCP depth.
fn loopback_rtt_us(run: &mut Run, bytes: usize, n: u32) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("echo binds");
    let addr = listener.local_addr().expect("echo address");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("echo accepts");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller
            .register(stream.as_raw_fd(), Token(0), Interest::READABLE)
            .expect("register");
        let mut events = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            poller.wait(&mut events, None).expect("poll");
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => {
                        // Loopback socket buffers hold a request-sized
                        // echo; a short write would be an error here.
                        let mut sent = 0;
                        while sent < n {
                            match stream.write(&buf[sent..n]) {
                                Ok(k) => sent += k,
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                                Err(_) => return,
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => return,
                }
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("echo connects");
    stream.set_nodelay(true).expect("nodelay");
    let out = vec![0x5au8; bytes];
    let mut back = vec![0u8; bytes];
    let mut us = Vec::with_capacity(n as usize);
    for i in 0..n {
        let t = run.tracer.begin(None, u64::from(i), "net", "loopback_echo");
        stream.write_all(&out).expect("echo write");
        stream.read_exact(&mut back).expect("echo read");
        us.push(run.tracer.end(t).as_secs_f64() * 1e6);
    }
    run.report.ops(u64::from(n));
    run.report
        .check(back == out, || "the echo changed the bytes".to_string());
    drop(stream);
    echo.join().expect("echo thread");
    stats::median(&us)
}

/// The frame codec alone: encode and decode of this workload's request
/// and response frames.
fn codec_probes(run: &mut Run, rig: &Rig<'_>) {
    let input = rig.subject.inputs[0].clone();
    let output = Tensor::from_vec(
        rig.subject.dep.compiled.output_shape(),
        rig.subject.oracle[0]
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect(),
    )
    .expect("oracle output has the output shape");
    let request = request(input, rig.cfg.functional, rig.stack.model_id);
    let response = Frame::new(
        1,
        if rig.cfg.functional {
            Body::Output(OutputBody {
                tensor: output,
                total_cycles: rig.subject.cycles,
                latency_nanos: 1,
                batch_size: 1,
                worker: 0,
                degraded: false,
            })
        } else {
            Body::Timing(TimingBody {
                total_cycles: rig.subject.cycles,
                latency_nanos: 1,
                batch_size: 1,
                worker: 0,
                degraded: false,
            })
        },
    );
    const N: u32 = 20_000;
    for (frame, encode, decode) in [
        (&request, "protocol.encode_req_ns", "protocol.decode_req_ns"),
        (
            &response,
            "protocol.encode_resp_ns",
            "protocol.decode_resp_ns",
        ),
    ] {
        let mut buf = Vec::new();
        run.report.set(
            encode,
            ns_per_call(N, || {
                buf.clear();
                black_box(frame).encode_into(&mut buf);
            }),
        );
        let mut decoder = StreamDecoder::new(MAX_PAYLOAD);
        let mut round_trips = true;
        run.report.set(
            decode,
            ns_per_call(N, || {
                decoder.extend(black_box(&buf));
                round_trips &= matches!(decoder.next_frame(), Ok(Some(ref f)) if f == frame);
            }),
        );
        run.report.ops(1);
        run.report.check(round_trips, || {
            format!("{decode}: the frame did not round-trip")
        });
    }
}

/// The runtime alone: a service configured as the registry configures
/// it, driven in process — serially for the peel, then closed-loop at
/// the workload's window for the ceiling under `rps`.
fn runtime_probes(
    run: &mut Run,
    rig: &Rig<'_>,
    n: u64,
    parents: &[Option<u32>],
    budget: Duration,
) -> (f64, Vec<Option<u32>>) {
    let subject = &rig.subject;
    let dep = &subject.dep;
    let bandwidth = dep.device.instance_bandwidth(dep.dse.design.ni);
    let config = ServiceConfig::new(rig.mode, bandwidth)
        .with_workers(rig.cfg.workers as usize)
        .with_cost_hint(dep.predicted_cycles());
    let service = InferenceService::start(Arc::new(dep.compiled.clone()), config);

    let mut us = Vec::with_capacity(n as usize);
    let mut ids = vec![None; n as usize];
    for i in 0..n {
        let input = subject.inputs[i as usize % subject.inputs.len()].clone();
        let t = run
            .tracer
            .begin(parents[i as usize], i, "runtime", "submit_wait");
        let answer = service.submit(input, None).and_then(|handle| handle.wait());
        ids[i as usize] = t.id();
        us.push(run.tracer.end(t).as_secs_f64() * 1e6);
        let ok = answer
            .is_ok_and(|r| subject.matches(i as usize, rig.mode, Some(&r.output), r.total_cycles));
        run.report.ops(1);
        run.report.check(ok, || {
            format!("in-process request {i}: not the oracle's answer")
        });
    }

    let (tx, rx) = mpsc::channel();
    let phase = Instant::now();
    let (mut sent, mut done, mut bad) = (0u64, 0u64, 0u64);
    let t = run.tracer.begin(None, 0, "runtime", "closed_loop_inproc");
    while phase.elapsed() < budget || done < sent {
        while phase.elapsed() < budget && sent - done < rig.cfg.window as u64 {
            let input = subject.inputs[sent as usize % subject.inputs.len()].clone();
            match service.submit_routed(input, None, tx.clone(), sent) {
                Ok(_) => sent += 1,
                Err(_) => {
                    bad += 1;
                    break;
                }
            }
        }
        let Ok((tag, answer)) = rx.recv_timeout(Duration::from_secs(5)) else {
            bad += sent - done;
            break;
        };
        done += 1;
        let ok = answer.is_ok_and(|r| {
            subject.matches(tag as usize, rig.mode, Some(&r.output), r.total_cycles)
        });
        bad += u64::from(!ok);
    }
    let elapsed = run.tracer.end(t).as_secs_f64();
    run.report.ops(sent);
    run.report
        .fail(bad, || format!("in-process closed loop: {bad} bad answers"));
    run.report.set("runtime.rps_inproc", done as f64 / elapsed);
    service.shutdown();
    (stats::median(&us), ids)
}

fn traced(run: &mut Run, mut rig: Rig<'_>) {
    let cfg = rig.cfg;
    let mode = rig.mode;
    let n = peel_requests(cfg.functional);

    // Tracing overhead: the same closed loop without and with a span per
    // request.
    let budget = run.budget(0.10);
    let plain = closed(run, &mut rig, budget, false);
    let spanned = closed(run, &mut rig, budget, true);
    run.report.phase("closed_loop_untraced", plain.elapsed_s);
    run.report.phase("closed_loop_traced", spanned.elapsed_s);
    let rps_plain = stats::median(&plain.rps_windows());
    let rps_spanned = stats::median(&spanned.rps_windows());
    run.report.set(
        "trace_overhead_pct",
        (rps_plain - rps_spanned) / rps_plain * 100.0,
    );

    // The open loop at the workload's fixed rate, whole-run quantiles.
    let budget = run.budget(0.14);
    let fixed = open(run, &mut rig, cfg.rate, budget, true);
    run.report.phase("open_loop_traced", fixed.elapsed_s);
    let mut lag = fixed.gen_lag_us.clone();
    stats::sort(&mut lag);
    run.report
        .set("client.gen_lag_p99_us", stats::quantile(&lag, 0.99));
    run.report
        .set("client.p99_us", fixed.whole_run_quantile(0.99));
    run.report
        .set("client.p999_us", fixed.whole_run_quantile(0.999));

    // The rate ladder: the highest offered rate whose p99 (the median
    // window's, as `p99_us`) stays within the limit with no growing
    // backlog — timed from the due time, a backlog shows as a last
    // window whose median is already past the limit.
    let budget = run.budget(0.10);
    let mut max_ok = 0.0f64;
    for step in LADDER {
        let rate = cfg.sized_capacity * step;
        let t = open(run, &mut rig, rate, budget, false);
        let p99 = stats::median(&t.quantile_windows(0.99));
        let last_p50 = *t.quantile_windows(0.50).last().expect("never empty");
        if t.failed == 0 && p99 <= cfg.ladder_limit_us && last_p50 <= cfg.ladder_limit_us {
            max_ok = max_ok.max(rate);
        }
    }
    run.report.phase("rate_ladder", 3.0 * budget.as_secs_f64());
    run.report.set("client.max_rate_ok", max_ok);

    // The layer peel, outermost depth first so inner spans can name
    // their parent.
    let subject = &rig.subject;
    let mut right = |seq: u64, frame: &Frame| right_answer(subject, mode, seq, frame);
    let t0 = Instant::now();
    let (outer_us, outer_ids) = serial(
        run,
        &mut rig.gen,
        &rig.templates,
        n,
        Depth {
            layer: if cfg.backends > 1 {
                "cluster"
            } else {
                "server"
            },
            name: "tcp_infer",
            parents: None,
        },
        &mut right,
    );
    let (server_us, server_ids) = if cfg.backends > 1 {
        let mut direct = LoadGen::connect(rig.stack.backend).expect("backend accepts");
        let direct_templates = templates(subject, cfg.functional, rig.stack.backend_model_id);
        serial(
            run,
            &mut direct,
            &direct_templates,
            n,
            Depth {
                layer: "server",
                name: "tcp_infer",
                parents: Some(&outer_ids),
            },
            &mut right,
        )
    } else {
        (outer_us, outer_ids)
    };
    let (runtime_us, runtime_ids) = runtime_probes(run, &rig, n, &server_ids, run.budget(0.08));
    let mut sim = subject.dep.simulator(mode);
    let mut out = RunResult::empty();
    sim.run_into(&subject.dep.compiled, &subject.inputs[0], &mut out)
        .expect("plan-recording run");
    let mut sim_us = Vec::with_capacity(n as usize);
    for (i, &parent) in runtime_ids.iter().enumerate() {
        let input = &subject.inputs[i % subject.inputs.len()];
        let t = run.tracer.begin(parent, i as u64, "sim", "run_into");
        sim.run_into(&subject.dep.compiled, input, &mut out)
            .expect("simulator run");
        sim_us.push(run.tracer.end(t).as_secs_f64() * 1e6);
    }
    let sim_us = stats::median(&sim_us);
    run.report.phase("layer_peel", t0.elapsed().as_secs_f64());
    run.report.set("sim.self_us", sim_us);
    run.report.set("runtime.self_us", runtime_us - sim_us);
    run.report.set("server.self_us", server_us - runtime_us);
    if cfg.backends > 1 {
        run.report.set("cluster.self_us", outer_us - server_us);
    }
    run.report
        .context
        .push(("peel.outermost_us", stats::Summary::of(&[outer_us])));

    // What the server's self time is made of: the wire alone, and the
    // reactor and codec without registry or runtime.
    let request_bytes = rig.templates[0].len();
    let rtt = loopback_rtt_us(run, request_bytes, n as u32);
    run.report.set("net.loopback_rtt_us", rtt);
    let ping = vec![Frame::new(
        0,
        Body::Ping {
            payload: vec![0x5a; request_bytes.saturating_sub(32)],
        },
    )
    .encode()];
    let mut direct = LoadGen::connect(rig.stack.backend).expect("backend accepts");
    let (ping_us, _) = serial(
        run,
        &mut direct,
        &ping,
        n,
        Depth {
            layer: "server",
            name: "tcp_ping",
            parents: None,
        },
        &mut |_, frame| matches!(frame.body, Body::Pong { .. }),
    );
    drop(direct);
    run.report.set("server.ping_rtt_us", ping_us);
    codec_probes(run, &rig);

    if cfg.backends > 1 {
        let key = ModelKey {
            name: NAME.to_string(),
            version: 1,
        };
        let candidates: Vec<(usize, u64)> = (0..cfg.backends).map(|b| (b, 0)).collect();
        let mut id = 0u64;
        run.report.set(
            "cluster.route_ns",
            ns_per_call(200_000, || {
                id += 1;
                black_box(plan::route(black_box(&key), id, 4, black_box(&candidates)));
            }),
        );
    }

    // The gauges the stack kept of all of the above.
    let Rig { stack, gen, .. } = rig;
    drop(gen);
    let (servers, router) = tear_down(stack);
    let sum = |f: fn(&StatsBody) -> u64| servers.iter().map(f).sum::<u64>() as f64;
    let (completed, batches) = (sum(|s| s.completed), sum(|s| s.batches));
    run.report
        .set("runtime.mean_batch", completed / batches.max(1.0));
    run.report
        .set("runtime.batched_dispatches", sum(|s| s.batched_dispatches));
    run.report.set(
        "runtime.latency_p50_us",
        servers
            .iter()
            .map(|s| s.latency_p50_nanos)
            .max()
            .unwrap_or(0) as f64
            / 1e3,
    );
    run.report.set("runtime.rejected_full", sum(|s| s.rejected));
    run.report.set("server.served", completed);
    run.report
        .set("server.rejected", sum(|s| s.rejected + s.rejected_overload));
    run.report
        .set("server.killed_misbehaving", sum(|s| s.killed_misbehaving));
    if let Some(router) = router {
        run.report.set("cluster.forwarded", router.forwarded as f64);
        run.report.set("cluster.rerouted", router.rerouted as f64);
        // The peel's direct replays went to the first backend, not
        // through the router.
        let mut per_backend: Vec<f64> = servers.iter().map(|s| s.completed as f64).collect();
        per_backend[0] -= n as f64;
        let mean = per_backend.iter().sum::<f64>() / per_backend.len() as f64;
        let max = per_backend.iter().copied().fold(0.0, f64::max);
        let min = per_backend.iter().copied().fold(f64::MAX, f64::min);
        run.report
            .set("cluster.backend_skew", (max - min) / mean.max(1.0));
    }
}
