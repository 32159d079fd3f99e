//! The three serving workloads, the rig they drive (the `Server`
//! registry, its `ServePool`s and, for HTTP workloads, the `NetServer`
//! edge, all in-process at their default configuration) and the client
//! phases every run goes through.

use crate::http::{self, Conn};
use crate::model::{self, mlp, mnist_inputs, references, rng, uniform_inputs};
use crate::spans::{Span, SpanBuf};
use crate::stats::{intended_latency, lateness, poisson_schedule};
use eb_bitnn::{Bnn, Tensor};
use eb_runtime::{
    derived_model_seed, BackendKind, EbError, ModelHandle, ModelOpts, NetConfig, NetServer,
    PoolConfig, Request, Runtime, Server, SessionOpts, TicketStatus, Trace,
};
use eb_telemetry::{LatencyHistogram, Stage};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["edge-keepalive", "epcm-mnist", "accel-wdm"];

/// Open-loop arrival rates in requests/s of the traced run. Each is a
/// fixed absolute number, a share of the closed-loop saturation
/// throughput of its workload as first measured (2 logical CPUs).
fn open_loop_rate(workload: &str) -> f64 {
    match workload {
        "edge-keepalive" => 1700.0,
        "epcm-mnist" => 1000.0,
        "accel-wdm" => 200.0,
        _ => unreachable!("unknown workload {workload}"),
    }
}

/// Distinct inputs generated per run; requests draw from them at random.
const INPUTS: usize = 512;
/// Tickets kept in flight by the saturation phase of ticket workloads:
/// enough to fill 32-wide micro-batches on two replicas.
const TICKET_WINDOW: usize = 64;
/// Client threads of the latency phase, each with one request in flight.
const LATENCY_CLIENTS: usize = 2;
/// Operator swaps without load, made in one round after the traced run's
/// load: at least `QUIESCENT_ROUND_MIN` swaps (a multiple of both kinds
/// times two models), then more until `QUIESCENT_ROUND_TIME` has been
/// spent or `QUIESCENT_ROUND_MAX` were made.
const QUIESCENT_ROUND_MIN: usize = 4;
const QUIESCENT_ROUND_MAX: usize = 100;
const QUIESCENT_ROUND_TIME: Duration = Duration::from_millis(100);

/// How the load generator talks to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// HTTP through the `NetServer` edge: `conns` keep-alive connections.
    Http { conns: usize },
    /// The public `ModelHandle::submit` ticket API: one submitting and one
    /// collecting thread.
    Tickets,
}

/// One served model. Its network is deployed at set-up, reinstalled by
/// the operator's in-memory swaps and written to the `.ebm` its
/// file swaps restore from.
pub struct ModelPlan {
    pub name: &'static str,
    pub backend: BackendKind,
    pub replicas: usize,
    pub net: Bnn,
    /// `refs[input]`: the software reference logits, as bits.
    pub refs: Vec<Vec<u32>>,
    pub ebm: PathBuf,
}

impl ModelPlan {
    fn opts(&self, seed: u64) -> ModelOpts {
        let mut session = SessionOpts::default();
        session.noise.seed = seed;
        ModelOpts {
            backend: self.backend,
            session,
            pool: PoolConfig {
                replicas: self.replicas,
                ..PoolConfig::default()
            },
        }
    }

    /// Whether `logits` equal the reference, bit for bit.
    fn matches(&self, input: usize, logits: &[f32]) -> bool {
        self.refs[input] == model::bits(logits)
    }
}

/// Everything one run of a workload needs, generated from its seed.
pub struct Plan {
    pub name: &'static str,
    pub seed: u64,
    pub client: Client,
    pub models: Vec<ModelPlan>,
    pub inputs: Vec<Tensor>,
    /// Pre-rendered HTTP bodies, one per input (HTTP workloads only).
    pub bodies: Vec<Vec<u8>>,
    pub rate: f64,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`: networks, inputs and
    /// software references. `out_dir` receives the run's `.ebm` files.
    pub fn new(workload: &str, seed: u64, out_dir: &Path) -> Result<Self, String> {
        let name = *WORKLOADS.iter().find(|w| **w == workload).ok_or_else(|| {
            format!("unknown workload {workload:?}; expected one of {WORKLOADS:?} or all")
        })?;
        let pid = std::process::id();
        let model = |mname: &'static str, backend, replicas, net: Bnn| ModelPlan {
            name: mname,
            backend,
            replicas,
            net,
            refs: Vec::new(),
            ebm: out_dir.join(format!("{name}-{mname}-{pid}.ebm")),
        };
        // Weights follow eb-serve's rule: seeded from the registry's
        // per-name seed, so a name and a seed always name one network.
        let net = |mname: &'static str, dims: &[usize]| {
            mlp(
                mname,
                dims,
                &mut rng(derived_model_seed(mname, seed), "weights"),
            )
        };
        let (client, models, inputs) = match name {
            "edge-keepalive" => (
                Client::Http { conns: 2 },
                vec![model(
                    "demo",
                    BackendKind::Software,
                    1,
                    net("demo", &[16, 32, 32, 10]),
                )],
                uniform_inputs(INPUTS, 16, &mut rng(seed, "inputs")),
            ),
            "epcm-mnist" => (
                Client::Tickets,
                vec![model(
                    "mnist",
                    BackendKind::Epcm,
                    2,
                    net("mnist", &[784, 64, 32, 10]),
                )],
                mnist_inputs(INPUTS, model::sub_seed(seed, "inputs")),
            ),
            "accel-wdm" => (
                Client::Tickets,
                vec![
                    model(
                        "opcm",
                        BackendKind::Photonic,
                        1,
                        net("opcm", &[64, 128, 128, 10]),
                    ),
                    model(
                        "isa",
                        BackendKind::Simulator,
                        1,
                        net("isa", &[64, 128, 128, 10]),
                    ),
                ],
                uniform_inputs(INPUTS, 64, &mut rng(seed, "inputs")),
            ),
            _ => unreachable!(),
        };
        let mut models = models;
        for m in &mut models {
            m.refs = references(&m.net, &inputs);
        }
        let bodies = match client {
            Client::Http { .. } => inputs.iter().map(|x| http::body(x.as_slice())).collect(),
            Client::Tickets => Vec::new(),
        };
        Ok(Self {
            name,
            seed,
            client,
            models,
            inputs,
            bodies,
            rate: open_loop_rate(name),
        })
    }

    /// `n` requests: a random model (workloads with several models pick
    /// by seed) and a random input each.
    pub fn jobs(&self, n: usize, rng: &mut StdRng) -> Vec<Job> {
        (0..n)
            .map(|_| Job {
                model: rng.gen_range(0..self.models.len()),
                input: rng.gen_range(0..self.inputs.len()),
            })
            .collect()
    }

    /// Writes each model's `.ebm` — the network plus a prepared section
    /// captured under the registry's own per-name seed, so
    /// `swap_from_file` restores instead of reprogramming. Part of the
    /// benchmark's set-up, not of `setup_s`.
    pub fn write_artifacts(&self) -> Result<(), String> {
        for m in &self.models {
            Runtime::builder()
                .backend(m.backend)
                .seed(derived_model_seed(m.name, self.seed))
                .build()
                .save_artifact(&m.net, &m.ebm)
                .map_err(|e| format!("writing {}: {e}", m.ebm.display()))?;
        }
        Ok(())
    }

    pub fn remove_artifacts(&self) {
        for m in &self.models {
            let _ = std::fs::remove_file(&m.ebm);
        }
    }
}

/// One request of a phase: which model, which input.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub model: usize,
    pub input: usize,
}

/// The program under test: the registry, its handles and the HTTP edge.
pub struct Rig {
    pub server: Arc<Server>,
    pub edge: Option<NetServer>,
    pub handles: Vec<ModelHandle>,
}

impl Rig {
    /// Builds the registry (and the edge, for HTTP workloads) exactly as
    /// `eb-serve` does with its defaults, then sends one request and
    /// checks it. Returns the rig and the time from `serve()` to that
    /// first successful reply.
    pub fn build(plan: &Plan) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let mut builder = Server::builder().seed(plan.seed);
        for m in &plan.models {
            builder = builder.model_with(m.name, &m.net, m.opts(plan.seed));
        }
        let server = Arc::new(builder.serve().map_err(|e| format!("serve: {e}"))?);
        let edge = match plan.client {
            Client::Http { .. } => Some(
                NetServer::bind(Arc::clone(&server), NetConfig::default())
                    .map_err(|e| format!("bind: {e}"))?,
            ),
            Client::Tickets => None,
        };
        let handles = plan
            .models
            .iter()
            .map(|m| server.handle(m.name))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("handle: {e}"))?;
        let rig = Self {
            server,
            edge,
            handles,
        };
        let job = Job { model: 0, input: 0 };
        let ok = match plan.client {
            Client::Http { .. } => {
                let mut conn = Conn::connect(rig.addr()).map_err(|e| format!("connect: {e}"))?;
                let reply = conn
                    .post(&predict_path(&plan.models[0]), &plan.bodies[0], true)
                    .map_err(|e| format!("first request: {e}"))?;
                reply.status == 200
                    && http::logits(&reply.body).is_some_and(|l| plan.models[0].matches(0, &l))
            }
            Client::Tickets => rig.handles[0]
                .submit(Request::new(plan.inputs[job.input].clone()))
                .and_then(|t| t.wait())
                .is_ok_and(|y| plan.models[0].matches(0, y.as_slice())),
        };
        if !ok {
            return Err(
                "the first request after set-up did not return the reference logits".into(),
            );
        }
        Ok((rig, t0.elapsed()))
    }

    pub fn addr(&self) -> SocketAddr {
        self.edge.as_ref().expect("HTTP workload").local_addr()
    }

    /// Drains the edge and the pools and joins every server thread.
    pub fn shutdown(self) {
        if let Some(edge) = self.edge {
            edge.shutdown();
        }
        drop(self.handles);
        drop(self.server);
    }
}

fn predict_path(m: &ModelPlan) -> String {
    format!("/v1/models/{}:predict", m.name)
}

/// Request outcomes by class. `wrong` counts successful replies whose
/// logits differ from the reference — any of those fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub deadline: u64,
    pub other: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.other += o.other;
        self.wrong += o.wrong;
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.deadline + self.other + self.wrong
    }

    fn http(&mut self, status: u16, correct: bool) -> bool {
        match status {
            200 if correct => self.ok += 1,
            200 => self.wrong += 1,
            503 => self.shed += 1,
            504 => self.deadline += 1,
            _ => self.other += 1,
        }
        status == 200 && correct
    }

    fn ticket(&mut self, result: &Result<bool, EbError>) -> bool {
        match result {
            Ok(true) => self.ok += 1,
            Ok(false) => self.wrong += 1,
            Err(EbError::Overloaded) => self.shed += 1,
            Err(EbError::DeadlineExceeded) => self.deadline += 1,
            Err(_) => self.other += 1,
        }
        matches!(result, Ok(true))
    }
}

/// What the client saw during one phase. Times in nanoseconds.
#[derive(Debug, Default)]
pub struct Obs {
    pub tally: Tally,
    /// Intended-time latency of every successful request.
    pub latency: Vec<f64>,
    /// Generator lateness of every open-loop request.
    pub late: Vec<f64>,
    /// TCP connect time of every new connection.
    pub connect: Vec<f64>,
    /// Send-to-reply time of every successful request.
    pub exchange: Vec<f64>,
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

impl Obs {
    pub fn absorb(&mut self, o: Obs) {
        self.tally.add(&o.tally);
        self.latency.extend(o.latency);
        self.late.extend(o.late);
        self.connect.extend(o.connect);
        self.exchange.extend(o.exchange);
        self.elapsed += o.elapsed;
        self.spans.extend(o.spans);
    }
}

/// When requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// Open loop: request `i` is due at `start + schedule[i]`.
    Open(&'a [Duration]),
    /// Closed loop for a fixed window: every connection (or the ticket
    /// window) sends its next request as soon as the previous one
    /// completes.
    Closed(Duration),
}

/// Runs one phase against the rig and returns what the client saw.
/// `trace` carries the run's span origin when the phase is traced.
pub fn drive(plan: &Plan, rig: &Rig, jobs: &[Job], load: Load, trace: Option<Instant>) -> Obs {
    let start = Instant::now();
    let mut obs = match plan.client {
        Client::Http { conns } => {
            let next = AtomicUsize::new(0);
            let addr = rig.addr();
            let paths: Vec<String> = plan.models.iter().map(predict_path).collect();
            let conn_loop = |tag: u64| {
                http_connection(plan, addr, &paths, jobs, load, start, &next, trace, tag)
            };
            let mut all = Obs::default();
            thread::scope(|s| {
                let others: Vec<_> = (1..conns as u64)
                    .map(|tag| s.spawn(move || conn_loop(tag)))
                    .collect();
                all.absorb(conn_loop(0));
                for h in others {
                    all.absorb(h.join().expect("client thread panicked"));
                }
            });
            all
        }
        Client::Tickets => ticket_phase(plan, rig, jobs, load, start, trace),
    };
    obs.elapsed = start.elapsed();
    obs
}

/// Sleeps until `at` (no-op when it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// One keep-alive HTTP connection's share of a phase: it takes the next due
/// request from the shared counter, so a request that comes due while
/// every connection is busy waits on the client side — charged to the
/// server through its intended-time latency.
#[allow(clippy::too_many_arguments)]
fn http_connection(
    plan: &Plan,
    addr: SocketAddr,
    paths: &[String],
    jobs: &[Job],
    load: Load,
    start: Instant,
    next: &AtomicUsize,
    trace: Option<Instant>,
    tag: u64,
) -> Obs {
    let mut obs = Obs::default();
    let mut spans = trace.map(|origin| SpanBuf::new(origin, tag));
    let mut conn: Option<Conn> = None;
    let mut free_at = start;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let intended = match load {
            Load::Open(schedule) => match schedule.get(i) {
                Some(offset) => start + *offset,
                None => break,
            },
            Load::Closed(window) => {
                let now = Instant::now();
                if now >= start + window {
                    break;
                }
                now
            }
        };
        sleep_until(intended);
        let sent = Instant::now();
        if let Load::Open(_) = load {
            obs.late
                .push(lateness(intended, free_at, sent).as_nanos() as f64);
        }
        let job = jobs[i % jobs.len()];
        obs.tally.sent += 1;
        let mut connected = None;
        let result = (|| {
            if conn.is_none() {
                conn = Some(Conn::connect(addr)?);
                connected = Some(Instant::now());
            }
            let c = conn.as_mut().expect("connected");
            c.post(&paths[job.model], &plan.bodies[job.input], false)
        })();
        let done = Instant::now();
        if let Some(at) = connected {
            obs.connect.push(at.duration_since(sent).as_nanos() as f64);
        }
        let ok = match &result {
            Ok(reply) => {
                let correct = http::logits(&reply.body)
                    .is_some_and(|l| plan.models[job.model].matches(job.input, &l));
                obs.tally.http(reply.status, correct)
            }
            Err(_) => {
                obs.tally.other += 1;
                false
            }
        };
        if result.is_err() {
            conn = None;
        }
        if ok {
            obs.latency
                .push(intended_latency(intended, done).as_nanos() as f64);
            obs.exchange
                .push(done.duration_since(sent).as_nanos() as f64);
        }
        if let Some(buf) = spans.as_mut() {
            let req = Some(i as u64);
            let root = buf.record("client.request", intended, done, None, req);
            let exchange = buf.record("net.exchange", sent, done, Some(root), req);
            if let Some(at) = connected {
                buf.record("net.connect", sent, at, Some(exchange), req);
            }
        }
        free_at = done;
    }
    obs.spans = spans.map(SpanBuf::into_spans).unwrap_or_default();
    obs
}

/// A submitted request on its way from the submitting to the
/// collecting thread.
struct InFlight {
    i: usize,
    job: Job,
    intended: Instant,
    sent: Instant,
    ticket: Result<eb_runtime::Ticket, EbError>,
}

/// The ticket client: this thread collects, a second one submits. Under
/// closed-loop load the submitter keeps [`TICKET_WINDOW`] tickets in
/// flight; under open-loop load it follows the schedule.
fn ticket_phase(
    plan: &Plan,
    rig: &Rig,
    jobs: &[Job],
    load: Load,
    start: Instant,
    trace: Option<Instant>,
) -> Obs {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let inflight = (Mutex::new(0usize), Condvar::new());
    let submitter = |tx: mpsc::Sender<InFlight>| {
        let mut late = Vec::new();
        let mut i = 0usize;
        loop {
            let intended = match load {
                Load::Open(schedule) => match schedule.get(i) {
                    Some(offset) => start + *offset,
                    None => break,
                },
                Load::Closed(window) => {
                    let mut n = inflight.0.lock().expect("window lock");
                    while *n >= TICKET_WINDOW {
                        n = inflight.1.wait(n).expect("window lock");
                    }
                    *n += 1;
                    let now = Instant::now();
                    if now >= start + window {
                        break;
                    }
                    now
                }
            };
            sleep_until(intended);
            let job = jobs[i % jobs.len()];
            let x = plan.inputs[job.input].clone();
            let sent = Instant::now();
            if let Load::Open(_) = load {
                // The submitter never waits on replies, so the
                // connection is always free: lateness is oversleep.
                late.push(lateness(intended, intended, sent).as_nanos() as f64);
            }
            let mut req = Request::new(x);
            if trace.is_some() {
                req = req.trace(Trace::begin());
            }
            let ticket = rig.handles[job.model].submit(req);
            if tx
                .send(InFlight {
                    i,
                    job,
                    intended,
                    sent,
                    ticket,
                })
                .is_err()
            {
                break;
            }
            i += 1;
        }
        late
    };
    let mut obs = Obs::default();
    let mut spans = trace.map(|origin| SpanBuf::new(origin, 0));
    thread::scope(|s| {
        let handle = s.spawn(move || submitter(tx));
        for f in rx {
            let (result, done, stamps) = collect(f.ticket, trace.is_some());
            {
                let mut n = inflight.0.lock().expect("window lock");
                *n = n.saturating_sub(1);
                inflight.1.notify_one();
            }
            let result =
                result.map(|y| plan.models[f.job.model].matches(f.job.input, y.as_slice()));
            obs.tally.sent += 1;
            if obs.tally.ticket(&result) {
                obs.latency
                    .push(intended_latency(f.intended, done).as_nanos() as f64);
                obs.exchange
                    .push(done.duration_since(f.sent).as_nanos() as f64);
            }
            if let Some(buf) = spans.as_mut() {
                let req = Some(f.i as u64);
                let root = buf.record("client.request", f.intended, done, None, req);
                if let Some(t) = stamps {
                    ticket_spans(buf, &t, f.sent, root, req);
                }
            }
        }
        // Closed loop: release a submitter parked on a full window.
        inflight.1.notify_all();
        obs.late = handle.join().expect("submitter panicked");
    });
    obs.spans = spans.map(SpanBuf::into_spans).unwrap_or_default();
    obs
}

/// Waits for a ticket and returns its result, the instant it completed
/// and (when `traced`) its stage stamps. A ticket already done when the
/// collector reaches it completed at `submitted + latency`; one still
/// pending completes when the blocking wait returns. Traced collection
/// polls instead of blocking, because the stamps must be read before
/// `wait` consumes the ticket.
fn collect(
    ticket: Result<eb_runtime::Ticket, EbError>,
    traced: bool,
) -> (Result<Tensor, EbError>, Instant, Option<Trace>) {
    let ticket = match ticket {
        Ok(t) => t,
        Err(e) => return (Err(e), Instant::now(), None),
    };
    if traced {
        while ticket.poll() != TicketStatus::Done {
            thread::sleep(Duration::from_micros(20));
        }
    }
    if ticket.poll() == TicketStatus::Done {
        let now = Instant::now();
        let done = now - ticket.elapsed() + ticket.latency().unwrap_or_default();
        let stamps = ticket.trace();
        return (ticket.wait(), done, stamps);
    }
    let result = ticket.wait();
    (result, Instant::now(), None)
}

/// Child spans of a served ticket, from its stage stamps (offsets from
/// the `Trace::begin()` taken right after `sent`).
fn ticket_spans(buf: &mut SpanBuf, t: &Trace, sent: Instant, parent: u64, req: Option<u64>) {
    let base = buf.offset(sent);
    let at = |s: Stage| t.stamp_ns(s).map(|ns| base + ns);
    let (Some(enq), Some(batched), Some(executed), Some(replied)) = (
        at(Stage::Enqueued),
        at(Stage::Batched),
        at(Stage::Executed),
        at(Stage::Replied),
    ) else {
        return;
    };
    let ticket = buf.record_ns("serve.ticket", base, replied, Some(parent), req);
    buf.record_ns("serve.submit", base, enq, Some(ticket), req);
    buf.record_ns("serve.queue", enq, batched, Some(ticket), req);
    buf.record_ns("runtime.execute", batched, executed, Some(ticket), req);
    buf.record_ns("serve.reply", executed, replied, Some(ticket), req);
}

/// Durations (ms) of the operator's swap calls, by model and kind:
/// `memory_ms[m]` of `Server::swap`, `file_ms[m]` of
/// `Server::swap_from_file` on model `m`.
#[derive(Debug)]
pub struct Swaps {
    pub memory_ms: Vec<Vec<f64>>,
    pub file_ms: Vec<Vec<f64>>,
}

impl Swaps {
    fn new(models: usize) -> Self {
        Self {
            memory_ms: vec![Vec::new(); models],
            file_ms: vec![Vec::new(); models],
        }
    }
}

/// Operator swap `k`: models take turns, and each alternates an
/// in-memory swap to its network (`Server::swap`) with a restore from
/// its `.ebm` (`Server::swap_from_file`).
fn swap_once(plan: &Plan, rig: &Rig, k: usize, swaps: &mut Swaps) -> Result<(), String> {
    let n = plan.models.len();
    let m = &plan.models[k % n];
    let t0 = Instant::now();
    if (k / n).is_multiple_of(2) {
        rig.server
            .swap(m.name, &m.net)
            .map_err(|e| format!("swap {}: {e}", m.name))?;
        swaps.memory_ms[k % n].push(t0.elapsed().as_secs_f64() * 1e3);
    } else {
        rig.server
            .swap_from_file(m.name, &m.ebm)
            .map_err(|e| format!("swap_from_file {}: {e}", m.name))?;
        swaps.file_ms[k % n].push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// One round of back-to-back operator swaps with no load (see
/// [`QUIESCENT_ROUND_MIN`]).
pub fn quiescent_round(plan: &Plan, rig: &Rig) -> Result<Swaps, String> {
    let started = Instant::now();
    let mut swaps = Swaps::new(plan.models.len());
    let mut k = 0;
    while k < QUIESCENT_ROUND_MIN
        || (k < QUIESCENT_ROUND_MAX && started.elapsed() < QUIESCENT_ROUND_TIME)
    {
        swap_once(plan, rig, k, &mut swaps)?;
        k += 1;
    }
    Ok(swaps)
}

/// An open-loop phase of `window` at the plan's rate.
pub fn open_loop(
    plan: &Plan,
    rig: &Rig,
    window: Duration,
    tag: &str,
    trace: Option<Instant>,
) -> Obs {
    let mut r = rng(plan.seed, tag);
    let schedule = poisson_schedule(plan.rate, window, &mut r);
    let jobs = plan.jobs(schedule.len().max(1), &mut r);
    drive(plan, rig, &jobs, Load::Open(&schedule), trace)
}

/// A saturation phase of `window`: closed loop on every connection, or
/// with a window of [`TICKET_WINDOW`] tickets.
pub fn saturation(plan: &Plan, rig: &Rig, window: Duration, tag: &str) -> Obs {
    let jobs = plan.jobs(4096, &mut rng(plan.seed, tag));
    drive(plan, rig, &jobs, Load::Closed(window), None)
}

pub fn warm_up(plan: &Plan, rig: &Rig, window: Duration) -> Obs {
    saturation(plan, rig, window, "warmup")
}

/// A latency phase of `window`: [`LATENCY_CLIENTS`] client threads, each
/// sending a request and waiting for its checked reply before the next,
/// over HTTP on its own keep-alive connection. Thread `t` sends only to
/// model `t % models`: with two models each serves one request at a time,
/// so its latency does not depend on the random request mix. Returns what
/// each model's requests saw, by model, and the phase's wall time.
pub fn latency_loop(plan: &Plan, rig: &Rig, window: Duration, tag: &str) -> (Vec<Obs>, Duration) {
    let start = Instant::now();
    let paths: Vec<String> = plan.models.iter().map(predict_path).collect();
    let load = Load::Closed(window);
    let client = |t: usize| {
        let model = t % plan.models.len();
        let jobs: Vec<Job> = plan
            .jobs(4096, &mut rng(plan.seed, &format!("{tag}-{t}")))
            .into_iter()
            .map(|j| Job { model, ..j })
            .collect();
        match plan.client {
            Client::Http { .. } => {
                let next = AtomicUsize::new(0);
                let addr = rig.addr();
                http_connection(
                    plan, addr, &paths, &jobs, load, start, &next, None, t as u64,
                )
            }
            Client::Tickets => serial_tickets(plan, rig, &jobs, window, start),
        }
    };
    let client = &client;
    let per_thread: Vec<Obs> = thread::scope(|s| {
        let others: Vec<_> = (1..LATENCY_CLIENTS)
            .map(|t| s.spawn(move || client(t)))
            .collect();
        let mut all = vec![client(0)];
        all.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        all
    });
    let mut by_model: Vec<Obs> = plan.models.iter().map(|_| Obs::default()).collect();
    for (t, o) in per_thread.into_iter().enumerate() {
        by_model[t % plan.models.len()].absorb(o);
    }
    (by_model, start.elapsed())
}

/// One ticket at a time until `window` has passed since `start`: submit,
/// wait, check.
fn serial_tickets(plan: &Plan, rig: &Rig, jobs: &[Job], window: Duration, start: Instant) -> Obs {
    let mut obs = Obs::default();
    for job in jobs.iter().cycle() {
        if start.elapsed() >= window {
            break;
        }
        let x = plan.inputs[job.input].clone();
        let sent = Instant::now();
        let result = rig.handles[job.model]
            .submit(Request::new(x))
            .and_then(|t| t.wait())
            .map(|y| plan.models[job.model].matches(job.input, y.as_slice()));
        let done = Instant::now();
        obs.tally.sent += 1;
        if obs.tally.ticket(&result) {
            obs.latency
                .push(done.duration_since(sent).as_nanos() as f64);
        }
    }
    obs
}

/// Stage histograms of every model, merged, plus the registry's linger
/// and batch-size series — cumulative since set-up.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub parse: LatencyHistogram,
    pub queue: LatencyHistogram,
    pub execute: LatencyHistogram,
    pub reply: LatencyHistogram,
    pub e2e: LatencyHistogram,
    pub linger: LatencyHistogram,
    pub batch_size: LatencyHistogram,
}

impl Stages {
    pub fn snapshot(plan: &Plan, rig: &Rig) -> Self {
        let mut out = Self::default();
        let telemetry = rig.server.telemetry();
        for m in &plan.models {
            if let Ok(Some(st)) = rig.server.stage_histograms(m.name) {
                out.parse.merge(&st.parse_us);
                out.queue.merge(&st.queue_us);
                out.execute.merge(&st.execute_us);
                out.reply.merge(&st.reply_us);
                out.e2e.merge(&st.e2e_us);
            }
            if let Some(reg) = &telemetry {
                let labels = [("model", m.name)];
                if let Some(h) = reg.histogram_snapshot("eb_batch_linger_us", &labels) {
                    out.linger.merge(&h);
                }
                if let Some(h) = reg.histogram_snapshot("eb_batch_size", &labels) {
                    out.batch_size.merge(&h);
                }
            }
        }
        out
    }
}

/// The net probe: `n` sequential requests, each on a new connection,
/// against an edge bound in front of the rig's registry (the rig's own
/// edge on HTTP workloads). Returns connect times and client
/// send-to-reply times, both in nanoseconds.
pub fn net_probe(plan: &Plan, rig: &Rig, n: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    // Ticket workloads have no edge of their own: bind one for the probe
    // (dropping it drains and joins it).
    let own = match &rig.edge {
        Some(_) => None,
        None => Some(
            NetServer::bind(Arc::clone(&rig.server), NetConfig::default())
                .map_err(|e| format!("bind: {e}"))?,
        ),
    };
    let addr = rig
        .edge
        .as_ref()
        .or(own.as_ref())
        .expect("an edge")
        .local_addr();
    let paths: Vec<String> = plan.models.iter().map(predict_path).collect();
    let bodies: Vec<Vec<u8>> = if plan.bodies.is_empty() {
        plan.inputs
            .iter()
            .map(|x| http::body(x.as_slice()))
            .collect()
    } else {
        plan.bodies.clone()
    };
    let (mut connect, mut exchange) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let job = Job {
            model: i % plan.models.len(),
            input: i % plan.inputs.len(),
        };
        let t0 = Instant::now();
        let mut conn = Conn::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
        let t1 = Instant::now();
        let reply = conn
            .post(&paths[job.model], &bodies[job.input], true)
            .map_err(|e| format!("probe request: {e}"))?;
        let t2 = Instant::now();
        let correct = http::logits(&reply.body)
            .is_some_and(|l| plan.models[job.model].matches(job.input, &l));
        if reply.status != 200 || !correct {
            return Err(format!("net probe request {i} returned a wrong reply"));
        }
        connect.push(t1.duration_since(t0).as_nanos() as f64);
        exchange.push(t2.duration_since(t1).as_nanos() as f64);
    }
    drop(own);
    Ok((connect, exchange))
}
