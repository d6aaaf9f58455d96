//! `serve-mix`: a `pas serve` child process on loopback TCP, driven by
//! two clients, each with a kept-open connection on which it sends its
//! next request as soon as the previous answer arrives (a closed loop:
//! callers that wait for their reply, as a client library does).

use crate::report::Outcome;
use crate::stats::{median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::Args;
use mp_sim::{
    realization_seed, run_batch, BatchConfig, BatchDistribution, ExecTimeModel, MetricDistribution,
};
use pas_core::{PlanArtifact, Scheme, Setup};
use pas_serve::{parse_request, ServeConfig, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Client threads, each with one kept-open connection.
const CLIENTS: usize = 2;
const WORKERS: &str = "2";
/// Realizations per `montecarlo` request.
const MC_BATCH: usize = 4096;
const SETUP_REPEATS: usize = 3;
const PROCS: usize = 2;
const LOAD: f64 = 0.5;
const PLATFORMS: [&str; 2] = ["transmeta", "xscale"];
/// Distinct `montecarlo` requests (scheme, platform, seed offset) the mix
/// cycles through; each one's expected body is computed once.
const MC_VARIANTS: u64 = 6;
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// The (scheme, platform) keys of the cached-plan requests.
const HOT_PLANS: [(Scheme, &str); 6] = [
    (Scheme::Gss, "transmeta"),
    (Scheme::As, "xscale"),
    (Scheme::Spm, "transmeta"),
    (Scheme::Gss, "xscale"),
    (Scheme::As, "transmeta"),
    (Scheme::Spm, "xscale"),
];

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// `status` on the kept-open connection.
    Status,
    /// `status` on a freshly opened connection that replaces it.
    Connect,
    /// `plan` whose key is in the daemon's cache.
    PlanHit,
    /// `plan` with a unique `deadline_ms`: always a cache miss.
    PlanMiss,
    /// `montecarlo` with `batch` 4096.
    Mc,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Status,
        Kind::Connect,
        Kind::PlanHit,
        Kind::PlanMiss,
        Kind::Mc,
    ];

    /// One cycle of the mix in exact proportions — 30% status, 10% status
    /// on a new connection, 30% cached plan, 15% cold plan, 15%
    /// montecarlo — in a seeded order. Exact counts keep every run's mix
    /// the same, so a percentile over all requests falls at the same
    /// place in it whatever the seed.
    fn cycle(rng: &mut StdRng) -> Vec<Kind> {
        let mut deck = Vec::with_capacity(20);
        for (kind, n) in [
            (Kind::Status, 6),
            (Kind::Connect, 2),
            (Kind::PlanHit, 6),
            (Kind::PlanMiss, 3),
            (Kind::Mc, 3),
        ] {
            deck.extend(std::iter::repeat_n(kind, n));
        }
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.gen_range(0..=i));
        }
        deck
    }

    fn p50_metric(self) -> &'static str {
        match self {
            Kind::Status => "serve.status_p50_ms",
            Kind::Connect => "serve.connect_p50_ms",
            Kind::PlanHit => "serve.plan_hit_p50_ms",
            Kind::PlanMiss => "serve.plan_miss_p50_ms",
            Kind::Mc => "serve.mc_p50_ms",
        }
    }
}

/// One scheduled request and what the daemon's answer must contain.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    line: String,
    /// `plan`: the in-process request parameters; `montecarlo`: variant.
    scheme: Scheme,
    platform: &'static str,
    deadline_ms: Option<f64>,
    mc_seed: u64,
}

/// One request as the client saw it.
struct Done {
    planned: Planned,
    /// From sending the request (opening the connection first, for
    /// [`Kind::Connect`]) to the last byte of the answer (ms).
    latency_ms: f64,
    /// `connect()` time for [`Kind::Connect`] (ms).
    connect_ms: Option<f64>,
    /// The answer's `body`, without a plan's `artifact`, or why the answer
    /// does not count.
    body: Result<Value, String>,
}

/// The `pas serve` child. Dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// Starts `pas serve` on a free loopback port and waits until it
    /// answers a `status` request.
    fn start(pas: &std::path::Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("finding a free port: {e}"))?
            .port();
        let child = Command::new(pas)
            .args(["serve", "--listen", &format!("127.0.0.1:{port}")])
            .args(["--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", pas.display()))?;
        let mut d = Daemon { child, port };
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut conn = loop {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("pas serve exited during start-up: {status}"));
            }
            match Conn::open(d.port) {
                Ok(c) => break c,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("connecting to pas serve: {e}")),
            }
        };
        let resp = conn.call(r#"{"id":"setup","kind":"status"}"#)?;
        ok_body(&resp)?;
        Ok(d)
    }

    /// Peak resident set size of the daemon (MB).
    fn rss_peak_mb(&self) -> f64 {
        crate::stats::vm_hwm_mb(&self.child.id().to_string())
    }

    /// The daemon's own `status` body.
    fn status(&self) -> Result<Value, String> {
        let mut c = Conn::open(self.port).map_err(|e| format!("status connection: {e}"))?;
        ok_body(&c.call(r#"{"id":"final-status","kind":"status"}"#)?)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: one request line out, one response line in.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) if resp.ends_with('\n') => Ok(resp),
            Ok(_) => Err("truncated response".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// The `body` of an `ok` response, or why the response does not count.
fn ok_body(resp: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(resp.trim()).map_err(|e| format!("malformed: {e}"))?;
    match v.get("status").and_then(Value::as_str) {
        Some("ok") => v
            .get("body")
            .cloned()
            .ok_or_else(|| "ok response without a body".to_string()),
        Some(other) => Err(format!("status {other}: {}", resp.trim())),
        None => Err(format!("no status: {}", resp.trim())),
    }
}

/// The ATR application the daemon builds for `"workload":"atr"` with
/// `seed` (its per-task WCET jitter is drawn from that seed).
fn atr(seed: u64) -> Result<andor_graph::AndOrGraph, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    workloads::AtrParams::default()
        .build_jittered(&mut rng)?
        .lower()
        .map_err(|e| e.to_string())
}

fn model(platform: &str) -> dvfs_power::ProcessorModel {
    match platform {
        "xscale" => dvfs_power::ProcessorModel::xscale(),
        _ => dvfs_power::ProcessorModel::transmeta5400(),
    }
}

/// One client's request stream: kinds dealt from [`Kind::cycle`],
/// parameters drawn from the seed.
struct Mix {
    client: usize,
    seed: u64,
    base_deadline: f64,
    rng: StdRng,
    deck: Vec<Kind>,
    sent: u64,
    cold: u64,
}

impl Mix {
    fn new(client: usize, seed: u64, base_deadline: f64) -> Mix {
        Mix {
            client,
            seed,
            base_deadline,
            rng: StdRng::seed_from_u64(realization_seed(seed ^ 0x5e12e, client as u64)),
            deck: Vec::new(),
            sent: 0,
            cold: 0,
        }
    }

    fn next(&mut self) -> Planned {
        if self.deck.is_empty() {
            self.deck = Kind::cycle(&mut self.rng);
        }
        let kind = self.deck.pop().expect("a cycle is never empty");
        let (c, seed) = (self.client, self.seed);
        let id = format!("c{c}-{}", self.sent);
        self.sent += 1;
        let mut p = Planned {
            kind,
            line: String::new(),
            scheme: Scheme::ALL[self.rng.gen_range(0..Scheme::ALL.len())],
            platform: PLATFORMS[self.rng.gen_range(0..PLATFORMS.len())],
            deadline_ms: None,
            mc_seed: 0,
        };
        if kind == Kind::PlanHit {
            // Cached plans cycle through a few keys, so the cold plans'
            // inserts never push them out of the daemon's 32-entry LRU.
            (p.scheme, p.platform) = HOT_PLANS[(self.sent as usize + c) % HOT_PLANS.len()];
        }
        let (s, platform) = (crate::mc::scheme_key(p.scheme), p.platform);
        p.line = match kind {
            Kind::Status | Kind::Connect => format!(r#"{{"id":"{id}","kind":"status"}}"#),
            Kind::PlanHit => format!(
                r#"{{"id":"{id}","kind":"plan","workload":"atr","platform":"{platform}","procs":{PROCS},"load":{LOAD},"scheme":"{s}","seed":{seed}}}"#
            ),
            Kind::PlanMiss => {
                self.cold += 1;
                // A deadline no other request uses (the clients take turns
                // through the sequence): a guaranteed miss, and always
                // feasible (at or above the load-0.5 one).
                let k = self.cold * CLIENTS as u64 + c as u64;
                let d = self.base_deadline * (1.0 + k as f64 * 1e-5);
                p.deadline_ms = Some(d);
                format!(
                    r#"{{"id":"{id}","kind":"plan","workload":"atr","platform":"{platform}","procs":{PROCS},"deadline_ms":{d:?},"scheme":"{s}","seed":{seed}}}"#
                )
            }
            Kind::Mc => {
                let v = self.rng.gen_range(0..MC_VARIANTS);
                p.mc_seed = seed.wrapping_add(v);
                p.scheme = Scheme::ALL[v as usize % Scheme::ALL.len()];
                p.platform = PLATFORMS[v as usize % PLATFORMS.len()];
                format!(
                    r#"{{"id":"{id}","kind":"montecarlo","workload":"atr","platform":"{}","procs":{PROCS},"load":{LOAD},"scheme":"{}","seed":{},"batch":{MC_BATCH}}}"#,
                    p.platform,
                    crate::mc::scheme_key(p.scheme),
                    p.mc_seed
                )
            }
        };
        p
    }
}

/// Runs one client until `seconds` after `t0`: each request is sent as
/// soon as the previous answer arrived, on the client's kept-open
/// connection (a fresh one for [`Kind::Connect`], which then replaces it).
fn client(
    port: u16,
    t0: Instant,
    seconds: f64,
    mut mix: Mix,
    tracer: &mut Tracer,
) -> Result<Vec<Done>, String> {
    let mut conn = Conn::open(port).map_err(|e| format!("client connection: {e}"))?;
    let mut done = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds {
        let planned = mix.next();
        tracer.begin_request("serve.request", done.len() as u64 + 1);
        let sent = Instant::now();
        let mut connect_ms = None;
        if planned.kind == Kind::Connect {
            tracer.begin("serve.connect");
            let t = Instant::now();
            let fresh = Conn::open(port).map_err(|e| format!("reconnect: {e}"));
            connect_ms = Some(ms(t.elapsed()));
            tracer.end();
            conn = fresh?;
        }
        tracer.begin("serve.send");
        let response = conn.send(&planned.line);
        tracer.end();
        tracer.begin("serve.wait_response");
        let response = response.and_then(|()| conn.recv());
        tracer.end();
        let latency_ms = ms(sent.elapsed());
        tracer.end();
        let failed = response.is_err();
        let body = response.and_then(|r| ok_body(&r)).map(|mut b| {
            if let Value::Object(pairs) = &mut b {
                pairs.retain(|(k, _)| k != "artifact");
            }
            b
        });
        done.push(Done {
            planned,
            latency_ms,
            connect_ms,
            body,
        });
        if failed {
            // The connection is in an unknown state: start a new one.
            conn = Conn::open(port).map_err(|e| format!("client reconnection: {e}"))?;
        }
    }
    Ok(done)
}

/// The `montecarlo` body the daemon must return, computed in process:
/// one `run_batch` and `BatchDistribution` over the same seed and slice.
fn expected_mc(p: &Planned) -> Result<(Value, Value, Value, Value), String> {
    let setup = Setup::for_load(atr(p.mc_seed)?, model(p.platform), PROCS, LOAD)
        .map_err(|e| e.to_string())?;
    let sim = setup.simulator(false);
    let cfg = BatchConfig::new(MC_BATCH, p.mc_seed);
    let out = run_batch(
        &sim,
        &ExecTimeModel::paper_defaults(),
        None,
        || setup.policy(p.scheme),
        &cfg,
    )
    .map_err(|e| e.to_string())?;
    let e_max = setup.plan.num_procs as f64 * setup.plan.deadline * 1.05;
    let t_max = setup.plan.deadline * 1.5;
    let dist = BatchDistribution::from_output(&out, e_max, t_max, 200)
        .ok_or("degenerate histogram bounds")?;
    let q = |m: &MetricDistribution| {
        pas_serve::proto::object(vec![
            ("mean", Value::Float(m.summary().mean())),
            ("ci95", Value::Float(m.summary().ci95())),
            ("p50", Value::Float(m.quantile(0.5).unwrap_or(0.0))),
            ("p95", Value::Float(m.quantile(0.95).unwrap_or(0.0))),
            ("p99", Value::Float(m.quantile(0.99).unwrap_or(0.0))),
            ("max", Value::Float(m.max())),
        ])
    };
    let miss = pas_serve::proto::object(vec![
        ("count", Value::UInt(dist.misses())),
        ("rate", Value::Float(dist.miss_rate())),
        ("ci95", Value::Float(dist.miss_ci95())),
    ]);
    let sections = Value::Array(dist.sections().iter().map(q).collect());
    Ok((q(dist.energy()), q(dist.makespan()), miss, sections))
}

/// Checks every answer against in-process results: `status` bodies are
/// well formed, `plan` digests equal `PlanArtifact::digest`, and
/// `montecarlo` bodies equal an in-process batch.
fn verify(done: &[Done], seed: u64, o: &mut Outcome) {
    let mut mc_expect = BTreeMap::new();
    let mut plan_expect = BTreeMap::new();
    let graph = atr(seed);
    for d in done {
        let mut check = || -> Result<(), String> {
            let body = d.body.as_ref().map_err(Clone::clone)?;
            let p = &d.planned;
            match p.kind {
                Kind::Status | Kind::Connect => {
                    body.get("queue").ok_or("status body without queue")?;
                    Ok(())
                }
                Kind::PlanHit | Kind::PlanMiss => {
                    if body.get("cached") != Some(&Value::Bool(p.kind == Kind::PlanHit)) {
                        return Err(format!("{}: unexpected cache outcome", p.line));
                    }
                    let key = (p.scheme.name(), p.platform, p.deadline_ms.map(f64::to_bits));
                    let want = match plan_expect.get(&key) {
                        Some(w) => w,
                        None => {
                            let g = graph.clone()?;
                            let setup = match p.deadline_ms {
                                Some(dl) => Setup::new(g, model(p.platform), PROCS, dl),
                                None => Setup::for_load(g, model(p.platform), PROCS, LOAD),
                            }
                            .map_err(|e| e.to_string())?;
                            let digest =
                                PlanArtifact::from_setup(&setup, p.scheme, "atr", p.platform)
                                    .digest()?;
                            plan_expect.entry(key).or_insert(digest)
                        }
                    };
                    match body.get("digest").and_then(Value::as_str) {
                        Some(got) if got == want => Ok(()),
                        _ => Err(format!(
                            "{}: plan digest differs from PlanArtifact::digest",
                            p.line
                        )),
                    }
                }
                Kind::Mc => {
                    let key = (p.mc_seed, p.scheme.name(), p.platform);
                    let (energy, makespan, miss, sections) = match mc_expect.entry(key) {
                        std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::btree_map::Entry::Vacant(e) => e.insert(expected_mc(p)?),
                    };
                    let same = body.get("energy") == Some(energy)
                        && body.get("makespan_ms") == Some(makespan)
                        && body.get("miss") == Some(miss)
                        && body.get("sections") == Some(sections);
                    if !same {
                        return Err(format!(
                            "{}: body differs from in-process run_batch",
                            p.line
                        ));
                    }
                    if miss.get("count") != Some(&Value::UInt(0)) {
                        return Err(format!("{}: deadline misses in a fault-free batch", p.line));
                    }
                    Ok(())
                }
            }
        };
        o.op(check().err());
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let base_deadline = Setup::for_load(atr(args.seed)?, model("transmeta"), PROCS, LOAD)
        .map_err(|e| e.to_string())?
        .plan
        .deadline;

    // Set-up: start the daemon until it answers its first `status`,
    // several times; the last daemon serves the run.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        drop(daemon.take());
        let t = Instant::now();
        daemon = Some(Daemon::start(&args.pas)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");

    // Fill the cache with every key the cached-plan requests use.
    {
        let mut c = Conn::open(daemon.port).map_err(|e| format!("warm-up connection: {e}"))?;
        for (scheme, platform) in HOT_PLANS {
            let s = crate::mc::scheme_key(scheme);
            ok_body(&c.call(&format!(
                r#"{{"id":"warm","kind":"plan","workload":"atr","platform":"{platform}","procs":{PROCS},"load":{LOAD},"scheme":"{s}","seed":{}}}"#,
                args.seed
            ))?)?;
        }
    }

    let t0 = Instant::now();
    let results: Vec<Result<(Vec<Done>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (port, trace, seconds) = (daemon.port, args.trace, args.seconds);
                let mix = Mix::new(c, args.seed, base_deadline);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, t0, c as u32 + 1);
                    client(port, t0, seconds, mix, &mut tracer).map(|d| (d, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    let mut done = Vec::new();
    let mut tracer = Tracer::new(args.trace, t0, 0);
    for r in results {
        let (d, t) = r?;
        done.extend(d);
        tracer.absorb(t);
    }
    let status = daemon.status();
    let rss = daemon.rss_peak_mb();
    drop(daemon);

    verify(&done, args.seed, &mut o);
    let latency: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    if args.trace {
        traced_metrics(&done, &status?, &mut o);
        o.set("trace.spans", tracer.span_count() as f64);
        crate::write_trace(args, &tracer);
    } else {
        let ok = done.len() as u64 - o.failed.min(done.len() as u64);
        o.set("setup_s", median(&setup_s));
        o.set("rss_peak_mb", rss);
        o.set("throughput_per_s", ratio(ok as f64, window_s));
        o.set("op_p50_ms", quantile(&latency, 0.5));
        o.set("op_p95_ms", quantile(&latency, 0.95));
    }
    Ok(o)
}

/// Median client latency per kind (ms).
fn kind_p50(done: &[Done], kind: Kind) -> f64 {
    let xs: Vec<f64> = done
        .iter()
        .filter(|d| d.planned.kind == kind)
        .map(|d| d.latency_ms)
        .collect();
    median(&xs)
}

/// The per-layer serve metrics: client latency per kind, the in-process
/// cost of parsing and handling each kind (`parse_request`,
/// `Service::handle_line`), the wire share in between, and the daemon's
/// own view from its final `status`.
fn traced_metrics(done: &[Done], status: &Value, o: &mut Outcome) {
    for kind in Kind::ALL {
        o.set(kind.p50_metric(), kind_p50(done, kind));
    }
    let connects: Vec<f64> = done.iter().filter_map(|d| d.connect_ms).collect();
    o.set("serve.connect_ms", median(&connects));

    let mut parse_us = Vec::new();
    for d in done {
        let t = Instant::now();
        let r = parse_request(&d.planned.line);
        parse_us.push(ms(t.elapsed()) * 1e3);
        o.op(r.err().map(|e| format!("parse_request: {}", e.message)));
    }
    o.set("serve.parse_us", median(&parse_us));

    // In-process handling of one request of each kind, on a service
    // configured like the daemon.
    let svc = Service::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut handle_ms: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let sample = |kind: Kind| done.iter().filter(move |d| d.planned.kind == kind);
    for d in sample(Kind::PlanHit) {
        svc.handle_line(&d.planned.line); // fill the cache
    }
    for kind in [Kind::Status, Kind::PlanHit, Kind::PlanMiss, Kind::Mc] {
        // Cold-plan deadlines are unique, so they miss this fresh cache too.
        for d in sample(kind).take(20) {
            let line = &d.planned.line;
            let t = Instant::now();
            let resp = svc.handle_line(line);
            handle_ms.entry(kind).or_default().push(ms(t.elapsed()));
            o.op(ok_body(&resp).err());
        }
    }
    svc.shutdown();
    for (kind, handle_key, wire_key) in [
        (
            Kind::Status,
            "serve.handle_ms.status",
            "serve.wire_ms.status",
        ),
        (
            Kind::PlanHit,
            "serve.handle_ms.plan_hit",
            "serve.wire_ms.plan_hit",
        ),
        (
            Kind::PlanMiss,
            "serve.handle_ms.plan_miss",
            "serve.wire_ms.plan_miss",
        ),
        (Kind::Mc, "serve.handle_ms.mc", "serve.wire_ms.mc"),
    ] {
        let h = handle_ms.get(&kind).map_or(0.0, |xs| median(xs));
        o.set(handle_key, h);
        o.set(wire_key, (kind_p50(done, kind) - h).max(0.0));
    }

    let latency = |key: &str| -> f64 {
        status
            .get("latency")
            .and_then(|l| l.get(key))
            .and_then(|s| s.get("p50_ms"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    o.set(
        "serve.queue_wait_p50_ms.plan",
        latency("serve.latency.plan.queue"),
    );
    o.set(
        "serve.queue_wait_p50_ms.mc",
        latency("serve.latency.montecarlo.queue"),
    );
    o.set(
        "serve.exec_p50_ms.plan_hit",
        latency("serve.latency.plan.exec.hit"),
    );
    o.set(
        "serve.exec_p50_ms.plan_miss",
        latency("serve.latency.plan.exec.miss"),
    );
    o.set(
        "serve.exec_p50_ms.mc",
        latency("serve.latency.montecarlo.exec"),
    );
    let counter = |key: &str| -> f64 {
        status
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    o.set(
        "serve.cache_hit_ratio",
        status
            .get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    o.set("serve.shed", counter("serve.shed"));
    o.set("serve.timeouts", counter("serve.timeouts"));
}
