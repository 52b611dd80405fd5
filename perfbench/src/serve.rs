//! The serve half of every workload: an in-process `spire_serve::Server`
//! under an open-loop load generator built on the public framing
//! functions, and the check that every answer is bit-identical to the
//! direct API under the model whose fingerprint it carries.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spire_core::catalog::MetricCatalog;
use spire_core::{
    BottleneckReport, ModelSnapshot, OnlineTrainer, SampleSet, SpireModel, TrainConfig,
    TrainStrictness,
};
use spire_serve::frame::{read_frame, write_frame};
use spire_serve::proto::ModelStats;
use spire_serve::{
    Client, ClientConfig, Request, Response, ServeError, Server, ServerConfig, WalSettings,
};

use crate::{Ledger, WrapErr, R};
use perfbench::gen::{schedule, sub_seed, Class, Planned};
use perfbench::loadgen::{backlog_growing, open_loop, Timed};
use perfbench::stats::{median, tail, Tail};
use perfbench::trace::Tracer;

pub const MODEL: &str = "spire";
/// Request rates of the ladder, in requests per second; the first is the
/// reference step.
pub const LADDER: [f64; 7] = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0];
/// A step meets the limit when its read tail is at most this.
pub const READ_LIMIT_MS: f64 = 100.0;
/// ... and at most this share of its requests failed.
pub const FAILED_LIMIT: f64 = 0.01;
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const MAX_FRAME: usize = 64 << 20;

/// Worker threads of the daemon and connections of the load generator.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A daemon serving one snapshot, with updates journaled under `dir`.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: Option<JoinHandle<Result<bool, ServeError>>>,
    /// The corpus the served snapshot was trained from.
    pub base: SampleSet,
    pub config: TrainConfig,
    pub base_fingerprint: String,
}

impl Daemon {
    /// Binds the daemon, waits until it answers, and streams the corpus
    /// in as the journal's first batch (as `spire update --via-server`
    /// does), so later updates extend the served model.
    pub fn start(ledger: &mut Ledger, dir: &Path, snapshot: &Path, base: SampleSet) -> R<Daemon> {
        let text = std::fs::read_to_string(snapshot).ctx("reading the served snapshot")?;
        let snap = ModelSnapshot::from_json(&text).ctx("parsing the served snapshot")?;
        let config = ServerConfig {
            workers: nproc(),
            wal: Some(WalSettings::new(dir.join("wal"))),
            ..ServerConfig::default()
        };
        let server = Server::bind(
            config,
            vec![(MODEL.to_owned(), snapshot.to_path_buf())],
            vec![],
        )
        .ctx("binding the daemon")?;
        let addr = server.local_addr().ctx("daemon address")?;
        let handle = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            handle: Some(handle),
            base,
            base_fingerprint: snap.fingerprint(),
            config: snap.config,
        };
        let mut client = Client::wait_ready(addr, ClientConfig::default(), Duration::from_secs(30))
            .ctx("waiting for the daemon")?;
        ledger.attempted += 1;
        let ack = client
            .update(MODEL, &daemon.base, Some("corpus"))
            .ctx("seeding the daemon")?;
        if !ack.ok {
            ledger.failed += 1;
            return Err(format!("seeding the daemon: {:?}", ack.error));
        }
        ledger.check(
            "seeded_daemon_serves_snapshot",
            ack.fingerprint.as_deref() == Some(daemon.base_fingerprint.as_str()),
        );
        Ok(daemon)
    }

    pub fn stats(&self) -> R<ModelStats> {
        let stats = Client::connect(self.addr)
            .and_then(|mut c| c.stats())
            .ctx("stats request")?;
        stats
            .stats
            .and_then(|s| s.models.into_iter().find(|m| m.name == MODEL))
            .ok_or_else(|| "stats response without the served model".to_owned())
    }

    /// Shuts the daemon down and joins its thread.
    pub fn stop(mut self) -> R<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> R<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .ctx("shutdown request")?;
        handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_owned())?
            .ctx("daemon run")?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What one request got back. Times are seconds after the step started.
#[derive(Debug, Clone)]
pub struct Reply {
    pub plan: Planned,
    /// When the request frame was written (flushed).
    pub written: f64,
    /// When the response frame had arrived.
    pub replied: f64,
    pub response: Result<Response, String>,
}

pub type Done = Timed<Reply>;

pub fn ok(d: &Done) -> bool {
    matches!(&d.value.response, Ok(r) if r.ok)
}

fn request_of(plan: &Planned) -> Request {
    let mut r = Request::bare(plan.kind);
    r.model = Some(MODEL.to_owned());
    r.samples = Some(plan.samples.clone());
    r.key = plan.key.clone();
    if plan.kind == "analyze" {
        r.top = Some(5);
    }
    r
}

type Connection = (BufReader<TcpStream>, BufWriter<TcpStream>);

/// One request on one connection, split at the public framing calls:
/// serialize and `write_frame` (send), `read_frame` (wait), parse
/// (decode). Returns the send and wait end instants.
fn exchange(
    conn: &mut Connection,
    request: &Request,
) -> (Instant, Instant, Result<Response, String>) {
    let json = match serde_json::to_string(request) {
        Ok(json) => json,
        Err(e) => return (Instant::now(), Instant::now(), Err(e.to_string())),
    };
    if let Err(e) = write_frame(&mut conn.1, json.as_bytes()) {
        return (Instant::now(), Instant::now(), Err(e.to_string()));
    }
    let written = Instant::now();
    let payload = read_frame(&mut conn.0, MAX_FRAME);
    let replied = Instant::now();
    let response = match payload {
        Ok(Some(payload)) => std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string())),
        Ok(None) => Err("the daemon closed the connection".to_owned()),
        Err(e) => Err(e.to_string()),
    };
    (written, replied, response)
}

/// Plays `plan` open-loop over `conns` connections (see
/// [`open_loop`]), recording a span per request and per phase.
pub fn run_step(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    tracer: &Tracer,
    run: u64,
) -> R<Vec<Done>> {
    let mut connections: Vec<Connection> = Vec::new();
    for _ in 0..conns.min(plan.len()).max(1) {
        let stream = TcpStream::connect(addr).ctx("connecting the load generator")?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .ctx("read timeout")?;
        let reader = BufReader::new(stream.try_clone().ctx("cloning the socket")?);
        connections.push((reader, BufWriter::new(stream)));
    }
    let dues: Vec<f64> = plan.iter().map(|p| p.due).collect();
    let (_, done) = open_loop(&dues, connections, |conn, i, start| {
        let sent = Instant::now();
        let (written, replied, response) = exchange(conn, &request_of(&plan[i]));
        let decoded = Instant::now();
        let id = run + i as u64;
        let parent = tracer.record("serve.request", None, id, sent, decoded);
        tracer.record("serve.send", parent, id, sent, written);
        tracer.record("serve.wait", parent, id, written, replied);
        tracer.record("serve.decode", parent, id, replied, decoded);
        let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
        Reply {
            plan: plan[i].clone(),
            written: secs(written),
            replied: secs(replied),
            response,
        }
    });
    Ok(done)
}

/// The outcome of one ladder step.
#[derive(Debug, Clone)]
pub struct Step {
    pub rate: f64,
    pub done: Vec<Done>,
    pub reads_ms: Vec<f64>,
    pub writes_ms: Vec<f64>,
    pub failed: usize,
    pub tail: Option<Tail>,
    pub backlog_growing: bool,
    pub pass: bool,
}

impl Step {
    fn new(rate: f64, done: Vec<Done>) -> Step {
        let ms = |c: fn(Class) -> bool| -> Vec<f64> {
            done.iter()
                .filter(|d| c(d.value.plan.class))
                .map(|d| d.latency() * 1e3)
                .collect()
        };
        let reads_ms = ms(|c| c != Class::Update);
        let writes_ms = ms(|c| c == Class::Update);
        let failed = done.iter().filter(|d| !ok(d)).count();
        let tail = tail(&reads_ms);
        let late: Vec<f64> = done.iter().map(Done::late).collect();
        let backlog_growing = backlog_growing(&late, READ_LIMIT_MS / 1e3);
        let pass = tail.is_some_and(|t| t.value <= READ_LIMIT_MS)
            && (failed as f64) <= FAILED_LIMIT * done.len() as f64
            && !backlog_growing;
        Step {
            rate,
            done,
            reads_ms,
            writes_ms,
            failed,
            tail,
            backlog_growing,
            pass,
        }
    }
}

/// Seconds of load in each step above the reference rate: at a fixed
/// length, faster steps carry more reads and so rest on higher tails.
pub const STEP_SECONDS: f64 = 2.0;
/// Requests in the 20 req/s reference step: 108 reads put its tail at p90.
pub const REFERENCE_REQUESTS: usize = 120;

/// Runs the ladder from the reference rate up. A step that misses the
/// limit is repeated once with a fresh schedule, so that one host stall
/// inside a two-second step does not read as the capacity limit; the
/// ladder stops at the first rate whose repeat misses it too. `between`
/// runs after every step, while the daemon is idle.
pub fn ladder(
    daemon: &Daemon,
    pool: &[SampleSet],
    seed: u64,
    tracer: &Tracer,
    between: &mut dyn FnMut() -> R<()>,
) -> R<Vec<Step>> {
    let conns = nproc();
    let mut steps: Vec<Step> = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let n = if k == 0 {
            REFERENCE_REQUESTS
        } else {
            (rate * STEP_SECONDS) as usize
        };
        for attempt in 0..2 {
            let plan = schedule(
                sub_seed(seed, &format!("schedule-{rate}-{attempt}")),
                rate,
                n,
                pool,
            );
            let run = (steps.len() as u64 + 1) << 32;
            let step = Step::new(rate, run_step(daemon.addr, &plan, conns, tracer, run)?);
            let pass = step.pass;
            steps.push(step);
            between()?;
            if pass {
                break;
            }
        }
        if !steps.last().is_some_and(|s| s.pass) {
            break;
        }
    }
    Ok(steps)
}

/// The highest ladder rate that met the limit (every lower rate met it
/// too, or the ladder would have stopped); 0 when the reference rate
/// missed it twice.
pub fn max_rate(steps: &[Step]) -> f64 {
    steps.iter().rfind(|s| s.pass).map_or(0.0, |s| s.rate)
}

/// Direct-compute timings gathered while checking responses.
#[derive(Debug, Default)]
pub struct Direct {
    pub small_ms: Vec<f64>,
    pub large_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
}

fn fingerprint(model: &SpireModel) -> R<String> {
    Ok(ModelSnapshot::from_model(model)
        .ctx("fingerprinting")?
        .fingerprint())
}

/// What the daemon should have answered: the direct API's estimate or
/// ranking, serialized the way the daemon serializes it.
fn expected(model: &SpireModel, plan: &Planned, catalog: &MetricCatalog) -> R<String> {
    let estimate = model.estimate(&plan.samples).ctx("direct estimate")?;
    let mut r = Response::ok(plan.kind);
    if plan.kind == "analyze" {
        let report = BottleneckReport::new(&estimate, catalog);
        r.throughput = Some(report.throughput());
        r.ranked = Some(report.top(5).to_vec());
    } else {
        r.throughput = Some(estimate.throughput());
        r.per_metric = Some(
            estimate
                .per_metric()
                .iter()
                .map(|(metric, me)| spire_serve::proto::MetricResult {
                    metric: metric.to_string(),
                    merged: me.merged,
                    sample_count: me.sample_count,
                })
                .collect(),
        );
    }
    serde_json::to_string(&r).ctx("serializing")
}

/// The part of a read response the check compares: everything the model
/// computed, nothing about how the daemon delivered it.
fn computed(r: &Response) -> Response {
    let mut c = Response::ok(&r.kind);
    c.throughput = r.throughput;
    c.per_metric = r.per_metric.clone();
    c.ranked = r.ranked.clone();
    c
}

/// Rebuilds every model the daemon served — the seeded corpus, then each
/// acknowledged update in journal order — and checks that each update's
/// fingerprint and each read's answer are bit-identical to the direct
/// API under the model whose fingerprint the response carries. Returns
/// the number of mismatching responses and the direct-compute timings.
pub fn verify(daemon: &Daemon, done: &[&Done]) -> R<(usize, Direct)> {
    let mut trainer =
        OnlineTrainer::new(daemon.config.clone(), TrainStrictness::Lenient).ctx("mirror")?;
    trainer.push_batch(&daemon.base);
    trainer.commit().ctx("mirroring the seed batch")?;
    let mut models: HashMap<String, SpireModel> = HashMap::new();
    let seeded = trainer.model().ok_or("the mirror has no model")?.clone();
    models.insert(fingerprint(&seeded)?, seeded);

    let mut direct = Direct::default();
    let mut mismatches = 0;
    let mut updates: Vec<(u64, &Done, &Response)> = done
        .iter()
        .filter(|d| d.value.plan.class == Class::Update)
        .filter_map(|d| match &d.value.response {
            Ok(r) if r.ok => Some((r.seq.unwrap_or(0), *d, r)),
            _ => None,
        })
        .collect();
    updates.sort_by_key(|u| u.0);
    for (_, d, r) in updates {
        let t = Instant::now();
        trainer.push_batch(&d.value.plan.samples);
        trainer.commit().ctx("mirroring an update")?;
        let model = trainer.model().ok_or("the mirror has no model")?;
        let fp = fingerprint(model)?;
        direct.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if r.fingerprint.as_deref() != Some(fp.as_str()) || r.applied != Some(true) {
            mismatches += 1;
        }
        models.insert(fp, model.clone());
    }

    let catalog = MetricCatalog::table_iii();
    for d in done.iter().filter(|d| d.value.plan.class != Class::Update) {
        let Ok(r) = &d.value.response else { continue };
        if !r.ok {
            continue;
        }
        let Some(model) = r.fingerprint.as_ref().and_then(|fp| models.get(fp)) else {
            mismatches += 1;
            continue;
        };
        let t = Instant::now();
        let want = expected(model, &d.value.plan, &catalog)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match d.value.plan.class {
            Class::Small => direct.small_ms.push(ms),
            _ => direct.large_ms.push(ms),
        }
        let got = serde_json::to_string(&computed(r)).ctx("serializing")?;
        if got != want {
            mismatches += 1;
        }
    }
    Ok((mismatches, direct))
}

/// The p50 of one phase (`send`, `wait` or `decode`) for one class.
pub fn phase_p50_ms(done: &[Done], class: Class, phase: &str) -> Option<f64> {
    let v: Vec<f64> = done
        .iter()
        .filter(|d| d.value.plan.class == class && ok(d))
        .map(|d| match phase {
            "send" => d.value.written - d.sent,
            "wait" => d.value.replied - d.value.written,
            _ => d.finished - d.value.replied,
        } * 1e3)
        .collect();
    median(&v)
}
