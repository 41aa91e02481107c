//! The `host_serve` workload: a [`GraphService`] on the host backend,
//! driven closed-loop by client threads that each wait for their answer
//! before submitting the next query.

use crate::calib::Calibration;
use crate::check::check;
use crate::inputs::{self, Graph, Rng, PR_ALPHA};
use crate::replay::{self, QueryRun, Step, StepOutcome};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, tail};
use crate::trace::{self, Span, Tracer};
use cosparse::{CoSparse, ExecBackend, GraphService, ServeConfig, SharedGraph, Ticket};
use graph::serve::{GraphQuery, QueryAnswer};
use graph::{Algorithm, Value};
use sparse::Idx;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use transmuter::MicroArch;

/// Client threads, each with one query in flight.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Distinct BFS/SSSP sources submitted without the cache.
const POOL: usize = 64;
/// Popular queries submitted through the cache.
const POPULAR: usize = 4;
/// Share of queries that repeat a popular query through the cache; kept
/// well under half so the median latency falls among cache misses.
const POPULAR_SHARE: f64 = 0.15;
/// Share of queries that are PageRank snapshots. A snapshot takes longer
/// than any traversal, so with 3% of the queries p99 falls among the
/// snapshots, whose work is the same every time, not in the noisy far
/// tail of the traversals.
const PR_SHARE: f64 = 0.03;
/// The generator bumps the graph epoch, invalidating the cache, once
/// every this many queries.
const BUMP_EVERY: u64 = 100;
/// Fewest answered queries an untraced run measures: p99 needs at least
/// ten samples beyond it.
const MIN_QUERIES: u64 = 1000;
/// Untraced measurement is split into this many windows, each on a
/// service set up (shared state, worker pool, first answer) just before
/// it, after a calibration sample (see `calib`); `setup_s` is the median
/// of the set-ups.
const WINDOWS: usize = 10;
/// A query not answered within this time fails the run.
const QUERY_TIMEOUT: Duration = Duration::from_secs(30);

/// The PageRank snapshot in the mix.
const SNAPSHOT: GraphQuery = GraphQuery::PageRank {
    damping: PR_ALPHA,
    iterations: 20,
};

/// The served graph and the query population the clients draw from.
#[derive(Debug)]
pub struct ServeWorkload {
    graph: Graph,
    pool: Vec<GraphQuery>,
    popular: Vec<GraphQuery>,
    seed: u64,
}

/// `host_serve`: the pokec analogue scaled by 1/64, with BFS/SSSP from
/// seeded sources that reach half the graph, PageRank snapshots and
/// cached repeats.
/// One pool query in four is a BFS. On the host, SSSP takes about six
/// times as long as BFS and a snapshot lies between them; with SSSP the
/// majority, the median latency falls among SSSPs rather than on the
/// edge between two kinds.
pub fn host_serve(seed: u64) -> ServeWorkload {
    let graph = inputs::pokec(64, seed);
    let mut rng = Rng::new(seed, 3);
    let mut draw = |i: usize| {
        let source = graph.far_source(&mut rng);
        if i % 4 == 0 {
            GraphQuery::Bfs { source }
        } else {
            GraphQuery::Sssp { source }
        }
    };
    let pool = (0..POOL).map(&mut draw).collect();
    let popular = (0..POPULAR).map(&mut draw).collect();
    ServeWorkload {
        graph,
        pool,
        popular,
        seed,
    }
}

impl ServeWorkload {
    /// The next query of a client's stream, and whether it goes through
    /// the cache.
    fn draw(&self, rng: &mut Rng) -> (GraphQuery, bool) {
        if rng.chance(POPULAR_SHARE) {
            (self.popular[rng.below(POPULAR)], true)
        } else if rng.chance(PR_SHARE) {
            (SNAPSHOT, false)
        } else {
            (self.pool[rng.below(POOL)], false)
        }
    }
}

/// What a worker hands back: the run, the id of the query it was run
/// for (a cache hit returns another query's), and the worker's spans.
#[derive(Debug, Clone)]
struct Served {
    run: Result<QueryRun, String>,
    qid: u64,
    started: Instant,
    finished: Instant,
    spans: Vec<Span>,
}

/// One host-backend iteration: `CoSparse::step`.
struct HostStep;

impl Step for HostStep {
    fn step<A: Algorithm>(
        &mut self,
        t: &mut Tracer,
        q: u64,
        session: &mut CoSparse,
        op: &A::Op,
        frontier: &[(Idx, Value<A>)],
        state: &[Value<A>],
    ) -> StepOutcome<Value<A>> {
        let out = t.time("host.step", q, || session.step(op, frontier, state))?;
        Ok((out.updates, out.report))
    }
}

/// The job a worker runs for query `qid`; with a trace base it records
/// the queue wait and its own spans.
fn job(
    q: GraphQuery,
    qid: u64,
    submitted: Instant,
    trace_base: Option<Instant>,
) -> impl FnOnce(&mut CoSparse) -> Served + Send + 'static {
    move |session| {
        let started = Instant::now();
        let (run, spans) = match trace_base {
            None => (replay::run(session, q), Vec::new()),
            Some(base) => {
                let mut t = Tracer::new(base);
                t.record("serve.queue_wait", qid, None, submitted, started);
                let span = t.enter("serve.job", qid);
                let run = replay::replay(session, q, &mut t, qid, &mut HostStep);
                t.exit(span);
                (run, t.into_spans())
            }
        };
        Served {
            run: run.map_err(|e| e.to_string()),
            qid,
            started,
            finished: Instant::now(),
            spans,
        }
    }
}

/// What the clients observed in one window.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    /// `(query kind, queue wait ms, service ms)` of queries a worker ran.
    jobs: Vec<(&'static str, f64, f64)>,
    iterations: u64,
    hits: u64,
    bumps: u64,
    outcomes: Vec<Result<(), String>>,
    spans: Vec<Span>,
}

fn kind(q: GraphQuery) -> &'static str {
    match q {
        GraphQuery::Bfs { .. } => "bfs",
        GraphQuery::Sssp { .. } => "sssp",
        GraphQuery::PageRank { .. } => "pr",
    }
}

/// Drives `service` closed-loop from [`CLIENTS`] threads for at least
/// `seconds` and [`MIN_QUERIES`] answers.
fn window(
    w: &ServeWorkload,
    service: &GraphService<Served>,
    refs: &HashMap<u64, QueryAnswer>,
    (seconds, min_queries): (f64, u64),
    trace_base: Option<Instant>,
    stream: u64,
) -> Window {
    let start = Instant::now();
    let answered = AtomicU64::new(0);
    let next_qid = AtomicU64::new(stream << 32);
    let stop = AtomicBool::new(false);
    let per_client: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (answered, next_qid, stop) = (&answered, &next_qid, &stop);
                s.spawn(move || {
                    let mut rng = Rng::new(w.seed, (stream << 8) + c as u64);
                    client(w, service, refs, &mut rng, trace_base, next_qid, || {
                        let n = answered.fetch_add(1, Ordering::Relaxed) + 1;
                        if n >= min_queries && start.elapsed().as_secs_f64() >= seconds {
                            stop.store(true, Ordering::Relaxed);
                        }
                        stop.load(Ordering::Relaxed)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all = Window {
        wall_s: start.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for c in per_client {
        all.absorb(c);
    }
    all
}

impl Window {
    /// Adds another client's or window's observations to these.
    fn absorb(&mut self, other: Window) {
        self.wall_s += other.wall_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.jobs.extend(other.jobs);
        self.iterations += other.iterations;
        self.hits += other.hits;
        self.bumps += other.bumps;
        self.outcomes.extend(other.outcomes);
        trace::append(&mut self.spans, other.spans, None);
    }
}

/// One client: submits, waits up to [`QUERY_TIMEOUT`] for the answer
/// through a waiter thread (a ticket's own wait has no timeout), checks
/// it, and repeats until `done` says so.
fn client(
    w: &ServeWorkload,
    service: &GraphService<Served>,
    refs: &HashMap<u64, QueryAnswer>,
    rng: &mut Rng,
    trace_base: Option<Instant>,
    next_qid: &AtomicU64,
    mut done: impl FnMut() -> bool,
) -> Window {
    let waiter = Waiter::start();
    let mut out = Window::default();
    let mut t = trace_base.map_or_else(Tracer::off, Tracer::new);
    loop {
        let (q, cached) = w.draw(rng);
        let qid = next_qid.fetch_add(1, Ordering::Relaxed);
        if qid % BUMP_EVERY == BUMP_EVERY - 1 {
            service.graph().bump_epoch();
            out.bumps += 1;
        }
        let span = t.enter("serve.query", qid);
        let submitted = Instant::now();
        let ticket = t.time("serve.submit", qid, || {
            let job = job(q, qid, submitted, trace_base);
            if cached {
                service.submit_cached(q.cache_key(), job)
            } else {
                service.submit(job)
            }
        });
        let reply = t.time("serve.wait", qid, || waiter.wait(ticket));
        out.latencies_ms
            .push(submitted.elapsed().as_secs_f64() * 1e3);
        t.exit(span);
        let served = match reply {
            Ok(served) => served,
            Err(e) => {
                out.outcomes.push(crate::fail_wedged(&format!(
                    "query {qid} ({}): {e}",
                    kind(q)
                )));
                break;
            }
        };
        let hit = served.qid != qid;
        out.outcomes.push(
            match &served.run {
                Ok(run) => check(&run.answer, &refs[&q.cache_key()]),
                Err(e) => Err(e.clone()),
            }
            .map_err(|e| format!("query {qid} ({}): {e}", kind(q))),
        );
        if hit {
            out.hits += 1;
        } else {
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            out.jobs.push((
                kind(q),
                ms(served.started.saturating_duration_since(submitted)),
                ms(served.finished - served.started),
            ));
            out.iterations += served.run.as_ref().map_or(0, |r| r.iterations as u64);
            t.adopt(served.spans, span);
        }
        if done() {
            break;
        }
    }
    waiter.close();
    out.spans = t.into_spans();
    out
}

/// Waits for tickets on a helper thread, so that a caller can give up
/// after [`QUERY_TIMEOUT`]: a ticket's own wait has no timeout.
struct Waiter {
    tickets: mpsc::Sender<Ticket<Served>>,
    replies: mpsc::Receiver<Served>,
    thread: std::thread::JoinHandle<()>,
}

impl Waiter {
    fn start() -> Self {
        let (tickets, ticket_rx) = mpsc::channel::<Ticket<Served>>();
        let (reply_tx, replies) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for ticket in ticket_rx {
                if reply_tx.send(ticket.wait()).is_err() {
                    break;
                }
            }
        });
        Waiter {
            tickets,
            replies,
            thread,
        }
    }

    /// The ticket's answer, or why none came in time. A worker that
    /// panicked drops its ticket; the helper's wait then panics and the
    /// reply channel disconnects.
    fn wait(&self, ticket: Ticket<Served>) -> Result<Served, String> {
        self.tickets
            .send(ticket)
            .map_err(|_| "no answer: the waiter stopped".to_string())?;
        self.replies
            .recv_timeout(QUERY_TIMEOUT)
            .map_err(|e| format!("no answer: {e}"))
    }

    /// Stops the helper and joins it, unless a query got no answer: the
    /// helper may then be blocked for good, and the process exits
    /// without it.
    fn close(self) {
        drop(self.tickets);
        if !crate::wedged() {
            self.thread
                .join()
                .expect("the waiter only panics when a query got no answer");
        }
    }
}

/// Set-up times gathered through a run, in seconds: to the first answer,
/// and of `SharedGraph::new` alone.
#[derive(Debug, Default)]
struct SetUps {
    setup: Vec<f64>,
    new: Vec<f64>,
}

/// One set-up: builds the shared graph, starts the service and answers
/// the first pool query. Returns the running service.
fn set_up(
    w: &ServeWorkload,
    refs: &HashMap<u64, QueryAnswer>,
    times: &mut SetUps,
    out: &mut Report,
) -> GraphService<Served> {
    let t0 = Instant::now();
    let shared = SharedGraph::new(&w.graph.operand, crate::sim::geometry(), MicroArch::paper());
    times.new.push(t0.elapsed().as_secs_f64());
    let config = ServeConfig {
        workers: WORKERS,
        batch: 16,
        queue_cap: 256,
        backend: ExecBackend::Host,
    };
    let service = GraphService::start(shared, config);
    let q = w.pool[0];
    let waiter = Waiter::start();
    let served = waiter.wait(service.submit(job(q, 0, t0, None)));
    times.setup.push(t0.elapsed().as_secs_f64());
    out.count(match served {
        Ok(Served { run: Ok(run), .. }) => check(&run.answer, &refs[&q.cache_key()]),
        Ok(Served { run: Err(e), .. }) => Err(e),
        Err(e) => crate::fail_wedged(&format!("set-up query: {e}")),
    });
    waiter.close();
    service
}

/// Simulates the PageRank snapshot on the served graph: its answer must
/// equal the host backend's bit for bit, and its simulated cycles and
/// energy are the workload's simulated totals.
fn oracle(
    graph: &Arc<SharedGraph>,
    refs: &HashMap<u64, QueryAnswer>,
    out: &mut Report,
) -> (u64, f64) {
    let simulated = replay::run(&mut graph.session(), SNAPSHOT);
    let mut host = graph.session();
    host.set_backend(ExecBackend::Host);
    let hosted = replay::run(&mut host, SNAPSHOT);
    match (simulated, hosted) {
        (Ok(s), Ok(h)) => {
            out.count(
                check(&s.answer, &refs[&SNAPSHOT.cache_key()]).and_then(|()| {
                    (s.answer == h.answer)
                        .then_some(())
                        .ok_or_else(|| "simulate and host snapshots differ".to_string())
                }),
            );
            (s.cycles, s.energy_uj)
        }
        (Err(e), _) | (_, Err(e)) => {
            out.count(Err(format!("snapshot oracle: {e}")));
            (0, 0.0)
        }
    }
}

fn record(win: &Window, out: &mut Report) {
    for o in &win.outcomes {
        out.count(o.clone());
    }
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(w: &ServeWorkload, seconds: f64, trace: bool, out: &mut Report) {
    out.note(format!(
        "graph {}: {} vertices, {} edges; {CLIENTS} closed-loop clients, {WORKERS} workers",
        w.graph.name,
        w.graph.vertices(),
        w.graph.csr.nnz()
    ));
    let refs: HashMap<u64, QueryAnswer> = w
        .pool
        .iter()
        .chain(&w.popular)
        .chain([&SNAPSHOT])
        .map(|&q| (q.cache_key(), inputs::reference(q, &w.graph)))
        .collect();
    // Each window runs on a service set up just before it, after a
    // calibration sample, and the window's service stops before the next
    // set-up. The set-ups and samples thus spread over the whole run, and
    // one graph at a time is in memory. A traced run spends half its time
    // on untraced windows, to compare against, and needs no p99, so no
    // minimum count.
    let plain_s = if trace { seconds / 2.0 } else { seconds };
    let min_queries = if trace {
        1
    } else {
        MIN_QUERIES.div_ceil(WINDOWS as u64)
    };
    let mut times = SetUps::default();
    let mut calib = Calibration::new();
    let mut plain = Window::default();
    let mut simulated = (0, 0.0);
    for i in 0..WINDOWS {
        calib.sample();
        let service = set_up(w, &refs, &mut times, out);
        if i == 0 {
            simulated = oracle(service.graph(), &refs, out);
        }
        let span = (plain_s / WINDOWS as f64, min_queries);
        plain.absorb(window(w, &service, &refs, span, None, 1 + i as u64));
        finish(service);
    }
    let (cycles, energy_uj) = simulated;
    record(&plain, out);
    let slowdown = calib.slowdown();
    out.note(format!(
        "host slowdown {slowdown:.4} from {} calibration samples; set-up times (host s): {:.3?}",
        calib.samples(),
        times.setup
    ));
    let qps = |win: &Window| win.latencies_ms.len() as f64 / win.wall_s;
    let (tail_p, tail_ms) = tail(&plain.latencies_ms, 99.0).unwrap_or((0.0, 0.0));
    out.note(format!(
        "{} queries in {:.2} s, {} cache hits, {} epoch bumps; tail percentile p{tail_p}",
        plain.latencies_ms.len(),
        plain.wall_s,
        plain.hits,
        plain.bumps
    ));
    if !trace {
        // Host times in reference seconds (see `calib`).
        out.set(
            "iters_per_s",
            plain.iterations as f64 / plain.wall_s * slowdown,
        );
        out.set("sim_cycles", cycles as f64);
        out.set("sim_energy_uj", energy_uj);
        out.set("serve_qps", qps(&plain) * slowdown);
        out.set(
            "serve_p50_ms",
            median(&plain.latencies_ms).unwrap_or(0.0) / slowdown,
        );
        out.set("serve_p99_ms", tail_ms / slowdown);
        out.set("setup_s", median(&times.setup).unwrap_or(0.0) / slowdown);
        out.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    let service = set_up(w, &refs, &mut times, out);
    let traced = window(
        w,
        &service,
        &refs,
        (seconds / 2.0, 1),
        Some(Instant::now()),
        100,
    );
    record(&traced, out);
    let stats = service.stats();

    let pick = |k: Option<&str>| -> Vec<f64> {
        traced
            .jobs
            .iter()
            .filter(|j| k.map_or(true, |k| j.0 == k))
            .map(|j| j.2)
            .collect()
    };
    let p99 = |xs: &[f64]| tail(xs, 99.0).map_or(0.0, |t| t.1);
    let waits: Vec<f64> = traced.jobs.iter().map(|j| j.1).collect();
    let totals = trace::totals(&traced.spans);
    let steps = totals.get("host.step").copied().unwrap_or_default();
    out.set("shared.new_ms", median(&times.new).unwrap_or(0.0) * 1e3);
    out.set("host.step_ms", steps.1 as f64 / steps.0.max(1) as f64 / 1e6);
    out.set("serve.queue_wait_ms_p50", median(&waits).unwrap_or(0.0));
    out.set("serve.queue_wait_ms_p99", p99(&waits));
    out.set("serve.service_ms_p50", median(&pick(None)).unwrap_or(0.0));
    out.set("serve.service_ms_p99", p99(&pick(None)));
    for (k, p50, p99name) in [
        (
            "bfs",
            "serve.service_ms_p50_bfs",
            "serve.service_ms_p99_bfs",
        ),
        (
            "sssp",
            "serve.service_ms_p50_sssp",
            "serve.service_ms_p99_sssp",
        ),
        ("pr", "serve.service_ms_p50_pr", "serve.service_ms_p99_pr"),
    ] {
        out.set(p50, median(&pick(Some(k))).unwrap_or(0.0));
        out.set(p99name, p99(&pick(Some(k))));
    }
    out.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / stats.submitted.max(1) as f64,
    );
    out.set(
        "serve.batch_mean",
        stats.completed as f64 / stats.batches.max(1) as f64,
    );
    out.set("serve.rejected", stats.rejected as f64);
    out.set("serve.epoch_bumps", traced.bumps as f64);
    out.set("graph.loop_ms", {
        let it = totals.get("graph.iteration").copied().unwrap_or_default();
        it.2 as f64 / it.0.max(1) as f64 / 1e6
    });
    out.set("trace.overhead_ratio", qps(&plain) / qps(&traced));
    out.set(
        "trace.accounted_ratio",
        trace::accounted_ratio(&traced.spans, "graph.iteration"),
    );
    crate::set_unexercised(out);
    crate::save_spans(out, &traced.spans);
    finish(service);
}

/// Stops the service, unless a query got no answer: a worker may then
/// be stuck, and the process exits without joining it.
fn finish(service: GraphService<Served>) {
    if crate::wedged() {
        std::mem::forget(service);
    } else {
        service.shutdown();
    }
}
