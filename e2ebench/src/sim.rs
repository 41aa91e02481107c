//! The simulate-backend workloads: every query opens a fresh session on
//! a shared graph and runs its engine loop on the simulated machine.

use crate::calib::Calibration;
use crate::check::check;
use crate::inputs::{self, Graph, Rng, PR_ALPHA};
use crate::replay::{self, QueryRun, Step, StepOutcome};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{beyond, median, quartiles, tail, MIN_BEYOND};
use crate::trace::{self, Tracer};
use cosparse::{CoSparse, FormatKind, GraphOp, HwConfig, ReorderKind, SharedGraph, SwConfig};
use graph::serve::{GraphQuery, QueryAnswer};
use graph::{Algorithm, Value};
use sparse::Idx;
use std::sync::Arc;
use std::time::Instant;
use transmuter::{Geometry, MicroArch, SimReport, SimStats};

/// Machine shape every simulated session runs on: 2 tiles of 8 PEs.
pub fn geometry() -> Geometry {
    Geometry::new(2, 8)
}

/// Times the graph set-up (shared state plus first answer) is repeated
/// in a run, spread between its passes; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A simulate workload: graphs and the query list one pass runs, each
/// query naming the graph it runs on.
#[derive(Debug)]
pub struct SimWorkload {
    /// The graphs, built from the seed.
    pub graphs: Vec<Graph>,
    /// `(graph index, query)` in pass order.
    pub queries: Vec<(usize, GraphQuery)>,
    /// The latency percentile reported as the tail. It is fixed per
    /// workload, so that runs which answer more queries stay comparable;
    /// a run makes enough passes for ten latencies to lie beyond it.
    pub tail_percentile: f64,
}

impl SimWorkload {
    /// Fewest measured passes that leave [`MIN_BEYOND`] latencies beyond
    /// the tail percentile.
    fn min_passes(&self) -> usize {
        let samples = (1..)
            .find(|&n| beyond(self.tail_percentile, n) >= MIN_BEYOND)
            .expect("every percentile below 100 leaves ten samples beyond it eventually");
        samples.div_ceil(self.queries.len())
    }
}

/// Generator seed of `sim_traverse`'s graph: the pokec analogue of the
/// repository's Fig 9 case study. With the graph drawn from the workload
/// seed as well as the sources, a pass's simulated cycles spread 0.08 of
/// their median over ten seeds; with the graph fixed, 0.05.
const POKEC_SEED: u64 = 0xF9;

/// `sim_traverse`: 24 queries, a BFS then two SSSPs in turn, from seeded
/// sources that reach half the graph, on the pokec analogue scaled by
/// 1/256. SSSP runs longer than BFS; with twice as many SSSPs the median
/// latency falls among them, not on the edge between the two kinds.
pub fn traverse(seed: u64) -> SimWorkload {
    let g = inputs::pokec(256, POKEC_SEED);
    let mut rng = Rng::new(seed, 1);
    let queries = (0..24)
        .map(|i| {
            let source = g.far_source(&mut rng);
            let q = if i % 3 == 0 {
                GraphQuery::Bfs { source }
            } else {
                GraphQuery::Sssp { source }
            };
            (0, q)
        })
        .collect();
    SimWorkload {
        graphs: vec![g],
        queries,
        tail_percentile: 90.0,
    }
}

/// R-MAT generator seeds of `sim_pagerank`. Whether the steady-state
/// memo engages on an R-MAT graph's PageRank is a coin flip of its
/// generator seed (on 2x8 PEs, 7919 engages on 35 of 49 runs, 31676 on
/// none), and one engaging graph runs about 2.5x faster than one that
/// does not. Drawing these from the workload seed would make the
/// workload's speed a draw of that coin, so the set holds one graph of
/// each kind at fixed seeds and takes the rest of its inputs from the
/// workload seed.
const RMAT_SEEDS: [u64; 2] = [7919, 31676];

/// `sim_pagerank`: one 50-iteration PageRank on each graph of a set:
/// two R-MAT graphs (COO, SCS, RCM-reordered), one on which the memo
/// engages and one on which it does not, and three seeded
/// community-structured graphs (bitmap, SCS). A community PageRank
/// takes longer than the engaging R-MAT one and less than the other,
/// so with three of five queries the median latency falls among them.
pub fn pagerank(seed: u64) -> SimWorkload {
    let mut rng = Rng::new(seed, 2);
    let mut graphs = vec![inputs::rmat13(RMAT_SEEDS[0]), inputs::rmat13(RMAT_SEEDS[1])];
    graphs.extend((0..3).map(|_| inputs::community(rng.next_u64())));
    let queries = (0..graphs.len())
        .map(|g| {
            let q = GraphQuery::PageRank {
                damping: PR_ALPHA,
                iterations: 50,
            };
            (g, q)
        })
        .collect();
    SimWorkload {
        graphs,
        queries,
        tail_percentile: 50.0,
    }
}

/// Decision and machine counters summed over traced iterations.
#[derive(Debug, Default)]
struct Tally {
    iters: u64,
    ip: u64,
    op: u64,
    by_hw: [u64; 4],
    bitmap: u64,
    bcsr: u64,
    reordered: u64,
    switches: u64,
    prev: Option<SwConfig>,
    stats: SimStats,
    memo_hits: u64,
    memo_misses: u64,
    proven: u64,
    replayed: u64,
    rolled_back: u64,
}

impl Tally {
    fn iteration(&mut self, d: &cosparse::Decision, report: &SimReport) {
        self.iters += 1;
        match d.software {
            SwConfig::InnerProduct => self.ip += 1,
            SwConfig::OuterProduct => self.op += 1,
        }
        let hw = HwConfig::ALL.iter().position(|&h| h == d.hardware);
        self.by_hw[hw.expect("every config is listed")] += 1;
        match d.format {
            FormatKind::Bitmap => self.bitmap += 1,
            FormatKind::Bcsr => self.bcsr += 1,
            _ => {}
        }
        if d.reorder != ReorderKind::None {
            self.reordered += 1;
        }
        if self.prev.is_some_and(|p| p != d.software) {
            self.switches += 1;
        }
        self.prev = Some(d.software);
        self.stats = self.stats.merge(&report.stats);
    }

    /// Closes a query: its session's machine counters join the tally.
    fn end_query(&mut self, session: &CoSparse) {
        self.prev = None;
        let c = session.cache_stats();
        self.memo_hits += c.steady_memo.hits;
        self.memo_misses += c.steady_memo.misses;
        self.proven += c.epochs.proven;
        self.replayed += c.epochs.replayed;
        self.rolled_back += c.epochs.rolled_back;
    }
}

/// One iteration through the simulate path's public calls:
/// `decide_exact`, then `execute`, then the functional `apply`.
struct SimStep<'a> {
    degrees: &'a [u32],
    indices: Vec<Idx>,
    tally: &'a mut Tally,
}

impl Step for SimStep<'_> {
    fn step<A: Algorithm>(
        &mut self,
        t: &mut Tracer,
        q: u64,
        session: &mut CoSparse,
        op: &A::Op,
        frontier: &[(Idx, Value<A>)],
        state: &[Value<A>],
    ) -> StepOutcome<Value<A>> {
        let profile = op.profile();
        let d = t.time("heuristics.decide", q, || {
            session.decide_exact(frontier.len(), &profile)
        });
        self.indices.clear();
        self.indices.extend(frontier.iter().map(|&(i, _)| i));
        let indices = &self.indices;
        let report = t.time("runtime.execute", q, || {
            session.execute(d, indices, &profile)
        })?;
        self.tally.iteration(&d, &report);
        let degrees = self.degrees;
        let updates = t.time("ops.apply", q, || {
            cosparse::apply(op, session.matrix_csc(), frontier, state, degrees)
        });
        Ok((updates, report))
    }
}

/// Totals of one pass over the query list.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    iterations: usize,
    cycles: u64,
    energy_uj: f64,
    /// Latency of each query, in query-list order.
    latencies_ms: Vec<f64>,
}

impl Pass {
    fn add(&mut self, run: &QueryRun) {
        self.iterations += run.iterations;
        self.cycles += run.cycles;
        self.energy_uj += run.energy_uj;
    }
}

/// A pass's wall time from several passes, in seconds: each query's
/// median latency over the passes, summed. A burst of host noise during
/// one query then shifts one sample, not the estimate.
fn median_pass_s(passes: &[Pass]) -> f64 {
    per_query_medians(passes).iter().sum::<f64>() / 1e3
}

/// Each query's median latency over `passes`, in ms.
fn per_query_medians(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].latencies_ms.len())
        .map(|i| {
            median(&passes.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()).unwrap_or(0.0)
        })
        .collect()
}

/// Runs one pass, untraced (`tracing` is `None`) or traced, checking
/// every answer.
fn pass(
    w: &SimWorkload,
    shared: &[Arc<SharedGraph>],
    refs: &[QueryAnswer],
    mut tracing: Option<(&mut Tracer, &[Vec<u32>], &mut Tally, u64)>,
    calib: &mut Calibration,
    out: &mut Report,
) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    for (i, &(g, q)) in w.queries.iter().enumerate() {
        let t0 = Instant::now();
        let got = match tracing.as_mut() {
            None => replay::run(&mut shared[g].session(), q),
            Some((t, degrees, tally, base)) => {
                let qid = *base + i as u64;
                let span = t.enter("query", qid);
                let mut session = t.time("shared.session", qid, || shared[g].session());
                let mut step = SimStep {
                    degrees: &degrees[g],
                    indices: Vec::new(),
                    tally,
                };
                let got = replay::replay(&mut session, q, t, qid, &mut step);
                step.tally.end_query(&session);
                t.exit(span);
                got
            }
        };
        p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        calib.sample();
        match got {
            Ok(run) => {
                out.count(check(&run.answer, &refs[i]).map_err(|e| format!("query {i}: {e}")));
                p.add(&run);
            }
            Err(e) => out.count(Err(format!("query {i}: {e}"))),
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// Set-up times gathered through a run, in seconds: to the first answer,
/// and of `SharedGraph::new` alone.
#[derive(Debug, Default)]
struct SetUps {
    setup: Vec<f64>,
    new: Vec<f64>,
}

/// One set-up: builds the shared state of every graph and answers the
/// first query. Returns the graphs' shared state.
fn set_up(
    w: &SimWorkload,
    refs: &[QueryAnswer],
    times: &mut SetUps,
    out: &mut Report,
) -> Vec<Arc<SharedGraph>> {
    let t0 = Instant::now();
    let shared: Vec<_> = w
        .graphs
        .iter()
        .map(|g| SharedGraph::new(&g.operand, geometry(), MicroArch::paper()))
        .collect();
    times.new.push(t0.elapsed().as_secs_f64());
    let (g, q) = w.queries[0];
    let got = replay::run(&mut shared[g].session(), q);
    times.setup.push(t0.elapsed().as_secs_f64());
    out.count(match got {
        Ok(run) => check(&run.answer, &refs[0]),
        Err(e) => Err(e.to_string()),
    });
    shared
}

/// Checks that each of `passes` simulated exactly the totals of `first`.
fn check_exact<'a>(first: &Pass, passes: impl IntoIterator<Item = &'a Pass>, out: &mut Report) {
    for p in passes {
        if p.cycles != first.cycles || p.energy_uj.to_bits() != first.energy_uj.to_bits() {
            out.count(Err(format!(
                "a pass simulated {} cycles / {} uJ, the first {} / {}",
                p.cycles, p.energy_uj, first.cycles, first.energy_uj
            )));
        }
    }
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(w: &SimWorkload, seconds: f64, trace: bool, out: &mut Report) {
    for g in &w.graphs {
        out.note(format!(
            "graph {}: {} vertices, {} edges",
            g.name,
            g.vertices(),
            g.csr.nnz()
        ));
    }
    let refs: Vec<QueryAnswer> = w
        .queries
        .iter()
        .map(|&(g, q)| inputs::reference(q, &w.graphs[g]))
        .collect();
    let mut times = SetUps::default();
    let shared = set_up(w, &refs, &mut times, out);
    // The warm-up pass materializes the formats, reorderings and
    // programs the later passes reuse; it is checked but not timed.
    let mut calib = Calibration::new();
    pass(w, &shared, &refs, None, &mut calib, out);

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut tracer = Tracer::new(start);
    let mut tally = Tally::default();
    let mut shared_delta = None;
    let degrees: Vec<Vec<u32>> = shared
        .iter()
        .map(|s| {
            s.matrix()
                .col_counts()
                .into_iter()
                .map(|c| c as u32)
                .collect()
        })
        .collect();
    // Traced runs alternate plain and traced passes, so the overhead
    // ratio compares passes made under the same conditions.
    // A traced run reports no latencies, so one pass of each kind does.
    let min_passes = if trace { 1 } else { w.min_passes() };
    while plain.len() < min_passes
        || (trace && traced.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        if trace && traced.len() < plain.len() {
            let before: Vec<_> = shared.iter().map(|s| s.cache_stats()).collect();
            let base = (traced.len() as u64 + 1) << 32;
            let mut pass_tally = Tally::default();
            let tracing = Some((&mut tracer, &degrees[..], &mut pass_tally, base));
            let p = pass(w, &shared, &refs, tracing, &mut calib, out);
            if traced.is_empty() {
                tally = pass_tally;
                shared_delta = Some((
                    before,
                    shared.iter().map(|s| s.cache_stats()).collect::<Vec<_>>(),
                ));
            }
            traced.push(p);
        } else {
            plain.push(pass(w, &shared, &refs, None, &mut calib, out));
        }
        // The other set-ups run between passes, so that their median
        // samples the host over the whole run, not its first seconds.
        if times.setup.len() < SETUP_REPS {
            set_up(w, &refs, &mut times, out);
        }
    }
    while times.setup.len() < SETUP_REPS {
        set_up(w, &refs, &mut times, out);
    }
    out.note(format!("set-up times (s): {:.3?}", times.setup));
    // Every pass after the warm-up, untraced or traced, simulates the
    // same totals.
    check_exact(&plain[0], plain.iter().chain(&traced), out);

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let (q1, q3) = quartiles(&walls).unwrap_or_default();
    out.note(format!(
        "pass wall time (s): quartiles {q1:.3} .. {q3:.3} of {}",
        walls.len()
    ));
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let (tail_p, tail_ms) = tail(&latencies, w.tail_percentile).unwrap_or((0.0, 0.0));
    let slowdown = calib.slowdown();
    out.note(format!(
        "host slowdown {slowdown:.4} from {} calibration samples; median latency per query (host ms): {:.1?}",
        calib.samples(),
        per_query_medians(&plain)
    ));
    out.note(format!(
        "{} untraced passes of {} queries, {} iterations each; tail percentile p{tail_p} of {} latencies",
        plain.len(),
        w.queries.len(),
        plain[0].iterations,
        latencies.len()
    ));
    if !trace {
        // Host times in reference seconds (see `calib`).
        let pass_s = median_pass_s(&plain) / slowdown;
        out.set("iters_per_s", plain[0].iterations as f64 / pass_s);
        out.set("sim_cycles", plain[0].cycles as f64);
        out.set("sim_energy_uj", plain[0].energy_uj);
        out.set("serve_qps", w.queries.len() as f64 / pass_s);
        out.set("serve_p50_ms", median(&latencies).unwrap_or(0.0) / slowdown);
        out.set("serve_p99_ms", tail_ms / slowdown);
        out.set("setup_s", median(&times.setup).unwrap_or(0.0) / slowdown);
        out.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    let spans = tracer.spans();
    let totals = trace::totals(spans);
    let per_pass = |name: &str| {
        totals
            .get(name)
            .map_or((0.0, 0.0, 0.0), |&(n, total, own)| {
                let k = traced.len() as f64;
                (n as f64 / k, total as f64 / k, own as f64 / k)
            })
    };
    let iters = tally.iters.max(1) as f64;
    let (_, iter_ns, iter_self_ns) = per_pass("graph.iteration");
    let (decides, decide_ns, _) = per_pass("heuristics.decide");
    let (_, execute_ns, _) = per_pass("runtime.execute");
    let (_, apply_ns, _) = per_pass("ops.apply");
    out.set("shared.new_ms", median(&times.new).unwrap_or(0.0) * 1e3);
    let (before, after) = shared_delta.expect("a traced pass ran");
    let delta = |f: fn(&cosparse::SharedCacheStats) -> u64| -> f64 {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    out.set("shared.plan_builds", delta(|s| s.plan_builds));
    out.set("shared.plan_hits", delta(|s| s.plan_hits));
    out.set(
        "shared.dense_program_builds",
        delta(|s| s.dense_program_builds),
    );
    out.set("shared.dense_program_hits", delta(|s| s.dense_program_hits));
    out.set(
        "shared.scratch_program_builds",
        delta(|s| s.scratch_program_builds),
    );
    out.set(
        "shared.scratch_program_hits",
        delta(|s| s.scratch_program_hits),
    );
    out.set("shared.conversion_builds", delta(|s| s.conversion_builds));
    out.set("shared.format_builds", delta(|s| s.format_builds));
    out.set("shared.reorder_builds", delta(|s| s.reorder_builds));
    out.set("heuristics.decide_us", decide_ns / decides.max(1.0) / 1e3);
    out.set("heuristics.iters_ip", tally.ip as f64);
    out.set("heuristics.iters_op", tally.op as f64);
    // `by_hw` follows `HwConfig::ALL`: SC, SCS, PC, PS.
    for (name, n) in [
        "heuristics.iters_sc",
        "heuristics.iters_scs",
        "heuristics.iters_pc",
        "heuristics.iters_ps",
    ]
    .into_iter()
    .zip(tally.by_hw)
    {
        out.set(name, n as f64);
    }
    out.set("heuristics.iters_bitmap", tally.bitmap as f64);
    out.set("heuristics.iters_bcsr", tally.bcsr as f64);
    out.set("heuristics.iters_reordered", tally.reordered as f64);
    out.set("heuristics.dataflow_switches", tally.switches as f64);
    out.set("runtime.execute_ms", execute_ns / iters / 1e6);
    out.set("runtime.execute_share", execute_ns / iter_ns.max(1.0));
    let st = &tally.stats;
    out.set("machine.sim_ops", st.ops as f64);
    out.set(
        "machine.host_ns_per_sim_op",
        execute_ns / (st.ops.max(1) as f64),
    );
    out.set("machine.memo_hits", tally.memo_hits as f64);
    out.set("machine.memo_misses", tally.memo_misses as f64);
    let memo_total = (tally.memo_hits + tally.memo_misses).max(1) as f64;
    out.set(
        "machine.memo_hit_ratio",
        tally.memo_hits as f64 / memo_total,
    );
    out.set("machine.epochs_proven", tally.proven as f64);
    out.set("machine.epochs_replayed", tally.replayed as f64);
    out.set("machine.epochs_rolled_back", tally.rolled_back as f64);
    // Epochs attempted in parallel commit either proven or replayed; a
    // replayed one that rolled back to sequential was wasted.
    let attempted = (tally.proven + tally.replayed) as f64;
    out.set(
        "machine.epoch_commit_ratio",
        if attempted > 0.0 {
            (attempted - tally.rolled_back as f64) / attempted
        } else {
            0.0
        },
    );
    out.set("machine.l1_misses", st.l1_misses as f64);
    out.set("machine.l2_misses", st.l2_misses as f64);
    out.set("machine.conflict_cycles", st.conflict_cycles as f64);
    out.set("machine.mem_stall_cycles", st.mem_stall_cycles as f64);
    out.set(
        "machine.barrier_stall_cycles",
        st.barrier_stall_cycles as f64,
    );
    out.set("machine.hbm_line_reads", st.hbm_line_reads as f64);
    out.set("machine.reconfig_cycles", st.reconfig_cycles as f64);
    out.set("ops.apply_ms", apply_ns / iters / 1e6);
    out.set("graph.loop_ms", iter_self_ns / iters / 1e6);
    out.set(
        "trace.overhead_ratio",
        median_pass_s(&traced) / median_pass_s(&plain),
    );
    out.set(
        "trace.accounted_ratio",
        trace::accounted_ratio(spans, "graph.iteration"),
    );
    crate::set_unexercised(out);
    crate::save_spans(out, spans);
}
