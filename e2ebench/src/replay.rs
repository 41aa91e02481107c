//! Query runners: the engine loop as the library runs it, and a traced
//! replay of the same loop through the layers' public calls.

use crate::trace::Tracer;
use cosparse::{CoSparse, Update};
use graph::bfs::Bfs;
use graph::pagerank::PageRank;
use graph::serve::{GraphQuery, QueryAnswer};
use graph::sssp::Sssp;
use graph::{run_algorithm, Algorithm, RunResult, Value};
use sparse::Idx;
use transmuter::{SimError, SimReport};

/// What one query produced.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The final per-vertex state.
    pub answer: QueryAnswer,
    /// Engine iterations run.
    pub iterations: usize,
    /// Simulated cycles over all iterations (0 on the host backend).
    pub cycles: u64,
    /// Simulated energy over all iterations, in microjoules.
    pub energy_uj: f64,
}

fn summarize<V>(run: RunResult<V>, wrap: fn(Vec<V>) -> QueryAnswer) -> QueryRun {
    QueryRun {
        iterations: run.iterations.len(),
        cycles: run.total_cycles(),
        energy_uj: run.total_joules() * 1e6,
        answer: wrap(run.state),
    }
}

/// Runs `query` on `session` with the library's engine loop
/// ([`graph::run_algorithm`]), untraced.
pub fn run(session: &mut CoSparse, query: GraphQuery) -> Result<QueryRun, SimError> {
    let n = session.matrix().cols();
    match query {
        GraphQuery::Bfs { source } => {
            run_algorithm(session, n, &Bfs::new(source)).map(|r| summarize(r, QueryAnswer::Bfs))
        }
        GraphQuery::Sssp { source } => {
            run_algorithm(session, n, &Sssp::new(source)).map(|r| summarize(r, QueryAnswer::Sssp))
        }
        GraphQuery::PageRank {
            damping,
            iterations,
        } => run_algorithm(session, n, &PageRank::new(damping, iterations))
            .map(|r| summarize(r, QueryAnswer::PageRank)),
    }
}

/// One iteration's sorted updates and simulated report.
pub type StepOutcome<V> = Result<(Vec<Update<V>>, SimReport), SimError>;

/// Per-iteration work the replay hands to a layer: given the frontier
/// and state, produce the sorted updates and the iteration's report.
pub trait Step {
    /// One iteration of `op` through the layer's public calls.
    fn step<A: Algorithm>(
        &mut self,
        t: &mut Tracer,
        query: u64,
        session: &mut CoSparse,
        op: &A::Op,
        frontier: &[(Idx, Value<A>)],
        state: &[Value<A>],
    ) -> StepOutcome<Value<A>>;
}

/// Replays `query` on `session`: the loop of [`graph::run_algorithm`],
/// with each iteration a `graph.iteration` span whose layer calls the
/// `step` records as child spans.
pub fn replay(
    session: &mut CoSparse,
    query: GraphQuery,
    t: &mut Tracer,
    qid: u64,
    step: &mut impl Step,
) -> Result<QueryRun, SimError> {
    let n = session.matrix().cols();
    match query {
        GraphQuery::Bfs { source } => replay_algorithm(
            session,
            n,
            &Bfs::new(source),
            t,
            qid,
            step,
            QueryAnswer::Bfs,
        ),
        GraphQuery::Sssp { source } => replay_algorithm(
            session,
            n,
            &Sssp::new(source),
            t,
            qid,
            step,
            QueryAnswer::Sssp,
        ),
        GraphQuery::PageRank {
            damping,
            iterations,
        } => {
            let pr = PageRank::new(damping, iterations);
            replay_algorithm(session, n, &pr, t, qid, step, QueryAnswer::PageRank)
        }
    }
}

fn replay_algorithm<A: Algorithm>(
    session: &mut CoSparse,
    n: usize,
    algorithm: &A,
    t: &mut Tracer,
    qid: u64,
    step: &mut impl Step,
    wrap: fn(Vec<Value<A>>) -> QueryAnswer,
) -> Result<QueryRun, SimError> {
    let op = algorithm.op(n);
    let mut state = algorithm.initial_state(n);
    let mut frontier = algorithm.initial_frontier(n);
    let mut cycles = 0;
    // Summed like `RunResult::total_joules`, so the totals match bit for bit.
    let mut joules = Vec::new();
    for _ in 0..algorithm.max_iterations(n) {
        if frontier.is_empty() {
            break;
        }
        let span = t.enter("graph.iteration", qid);
        let stepped = step.step::<A>(t, qid, session, &op, &frontier, &state);
        let (updates, report) = match stepped {
            Ok(out) => out,
            Err(e) => {
                t.exit(span);
                return Err(e);
            }
        };
        cycles += report.cycles;
        joules.push(report.joules());
        apply_updates(algorithm, &mut state, &updates);
        let converged = algorithm.dense_frontier() && updates.is_empty();
        frontier = if algorithm.dense_frontier() {
            (0..n)
                .map(|v| (v as Idx, algorithm.frontier_value(v as Idx, state[v])))
                .collect()
        } else {
            updates
                .iter()
                .map(|&(dst, v)| (dst, algorithm.frontier_value(dst, v)))
                .collect()
        };
        t.exit(span);
        if converged {
            break;
        }
    }
    Ok(QueryRun {
        answer: wrap(state),
        iterations: joules.len(),
        cycles,
        energy_uj: joules.iter().sum::<f64>() * 1e6,
    })
}

/// The engine's state update: updated vertices take their new value;
/// with a background value (PageRank's teleport term) every other
/// vertex takes it.
fn apply_updates<A: Algorithm>(
    algorithm: &A,
    state: &mut [Value<A>],
    updates: &[Update<Value<A>>],
) {
    let n = state.len();
    if n == 0 {
        return;
    }
    if algorithm.background_update(n, state[0]).is_some() {
        let mut it = updates.iter().peekable();
        for (v, slot) in state.iter_mut().enumerate() {
            match it.peek() {
                Some(&&(dst, val)) if dst as usize == v => {
                    *slot = val;
                    it.next();
                }
                _ => {
                    if let Some(bg) = algorithm.background_update(n, *slot) {
                        *slot = bg;
                    }
                }
            }
        }
    } else {
        for &(dst, val) in updates {
            state[dst as usize] = val;
        }
    }
}
