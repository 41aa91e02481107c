//! Native host execution backend.
//!
//! Computes the same SpMV step the simulator times, *directly against
//! host memory*, with [`GraphOp::matrix_op`] / [`GraphOp::reduce`] /
//! [`GraphOp::vector_op`] / [`GraphOp::is_update`] inlined in the inner
//! loop. No [`transmuter::Machine`] is anywhere in the path — this is
//! how the framework serves *real* SpMV answers at memory bandwidth
//! while the trace-driven simulator stays the cycle model and
//! differential oracle (see [`ExecBackend::Differential`]).
//!
//! The host does not copy the simulated dataflow decision: that
//! crossover is derived for the Transmuter memory system. Each step
//! instead runs whichever [`Walk`] does less work on *this* frontier —
//! push over the active CSC columns when their out-edges number fewer
//! than the operand's stored entries, pull over the rows otherwise —
//! the way Ligra switches push/pull by active-edge work.
//!
//! Both walks reduce each destination's contributions in ascending
//! source order — exactly the order the golden model
//! ([`crate::ops::apply`]) uses — so host results are **bit-identical**
//! to the functional results the simulate path returns, float
//! reductions included. The differential backend asserts this on every
//! invocation.

use crate::ops::{GraphOp, Update};
use sparse::partition::RowPartition;
use sparse::{BcsrMatrix, BitmapCsr, CscMatrix, CsrMatrix, Idx};

/// Which execution backend a [`crate::CoSparse`] runtime answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The trace-driven cycle simulator (the default): results are
    /// computed by the golden model, timing by the simulated machine.
    #[default]
    Simulate,
    /// Native host execution: the same step evaluated directly against
    /// host memory by the cheaper [`Walk`], orders of magnitude faster,
    /// no simulated timing (reports carry wall-clock seconds and zero
    /// cycles).
    Host,
    /// Runs **both** backends and asserts their results are bit-equal,
    /// making the simulate path the oracle for the host path. Returns
    /// the simulate outcome (cycles intact).
    ///
    /// # Panics
    ///
    /// Any invocation panics if the two backends disagree.
    Differential,
}

/// A [`HostScratch`] slot that holds no position.
const NONE: u32 = u32::MAX;

/// The matrix structure the pull walk scans — the host side of the
/// storage-format reconfiguration axis. All three walk each destination
/// row's entries in ascending source order, so they are interchangeable
/// bit-for-bit; they differ only in how the row is materialized in host
/// memory.
#[derive(Debug, Clone, Copy)]
pub enum HostOperand<'a> {
    /// Compressed sparse row (the default row loop).
    Csr(&'a CsrMatrix),
    /// Hierarchical-bitmap CSR: rows decoded segment by segment.
    Bitmap(&'a BitmapCsr),
    /// Blocked CSR: rows gathered from `r x c` blocks, mask-gated so
    /// fill never contributes.
    Bcsr(&'a BcsrMatrix),
}

impl HostOperand<'_> {
    /// The entries a pull over every row visits: the nonzeros for CSR
    /// and bitmap, every cell of every block (fill included, each one
    /// mask-tested) for BCSR.
    pub(crate) fn stored_entries(&self) -> usize {
        match self {
            HostOperand::Csr(m) => m.nnz(),
            HostOperand::Bitmap(m) => m.nnz(),
            HostOperand::Bcsr(m) => {
                let (br, bc) = m.block_shape();
                m.block_count() * br * bc
            }
        }
    }
}

/// The loop the host runs for one step. Either gives the same answer
/// bit for bit; they differ in the work they do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Every destination row scans all its stored entries and keeps the
    /// active ones: the inner-product access shape. Fans out over the
    /// plan's row partitions when the session has a thread budget.
    Pull,
    /// Only the active sources' CSC columns are walked, once each, into
    /// a dense accumulator: the outer-product access shape.
    Push,
}

impl Walk {
    /// The walk with less work on this step: [`Walk::Push`] when the
    /// active sources' out-edges (their CSC column lengths, summed in
    /// O(active)) are fewer than the entries a pull scans
    /// ([`HostOperand::stored_entries`]), [`Walk::Pull`] otherwise.
    ///
    /// The rule is 1:1 with no tuning constant: a push pays a scattered
    /// accumulate per active edge, a pull a mispredicted mask test per
    /// stored entry, and measured per-entry costs cross at about 90%
    /// frontier density, where the active out-edges are ≈0.91·nnz.
    pub(crate) fn cheaper<V>(
        operand: HostOperand<'_>,
        csc: &CscMatrix,
        active: &[(Idx, V)],
    ) -> Walk {
        let active_edges: usize = active
            .iter()
            .map(|&(src, _)| csc.col_nnz(src as usize))
            .sum();
        if active_edges < operand.stored_entries() {
            Walk::Push
        } else {
            Walk::Pull
        }
    }
}

/// Per-step operands of one host SpMV: the sorted active `(source,
/// frontier value)` pairs, the full per-vertex state, and the original
/// graph's out-degrees — the same triple [`crate::ops::apply`] takes.
#[derive(Debug, Clone, Copy)]
pub struct StepInputs<'a, V> {
    /// Sorted active `(source, frontier value)` pairs.
    pub active: &'a [(Idx, V)],
    /// Per-vertex state vector.
    pub state: &'a [V],
    /// Out-degree of each source in the original graph.
    pub degrees: &'a [u32],
}

/// Host scratch a session reuses across steps, so setting up a step
/// costs O(frontier), not O(vertices): one index slot per vertex, all
/// [`NONE`] between steps, and a one-bit-per-vertex touched set, all
/// clear between steps. A pull maps each active source to its position
/// in the frontier (the frontier's value and activity mask in one
/// lookup); a push maps each touched destination to its accumulator.
#[derive(Debug, Default)]
pub(crate) struct HostScratch {
    slot: Vec<u32>,
    touched: Vec<u64>,
    /// Set while a step has scratch in use. A step that unwound (a
    /// panicking op) leaves it set, and the next step resets.
    dirty: bool,
}

impl HostScratch {
    /// Sized for `n` vertices, every slot [`NONE`] and every touched
    /// bit clear; marks the scratch in use.
    fn begin(&mut self, n: usize) -> (&mut [u32], &mut [u64]) {
        if self.dirty {
            self.slot.fill(NONE);
            self.touched.fill(0);
        }
        if self.slot.len() < n {
            self.slot.resize(n, NONE);
            self.touched.resize(n.div_ceil(64), 0);
        }
        self.dirty = true;
        (&mut self.slot, &mut self.touched)
    }

    /// Marks the scratch reset: every walk restores what it set.
    fn end(&mut self) {
        self.dirty = false;
    }
}

/// One host SpMV step under the generalized [`GraphOp`] semiring, by
/// the [`Walk::cheaper`] walk: the pull scans rows of `operand` (the
/// decided storage format), the push walks the active columns of `csc`.
/// Returns the updates that passed [`GraphOp::is_update`], sorted by
/// destination — bit-identical to [`crate::ops::apply`] on the same
/// inputs — and the walk that ran.
///
/// `partition` is the plan's row partitioning; a pull evaluates its
/// partitions on up to `threads` scoped host threads (1 runs them in
/// turn on the caller's thread). The push is a single pass.
///
/// # Panics
///
/// Panics if an active index or a matrix index is out of bounds of
/// `state`/`degrees`.
pub(crate) fn execute<O: GraphOp>(
    op: &O,
    operand: HostOperand<'_>,
    csc: &CscMatrix,
    inputs: StepInputs<'_, O::Value>,
    partition: &RowPartition,
    threads: usize,
    scratch: &mut HostScratch,
) -> (Vec<Update<O::Value>>, Walk) {
    let walk = Walk::cheaper(operand, csc, inputs.active);
    let updates = execute_walk(op, walk, operand, csc, inputs, partition, threads, scratch);
    (updates, walk)
}

/// [`execute`] with the walk given instead of chosen. Results are
/// bit-identical for either walk and any thread count.
#[allow(clippy::too_many_arguments)]
fn execute_walk<O: GraphOp>(
    op: &O,
    walk: Walk,
    operand: HostOperand<'_>,
    csc: &CscMatrix,
    inputs: StepInputs<'_, O::Value>,
    partition: &RowPartition,
    threads: usize,
    scratch: &mut HostScratch,
) -> Vec<Update<O::Value>> {
    if inputs.active.is_empty() {
        return Vec::new();
    }
    let (slot, touched) = scratch.begin(csc.rows().max(csc.cols()));
    let updates = match walk {
        Walk::Pull => pull(op, operand, inputs, slot, partition, threads),
        Walk::Push => push(op, csc, inputs, slot, touched),
    };
    scratch.end();
    updates
}

/// Runs `work(part_index, out)` for every partition on `workers`
/// threads, filling one output vector per partition, and concatenates
/// them in partition order. Partitions are contiguous ascending row
/// ranges, so the concatenation is sorted by destination by
/// construction.
fn fan_out<V, F>(parts: usize, workers: usize, work: F) -> Vec<Update<V>>
where
    V: Send,
    F: Fn(usize, &mut Vec<Update<V>>) + Sync,
{
    let mut outs: Vec<Vec<Update<V>>> = (0..parts).map(|_| Vec::new()).collect();
    let workers = workers.min(parts).max(1);
    if workers <= 1 {
        for (p, out) in outs.iter_mut().enumerate() {
            work(p, out);
        }
    } else {
        // Contiguous chunks of partitions per worker; each thread owns a
        // disjoint slice of the output table, so no synchronization is
        // needed beyond the scope join.
        let chunk = parts.div_ceil(workers);
        std::thread::scope(|s| {
            for (t, outs_chunk) in outs.chunks_mut(chunk).enumerate() {
                let work = &work;
                s.spawn(move || {
                    for (i, out) in outs_chunk.iter_mut().enumerate() {
                        work(t * chunk + i, out);
                    }
                });
            }
        });
    }
    let total = outs.iter().map(Vec::len).sum();
    let mut updates = Vec::with_capacity(total);
    for mut o in outs {
        updates.append(&mut o);
    }
    updates
}

/// Pull: per-partition row loops over the operand matrix in whichever
/// storage format was decided. Each active source's slot holds its
/// position in the frontier, then every row reduces its active entries
/// in ascending column (= source) order — the same per-destination
/// reduce order as the golden model's active-major walk over sorted
/// actives, whichever format materializes the row.
fn pull<O: GraphOp>(
    op: &O,
    operand: HostOperand<'_>,
    inputs: StepInputs<'_, O::Value>,
    slot: &mut [u32],
    partition: &RowPartition,
    threads: usize,
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    for (k, &(src, _)) in active.iter().enumerate() {
        slot[src as usize] = k as u32;
    }
    let positions = &*slot;
    let updates = fan_out(partition.len(), threads, |p, out| {
        for dst in partition.range(p) {
            let mut acc: Option<O::Value> = None;
            {
                // One reduce step per stored entry, shared by the three
                // row walks below — the walks differ only in where the
                // (column, weight) pairs come from.
                let mut visit = |si: usize, w: f32| {
                    let k = positions[si];
                    if k != NONE {
                        let fval = active[k as usize].1;
                        let contrib = op.matrix_op(w, fval, state[dst], degrees[si]);
                        acc = Some(match acc.take() {
                            Some(a) => op.reduce(a, contrib),
                            None => contrib,
                        });
                    }
                };
                match operand {
                    HostOperand::Csr(csr) => {
                        let (srcs, weights) = csr.row(dst);
                        for (s, w) in srcs.iter().zip(weights) {
                            visit(*s as usize, *w);
                        }
                    }
                    HostOperand::Bitmap(m) => {
                        for (col, w) in m.iter_row(dst) {
                            visit(col as usize, w);
                        }
                    }
                    HostOperand::Bcsr(m) => {
                        let (br, bc) = m.block_shape();
                        let brow = dst / br;
                        let i = dst % br;
                        // Blocks are ascending by block column, so the
                        // masked cells of local row `i` come out in
                        // ascending source order.
                        for b in m.block_row_ptr()[brow]..m.block_row_ptr()[brow + 1] {
                            let base_col = m.block_col()[b] as usize * bc;
                            let bmask = m.mask()[b];
                            for j in 0..bc {
                                if bmask >> (i * bc + j) & 1 == 1 {
                                    visit(base_col + j, m.values()[b * br * bc + i * bc + j]);
                                }
                            }
                        }
                    }
                }
            }
            if let Some(reduced) = acc {
                let old = state[dst];
                let new = op.vector_op(reduced, old);
                if op.is_update(new, old) {
                    out.push((dst as Idx, new));
                }
            }
        }
    });
    for &(src, _) in active {
        slot[src as usize] = NONE;
    }
    updates
}

/// Push: one pass over the active CSC columns into a dense
/// accumulator. A destination's first contribution takes the next
/// accumulator entry (its slot records which) and sets its touched bit;
/// later contributions reduce into that entry. The outer loop over
/// sorted actives gives every destination its contributions in
/// ascending source order, matching the golden model. The touched set
/// then yields the destinations in ascending order without a sort:
/// O(active edges + rows / 64) in all.
fn push<O: GraphOp>(
    op: &O,
    csc: &CscMatrix,
    inputs: StepInputs<'_, O::Value>,
    slot: &mut [u32],
    touched: &mut [u64],
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    let mut acc: Vec<O::Value> = Vec::new();
    for &(src, fval) in active {
        let deg = degrees[src as usize];
        let (dsts, weights) = csc.col(src as usize);
        for (&d, &w) in dsts.iter().zip(weights) {
            let d = d as usize;
            let contrib = op.matrix_op(w, fval, state[d], deg);
            match slot[d] {
                NONE => {
                    slot[d] = acc.len() as u32;
                    touched[d / 64] |= 1 << (d % 64);
                    acc.push(contrib);
                }
                k => {
                    let a = &mut acc[k as usize];
                    *a = op.reduce(*a, contrib);
                }
            }
        }
    }
    let mut updates = Vec::with_capacity(acc.len());
    for (w, word) in touched[..csc.rows().div_ceil(64)].iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let d = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let reduced = acc[slot[d] as usize];
            slot[d] = NONE;
            let old = state[d];
            let new = op.vector_op(reduced, old);
            if op.is_update(new, old) {
                updates.push((d as Idx, new));
            }
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{apply, SpmvOp};
    use sparse::CooMatrix;

    const WALKS: [Walk; 2] = [Walk::Pull, Walk::Push];

    fn setup(n: usize, nnz: usize, seed: u64) -> (CsrMatrix, CscMatrix, Vec<u32>) {
        let m = sparse::generate::uniform(n, n, nnz, seed).unwrap();
        let degrees = m.col_counts().into_iter().map(|c| c as u32).collect();
        (CsrMatrix::from(&m), CscMatrix::from(&m), degrees)
    }

    /// [`execute_walk`] on a fresh scratch.
    fn forced<O: GraphOp>(
        op: &O,
        walk: Walk,
        operand: HostOperand<'_>,
        csc: &CscMatrix,
        inputs: StepInputs<'_, O::Value>,
        parts: &RowPartition,
        threads: usize,
    ) -> Vec<Update<O::Value>> {
        let mut scratch = HostScratch::default();
        execute_walk(op, walk, operand, csc, inputs, parts, threads, &mut scratch)
    }

    #[derive(Debug)]
    struct MinPlus;
    impl GraphOp for MinPlus {
        type Value = f32;
        fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
            src + w
        }
        fn reduce(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn is_update(&self, new: f32, old: f32) -> bool {
            new < old
        }
    }

    /// The BFS op of the `graph` crate: parents propagate, the smallest
    /// wins, only unvisited destinations update.
    #[derive(Debug)]
    struct Bfs;
    impl GraphOp for Bfs {
        type Value = u32;
        fn matrix_op(&self, _w: f32, src: u32, _dst: u32, _deg: u32) -> u32 {
            src
        }
        fn reduce(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn is_update(&self, _new: u32, old: u32) -> bool {
            old == u32::MAX
        }
    }

    /// The PageRank op of the `graph` crate: degree-normalized sums,
    /// then damping in `vector_op`; every destination updates.
    #[derive(Debug)]
    struct PageRank;
    impl GraphOp for PageRank {
        type Value = f32;
        fn matrix_op(&self, _w: f32, src: f32, _dst: f32, deg: u32) -> f32 {
            src / deg.max(1) as f32
        }
        fn reduce(&self, a: f32, b: f32) -> f32 {
            a + b
        }
        fn vector_op(&self, updated: f32, _old: f32) -> f32 {
            0.15 / 300.0 + 0.85 * updated
        }
        fn is_update(&self, _new: f32, _old: f32) -> bool {
            true
        }
    }

    /// Bit patterns of a value, so float results compare with `to_bits`.
    trait Bits {
        fn bits(&self) -> u32;
    }
    impl Bits for f32 {
        fn bits(&self) -> u32 {
            self.to_bits()
        }
    }
    impl Bits for u32 {
        fn bits(&self) -> u32 {
            *self
        }
    }

    fn assert_bit_identical<V: Bits>(got: &[Update<V>], want: &[Update<V>], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: update count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.0, w.0, "{what}: destination");
            assert_eq!(g.1.bits(), w.1.bits(), "{what}: bit-exact at dst {}", g.0);
        }
    }

    #[test]
    fn both_paths_match_golden_model() {
        let n = 300;
        let (csr, csc, degrees) = setup(n, 4000, 17);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![0.0f32; n];
        for active_n in [1usize, 7, 75, 300] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 1.0 + i as f32))
                .collect();
            let want = apply(&SpmvOp, &csc, &active, &state, &degrees);
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            for walk in WALKS {
                let got = forced(
                    &SpmvOp,
                    walk,
                    HostOperand::Csr(&csr),
                    &csc,
                    inputs,
                    &parts,
                    1,
                );
                assert_bit_identical(&got, &want, &format!("{walk:?} x {active_n} actives"));
            }
        }
    }

    #[test]
    fn empty_frontier_yields_nothing() {
        let (csr, csc, degrees) = setup(64, 500, 3);
        let parts = RowPartition::nnz_balanced_csr(&csr, 4);
        let state = vec![0.0f32; 64];
        let inputs = StepInputs {
            active: &[],
            state: &state,
            degrees: &degrees,
        };
        for walk in WALKS {
            let got = forced(
                &SpmvOp,
                walk,
                HostOperand::Csr(&csr),
                &csc,
                inputs,
                &parts,
                4,
            );
            assert!(got.is_empty());
        }
    }

    #[test]
    fn min_reduce_op_matches_golden_model() {
        let (csr, csc, degrees) = setup(200, 2500, 29);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![f32::INFINITY; 200];
        let active: Vec<(Idx, f32)> = vec![(0, 0.0), (13, 2.5), (101, 1.0)];
        let want = apply(&MinPlus, &csc, &active, &state, &degrees);
        let inputs = StepInputs {
            active: &active,
            state: &state,
            degrees: &degrees,
        };
        for walk in WALKS {
            let got = forced(
                &MinPlus,
                walk,
                HostOperand::Csr(&csr),
                &csc,
                inputs,
                &parts,
                1,
            );
            assert_eq!(got, want, "{walk:?}");
        }
    }

    /// A banded matrix (dense 2x2-blockable runs), so bitmap segments
    /// and BCSR blocks are non-trivial; odd `n` leaves the last BCSR
    /// block row ragged. Columns past `n - 16` stay empty (zero
    /// out-degree).
    fn banded(n: usize) -> CooMatrix {
        let mut ts = Vec::new();
        for r in 0..n as u32 {
            let base = (r / 2) * 2 % (n as u32 - 16);
            for k in 0..8 {
                ts.push((r, base + k, 0.5 + (r + k) as f32 * 0.25));
            }
        }
        CooMatrix::from_triplets(n, n, ts).unwrap()
    }

    /// Every pull operand format walks rows in ascending source order,
    /// so all three must be bit-identical to the golden model —
    /// including a clustered matrix where bitmap segments and BCSR
    /// blocks are non-trivial, and partitions that split blocks.
    #[test]
    fn format_operands_are_bit_identical_to_golden() {
        let n = 257;
        let coo = banded(n);
        let csc = CscMatrix::from(&coo);
        let csr = CsrMatrix::from(&coo);
        let bitmap = BitmapCsr::from(&coo);
        let bcsr = BcsrMatrix::from(&coo);
        assert!(bcsr.block_shape().0 * bcsr.block_shape().1 > 1, "blocked");
        let degrees: Vec<u32> = coo.col_counts().into_iter().map(|c| c as u32).collect();
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![0.0f32; n];
        for active_n in [1usize, 19, n] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 1.0 + i as f32 * 0.125))
                .collect();
            let want = apply(&SpmvOp, &csc, &active, &state, &degrees);
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            for (name, operand) in [
                ("csr", HostOperand::Csr(&csr)),
                ("bitmap", HostOperand::Bitmap(&bitmap)),
                ("bcsr", HostOperand::Bcsr(&bcsr)),
            ] {
                for threads in [1usize, 4] {
                    let got = forced(&SpmvOp, Walk::Pull, operand, &csc, inputs, &parts, threads);
                    assert_bit_identical(&got, &want, &format!("{name} x {active_n} actives"));
                }
            }
        }
    }

    /// The ROADMAP flagged the scoped-thread fan-out as never having
    /// run with >1 CPU (single-CPU container ⇒ the thread budget folds
    /// to the sequential walk). Force the threaded pull over a genuine
    /// multi-partition split and assert it is bit-identical to the
    /// sequential walk and to the golden model — for both walks, an f32
    /// min-reduce included, at several thread counts.
    #[test]
    fn forced_fan_out_is_bit_identical_to_sequential() {
        let n = 600;
        let (csr, csc, degrees) = setup(n, 9000, 41);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        assert!(parts.len() >= 4, "split must be multi-partition");
        let zero_state = vec![0.0f32; n];
        let inf_state = vec![f32::INFINITY; n];
        for active_n in [3usize, 80, 600] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 0.5 + i as f32))
                .collect();
            for walk in WALKS {
                let spmv_inputs = StepInputs {
                    active: &active,
                    state: &zero_state,
                    degrees: &degrees,
                };
                let minplus_inputs = StepInputs {
                    active: &active,
                    state: &inf_state,
                    degrees: &degrees,
                };
                let csr_op = HostOperand::Csr(&csr);
                let seq = forced(&SpmvOp, walk, csr_op, &csc, spmv_inputs, &parts, 1);
                let seq_min = forced(&MinPlus, walk, csr_op, &csc, minplus_inputs, &parts, 1);
                let golden = apply(&SpmvOp, &csc, &active, &zero_state, &degrees);
                for threads in [2usize, 4, 8] {
                    let par = forced(&SpmvOp, walk, csr_op, &csc, spmv_inputs, &parts, threads);
                    assert_eq!(par.len(), seq.len(), "{walk:?} t={threads}");
                    for ((pd, pv), (sd, sv)) in par.iter().zip(&seq) {
                        assert_eq!(pd, sd);
                        assert_eq!(pv.to_bits(), sv.to_bits(), "dst {pd}, {walk:?} t={threads}");
                    }
                    assert_eq!(par, golden, "{walk:?} t={threads} vs golden model");
                    let par_min = forced(
                        &MinPlus,
                        walk,
                        csr_op,
                        &csc,
                        minplus_inputs,
                        &parts,
                        threads,
                    );
                    assert_eq!(par_min, seq_min, "min-reduce {walk:?} t={threads}");
                }
            }
        }
    }

    /// Pins the selector rule: push exactly while the active sources'
    /// out-edges are fewer than the entries a pull scans — nnz for CSR
    /// and bitmap, every block cell (fill included) for BCSR.
    #[test]
    fn selector_pushes_below_stored_entries_and_pulls_at_or_above() {
        let n = 120;
        let coo = banded(n);
        let csc = CscMatrix::from(&coo);
        let csr = CsrMatrix::from(&coo);
        let bitmap = BitmapCsr::from(&coo);
        let bcsr = BcsrMatrix::from(&coo);
        let nnz = coo.nnz();
        let (br, bc) = bcsr.block_shape();
        assert_eq!(HostOperand::Csr(&csr).stored_entries(), nnz);
        assert_eq!(HostOperand::Bitmap(&bitmap).stored_entries(), nnz);
        assert_eq!(
            HostOperand::Bcsr(&bcsr).stored_entries(),
            bcsr.block_count() * br * bc
        );
        assert!(
            bcsr.block_count() * br * bc > nnz,
            "banded blocks carry fill"
        );
        let all: Vec<(Idx, f32)> = (0..n as Idx).map(|v| (v, 1.0)).collect();
        let without =
            |v: Idx| -> Vec<(Idx, f32)> { all.iter().copied().filter(|&(u, _)| u != v).collect() };
        let busy = (0..n as Idx)
            .find(|&v| csc.col_nnz(v as usize) > 0)
            .unwrap();
        let idle = (0..n as Idx)
            .find(|&v| csc.col_nnz(v as usize) == 0)
            .unwrap();
        for operand in [HostOperand::Csr(&csr), HostOperand::Bitmap(&bitmap)] {
            // Every out-edge active: Σ out-degree = nnz, not below it.
            assert_eq!(Walk::cheaper(operand, &csc, &all), Walk::Pull);
            // An idle source adds no work: still exactly nnz.
            assert_eq!(Walk::cheaper(operand, &csc, &without(idle)), Walk::Pull);
            // One busy source fewer: nnz - deg < nnz.
            assert_eq!(Walk::cheaper(operand, &csc, &without(busy)), Walk::Push);
            assert_eq!(Walk::cheaper::<f32>(operand, &csc, &[]), Walk::Push);
        }
        // BCSR's fill makes a full pull dearer than pushing every edge.
        assert_eq!(
            Walk::cheaper(HostOperand::Bcsr(&bcsr), &csc, &all),
            Walk::Push
        );
    }

    /// The fixed operands of one grid column.
    struct Grid<'a> {
        operand: HostOperand<'a>,
        csc: &'a CscMatrix,
        degrees: &'a [u32],
        parts: &'a RowPartition,
    }

    impl Grid<'_> {
        /// Runs one step by `walk` (the selected one when `None`) on
        /// `threads` and asserts it is `to_bits`-identical to [`apply`].
        fn check<O: GraphOp>(
            &self,
            op: &O,
            (walk, threads): (Option<Walk>, usize),
            active: &[(Idx, O::Value)],
            state: &[O::Value],
            scratch: &mut HostScratch,
            what: &str,
        ) where
            O::Value: Bits,
        {
            let inputs = StepInputs {
                active,
                state,
                degrees: self.degrees,
            };
            let got = match walk {
                Some(w) => execute_walk(
                    op,
                    w,
                    self.operand,
                    self.csc,
                    inputs,
                    self.parts,
                    threads,
                    scratch,
                ),
                None => {
                    execute(
                        op,
                        self.operand,
                        self.csc,
                        inputs,
                        self.parts,
                        threads,
                        scratch,
                    )
                    .0
                }
            };
            let want = apply(op, self.csc, active, state, self.degrees);
            assert_bit_identical(&got, &want, &format!("{what} {walk:?} t={threads}"));
        }
    }

    /// The walk grid: every pull operand format × the SpMV, min-plus,
    /// BFS and PageRank ops × frontiers {empty, one vertex, one below
    /// the selector's crossover, at it, one above it, all}, through one
    /// scratch reused across every step. Forced pull (sequential and
    /// threaded), forced push and the selected walk are all
    /// `to_bits`-identical to [`apply`].
    #[test]
    fn walk_grid_is_bit_identical_to_golden() {
        let n = 301;
        let coo = banded(n);
        let csc = CscMatrix::from(&coo);
        let csr = CsrMatrix::from(&coo);
        let bitmap = BitmapCsr::from(&coo);
        let bcsr = BcsrMatrix::from(&coo);
        let degrees: Vec<u32> = coo.col_counts().into_iter().map(|c| c as u32).collect();
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        // Frontiers are prefixes of the vertices by descending
        // out-degree, so the active out-edges grow monotonically.
        let mut order: Vec<Idx> = (0..n as Idx).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(csc.col_nnz(v as usize)));
        let frontier = |k: usize| -> Vec<Idx> {
            let mut f = order[..k].to_vec();
            f.sort_unstable();
            f
        };
        let zeros = vec![0.0f32; n];
        let dist: Vec<f32> = (0..n)
            .map(|v| {
                if v % 5 == 0 {
                    v as f32 * 0.3
                } else {
                    f32::INFINITY
                }
            })
            .collect();
        let visited: Vec<u32> = (0..n as u32)
            .map(|v| if v % 3 == 0 { v } else { u32::MAX })
            .collect();
        let mut scratch = HostScratch::default();
        let mut cells = 0;
        for (name, operand) in [
            ("csr", HostOperand::Csr(&csr)),
            ("bitmap", HostOperand::Bitmap(&bitmap)),
            ("bcsr", HostOperand::Bcsr(&bcsr)),
        ] {
            let grid = Grid {
                operand,
                csc: &csc,
                degrees: &degrees,
                parts: &parts,
            };
            // The smallest prefix the selector pulls (n when it never does).
            let crossover = (0..=n)
                .find(|&k| {
                    let f: Vec<(Idx, ())> = frontier(k).into_iter().map(|v| (v, ())).collect();
                    Walk::cheaper(operand, &csc, &f) == Walk::Pull
                })
                .unwrap_or(n);
            let mut sizes = vec![
                0,
                1,
                crossover.saturating_sub(1),
                crossover,
                crossover + 1,
                n,
            ];
            sizes.retain(|&k| k <= n);
            sizes.sort_unstable();
            sizes.dedup();
            for k in sizes {
                let f = frontier(k);
                let values: Vec<(Idx, f32)> =
                    f.iter().map(|&v| (v, 0.1 + v as f32 * 0.37)).collect();
                let parents: Vec<(Idx, u32)> = f.iter().map(|&v| (v, v)).collect();
                let ranks: Vec<(Idx, f32)> =
                    f.iter().map(|&v| (v, 1.0 / (v as f32 + 3.0))).collect();
                for how in [
                    (Some(Walk::Pull), 1),
                    (Some(Walk::Pull), 3),
                    (Some(Walk::Push), 1),
                    (None, 2),
                ] {
                    let what = format!("{name} k={k}/{n} (crossover {crossover})");
                    let s = &mut scratch;
                    grid.check(&SpmvOp, how, &values, &zeros, s, &format!("{what} spmv"));
                    grid.check(
                        &MinPlus,
                        how,
                        &values,
                        &dist,
                        s,
                        &format!("{what} min-plus"),
                    );
                    grid.check(&Bfs, how, &parents, &visited, s, &format!("{what} bfs"));
                    grid.check(
                        &PageRank,
                        how,
                        &ranks,
                        &zeros,
                        s,
                        &format!("{what} pagerank"),
                    );
                    cells += 1;
                }
            }
        }
        assert!(cells >= 3 * 4 * 4, "grid covered {cells} cells");
    }

    /// A step that unwinds mid-walk (a panicking op) leaves scratch
    /// slots set; the next step on the same scratch must still be exact.
    #[test]
    fn scratch_recovers_after_a_panicking_step() {
        #[derive(Debug)]
        struct PanicsOn(f32);
        impl GraphOp for PanicsOn {
            type Value = f32;
            fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
                assert!(src != self.0, "poisoned source");
                src * w
            }
            fn reduce(&self, a: f32, b: f32) -> f32 {
                a + b
            }
        }
        let n = 200;
        let (csr, csc, degrees) = setup(n, 3000, 5);
        let parts = RowPartition::nnz_balanced_csr(&csr, 4);
        let state = vec![0.0f32; n];
        let op = PanicsOn(-1.0);
        let mut scratch = HostScratch::default();
        for walk in WALKS {
            let poisoned: Vec<(Idx, f32)> = (0..n as Idx)
                .map(|v| (v, if v == 150 { -1.0 } else { 2.0 }))
                .collect();
            let inputs = StepInputs {
                active: &poisoned,
                state: &state,
                degrees: &degrees,
            };
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_walk(
                    &op,
                    walk,
                    HostOperand::Csr(&csr),
                    &csc,
                    inputs,
                    &parts,
                    1,
                    &mut scratch,
                )
            }));
            assert!(unwound.is_err(), "{walk:?} must hit the poisoned source");
            let active: Vec<(Idx, f32)> = (0..n as Idx)
                .step_by(7)
                .map(|v| (v, 0.5 + v as f32))
                .collect();
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            for next in WALKS {
                let got = execute_walk(
                    &op,
                    next,
                    HostOperand::Csr(&csr),
                    &csc,
                    inputs,
                    &parts,
                    1,
                    &mut scratch,
                );
                let want = apply(&op, &csc, &active, &state, &degrees);
                assert_bit_identical(&got, &want, &format!("{next:?} after a {walk:?} unwind"));
            }
        }
    }
}
